"""Smoke test of the benchmark at tiny input sizes.

    python3 -m pytest perfbench/tests -q

Runs every workload end to end through ``run.py`` (untraced and traced)
and checks the result line against ``BENCHMARK.json``; then feeds the
job loop a deliberately wrong oracle answer and checks that it is
counted as a failed job rather than crashing the run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]

sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import catalog  # noqa: E402
import tracing  # noqa: E402


def run_bench(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.5", "--trace", str(trace),
         "--sizes", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def test_catalog_matches_benchmark_json():
    assert WORKLOAD_NAMES == list(catalog.WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert w["why"] == catalog.WORKLOADS[w["name"]]
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == catalog.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]} \
        == {n: (u, b) for n, (u, b, _) in tracing.LAYER_METRICS.items()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_is_reported_with_its_unit(workload, trace):
    report, result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, report["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert report["fail_ratio"] == 0.0
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    for fact in ("nproc", "blas", "numba_importable", "python", "numpy",
                 "scipy", "git_commit", "src_stablerkhs_lines"):
        assert fact in report["facts"]
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        if workload != "identify-tune":
            assert values["sysid.rels_estimate.calls"] == 0
            assert values["sysid.regression_matrix.calls"] == 0
        if workload != "norm-exact":
            assert values["opnorm.inf_one_norm_exact.calls"] == 0
            assert values["opnorm.gray_steps"] == 0
    else:
        assert {t: len(v) for t, v in report["job_seconds"].items()} \
            == report["samples"]["job_s_p50"]
        assert sum(report["samples"]["job_s_p50"].values()) \
            == result["attempted"]
        unscaled = report["job_seconds_unscaled"]
        assert {t: len(v) for t, v in unscaled.items()} \
            == report["samples"]["job_s_p50"]
        if workload != "norm-exact":
            assert unscaled == report["job_seconds"]


def test_job_time_is_the_mean_of_per_template_medians():
    # With three samples the Harrell-Davis weights are 7/27, 13/27, 7/27.
    jobs = [("cheap", 1.0), ("dear", 2.0), ("cheap", 1.2), ("dear", 2.6),
            ("cheap", 0.9), ("dear", 2.1)]
    cheap = (7 * 0.9 + 13 * 1.0 + 7 * 1.2) / 27
    dear = (7 * 2.0 + 13 * 2.1 + 7 * 2.6) / 27
    assert catalog.job_s_p50(jobs) == pytest.approx((cheap + dear) / 2)
    assert catalog.median_hd([4.0]) == 4.0
    assert catalog.median_hd([3.0, 1.0, 2.0, 4.0]) == pytest.approx(2.5)


def test_wrong_oracle_answer_counts_as_failure(monkeypatch):
    import workloads
    import worker

    monkeypatch.setitem(workloads.VERDICTS, "stable-spline",
                        "AnalyticallyStable")
    wl = workloads.ClassifyZoo(seed=5, sizes="tiny")
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        records = worker.run_rounds(wl, [wl.make_job(0)], 0.0, workdir)
    finally:
        shutil.rmtree(workdir)
        if not any(scratch.iterdir()):
            scratch.rmdir()
    failed = [r for r in records if r.problems]
    assert [r.index for r in failed] == [0]
    assert "verdict EvidenceStable, expected AnalyticallyStable" \
        in failed[0].problems[0]
