"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload classify-zoo --seed 1 --seconds 18 --trace 0

Run from anywhere inside a checkout of the repository; the package is
imported from ``src/`` of that checkout, nothing is installed. Every
measurement happens in fresh Python processes (``worker.py``), started
one at a time:

* set-up samples: fresh interpreters that import ``stablerkhs.cli`` and
  build the first round of inputs; ``setup_s`` is their median, the main
  run's own set-up included. One of them also replays job 0, and its
  output digest must equal the main run's (byte identity across
  processes);
* the main run: the closed loop of jobs, checked by the oracles.

Job times of a ``probed`` workload (norm-exact) are scaled to a reference
interpreter speed measured next to each job (``worker.interpreter_probe``);
the report keeps the unscaled times as well.

With ``--trace 0`` the last line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (the main process
then runs under ``-X importtime``). The line before it is a report with
the run facts, sample counts, failures and ``fail_ratio``; untraced,
also every job's time, by template.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from catalog import (END_TO_END_UNITS, SIZES, WORKLOADS, job_s_p50,
                     seconds_by_template)
from tracing import LAYER_METRICS, parse_importtime

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"

#: Fresh interpreters whose set-up is timed, the main run included.
SETUP_SAMPLES = 3

#: Every child must end before this many seconds after start.
DEADLINE_S = 165.0


class ChildFailed(RuntimeError):
    pass


def spawn(argv: list[str], env: dict[str, str], deadline: float,
          python_flags: tuple[str, ...] = ()) -> tuple[dict, float, str]:
    """Run a worker to completion; return (its result, spawn time, stderr)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("out of time before starting a worker")
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, *python_flags, str(WORKER), *argv],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"worker {argv[0]} exceeded the deadline") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise ChildFailed(f"worker {argv[0]} exited with {proc.returncode}")
    sys.stderr.writelines(line for line in proc.stderr.splitlines(True)
                          if not line.startswith("import time:"))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise ChildFailed(f"worker {argv[0]} printed no result")
    return json.loads(lines[-1]), started, proc.stderr


def source_facts() -> dict:
    files = sorted((SRC / "stablerkhs").glob("*.py"))
    lines = sum(len(f.read_text(encoding="utf-8").splitlines()) for f in files)
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_stablerkhs_lines": lines}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sizes", choices=SIZES, default="paper",
                        help="input sizes; tiny is for the smoke test")
    args = parser.parse_args()

    if not (SRC / "stablerkhs" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'stablerkhs'}; run from "
              f"a full checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--sizes", args.sizes, "--workdir", str(workdir)]
    try:
        setup_s = []
        setup_children = SETUP_SAMPLES - 1 if args.trace == 0 else 1
        for k in range(setup_children):
            extra = ["--replay"] if k == 0 else []
            out, started, _ = spawn(["setup", *common, *extra], env, deadline)
            setup_s.append(out["setup_done"] - started)
            if k == 0:
                replay_digest = out["job0_digest"]
        flags = ("-X", "importtime") if args.trace else ()
        main_out, started, stderr = spawn(
            ["run", *common, "--seconds", str(args.seconds),
             "--trace", str(args.trace)], env, deadline, flags)
        setup_s.append(main_out["setup_done"] - started)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.exists() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    jobs = main_out["jobs"]
    if jobs[0]["digest"] != replay_digest:
        jobs[0]["problems"].append("job 0 replayed in a fresh process gave "
                                   "different output bytes")
    failed = [j for j in jobs if j["problems"]]
    timed = [j["seconds"] * j["scale"] for j in jobs]
    if args.trace:
        layers = dict(main_out["layers"])
        layers.update(parse_importtime(stderr))
        layers["setup.inputs_s"] = main_out["inputs_s"]
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, (unit, _, _) in LAYER_METRICS.items()}
        samples = {"traced_jobs": len(jobs)}
        predictions = {name: moves
                       for name, (_, _, moves) in LAYER_METRICS.items()}
    else:
        pairs = [(j["template"], j["seconds"] * j["scale"]) for j in jobs]
        by_template = seconds_by_template(pairs)
        values = {"setup_s": statistics.median(setup_s),
                  "job_s_p50": job_s_p50(pairs),
                  "jobs_per_s": len(timed) / sum(timed),
                  "peak_rss_mb": main_out["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        samples = {"setup_s": len(setup_s),
                   "job_s_p50": {t: len(v) for t, v in by_template.items()},
                   "jobs_per_s": len(timed), "peak_rss_mb": 1}
        predictions = {}
    report = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "sizes": args.sizes,
        "trace": args.trace,
        "load": "closed loop, one client, one fresh process per run",
        "samples": samples,
        "fail_ratio": len(failed) / len(jobs),
        "failures": [{"job": j["index"], "problems": j["problems"]}
                     for j in failed],
        "facts": {**main_out["facts"], **source_facts()},
    }
    if predictions:
        report["moves"] = predictions
    else:
        report["job_seconds"] = by_template
        report["job_seconds_unscaled"] = seconds_by_template(
            [(j["template"], j["seconds"]) for j in jobs])
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not failed, "attempted": len(jobs),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
