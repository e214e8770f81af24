"""The four workloads: seeded jobs, their execution and their oracles.

Job ``i`` of a workload is derived from ``numpy.random.default_rng([seed,
i])`` alone, so the same seed gives the same inputs. ``run`` is the timed
part of a job; it drives the package only through ``stablerkhs.cli.main``
with generated argv and through the library calls the workload names, and
it always goes through module attributes so that traced runs see the
calls. ``check`` is the untimed oracle; it returns a list of problems
(empty when the job is correct) and never raises for a wrong answer.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from stablerkhs import basis, cli, kernels, opnorm, stability, sysid

from catalog import SIZES

#: The identify command's default regularization grid.
GAMMAS = tuple(10.0 ** e for e in range(-2, 7))

#: Largest order the brute-force oracle enumerates (2^18 sign vectors).
BRUTE_FORCE_MAX_D = 18

#: Known verdict of every classify-zoo template.
VERDICTS = {
    "stable-spline": "EvidenceStable",
    "gaussian": "AnalyticallyUnstable",
    "translation-invariant": "AnalyticallyUnstable",
    "rank-one:power:-0.75": "AnalyticallyUnstable",
    "rank-one:power:-2": "AnalyticallyStable",
    "diagonal:power:-1": "AnalyticallyUnstable",
    "diagonal:power:-2": "AnalyticallyStable",
    "mercer:laguerre": "EvidenceStable",
    "mercer:random": "EvidenceStable",
}


@dataclass
class Job:
    index: int
    template: str
    argv: list[str] = field(default_factory=list)
    params: dict[str, Any] = field(default_factory=dict)


@dataclass
class Outcome:
    """What a job produced: CLI stdout and return codes, library results."""

    stdout: list[str] = field(default_factory=list)
    codes: list[int] = field(default_factory=list)
    results: dict[str, Any] = field(default_factory=dict)


def _num(x: float) -> str:
    return repr(float(x))


def _main(argv: list[str], outcome: Outcome) -> None:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        outcome.codes.append(cli.main(argv))
    outcome.stdout.append(buf.getvalue())


def _codes_problem(outcome: Outcome) -> list[str]:
    bad = [c for c in outcome.codes if c != 0]
    return [f"CLI exit codes {outcome.codes}"] if bad else []


def _rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(b), 1e-300)


def _kernel_argv(config: dict[str, Any]) -> list[str]:
    argv = ["--kernel", config["family"]]
    for key in ("alpha", "width", "h", "v", "g", "basis", "pole", "count",
                "window", "eigenvalues"):
        if key in config:
            value = config[key]
            argv += [f"--{key}",
                     _num(value) if isinstance(value, float) else str(value)]
    return argv


class Workload:
    """One workload: how many jobs make a round, and how to make,
    run and check job ``i``."""

    name = ""
    round_len = 1
    #: Whether job times are scaled by ``worker.interpreter_probe``.
    probed = False

    def __init__(self, seed: int, sizes: str = "paper") -> None:
        self.seed = seed
        self.size = SIZES[sizes]

    def rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, index])

    def make_job(self, index: int) -> Job:
        raise NotImplementedError

    def run(self, job: Job, outdir: str) -> Outcome:
        raise NotImplementedError

    def check(self, job: Job, outdir: str, outcome: Outcome) -> list[str]:
        raise NotImplementedError


class ClassifyZoo(Workload):
    name = "classify-zoo"
    round_len = len(VERDICTS)

    def make_job(self, index: int) -> Job:
        rng = self.rng(index)
        template = list(VERDICTS)[index % self.round_len]
        family, _, law = template.partition(":")
        if template == "stable-spline":
            config = {"family": family, "alpha": float(rng.uniform(0.80, 0.94))}
        elif template == "gaussian":
            config = {"family": family, "width": float(rng.uniform(0.5, 8.0))}
        elif template == "translation-invariant":
            config = {"family": family,
                      "h": f"geometric:{_num(rng.uniform(0.3, 0.9))}"}
        elif template == "mercer:laguerre":
            config = {"family": family, "basis": "laguerre", "count": 20,
                      "window": 400, "pole": float(rng.uniform(0.35, 0.8)),
                      "eigenvalues": "power:-4"}
        elif template == "mercer:random":
            config = {"family": family, "basis": "random", "count": 32,
                      "window": 128,
                      "eigenvalues": f"power:{_num(rng.uniform(-5.0, -3.0))}"}
        else:
            config = {"family": family, "v" if family == "rank-one" else "g": law}
        argv = ["classify", *_kernel_argv(config),
                "--seed", str(int(rng.integers(2 ** 31)))]
        synth = ["synth", "--basis", "laguerre", "--count", "20",
                 "--window", "400", "--pole", _num(rng.uniform(0.35, 0.8)),
                 "--eigenvalues", "power:-4", "--bound", "100"]
        return Job(index, template, argv, {"kernel": config, "synth": synth})

    def run(self, job: Job, outdir: str) -> Outcome:
        out = Outcome()
        _main([*job.argv, "--output-dir", outdir], out)
        _main(job.params["synth"], out)
        return out

    def check(self, job: Job, outdir: str, outcome: Outcome) -> list[str]:
        problems = _codes_problem(outcome)
        if problems:
            return problems
        report = json.loads(outcome.stdout[0])
        expected = VERDICTS[job.template]
        if report["verdict"] != expected:
            problems.append(f"{job.template}: verdict {report['verdict']}, "
                            f"expected {expected}")
        spec = kernels.spec_from_config(job.params["kernel"])
        for test in report["tests"]:
            if test["name"] != "norm_growth":
                continue
            big = kernels.truncate(spec, max(test["grid"])).entries
            for d, value, signs in zip(test["grid"], test["values"],
                                       test["extra"]["witnesses"]):
                u = np.asarray(signs, dtype=float)
                q = float(u @ big[:d, :d] @ u)
                if not _rel_close(q, value, 1e-9):
                    problems.append(f"{job.template}: witness at d={d} gives "
                                    f"{q!r}, reported {value!r}")
        if "bounded_l1" not in json.loads(outcome.stdout[1]):
            problems.append("synth --bound printed no bounded_l1 block")
        return problems


class SpectrumPaper(Workload):
    name = "spectrum-paper"

    def make_job(self, index: int) -> Job:
        alpha = float(self.rng(index).uniform(0.90, 0.97))
        argv = ["spectrum", "--kernel", "stable-spline", "--alpha", _num(alpha),
                "--grid", self.size["grid"], "--track", self.size["track"]]
        return Job(index, "stable-spline", argv, {"alpha": alpha})

    def run(self, job: Job, outdir: str) -> Outcome:
        out = Outcome()
        _main([*job.argv, "--output-dir", outdir], out)
        return out

    def check(self, job: Job, outdir: str, outcome: Outcome) -> list[str]:
        problems = _codes_problem(outcome)
        if problems:
            return problems
        with open(os.path.join(outdir, "eigenvalue_paths.csv"),
                  encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        tracked = [int(c.partition("_")[2]) for c in header[1:]]
        paths = np.array([[float(x) for x in row[1:]] for row in body])
        scale = np.abs(paths).max()
        if np.any(np.diff(paths, axis=0) < -1e-12 * scale):
            problems.append("an eigenvalue path decreases along d")
        d = int(body[-1][0])
        if d != self.size["final_d"]:
            problems.append(f"last grid order {d}, expected "
                            f"{self.size['final_d']}")
        t = np.arange(1, d + 1, dtype=float)
        window = job.params["alpha"] ** np.maximum.outer(t, t)
        ref = np.linalg.eigvalsh(window)[::-1]
        got = paths[-1]
        want = ref[np.array(tracked) - 1]
        err = float(np.abs(got - want).max())
        if err > 1e-10 * ref[0]:
            problems.append(f"tracked eigenvalues at d={d} differ from "
                            f"eigvalsh by {err:.3e} (scale {ref[0]:.3e})")
        return problems


class IdentifyTune(Workload):
    name = "identify-tune"

    def make_job(self, index: int) -> Job:
        seed = int(self.rng(index).integers(2 ** 31))
        n, window = self.size["n"], self.size["window"]
        # The identify command's default truth, input and noise.
        truth = sysid.decaying_exponential_mix([4.0, -3.0], [0.9, 0.8], window)
        problem, _ = sysid.simulate(truth, "white", n, 0.1, seed=seed,
                                    window=window)
        argv = ["identify", "--seed", str(seed), "--n", str(n),
                "--window", str(window), "--sigma", "0.1", "--alpha", "0.95"]
        return Job(index, "stable-spline", argv, {"problem": problem})

    def run(self, job: Job, outdir: str) -> Outcome:
        out = Outcome()
        gamma, table = sysid.select_gamma(job.params["problem"],
                                          kernels.StableSpline(0.95),
                                          GAMMAS, folds=5)
        out.results = {"gamma": gamma, "press": table}
        _main([*job.argv, "--gamma", _num(gamma), "--output-dir", outdir], out)
        return out

    def check(self, job: Job, outdir: str, outcome: Outcome) -> list[str]:
        problems = _codes_problem(outcome)
        if problems:
            return problems
        summary = json.loads(outcome.stdout[0])
        gap = summary["equivalence_gap_full_rank"]
        if not gap <= 1e-6:
            problems.append(f"full-rank equivalence gap {gap!r} > 1e-6")
        table = outcome.results["press"]
        if sorted(g for g, _ in table) != sorted(GAMMAS):
            problems.append("PRESS table does not cover the gamma grid")
        best = min(press for _, press in table)
        chosen = dict(table).get(outcome.results["gamma"])
        if chosen != best:
            problems.append(f"chosen gamma {outcome.results['gamma']!r} is "
                            f"not the PRESS minimizer")
        return problems


class NormExact(Workload):
    name = "norm-exact"
    round_len = 3
    # Pure interpreter work, the kind whose speed drifts most on a shared
    # host, and few jobs a run: unscaled, its job time spread across runs
    # of the same code by more than the benchmark's bound.
    probed = True

    def make_job(self, index: int) -> Job:
        rng = self.rng(index)
        kind = ("stable-spline", "mercer:random", "mercer:laguerre")[index % 3]
        if kind == "stable-spline":
            config: dict[str, Any] = {"family": kind,
                                      "alpha": float(rng.uniform(0.80, 0.95))}
        elif kind == "mercer:random":
            config = {"family": "mercer", "basis": "random", "count": 32,
                      "window": 128, "seed": int(rng.integers(2 ** 31)),
                      "eigenvalues": "power:-4"}
        else:
            config = {"family": "mercer", "basis": "laguerre", "count": 20,
                      "window": 400, "pole": float(rng.uniform(0.35, 0.8)),
                      "eigenvalues": "power:-4"}
        return Job(index, kind, [], {"spec": kernels.spec_from_config(config)})

    def run(self, job: Job, outdir: str) -> Outcome:
        spec = job.params["spec"]
        scan = stability.norm_growth_scan(spec, self.size["norm_grid"],
                                          method="exact")
        out = Outcome(results={"scan": scan})
        if job.template.startswith("mercer"):
            out.results["ns"] = basis.ns_condition_estimate(
                spec.model, self.size["ns_d"])
        return out

    def check(self, job: Job, outdir: str, outcome: Outcome) -> list[str]:
        problems: list[str] = []
        spec = job.params["spec"]
        for est in outcome.results["scan"].estimates:
            window = kernels.truncate(spec, est.d)
            if est.kind is not opnorm.NormKind.EXACT:
                problems.append(f"d={est.d}: {est.kind.value}, not exact")
            lower = opnorm.trace_lower_bound(window).value
            upper = opnorm.abs_sum_upper_bound(window).value
            if not lower * (1 - 1e-12) <= est.value <= upper * (1 + 1e-12):
                problems.append(f"d={est.d}: {est.value!r} outside "
                                f"[{lower!r}, {upper!r}]")
            if est.d <= BRUTE_FORCE_MAX_D:
                ref, _ = opnorm.brute_force_inf_one_norm(window.entries)
                if not _rel_close(est.value, ref, 1e-9):
                    problems.append(f"d={est.d}: {est.value!r} but brute "
                                    f"force gives {ref!r}")
        ns = outcome.results.get("ns")
        if ns is not None:
            ref = opnorm.inf_one_norm_exact(
                basis.synthesize_kernel(spec.model, ns.d)).value
            if not _rel_close(ns.value, ref, 1e-9):
                problems.append(f"ns_condition_estimate {ns.value!r} but the "
                                f"exact norm of the synthesis is {ref!r}")
        return problems


WORKLOADS = {w.name: w for w in (ClassifyZoo, SpectrumPaper, IdentifyTune,
                                 NormExact)}


def library_digest_items(outcome: Outcome) -> Any:
    """JSON-ready form of a job's in-memory results, for byte identity."""
    out: dict[str, Any] = {}
    for key, value in outcome.results.items():
        if isinstance(value, stability.NormScan):
            value = [(e.d, e.value, e.witness_signs()) for e in value.estimates]
        elif isinstance(value, opnorm.NormEstimate):
            value = (value.d, value.value, value.witness_signs())
        out[key] = value
    return out
