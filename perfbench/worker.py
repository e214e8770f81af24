"""One fresh benchmark process.

``setup`` mode imports the package, builds the first round of inputs and
reports when that finished (``time.monotonic`` is system-wide on Linux,
so the parent subtracts its own spawn time); with ``--replay`` it then
runs job 0 and reports its output digest. ``run`` mode does the same
set-up, then runs whole rounds of jobs in a closed loop with one client
for about ``--seconds`` of timed job time; each job is checked by
its oracle, outside the timed region, before the next one starts. With
``--trace 1`` the budget is split: an untraced pass, then the same jobs
again under the span wrappers. The result is one JSON object on the last
line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

import workloads
from catalog import SIZES, job_s_p50
from tracing import Stats, Tracer, layer_metrics


@dataclass
class JobRecord:
    index: int
    template: str
    seconds: float
    digest: str
    output_bytes: int
    problems: list[str]
    #: PROBE_REF_S over the probe time around the job (1 if unprobed).
    scale: float = 1.0


#: Steps of ``interpreter_probe``.
PROBE_STEPS = 25_000

#: Seconds ``interpreter_probe`` takes on a quiet host (2-vCPU Xeon at
#: 2.0 GHz). A probed job's time times PROBE_REF_S over the probe time
#: around it is the job's time at that speed.
PROBE_REF_S = 0.07

_PROBE_K = np.random.default_rng(0).standard_normal((20, 20))


def interpreter_probe() -> float:
    """Seconds for a fixed loop of the Gray-code scan's kind of work.

    Scalar reads and writes on numpy arrays and 20-element vector updates,
    as in ``opnorm``'s scan, but none of the package's code, so a change
    to the package cannot change it. On a shared host the interpreter's
    speed drifts by up to 1.7x over minutes; run next to each job, the
    probe measures that speed where the job ran.
    """
    k = _PROBE_K
    s = np.zeros(20)
    u = np.ones(20)
    q = 0.0
    start = time.perf_counter()
    for t in range(1, PROBE_STEPS):
        p = (t & -t).bit_length() % 20
        up = u[p]
        q += 4.0 * (k[p, p] - up * s[p])
        u[p] = -up
        s -= (2.0 * up) * k[p]
    return time.perf_counter() - start


def output_digest(outdir: str, outcome: workloads.Outcome | None) -> tuple[str, int]:
    """sha256 over every output file, the CLI stdout and library results."""
    h = hashlib.sha256()
    size = 0
    for root, _, files in sorted(os.walk(outdir)):
        for name in sorted(files):
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                data = fh.read()
            size += len(data)
            h.update(os.path.relpath(path, outdir).encode() + b"\0" + data)
    if outcome is not None:
        for text in outcome.stdout:
            data = text.encode()
            size += len(data)
            h.update(b"stdout\0" + data)
        h.update(json.dumps(workloads.library_digest_items(outcome),
                            sort_keys=True).encode())
    return h.hexdigest(), size


def run_job(wl: workloads.Workload, job: workloads.Job, workdir: str,
            tracer: Tracer | None = None, check: bool = True) -> JobRecord:
    """Run one job (timed), then check (unless ``check`` is false) and
    hash it (untimed)."""
    outdir = os.path.join(workdir, f"job-{job.index}")
    os.makedirs(outdir)
    outcome = None
    if tracer is not None:
        tracer.start_job()
    start = time.perf_counter()
    try:
        outcome = wl.run(job, outdir)
        problems: list[str] = []
    except Exception as exc:  # a crashing job is a failed job
        problems = [f"job raised {exc!r}"]
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.end_job()
    if outcome is not None and check:
        try:
            problems = wl.check(job, outdir, outcome)
        except Exception as exc:  # unreadable output fails the job
            problems = [f"oracle raised {exc!r}"]
    digest, size = output_digest(outdir, outcome)
    shutil.rmtree(outdir)
    return JobRecord(job.index, job.template, seconds, digest, size, problems)


def run_rounds(wl: workloads.Workload, first_round: list[workloads.Job],
               budget_s: float, workdir: str) -> list[JobRecord]:
    """Whole rounds of fresh jobs for about budget_s seconds of job time.

    A further round starts only while the timed total stays short of
    budget_s by more than half the last round, so the run ends as near
    budget_s as whole rounds allow; there is always at least one round.
    Only the first round's inputs are kept (they were built in set-up);
    later inputs are built just before their job, outside the timed region,
    and dropped after it, so memory does not grow with the run length.
    """
    records: list[JobRecord] = []
    probes = [interpreter_probe()] if wl.probed else []
    timed = last_round = 0.0
    while not records or timed + last_round / 2 < budget_s:
        last_round = 0.0
        for _ in range(wl.round_len):
            index = len(records)
            job = first_round[index] if index < len(first_round) \
                else wl.make_job(index)
            records.append(run_job(wl, job, workdir))
            last_round += records[-1].seconds
            if wl.probed:
                probes.append(interpreter_probe())
        timed += last_round
    for record, before, after in zip(records, probes, probes[1:]):
        record.scale = PROBE_REF_S / ((before + after) / 2)
    return records


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that NumPy loaded, if it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads()},
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sizes", default="paper", choices=SIZES)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--replay", action="store_true")
    args = parser.parse_args()

    inputs_start = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload](args.seed, args.sizes)
    first_round = [wl.make_job(i) for i in range(wl.round_len)]
    result: dict = {"setup_done": time.monotonic(),
                    "inputs_s": time.perf_counter() - inputs_start}
    os.makedirs(args.workdir, exist_ok=True)

    if args.mode == "setup":
        if args.replay:
            # Only the digest matters here: the main run checks job 0.
            result["job0_digest"] = run_job(wl, first_round[0], args.workdir,
                                             check=False).digest
        print(json.dumps(result))
        return 0

    budget = args.seconds / 2 if args.trace else args.seconds
    records = run_rounds(wl, first_round, budget, args.workdir)
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        tracer = Tracer()
        tracer.install()
        traced = [run_job(wl, wl.make_job(r.index), args.workdir, tracer)
                  for r in records]
        for plain, again in zip(records, traced):
            if again.digest != plain.digest:
                again.problems.append("traced rerun changed the outputs")
        untraced_p50 = job_s_p50([(r.template, r.seconds) for r in records])
        traced_p50 = job_s_p50([(r.template, r.seconds) for r in traced])
        metrics = layer_metrics(tracer.stats, len(traced))
        metrics["cli.output_bytes"] = statistics.fmean(
            r.output_bytes for r in traced)
        metrics["trace.overhead_ratio"] = traced_p50 / untraced_p50
        metrics["spectral.threads2_speedup"] = 0.0
        if args.workload == "spectrum-paper":
            # Job 0 again at --threads 2; its spans stay out of the
            # per-job layer metrics.
            job = first_round[0]
            threaded = replace(job, index=-1, argv=[*job.argv, "--threads", "2"])
            kept, tracer.stats = tracer.stats, Stats()
            rec = run_job(wl, threaded, args.workdir, tracer)
            tracer.stats = kept
            traced.append(rec)
            metrics["spectral.threads2_speedup"] = (traced[0].seconds
                                                    / rec.seconds)
        result["layers"] = metrics
        records = records + traced
    result["facts"] = run_facts()
    result["jobs"] = [vars(r) for r in records]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
