"""Per-layer spans recorded from outside the package.

Each traced function is wrapped at every ``stablerkhs`` module namespace
that binds it, so ``from .kernels import truncate`` in another module is
traced as well. The wrappers keep aggregates in memory (calls, inclusive
time, self time) plus a few counts of computed work; self time is a
span's duration minus the time its child spans cover on the same thread.

``LAYER_METRICS`` is the single table of per-layer metric names, units,
the direction that counts as better, and the end-to-end metric each one
is expected to move. ``BENCHMARK.json`` lists the same names.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from typing import Any, Callable

#: Functions wrapped per module of the package.
TRACED = {
    "cli": ("main",),
    "kernels": ("truncate", "validate_psd"),
    "stability": ("classify", "window_sums", "norm_growth_scan"),
    "opnorm": ("inf_one_norm_heuristic", "inf_one_norm_exact"),
    "spectral": ("eigendecompose", "convergence_scan"),
    "basis": ("laguerre_basis", "canonical_basis", "ns_condition_estimate",
              "sufficient_stability_test"),
    "sysid": ("regression_matrix", "rels_estimate", "trunc_mercer_estimate",
              "sweep_d", "select_order", "ls_estimate", "select_gamma"),
}

_SETUP = "setup_s on all four workloads equally; no job_s_p50"
_CLI = "job_s_p50 on spectrum-paper and identify-tune (CSV/JSON writing)"
_KERNELS = ("job_s_p50 on identify-tune, spectrum-paper and the mercer jobs "
            "of classify-zoo; peak_rss_mb")
_STABILITY = "jobs_per_s on classify-zoo"
_SPECTRAL = ("job_s_p50 on spectrum-paper (most) and identify-tune (one "
             "eigh); none elsewhere")
_SYSID = "job_s_p50 on identify-tune only; zero calls on every other workload"

#: name -> (unit, better, moves). Counts, bytes and times are per job.
LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "setup.import.stablerkhs_s": ("s", "lower", _SETUP),
    "setup.import.scipy.signal_s": ("s", "lower", _SETUP),
    "setup.import.scipy.special_s": ("s", "lower", _SETUP),
    "setup.inputs_s": ("s", "lower", _SETUP),
    "cli.main.calls": ("count", "lower", _CLI),
    "cli.main.self_s": ("s", "lower", _CLI),
    "cli.output_bytes": ("B", "lower", _CLI),
    "kernels.truncate.calls": ("count", "lower", _KERNELS),
    "kernels.truncate.self_s": ("s", "lower", _KERNELS),
    "kernels.truncate.bytes": ("B", "lower", _KERNELS),
    "kernels.truncate.unique_ratio": ("ratio", "higher", _KERNELS),
    "kernels.validate_psd.calls": ("count", "lower", _KERNELS),
    "kernels.validate_psd.self_s": ("s", "lower", _KERNELS),
    "stability.classify.self_s": ("s", "lower", _STABILITY),
    "stability.window_sums.self_s": ("s", "lower", _STABILITY),
    "stability.norm_growth_scan.self_s": ("s", "lower", _STABILITY),
    "opnorm.inf_one_norm_heuristic.calls": ("count", "lower",
                                            "jobs_per_s on classify-zoo only"),
    "opnorm.inf_one_norm_heuristic.self_s": ("s", "lower",
                                             "jobs_per_s on classify-zoo only"),
    "opnorm.inf_one_norm_exact.calls": ("count", "lower",
                                        "job_s_p50 on norm-exact only"),
    "opnorm.inf_one_norm_exact.self_s": ("s", "lower",
                                         "job_s_p50 on norm-exact only"),
    "opnorm.gray_steps": ("count", "lower", "job_s_p50 on norm-exact only"),
    "opnorm.gray_steps_per_s": ("1/s", "higher",
                                "job_s_p50 on norm-exact only"),
    "spectral.eigendecompose.calls": ("count", "lower", _SPECTRAL),
    "spectral.eigendecompose.self_s": ("s", "lower", _SPECTRAL),
    "spectral.eigendecompose.unique_ratio": ("ratio", "higher", _SPECTRAL),
    "spectral.eigendecompose.d_cubed": ("count", "lower", _SPECTRAL),
    "spectral.convergence_scan.self_s": ("s", "lower", _SPECTRAL),
    "spectral.threads2_speedup": ("ratio", "higher",
                                  "job_s_p50 on spectrum-paper if the thread "
                                  "pool ever wins; 0 where not measured"),
    "basis.laguerre_basis.calls": ("count", "lower", "jobs_per_s on classify-zoo"),
    "basis.laguerre_basis.self_s": ("s", "lower", "jobs_per_s on classify-zoo"),
    "basis.canonical_basis.self_s": ("s", "lower",
                                     "job_s_p50 on identify-tune (T x T Gram "
                                     "check)"),
    "basis.ns_condition_estimate.calls": ("count", "lower",
                                          "job_s_p50 on norm-exact"),
    "basis.ns_condition_estimate.self_s": ("s", "lower",
                                           "job_s_p50 on norm-exact"),
    "basis.sufficient_stability_test.self_s": ("s", "lower",
                                               "jobs_per_s on classify-zoo"),
    "sysid.regression_matrix.calls": ("count", "lower", _SYSID),
    "sysid.regression_matrix.self_s": ("s", "lower", _SYSID),
    "sysid.rels_estimate.calls": ("count", "lower", _SYSID),
    "sysid.rels_estimate.self_s": ("s", "lower", _SYSID),
    "sysid.trunc_mercer_estimate.calls": ("count", "lower", _SYSID),
    "sysid.trunc_mercer_estimate.self_s": ("s", "lower", _SYSID),
    "sysid.sweep_d.self_s": ("s", "lower", _SYSID),
    "sysid.select_order.self_s": ("s", "lower", _SYSID),
    "sysid.ls_estimate.calls": ("count", "lower", _SYSID),
    "sysid.ls_estimate.self_s": ("s", "lower", _SYSID),
    "sysid.select_gamma.self_s": ("s", "lower", _SYSID),
    "trace.overhead_ratio": ("ratio", "lower",
                             "nothing: traced over untraced job_s_p50"),
}


class Stats:
    """Aggregates of one traced phase.

    Distinct (config, d) keys are collected per job and summed over jobs
    when the job ends, so the unique ratios are per job.
    """

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.truncate_bytes = 0
        self.truncate_keys: set[tuple[str, int]] = set()
        self.truncate_unique = 0
        self.eigh_keys: set[tuple[str, int]] = set()
        self.eigh_unique = 0
        self.d_cubed = 0
        self.gray_steps = 0

    def end_job(self) -> None:
        self.truncate_unique += len(self.truncate_keys)
        self.eigh_unique += len(self.eigh_keys)
        self.truncate_keys.clear()
        self.eigh_keys.clear()


def _config_key(config: Any) -> str:
    return json.dumps(config, sort_keys=True, default=str)


class Tracer:
    """Installs span-recording wrappers; records only while ``active``."""

    def __init__(self) -> None:
        self.active = False
        self.stats = Stats()
        self._local = threading.local()

    def start_job(self) -> None:
        self.active = True

    def end_job(self) -> None:
        self.active = False
        self.stats.end_job()

    def install(self) -> None:
        packages = [m for n, m in list(sys.modules.items())
                    if n == "stablerkhs" or n.startswith("stablerkhs.")]
        for module, names in TRACED.items():
            home = sys.modules[f"stablerkhs.{module}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{module}.{name}", original)
                for mod in packages:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def _wrap(self, span: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return fn(*args, **kwargs)
            self._count_work(span, args, kwargs)
            stack = self._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                st = self.stats
                st.calls[span] = st.calls.get(span, 0) + 1
                st.self_s[span] = st.self_s.get(span, 0.0) + duration - children

        return wrapper

    def _stack(self) -> list[float]:
        # One span stack per thread: ``spectrum --threads 2`` decomposes
        # on a thread pool.
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count_work(self, span: str, args: tuple[Any, ...],
                    kwargs: dict[str, Any]) -> None:
        st = self.stats
        if span == "kernels.truncate":
            spec = args[0] if args else kwargs["spec"]
            d = int(args[1] if len(args) > 1 else kwargs["d"])
            st.truncate_bytes += 8 * d * d
            st.truncate_keys.add((_config_key(spec.to_config()), d))
        elif span == "spectral.eigendecompose":
            kernel = args[0] if args else kwargs["kernel"]
            st.d_cubed += kernel.d ** 3
            st.eigh_keys.add((_config_key(kernel.source), kernel.d))
        elif span == "opnorm.inf_one_norm_exact":
            kernel = args[0] if args else kwargs["kernel"]
            st.gray_steps += (1 << (kernel.d - 1)) - 1


def layer_metrics(stats: Stats, jobs: int) -> dict[str, float]:
    """Per-job layer metrics of one traced phase (zero where never called)."""
    out: dict[str, float] = {}
    per_job = 1.0 / jobs
    for name in LAYER_METRICS:
        module, _, rest = name.partition(".")
        span, _, kind = rest.rpartition(".")
        key = f"{module}.{span}"
        if kind == "calls":
            out[name] = stats.calls.get(key, 0) * per_job
        elif kind == "self_s":
            out[name] = stats.self_s.get(key, 0.0) * per_job
    calls = stats.calls
    n_trunc = calls.get("kernels.truncate", 0)
    n_eigh = calls.get("spectral.eigendecompose", 0)
    exact_s = stats.self_s.get("opnorm.inf_one_norm_exact", 0.0)
    out["kernels.truncate.bytes"] = stats.truncate_bytes * per_job
    out["kernels.truncate.unique_ratio"] = (
        stats.truncate_unique / n_trunc if n_trunc else 0.0)
    out["spectral.eigendecompose.unique_ratio"] = (
        stats.eigh_unique / n_eigh if n_eigh else 0.0)
    out["spectral.eigendecompose.d_cubed"] = stats.d_cubed * per_job
    out["opnorm.gray_steps"] = stats.gray_steps * per_job
    out["opnorm.gray_steps_per_s"] = (
        stats.gray_steps / exact_s if exact_s > 0 else 0.0)
    return out


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from ``-X importtime`` output.

    ``stablerkhs`` is the largest cumulative time of any package module,
    i.e. the first import, which pulls in the whole package.
    """
    cumulative: dict[str, float] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
    package = [s for n, s in cumulative.items()
               if n == "stablerkhs" or n.startswith("stablerkhs.")]
    return {
        "setup.import.stablerkhs_s": max(package, default=0.0),
        "setup.import.scipy.signal_s": cumulative.get("scipy.signal", 0.0),
        "setup.import.scipy.special_s": cumulative.get("scipy.special", 0.0),
    }
