"""Workload names, why each was chosen, input sizes, end-to-end units and
the job-time statistic.

Importable without the package so that ``run.py`` can parse its
arguments and fail cleanly where there is no package source.
"""

import statistics

#: Why each workload is in the benchmark (also in BENCHMARK.json).
WORKLOADS = {
    "classify-zoo": (
        "many short classify calls (15 ms to 0.9 s) where setup_s dominates; "
        "the only workload reaching the sign-flip ascent and window_sums, "
        "with almost no eigh"),
    "spectrum-paper": (
        "the paper's convergence experiment: 11 dense eigh up to d=2000, "
        "bound by LAPACK; the only workload that moves spectral and "
        "kernels.truncate at scale"),
    "identify-tune": (
        "select_gamma (5 folds x 9 gammas) then identify at N=500, T=1000; "
        "the only workload reaching sysid, with ~55 identical T-window "
        "truncations per job"),
    "norm-exact": (
        "exact (inf,1) norms by pure-Python Gray enumeration to d=20 plus "
        "ns_condition_estimate(d=18); no CLI command reaches this, no LAPACK, "
        "no sysid"),
}

#: Input sizes. ``paper`` is what the benchmark measures; ``tiny`` keeps
#: the smoke test fast and exercises the same code paths.
SIZES = {
    "paper": {"grid": "200:2000:200", "track": "1-5,100", "final_d": 2000,
              "n": 500, "window": 1000, "norm_grid": (5, 10, 15, 20),
              "ns_d": 18},
    "tiny": {"grid": "20:60:20", "track": "1-3,10", "final_d": 60,
             "n": 40, "window": 80, "norm_grid": (3, 5, 7), "ns_d": 6},
}

#: End-to-end metric -> unit.
END_TO_END_UNITS = {"setup_s": "s", "job_s_p50": "s", "jobs_per_s": "1/s",
                    "peak_rss_mb": "MiB"}


def seconds_by_template(jobs: list[tuple[str, float]]) -> dict[str, list[float]]:
    """Job times grouped by template, from (template, seconds) pairs."""
    grouped: dict[str, list[float]] = {}
    for template, seconds in jobs:
        grouped.setdefault(template, []).append(seconds)
    return grouped


def median_hd(values: list[float]) -> float:
    """Harrell-Davis estimate of the median.

    A weighted sum of the order statistics with Beta((n+1)/2, (n+1)/2)
    weights. A run holds only a few jobs of each template (norm-exact:
    three to five), and with so few samples the plain sample median
    jumps from one of them to another; this estimate uses all of them.
    """
    from scipy.special import betainc

    ordered = sorted(values)
    n = len(ordered)
    a = (n + 1) / 2
    cdf = [float(betainc(a, a, k / n)) for k in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], ordered))


def job_s_p50(jobs: list[tuple[str, float]]) -> float:
    """Median job time per template, averaged over the templates.

    A round holds one job of each template, and templates differ in cost
    (norm-exact: about 1.6 s against 2.1 s). A median over all jobs would
    jump from one template to another as the machine's speed drifts.
    """
    return statistics.fmean(median_hd(v) for v in
                            seconds_by_template(jobs).values())
