"""Stability diagnostics for kernels over the natural numbers.

Four nested summability classes order the kernels studied here:
absolutely summable kernels sit inside the stable ones, which sit inside
the finite-trace ones, which sit inside the square-summable ones. The
classifier runs a battery of finite-window tests in cost order (trace,
then windowed absolute/square sums, then operator-norm growth) plus
closed-form shortcuts available for specific families, and assembles a
report whose class flags always respect the inclusion chain.

Verdicts on infinite objects computed from finite windows are evidence,
never proof, and are labeled as such. In particular divergence of the
absolute sums alone never yields an instability verdict: absolute
summability is sufficient, not necessary, for stability.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Sequence

import numpy as np

from .errors import ConfigError, NumericalError, StructuralError
from .generators import NO, UNKNOWN, YES
from .kernels import (
    Diagonal,
    Gaussian,
    KernelSpec,
    RankOne,
    TranslationInvariant,
    truncate,
    validate_psd,
)
from .opnorm import (
    ENUMERATION_CAP,
    NormEstimate,
    NormKind,
    NormMethod,
    inf_one_norm_exact,
    inf_one_norm_heuristic,
)

# --------------------------------------------------------------------------
# Partial sums

def partial_trace(spec: KernelSpec, d: int) -> float:
    """sum_{i=1..d} K_ii."""
    return float(spec.diagonal(d).sum())


def tail_trace(spec: KernelSpec, n: int, d: int) -> float:
    """sum_{i=n+1..d} K_ii."""
    if n < 0 or d < n:
        raise ConfigError(f"tail trace needs 0 <= n <= d, got n={n}, d={d}")
    if n == d:
        return 0.0
    return float(spec.diagonal(d)[n:].sum())


def _nonzero_order(spec: KernelSpec, d: int) -> int:
    """Order of the leading block of K^(d) that can be nonzero: d capped at
    a finite support, past which every entry is an exact zero."""
    n = spec.support
    return d if n is None else min(d, n)


def _ascending(grid: Sequence[int], what: str) -> list[int]:
    grid = list(grid)
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"{what} grid must be non-empty and strictly ascending")
    return grid


def window_sums(spec: KernelSpec, grid: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """(abs sums, square sums) over the d x d windows of an ascending grid.

    The kernel is materialized once at the largest order, capped at a
    finite support; windows are leading blocks of it (entry-exact
    nesting), and every order past the support sums the support block.
    """
    grid = _ascending(grid, "window")
    big = truncate(spec, _nonzero_order(spec, grid[-1])).entries
    abs_sums, sq_sums = np.empty(len(grid)), np.empty(len(grid))
    for g, d in enumerate(grid):
        window = np.abs(big[:d, :d])   # |x| * |x| is x**2 bit for bit
        abs_sums[g] = window.sum()
        sq_sums[g] = np.square(window, out=window).sum()
    return abs_sums, sq_sums


# --------------------------------------------------------------------------
# Divergence probe

CONVERGING = "Converging"
DIVERGING = "Diverging"
UNDECIDED = "Undecided"

#: A partial-sum sequence counts as converged when the last increments all
#: fall below this fraction of the current sum.
PROBE_RTOL = 1e-8

#: Increments shrinking geometrically at least this fast also count as
#: convergent (the extrapolated tail is finite and small).
PROBE_RATIO_CAP = 0.75

#: Fewest grid points the probe accepts.
PROBE_MIN_POINTS = 3


@dataclass(frozen=True)
class ProbeResult:
    """Decision of the divergence probe plus the growth fit behind it."""

    decision: str
    reason: str
    grid: tuple[int, ...]
    sums: tuple[float, ...]
    increments: tuple[float, ...]
    fit_exponent: float | None

    def to_dict(self) -> dict[str, Any]:
        return {
            "decision": self.decision,
            "reason": self.reason,
            "grid": list(self.grid),
            "sums": list(self.sums),
            "fit_exponent": self.fit_exponent,
        }


def divergence_probe(grid: Sequence[int], sums: Sequence[float]) -> ProbeResult:
    """Classify partial sums on an ascending grid as converging/diverging.

    Decision rules, applied in order:

    1. non-finite values -> Diverging (overflow).
    2. the last two increments both below PROBE_RTOL * |sum|
       -> Converging: the series has stabilized to the requested
       relative resolution.
    3. the last three increments non-decreasing -> Diverging: on a
       geometric grid a convergent series must show shrinking increments.
    4. a log-log fit of increments against d with exponent >= 0
       -> Diverging (power-law growth of the tail mass).
    5. increments positive, shrinking, with consecutive ratios at most
       PROBE_RATIO_CAP -> Converging: the extrapolated geometric tail is
       finite.
    6. otherwise Undecided.

    The outcome is evidence about the window scanned, never a proof
    about the infinite series.
    """
    ds = np.asarray(list(grid), dtype=float)
    s = np.asarray(list(sums), dtype=float)
    if len(ds) < PROBE_MIN_POINTS:
        raise ConfigError(f"divergence probe needs at least {PROBE_MIN_POINTS} "
                          f"grid points, got {len(ds)}")
    if len(ds) != len(s):
        raise ConfigError("grid and sums must have the same length")
    if np.any(np.diff(ds) <= 0):
        raise ConfigError("probe grid must be strictly ascending")
    inc = np.diff(s)

    def result(decision: str, reason: str, exponent: float | None) -> ProbeResult:
        return ProbeResult(decision=decision, reason=reason,
                           grid=tuple(int(x) for x in ds),
                           sums=tuple(float(x) for x in s),
                           increments=tuple(float(x) for x in inc),
                           fit_exponent=exponent)

    if not np.all(np.isfinite(s)):
        return result(DIVERGING, "non-finite partial sums (overflow)", None)

    scale = max(abs(float(s[-1])), 1e-300)
    if np.all(np.abs(inc[-2:]) <= PROBE_RTOL * scale):
        return result(CONVERGING,
                      f"trailing increments below {PROBE_RTOL:g} of the sum",
                      None)

    # Trend rules need at least three increments; two grid steps cannot
    # distinguish slow convergence from divergence, so they fall through
    # to Undecided.
    tail = inc[-3:]
    if len(inc) >= 3 and np.all(np.diff(tail) >= -1e-14 * np.abs(tail[:-1])):
        return result(DIVERGING, "non-decreasing increments over the last "
                                 "grid points", None)

    exponent: float | None = None
    pos = inc > 0
    if pos.sum() >= 3:
        exponent = float(np.polyfit(np.log(ds[1:][pos]), np.log(inc[pos]), 1)[0])
        if exponent >= 0:
            return result(DIVERGING,
                          f"increments fit power law with exponent "
                          f"{exponent:.3g} >= 0", exponent)

    shrinking = len(inc) >= 3 and np.all(np.diff(tail) < 0)
    if shrinking and np.all(inc > 0):
        ratios = (inc[1:] / inc[:-1])[-3:]
        if np.all(ratios <= PROBE_RATIO_CAP):
            return result(CONVERGING,
                          f"increments shrink geometrically (worst recent "
                          f"ratio {ratios.max():.3g} <= {PROBE_RATIO_CAP:g})",
                          exponent)

    return result(UNDECIDED, "growth neither clearly bounded nor clearly "
                             "unbounded on this grid", exponent)


# --------------------------------------------------------------------------
# Norm growth scan

@dataclass(frozen=True, eq=False)
class NormScan:
    """Per-order norm estimates over an ascending grid."""

    estimates: tuple[NormEstimate, ...]
    downgraded: tuple[int, ...]          # orders where exact fell back

    def values(self) -> np.ndarray:
        return np.array([e.value for e in self.estimates])

    def grid(self) -> tuple[int, ...]:
        return tuple(e.d for e in self.estimates)


def norm_growth_scan(spec: KernelSpec, grid: Sequence[int],
                     method: str = "auto", cap: int = ENUMERATION_CAP,
                     restarts: int = 16, seed: int = 0) -> NormScan:
    """(inf,1) norm estimates of K^(d) along an ascending d-grid.

    method is one of "exact", "heuristic", "auto". Exact requests beyond
    the enumeration cap fall back to the heuristic; the downgrade is
    recorded per order. When every estimate is exact the sequence must
    be non-decreasing in d (windows are nested); a violation raises,
    since it can only be an implementation defect.

    Past a finite support n the engines run once, on the n-block, and
    the engine is chosen by that block's order: the zero rows add
    nothing to u'Ku, so each order d > n reports the n-block's estimate
    with its witness padded by +1 to length d.
    """
    grid = _ascending(grid, "norm scan")
    if method not in ("exact", "heuristic", "auto"):
        raise ConfigError(f"unknown norm scan method {method!r}")
    big = truncate(spec, _nonzero_order(spec, grid[-1]))
    by_order: dict[int, NormEstimate] = {}
    estimates: list[NormEstimate] = []
    downgraded: list[int] = []
    for d in grid:
        m = _nonzero_order(spec, d)
        if m not in by_order:
            window = big if m == big.d else big.leading(m)
            if method != "heuristic" and m <= cap:
                by_order[m] = inf_one_norm_exact(window, cap=cap)
            else:
                by_order[m] = inf_one_norm_heuristic(window, restarts=restarts,
                                                     seed=seed)
        est = by_order[m]
        if method == "exact" and est.kind is not NormKind.EXACT:
            downgraded.append(d)
        if d > m:
            est = replace(est, d=d, witness=np.concatenate(
                [est.witness, np.ones(d - m)]))
        estimates.append(est)
    if all(e.kind is NormKind.EXACT for e in estimates):
        vals = [e.value for e in estimates]
        for a, b in zip(vals, vals[1:]):
            if b < a * (1.0 - 1e-12) - 1e-12:
                raise NumericalError(
                    f"exact norm sequence decreased ({a} -> {b}); nested "
                    f"windows cannot lose norm")
    return NormScan(estimates=tuple(estimates), downgraded=tuple(downgraded))


# --------------------------------------------------------------------------
# Report types

VERDICTS = ("EvidenceStable", "EvidenceUnstable", "Inconclusive",
            "AnalyticallyStable", "AnalyticallyUnstable")

#: Flag names in implication order: yes propagates rightward
#: (absolutely summable => stable => finite trace => square summable),
#: no propagates leftward.
FLAG_CHAIN = ("abs_summable", "stable", "finite_trace", "sq_summable")


def resolve_flags(**flags: str) -> dict[str, str]:
    """Close a tri-state flag assignment under the inclusion chain.

    Raises NumericalError on contradictions (a yes forced onto a no),
    since these can only arise from inconsistent evidence handling.
    """
    state = {name: flags.get(name, UNKNOWN) for name in FLAG_CHAIN}
    for name, value in state.items():
        if value not in (YES, NO, UNKNOWN):
            raise ConfigError(f"bad tri-state {value!r} for {name}")
    forced: dict[str, str] = dict(state)
    for idx, name in enumerate(FLAG_CHAIN):
        if state[name] == YES:
            for weaker in FLAG_CHAIN[idx:]:
                if forced[weaker] == NO:
                    raise NumericalError(
                        f"flag contradiction: {name}=yes forces {weaker}=yes "
                        f"but it is already no")
                forced[weaker] = YES
        if state[name] == NO:
            for stronger in FLAG_CHAIN[:idx + 1]:
                if forced[stronger] == YES:
                    raise NumericalError(
                        f"flag contradiction: {name}=no forces {stronger}=no "
                        f"but it is already yes")
                forced[stronger] = NO
    return forced


@dataclass(frozen=True)
class TestRecord:
    """One entry in the evidence chain of a stability report."""

    __test__ = False          # not a pytest collectable

    name: str
    kind: str                      # "partial_sum" | "norm_growth" | "analytic"
    decision: str
    detail: str = ""
    grid: tuple[int, ...] = ()
    values: tuple[float, ...] = ()
    extra: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "decision": self.decision,
            "detail": self.detail,
        }
        if self.grid:
            out["grid"] = list(self.grid)
        if self.values:
            out["values"] = list(self.values)
        if self.extra:
            out["extra"] = self.extra
        return out


@dataclass(frozen=True)
class StabilityReport:
    """Verdict plus the evidence chain that produced it."""

    kernel: dict[str, Any]
    verdict: str
    class_flags: dict[str, str]
    tests: tuple[TestRecord, ...]

    def __post_init__(self) -> None:
        if self.verdict not in VERDICTS:
            raise ConfigError(f"unknown verdict {self.verdict!r}")
        resolve_flags(**self.class_flags)   # must already be closed

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": 1,
            "kernel": self.kernel,
            "verdict": self.verdict,
            "class_flags": dict(self.class_flags),
            "tests": [t.to_dict() for t in self.tests],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def series_rows(self) -> list[tuple[str, int, float]]:
        """(test name, d, value) rows for CSV emission of every series."""
        rows: list[tuple[str, int, float]] = []
        for t in self.tests:
            for d, v in zip(t.grid, t.values):
                rows.append((t.name, int(d), float(v)))
        return rows

    def find(self, name: str) -> TestRecord:
        for t in self.tests:
            if t.name == name:
                return t
        raise KeyError(name)


# --------------------------------------------------------------------------
# Classifier

#: Work limits of the classification battery: the largest order of the
#: trace, windowed-sum and norm grids before a finite support stretches
#: them, and the restarts of the norm channel's sign-flip ascent.
TRACE_MAX = 4096          # 1-D sums, O(d)
WINDOW_MAX = 512          # dense d x d windows, O(d^2)
NORM_MAX = 256            # heuristic norm scans
RESTARTS = 8

#: Order of the window classify checks for positive semidefiniteness.
PSD_CHECK_ORDER = 64


def _geometric_grid(start: int, stop: int) -> list[int]:
    grid = []
    d = start
    while d <= stop:
        grid.append(d)
        d *= 2
    return grid


def _analytic_pass(spec: KernelSpec) -> tuple[dict[str, str], list[TestRecord]]:
    """Closed-form class facts available for specific families."""
    flags: dict[str, str] = {}
    tests: list[TestRecord] = []
    if isinstance(spec, (Gaussian, TranslationInvariant)):
        h0 = spec.entry(1, 1)
        if h0 != 0.0:
            flags.update(finite_trace=NO, sq_summable=NO)
            tests.append(TestRecord(
                name="constant_diagonal_trace", kind="analytic",
                decision=DIVERGING,
                detail=f"every diagonal entry equals {h0:g}; the trace and "
                       f"the square sums grow without bound"))
        else:
            # PSD with a zero diagonal forces the zero kernel.
            flags.update(abs_summable=YES)
            tests.append(TestRecord(
                name="zero_diagonal_collapse", kind="analytic",
                decision=CONVERGING,
                detail="zero diagonal plus positive semidefiniteness force "
                       "the zero kernel"))

    elif isinstance(spec, RankOne):
        v = spec.v
        tests_detail = (f"factor sequence {v.spec_string()}: "
                        f"sum|v| {v.abs_summable()}, sum v^2 {v.sq_summable()}")
        if v.sq_summable() == YES:
            flags["finite_trace"] = YES
        elif v.sq_summable() == NO:
            flags["finite_trace"] = NO
        if v.abs_summable() == YES:
            flags["abs_summable"] = YES
        elif v.abs_summable() == NO:
            # A rank-one kernel maps the sign pattern of v to v * |v|_1,
            # so a square-summable but not absolutely summable factor
            # gives an unstable kernel.
            flags["abs_summable"] = NO
            if v.sq_summable() == YES:
                flags["stable"] = NO
        if flags:
            tests.append(TestRecord(
                name="rank_one_factor_summability", kind="analytic",
                decision={YES: CONVERGING, NO: DIVERGING, None: UNDECIDED}.get(
                    flags.get("stable", flags.get("abs_summable")), UNDECIDED),
                detail=tests_detail))

    elif isinstance(spec, Diagonal):
        g = spec.g
        if g.abs_summable() in (YES, NO) and g.nonnegative():
            # Diagonal kernels are their own eigendecomposition in the
            # canonical basis, whose vectors have unit l1 norm, so
            # stability reduces to eigenvalue summability.
            summable = g.abs_summable()
            flags["stable"] = summable
            flags["finite_trace"] = summable
            if summable == YES:
                limit = g.abs_sum_limit()
                flags["abs_summable"] = YES
                detail = (f"weights {g.spec_string()} are summable"
                          + (f" (sum {limit:.9g})" if limit is not None else ""))
            else:
                detail = f"weights {g.spec_string()} are not summable"
            tests.append(TestRecord(
                name="bounded_l1_eigensum", kind="analytic",
                decision=CONVERGING if summable == YES else DIVERGING,
                detail="unit-l1 canonical eigenvectors reduce stability to "
                       "weight summability; " + detail))

    return flags, tests


def classify(spec: KernelSpec, seed: int = 0) -> StabilityReport:
    """Run the stability battery and assemble the evidence report.

    Analytic shortcuts (closed-form arguments per family) yield
    Analytically{Stable,Unstable} verdicts; otherwise finite-window
    evidence yields Evidence{Stable,Unstable} or Inconclusive. Failure
    of absolute summability alone never produces an instability verdict.
    The seed drives the random restarts of the sign-flip ascent.
    """
    support = spec.support

    def stop_for(default: int, envelope: int) -> int:
        # A finitely supported kernel is probed past its support: the
        # sums plateau there and the probe needs two flat increments on
        # a doubling grid, i.e. points up to 8x the support in the worst
        # alignment. Orders past the support cost no more than the
        # support block: the windowed probes work on that block and
        # repeat its values. A hard cost envelope still applies; beyond
        # it the probes may stay Undecided (honest under budget).
        if support is None:
            return default
        return min(max(default, 8 * support), envelope)

    def support_note(grid: list[int]) -> dict[str, Any]:
        # Names the support behind a plateau of a windowed series.
        past = support is not None and support < grid[-1]
        return {"support": support} if past else {}

    check = validate_psd(truncate(spec, PSD_CHECK_ORDER))
    if not check.ok:
        raise StructuralError(
            f"{spec.label()} is not positive semidefinite on the "
            f"{PSD_CHECK_ORDER}-window (lambda_min = {check.lambda_min:.3e}); "
            f"not a kernel")

    analytic_flags, tests = _analytic_pass(spec)
    analytic_flags = resolve_flags(**analytic_flags)
    evidence_flags: dict[str, str] = {}

    def channel(name: str, kind: str, flag: str, grid: list[int],
                values: Sequence[float], suffix: str = "",
                extra: dict[str, Any] | None = None) -> None:
        # Probe one series, record it, and set its class flag on a decision.
        probe = divergence_probe(grid, values)
        tests.append(TestRecord(
            name=name, kind=kind, decision=probe.decision,
            detail=probe.reason + suffix, grid=tuple(grid),
            values=tuple(float(x) for x in values), extra=extra or {}))
        value = {CONVERGING: YES, DIVERGING: NO}.get(probe.decision)
        if value is not None:
            evidence_flags[flag] = value

    grid = _geometric_grid(16, stop_for(TRACE_MAX, 65536))
    channel("partial_trace", "partial_sum", "finite_trace", grid,
            [partial_trace(spec, d) for d in grid])

    # abs_summable=no says nothing about stability: it is sufficient only.
    grid = _geometric_grid(16, stop_for(WINDOW_MAX, 2048))
    abs_sums, sq_sums = window_sums(spec, grid)
    channel("abs_sum", "partial_sum", "abs_summable", grid, abs_sums,
            extra=support_note(grid))
    channel("sq_sum", "partial_sum", "sq_summable", grid, sq_sums,
            extra=support_note(grid))

    grid = _geometric_grid(8, stop_for(NORM_MAX, 2048))
    scan = norm_growth_scan(spec, grid, method="heuristic",
                            restarts=RESTARTS, seed=seed)
    channel("norm_growth", "norm_growth", "stable", grid, scan.values(),
            suffix=" (sign-flip ascent lower bounds)",
            extra={"witnesses": [e.witness_signs() for e in scan.estimates],
                   "method": NormMethod.SIGN_FLIP_ASCENT.value,
                   **support_note(grid)})

    try:
        evidence_flags = resolve_flags(**evidence_flags)
    except NumericalError as exc:
        # Finite-window channels disagree (some probe misread its
        # window). No principled way to pick a winner: discard the
        # evidence, keep the analytic facts, and say so in the report.
        tests.append(TestRecord(
            name="evidence_conflict", kind="note", decision=UNDECIDED,
            detail=f"contradictory finite-window evidence discarded ({exc})"))
        evidence_flags = resolve_flags()

    merged = {}
    for name in FLAG_CHAIN:
        a, e = analytic_flags[name], evidence_flags[name]
        merged[name] = a if a != UNKNOWN else e
    try:
        merged = resolve_flags(**merged)
    except NumericalError as exc:
        # Evidence clashes with a closed-form fact: the analytic chain
        # wins, the discarded evidence is noted.
        tests.append(TestRecord(
            name="evidence_conflict", kind="note", decision=UNDECIDED,
            detail=f"finite-window evidence contradicts the closed-form "
                   f"chain and was discarded ({exc})"))
        merged = dict(analytic_flags)

    if analytic_flags["stable"] == YES:
        verdict = "AnalyticallyStable"
    elif analytic_flags["stable"] == NO:
        verdict = "AnalyticallyUnstable"
    elif merged["stable"] == YES:
        verdict = "EvidenceStable"
    elif merged["stable"] == NO:
        verdict = "EvidenceUnstable"
    else:
        verdict = "Inconclusive"

    return StabilityReport(kernel=spec.to_config(), verdict=verdict,
                           class_flags=merged, tests=tuple(tests))
