"""Orthonormal l2 bases and kernels synthesized from them.

A kernel can be designed the other way round: pick an orthonormal basis
{rho_i} of l2 and a non-increasing eigenvalue sequence {lambda_i}, and
declare K_xy = sum_i lambda_i rho_i(x) rho_i(y). Such models are PSD by
construction; the open question is stability, which this module tests
three ways:

* the sharp criterion: sup over sign sequences u of
  sum_i lambda_i <rho_i, u>^2 is finite; on a finite window this is the
  (inf,1) norm of the synthesized truncation, evaluated on that window
  by the opnorm engines (exact enumeration or sign-flip ascent);
* a sufficient certificate: sum_i lambda_i |rho_i|_1^2 < infinity,
  which also forces kernel absolute summability;
* the bounded-l1 reduction: when |rho_i|_1 <= A uniformly over the
  active basis vectors, stability is equivalent to eigenvalue
  summability.

Bases are materialized on a finite window T; the discrete Laguerre
family carries an explicit tail requirement (|a|^T below 1e-12) so that
on-window Gram defects stay within the orthonormality tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np

from .config import BASIS_SCHEMA, KERNEL_SCHEMA, coerce_keys, schema_entry
from .errors import ConfigError, DomainError, NumericalError
from .generators import Geometric, Literal, PowerLaw, SequenceGenerator
from .kernels import KernelSpec, TruncatedKernel, truncate
from .opnorm import DEFAULT_RESTARTS, ENUMERATION_CAP, NormEstimate
from .stability import (CONVERGING, DIVERGING, PROBE_MIN_POINTS, ProbeResult,
                        divergence_probe, norm_growth_scan, window_sums)

#: Elementwise Gram tolerance for materialized bases.
EPS_ORTH = 1e-8

#: Laguerre tail requirement: |pole|^window must fall below this.
LAGUERRE_TAIL = 1e-12


@dataclass(frozen=True, eq=False)
class OrthoBasis:
    """n orthonormal vectors materialized on a window of length T.

    vectors is T x n with basis elements as columns; rho_i(t) is
    vectors[t - 1, i - 1].
    """

    kind: str
    window: int
    vectors: np.ndarray
    params: dict[str, Any]

    def __post_init__(self) -> None:
        v = np.asarray(self.vectors, dtype=float)
        if v.ndim != 2 or v.shape[0] != self.window:
            raise ConfigError(f"basis matrix shape {v.shape} does not match "
                              f"window {self.window}")
        object.__setattr__(self, "vectors", v)
        v.setflags(write=False)
        dev = gram_deviation(self)
        if dev > EPS_ORTH:
            raise NumericalError(f"basis Gram deviates from identity by "
                                 f"{dev:.3e} > {EPS_ORTH:g} on window "
                                 f"{self.window}")

    @property
    def count(self) -> int:
        return self.vectors.shape[1]

    def to_config(self) -> dict[str, Any]:
        out = {"kind": self.kind, "window": self.window, "count": self.count}
        out.update(self.params)
        return out


def gram_deviation(basis: OrthoBasis) -> float:
    """max elementwise |B'B - I| on the window."""
    g = basis.vectors.T @ basis.vectors
    return float(np.abs(g - np.eye(basis.count)).max())


def canonical_basis(count: int, window: int | None = None) -> OrthoBasis:
    """The canonical basis e_1..e_count on a window (default count)."""
    window = count if window is None else window
    if count < 1 or window < count:
        raise DomainError(f"need window >= count >= 1, got count={count}, "
                          f"window={window}")
    return OrthoBasis(kind="canonical", window=window,
                      vectors=np.eye(window, count), params={})


def minimal_laguerre_window(pole: float) -> int:
    """Smallest T with |pole|**T < LAGUERRE_TAIL."""
    a = abs(pole)
    if a == 0.0:
        return 1
    t = int(np.ceil(np.log(LAGUERRE_TAIL) / np.log(a)))
    while a ** t >= LAGUERRE_TAIL:
        t += 1
    return t


def laguerre_basis(pole: float, count: int, window: int) -> OrthoBasis:
    """Discrete Laguerre functions via the first-order all-pass recurrence.

    rho_1(t) = sqrt(1 - a^2) a^(t-1); each subsequent vector applies the
    all-pass filter (z^-1 - a) / (1 - a z^-1) to the previous one, from
    rest: y(t) = a y(t-1) + x(t-1) - a x(t) with x(0) = y(0) = 0. The
    recurrence runs column by column over plain Python floats, count *
    window scalar steps with no signal-processing import, rounding as
    (x(t-1) + a y(t-1)) - a x(t), the order a transposed direct-form
    filter uses. At a = 0 it degenerates to a pure delay and the
    canonical basis comes out exactly.
    """
    a = float(pole)
    if not abs(a) < 1.0:
        raise DomainError(f"Laguerre pole must satisfy |a| < 1, got {a}")
    if count < 1 or window < count:
        raise DomainError(f"need window >= count >= 1, got count={count}, "
                          f"window={window}")
    need = minimal_laguerre_window(a)
    if window < need:
        raise DomainError(f"window {window} too small for pole {a:g}: "
                          f"|a|^T must fall below {LAGUERRE_TAIL:g}, "
                          f"minimal T is {need}")
    b = np.zeros((window, count))
    t = np.arange(1, window + 1, dtype=float)
    b[:, 0] = np.sqrt(1.0 - a * a) * a ** (t - 1.0)
    column = b[:, 0].tolist()
    for k in range(1, count):
        y = previous = 0.0
        out = []
        for x in column:
            y = previous + a * y - a * x
            out.append(y)
            previous = x
        b[:, k] = out
        column = out
    return OrthoBasis(kind="laguerre", window=window, vectors=b,
                      params={"pole": a})


def random_orthogonal_basis(seed: int, count: int, window: int) -> OrthoBasis:
    """Orthonormal columns from a seeded Gaussian matrix (QR, signs fixed)."""
    if count < 1 or window < count:
        raise DomainError(f"need window >= count >= 1, got count={count}, "
                          f"window={window}")
    if seed < 0:
        raise DomainError(f"basis seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((window, count)))
    q = q * np.sign(np.diag(r))          # deterministic sign convention
    return OrthoBasis(kind="random", window=window, vectors=q,
                      params={"seed": int(seed)})


@dataclass(frozen=True)
class L1Profile:
    """l1 norms of basis vectors and their linear-growth fit."""

    norms: tuple[float, ...]
    max_ratio: float          # max_i |rho_i|_1 / i
    slope: float              # least-squares slope of |rho_i|_1 against i


def l1_profile(basis: OrthoBasis) -> L1Profile:
    """Window l1 norms |rho_i|_1 with a linear-growth coefficient.

    Takenaka-Malmquist-style bases (Laguerre included) obey an
    |rho_i|_1 <= A i bound; max_ratio is the empirical A on this window.
    """
    n = basis.count
    norms = np.abs(basis.vectors).sum(axis=0)
    idx = np.arange(1, n + 1, dtype=float)
    slope = float(np.polyfit(idx, norms, 1)[0]) if n >= 2 else float(norms[0])
    return L1Profile(norms=tuple(float(x) for x in norms),
                     max_ratio=float((norms / idx).max()), slope=slope)


@dataclass(frozen=True, eq=False)
class MercerModel:
    """An orthonormal basis paired with a non-increasing eigenvalue law."""

    basis: OrthoBasis
    eigenvalue_law: SequenceGenerator

    def __post_init__(self) -> None:
        lam = self.eigenvalues()
        if np.any(lam < 0):
            raise DomainError("eigenvalues must be non-negative")
        if np.any(np.diff(lam) > 0):
            raise DomainError("eigenvalues must be non-increasing")

    def eigenvalues(self) -> np.ndarray:
        return self.eigenvalue_law.terms(self.basis.count)

    def eigenvalue_tail_bound(self) -> float:
        """Bound on sum_{i > count} lambda_i (inf when the law is not summable)."""
        law = self.eigenvalue_law
        n = self.basis.count
        if isinstance(law, Literal):
            return float(np.abs(law.terms(max(len(law.values), n))[n:]).sum())
        if isinstance(law, Geometric):
            r = abs(law.ratio)
            if r < 1:
                return float(r ** (n + 1) / (1.0 - r))
            return float("inf")
        if isinstance(law, PowerLaw):
            p = law.exponent
            if p < -1:
                return float(n ** (p + 1) / (-p - 1))   # integral tail bound
            return float("inf")
        if law.abs_summable() == "yes":
            limit = law.abs_sum_limit()
            if limit is not None:
                return float(limit - law.terms(n).sum())
        return float("inf")

    def to_config(self) -> dict[str, Any]:
        return {"basis": self.basis.to_config(),
                "eigenvalues": self.eigenvalue_law.spec_string()}

    def label(self) -> str:
        b = self.basis
        extra = "".join(f",{k}={v}" for k, v in b.params.items())
        return (f"mercer({b.kind}{extra},n={b.count},T={b.window},"
                f"lam={self.eigenvalue_law.spec_string()})")


@dataclass(frozen=True, eq=False)
class MercerSynthesizedSpec(KernelSpec):
    """KernelSpec view of a synthesized model, usable by every other module.

    The basis vectors are materialized on a window of length T and, as
    square-summable sequences, are exactly zero beyond it, so the
    synthesized kernel vanishes outside the leading T x T block. Entries
    past the window are therefore 0 exactly (for the materialized
    object; the ideal infinite basis differs by the documented tail).
    """

    model: MercerModel
    family = "mercer"

    @cached_property
    def _window_matrix(self) -> np.ndarray:
        b = self.model.basis.vectors
        lam = self.model.eigenvalues()
        w = (b * lam) @ b.T
        w = np.triu(w) + np.triu(w, 1).T
        w.setflags(write=False)
        return w

    @property
    def support(self) -> int | None:
        return self.model.basis.window

    def _entry(self, i: int, j: int) -> float:
        t = self.model.basis.window
        if i > t or j > t:
            return 0.0
        return float(self._window_matrix[i - 1, j - 1])

    def _block(self, d: int) -> np.ndarray:
        t = self.model.basis.window
        if d <= t:
            return self._window_matrix[:d, :d].copy()
        out = np.zeros((d, d))
        out[:t, :t] = self._window_matrix
        return out

    def _diagonal(self, d: int) -> np.ndarray:
        out = np.zeros(d)
        m = min(d, self.model.basis.window)
        out[:m] = np.diag(self._window_matrix)[:m]
        return out

    def to_config(self) -> dict[str, Any]:
        """The mercer keys of config.KERNEL_SCHEMA plus the basis kind's."""
        b = self.model.basis
        return {"family": self.family, "basis": b.kind, "count": b.count,
                "window": b.window,
                "eigenvalues": self.model.eigenvalue_law.spec_string(),
                **b.params}

    def label(self) -> str:
        return self.model.label()


#: The builder of each basis kind, called with the count, the window and
#: the kind's keys from config.BASIS_SCHEMA.
_BASIS_BUILDERS = {"canonical": canonical_basis, "laguerre": laguerre_basis,
                   "random": random_orthogonal_basis}


def mercer_spec_from_config(config: dict[str, Any]) -> MercerSynthesizedSpec:
    """Rebuild a synthesized-kernel spec from its key-value form.

    The keys are the mercer family's in config.KERNEL_SCHEMA plus those
    config.BASIS_SCHEMA gives the basis kind named by "basis".
    """
    family = MercerSynthesizedSpec.family
    what = f"{family} kernel"
    values = {key: value for key, value in config.items() if key != "family"}
    if config.get("family", family) != family:
        raise DomainError(f"{what} config names family {config['family']!r}")
    if "basis" not in values:
        raise DomainError(f"{what} config requires 'basis'")
    kind = values["basis"]
    extra = schema_entry(BASIS_SCHEMA, kind, "basis kind")
    values = coerce_keys(values, {**KERNEL_SCHEMA[family], **extra},
                         f"{what} ({kind} basis)")
    basis = _BASIS_BUILDERS[kind](count=values["count"],
                                  window=values["window"],
                                  **{key: values[key] for key in extra})
    return MercerSynthesizedSpec(
        MercerModel(basis=basis, eigenvalue_law=values["eigenvalues"]))


def synthesize_kernel(model: MercerModel, d: int) -> TruncatedKernel:
    """Materialize sum_i lambda_i rho_i rho_i' on the leading d-window.

    The series is truncated at the basis count; the recorded residual
    bound is the eigenvalue tail mass (basis vectors are unit-norm, so
    entries of the dropped tail are bounded by it). A non-summable
    eigenvalue law combined with a basis whose vectors overlap is
    refused: the synthesized window would silently misrepresent the
    intended infinite object.
    """
    spec = MercerSynthesizedSpec(model)
    t = model.basis.window
    if not 1 <= d <= t:
        raise DomainError(f"need 1 <= d <= window {t}, got d={d}")
    residual = model.eigenvalue_tail_bound()
    overlap = np.count_nonzero(model.basis.vectors, axis=1).max() > 1
    if not np.isfinite(residual) and overlap:
        raise DomainError(
            f"eigenvalue law {model.eigenvalue_law.spec_string()} is not "
            f"summable and the {model.basis.kind} basis vectors overlap; "
            f"refusing to synthesize a misleading finite window")
    kernel = truncate(spec, d)
    source = dict(kernel.source)
    source["tail_residual_bound"] = residual if np.isfinite(residual) else "inf"
    return TruncatedKernel(kernel.d, kernel.entries.copy(), source)


# --------------------------------------------------------------------------
# Stability tests in the Mercer feature space

def _doubling_grid(start: int, stop: int) -> list[int]:
    """start, 2 start, 4 start, ... below stop, then stop itself."""
    grid = []
    while start < stop:
        grid.append(start)
        start *= 2
    return grid + [stop]


def _count_grid(n: int) -> list[int]:
    grid = _doubling_grid(2, n)
    if len(grid) < PROBE_MIN_POINTS:
        raise ConfigError(f"basis count {n} too small for a divergence probe "
                          f"({len(grid)} grid points < {PROBE_MIN_POINTS})")
    return grid


CERTIFIED = "Certified"
NOT_CERTIFIED = "NotCertified"


@dataclass(frozen=True)
class CertificationResult:
    """Outcome of the weighted-l1 sufficient stability certificate."""

    verdict: str
    terms: tuple[float, ...]              # lambda_i * |rho_i|_1^2
    probe: ProbeResult
    cross_check: ProbeResult | None       # abs-sum probe of the synthesis
    contradiction: bool

    def certified(self) -> bool:
        return self.verdict == CERTIFIED

    def to_dict(self) -> dict[str, Any]:
        return {
            "verdict": self.verdict,
            "weighted_l1_probe": self.probe.to_dict(),
            "abs_sum_cross_check": None if self.cross_check is None
            else self.cross_check.to_dict(),
            "contradiction": self.contradiction,
        }


def sufficient_stability_test(model: MercerModel) -> CertificationResult:
    """Probe sum_i lambda_i |rho_i|_1^2; certify stability on convergence.

    A certificate implies kernel absolute summability, so a certified
    model is cross-checked: the absolute sums of its synthesized
    truncations must also probe as converging. A contradiction is
    recorded, never silently dropped.
    """
    lam = model.eigenvalues()
    norms = np.asarray(l1_profile(model.basis).norms)
    terms = lam * norms ** 2
    grid = _count_grid(model.basis.count)
    partial = [float(terms[:m].sum()) for m in grid]
    probe = divergence_probe(grid, partial)
    verdict = CERTIFIED if probe.decision == CONVERGING else NOT_CERTIFIED

    cross: ProbeResult | None = None
    contradiction = False
    if verdict == CERTIFIED:
        # Probe past the support: the materialized kernel is exactly
        # zero beyond its window, and the probe needs to see at least
        # two flat increments to register the plateau.
        cross_grid = _doubling_grid(4, 4 * model.basis.window)
        abs_sums, _ = window_sums(MercerSynthesizedSpec(model), cross_grid)
        cross = divergence_probe(cross_grid, abs_sums)
        contradiction = cross.decision == DIVERGING
    return CertificationResult(verdict=verdict,
                               terms=tuple(float(x) for x in terms),
                               probe=probe, cross_check=cross,
                               contradiction=contradiction)


@dataclass(frozen=True)
class BoundedL1Result:
    """Stability-iff-summable-eigenvalues reduction under a uniform l1 bound."""

    applicable: bool
    bound: float
    violating_index: int | None
    probe: ProbeResult | None
    verdict: str            # "stable" | "unstable" | "undecided" | "inapplicable"

    def to_dict(self) -> dict[str, Any]:
        return {
            "applicable": self.applicable,
            "bound": self.bound,
            "violating_index": self.violating_index,
            "eigenvalue_probe": None if self.probe is None else self.probe.to_dict(),
            "verdict": self.verdict,
        }


def bounded_l1_test(model: MercerModel, bound: float) -> BoundedL1Result:
    """Reduce stability to eigenvalue summability when |rho_i|_1 <= bound.

    The bound is verified on the materialized window for every index
    with lambda_i > 0; a violation makes the test inapplicable (the
    reduction needs the uniform bound) and is reported as such.
    """
    lam = model.eigenvalues()
    norms = np.asarray(l1_profile(model.basis).norms)
    active = lam > 0
    over = np.nonzero(active & (norms > bound))[0]
    if over.size:
        return BoundedL1Result(applicable=False, bound=bound,
                               violating_index=int(over[0]) + 1, probe=None,
                               verdict="inapplicable")
    grid = _count_grid(model.basis.count)
    sums = [float(lam[:m].sum()) for m in grid]
    probe = divergence_probe(grid, sums)
    verdict = {CONVERGING: "stable", DIVERGING: "unstable"}.get(
        probe.decision, "undecided")
    return BoundedL1Result(applicable=True, bound=bound, violating_index=None,
                           probe=probe, verdict=verdict)


# --------------------------------------------------------------------------
# Sharp condition on the window: sup over sign vectors of
# sum_i lambda_i <rho_i, u>^2 = u' (B_d Lambda B_d') u.

def ns_condition_estimate(model: MercerModel, d: int,
                          cap: int = ENUMERATION_CAP,
                          restarts: int = DEFAULT_RESTARTS,
                          seed: int = 0) -> NormEstimate:
    """sup over sign vectors u of sum_i lambda_i <rho_i, u>^2 on a d-window.

    The sum is u' K u for the synthesized truncation K = B_d Lambda B_d',
    so the condition is the (inf,1) norm of K, estimated by
    norm_growth_scan's "auto" rule: exact (block Gray enumeration, a few
    milliseconds at d = 20) up to the cap, sign-flip ascent beyond.
    Unlike synthesize_kernel, non-summable laws on overlapping bases are
    accepted.
    """
    t = model.basis.window
    if not 1 <= d <= t:
        raise DomainError(f"need 1 <= d <= window {t}, got d={d}")
    return norm_growth_scan(MercerSynthesizedSpec(model), [d], method="auto",
                            cap=cap, restarts=restarts, seed=seed).estimates[0]


def builtin_model_zoo() -> dict[str, MercerModel]:
    """Named reference models for the tests."""
    zoo: dict[str, MercerModel] = {}
    zoo["canonical-power2"] = MercerModel(
        basis=canonical_basis(128), eigenvalue_law=PowerLaw(-2.0))
    zoo["canonical-geometric"] = MercerModel(
        basis=canonical_basis(128), eigenvalue_law=Geometric(0.5))
    zoo["canonical-literal"] = MercerModel(
        basis=canonical_basis(16), eigenvalue_law=Literal((3.0, 2.0, 1.0)))
    zoo["laguerre08-power4"] = MercerModel(
        basis=laguerre_basis(0.8, 20, 400), eigenvalue_law=PowerLaw(-4.0))
    zoo["laguerre05-power4"] = MercerModel(
        basis=laguerre_basis(0.5, 20, 256), eigenvalue_law=PowerLaw(-4.0))
    zoo["laguerre08-power2"] = MercerModel(
        basis=laguerre_basis(0.8, 20, 400), eigenvalue_law=PowerLaw(-2.0))
    zoo["random-power4"] = MercerModel(
        basis=random_orthogonal_basis(11, 32, 128), eigenvalue_law=PowerLaw(-4.0))
    return zoo
