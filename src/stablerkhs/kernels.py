"""Kernel families over the natural numbers and their finite truncations.

Kernels are symmetric positive semidefinite infinite matrices indexed by
i, j >= 1 (index base fixed at 1; internal storage is 0-based with the
conversion done in exactly one place per code path). A ``KernelSpec``
evaluates entries lazily; ``truncate`` materializes the leading d x d
window as a ``TruncatedKernel`` with exact symmetry by construction: the
upper triangle is evaluated and mirrored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .config import KERNEL_SCHEMA, coerce_keys, schema_entry
from .errors import DomainError, StructuralError
from .generators import SequenceGenerator

#: Relative PSD tolerance: lambda_min >= -EPS_PSD * max(1, lambda_max).
EPS_PSD = 1e-10

#: Relative tolerance for the symmetry check on externally supplied matrices.
EPS_SYM = 1e-13


def _check_index(i: int, j: int) -> None:
    if i < 1 or j < 1:
        raise DomainError(f"kernel indices start at 1, got ({i}, {j})")


@dataclass(frozen=True)
class KernelSpec:
    """Symbolic description of an infinite kernel, evaluable entrywise."""

    family = "abstract"

    def entry(self, i: int, j: int) -> float:
        """K_{ij} for i, j >= 1. Pure and deterministic."""
        _check_index(i, j)
        return self._entry(i, j)

    def _entry(self, i: int, j: int) -> float:
        raise NotImplementedError

    def _block(self, d: int) -> np.ndarray:
        """Dense leading d x d block; rows/cols 0-based for indices 1..d."""
        return np.array([[self._entry(i, j) for j in range(1, d + 1)]
                         for i in range(1, d + 1)], dtype=float)

    def diagonal(self, d: int) -> np.ndarray:
        """K_{ii} for i = 1..d."""
        if d < 1:
            raise DomainError(f"truncation order must be >= 1, got {d}")
        return np.array([self._entry(i, i) for i in range(1, d + 1)], dtype=float)

    @property
    def max_order(self) -> int | None:
        """Largest usable truncation order, None when unlimited."""
        return None

    @property
    def support(self) -> int | None:
        """Smallest n with K_ij = 0 whenever i > n or j > n, if finite.

        Diagnostic grids are extended past a finite support so that
        windowed probes observe the plateau instead of extrapolating the
        growth inside it.
        """
        return None

    def to_config(self) -> dict[str, Any]:
        """The family and the values of its KERNEL_SCHEMA keys."""
        out: dict[str, Any] = {"family": self.family}
        for key in KERNEL_SCHEMA[self.family]:
            value = getattr(self, key)
            out[key] = (value.spec_string()
                        if isinstance(value, SequenceGenerator) else value)
        return out

    def label(self) -> str:
        return self.family


@dataclass(frozen=True)
class StableSpline(KernelSpec):
    """K_{ij} = alpha**max(i, j), 0 <= alpha < 1.

    The reference exponentially-decaying smooth kernel; also known as the
    first-order tuned/correlated (TC) model.
    """

    alpha: float
    family = "stable-spline"

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha < 1.0:
            raise DomainError(f"stable-spline decay must satisfy 0 <= alpha < 1, "
                              f"got {self.alpha}")

    def _entry(self, i: int, j: int) -> float:
        return float(self.alpha) ** max(i, j)

    def _block(self, d: int) -> np.ndarray:
        idx = np.arange(1, d + 1)
        return self.alpha ** np.maximum.outer(idx, idx).astype(float)

    def diagonal(self, d: int) -> np.ndarray:
        if d < 1:
            raise DomainError(f"truncation order must be >= 1, got {d}")
        return self.alpha ** np.arange(1, d + 1, dtype=float)

    def label(self) -> str:
        return f"stable-spline(alpha={self.alpha:g})"


#: Lags beyond this many widths are clipped to it: exp(-28**2) already
#: rounds to 0.0, and the clip keeps (lag / width)**2 from overflowing.
_GAUSS_CUTOFF = 28.0


@dataclass(frozen=True)
class Gaussian(KernelSpec):
    """K_{ij} = exp(-((i - j) / width)**2)."""

    width: float = 1.0
    family = "gaussian"

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise DomainError(f"gaussian width must be positive, got {self.width}")

    def _entry(self, i: int, j: int) -> float:
        lag = min(abs(i - j), _GAUSS_CUTOFF * self.width)
        return float(np.exp(-(lag / self.width) ** 2))

    def _block(self, d: int) -> np.ndarray:
        idx = np.arange(1, d + 1, dtype=float)
        lag = np.minimum(np.abs(np.subtract.outer(idx, idx)),
                         _GAUSS_CUTOFF * self.width)
        return np.exp(-(lag / self.width) ** 2)

    def diagonal(self, d: int) -> np.ndarray:
        if d < 1:
            raise DomainError(f"truncation order must be >= 1, got {d}")
        return np.ones(d)

    def label(self) -> str:
        return f"gaussian(width={self.width:g})"


@dataclass(frozen=True)
class TranslationInvariant(KernelSpec):
    """K_{ij} = h(|i - j|) for a lag sequence h.

    h must itself be PSD-inducing for the result to be a kernel; this is
    not checked at construction (validate_psd catches offenders on any
    finite window).
    """

    h: SequenceGenerator
    family = "translation-invariant"

    def _entry(self, i: int, j: int) -> float:
        return self.h.lag(abs(i - j))

    def _block(self, d: int) -> np.ndarray:
        lags = np.array([self.h.lag(k) for k in range(d)], dtype=float)
        idx = np.arange(d)
        return lags[np.abs(np.subtract.outer(idx, idx))]

    def diagonal(self, d: int) -> np.ndarray:
        if d < 1:
            raise DomainError(f"truncation order must be >= 1, got {d}")
        return np.full(d, self.h.lag(0))

    def label(self) -> str:
        return f"translation-invariant(h={self.h.spec_string()})"


@dataclass(frozen=True)
class RankOne(KernelSpec):
    """K_{ij} = v_i * v_j for a factor sequence v."""

    v: SequenceGenerator
    family = "rank-one"

    def _entry(self, i: int, j: int) -> float:
        return self.v.term(i) * self.v.term(j)

    def _block(self, d: int) -> np.ndarray:
        vv = self.v.terms(d)
        return np.outer(vv, vv)

    def diagonal(self, d: int) -> np.ndarray:
        if d < 1:
            raise DomainError(f"truncation order must be >= 1, got {d}")
        return self.v.terms(d) ** 2

    @property
    def support(self) -> int | None:
        return self.v.support()

    def label(self) -> str:
        return f"rank-one(v={self.v.spec_string()})"


@dataclass(frozen=True)
class Diagonal(KernelSpec):
    """K_{ij} = g_i if i == j else 0."""

    g: SequenceGenerator
    family = "diagonal"

    def _entry(self, i: int, j: int) -> float:
        return self.g.term(i) if i == j else 0.0

    def _block(self, d: int) -> np.ndarray:
        return np.diag(self.g.terms(d))

    def diagonal(self, d: int) -> np.ndarray:
        if d < 1:
            raise DomainError(f"truncation order must be >= 1, got {d}")
        return self.g.terms(d)

    @property
    def support(self) -> int | None:
        return self.g.support()

    def label(self) -> str:
        return f"diagonal(g={self.g.spec_string()})"


@dataclass(frozen=True, eq=False)
class TruncatedKernel:
    """Dense symmetric window K^(d): the leading d x d block of a kernel.

    entries is stored read-only; entries[i, j] equals
    source.entry(i + 1, j + 1) exactly, no re-quantization.
    """

    d: int
    entries: np.ndarray
    source: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.d < 1:
            raise DomainError(f"truncation order must be >= 1, got {self.d}")
        e = np.asarray(self.entries, dtype=float)
        if e.shape != (self.d, self.d):
            raise StructuralError(f"entries shape {e.shape} does not match d={self.d}")
        object.__setattr__(self, "entries", e)
        e.setflags(write=False)

    def leading(self, k: int) -> "TruncatedKernel":
        """Leading k x k sub-window, entry-exact."""
        if not 1 <= k <= self.d:
            raise DomainError(f"sub-window order must be in [1, {self.d}], got {k}")
        return TruncatedKernel(k, self.entries[:k, :k].copy(), dict(self.source))


def eval_entry(spec: KernelSpec, i: int, j: int) -> float:
    """Entry K_{ij} of the kernel described by spec, i, j >= 1."""
    return spec.entry(i, j)


def truncate(spec: KernelSpec, d: int) -> TruncatedKernel:
    """Leading d x d window of spec, exactly symmetric by construction."""
    if d < 1:
        raise DomainError(f"truncation order must be >= 1, got {d}")
    cap = spec.max_order
    if cap is not None and d > cap:
        raise DomainError(f"{spec.label()} is materialized on a window of "
                          f"{cap}; cannot truncate at d={d}")
    n = spec.support
    if n is not None and n < d:
        # Entries past the support are exact zeros: mirror the support
        # block only and pad.
        k = np.zeros((d, d))
        k[:n, :n] = _mirrored_block(spec, n)
    else:
        k = _mirrored_block(spec, d)
    return TruncatedKernel(d, k, spec.to_config())


def _mirrored_block(spec: KernelSpec, d: int) -> np.ndarray:
    """Upper triangle of spec's d-block, mirrored: symmetry exact whatever
    the family does."""
    block = spec._block(d)
    return np.triu(block) + np.triu(block, 1).T


@dataclass(frozen=True)
class PsdCheck:
    """Outcome of a PSD validation, with the extremal eigenvalues as evidence."""

    ok: bool
    lambda_min: float
    lambda_max: float
    tolerance: float


def validate_psd(kernel: TruncatedKernel, eps_psd: float = EPS_PSD) -> PsdCheck:
    """Check lambda_min(K) >= -eps_psd * max(1, lambda_max(K)).

    Raises StructuralError when the matrix is asymmetric beyond machine
    tolerance; asymmetry is a structural defect, not indefiniteness.
    """
    k = kernel.entries
    scale = np.abs(k).max() if k.size else 0.0
    asym = np.abs(k - k.T).max()
    if asym > EPS_SYM * max(1.0, scale):
        raise StructuralError(f"matrix asymmetry {asym:.3e} exceeds tolerance")
    w = np.linalg.eigvalsh(k)
    lam_min, lam_max = float(w[0]), float(w[-1])
    tol = eps_psd * max(1.0, lam_max)
    return PsdCheck(ok=lam_min >= -tol, lambda_min=lam_min,
                    lambda_max=lam_max, tolerance=tol)


def spec_from_config(config: dict[str, Any]) -> KernelSpec:
    """Rebuild a KernelSpec from its declarative key-value form.

    The family's keys and their types are config.KERNEL_SCHEMA's. An
    unknown key, a key of another family or a missing key is rejected
    with the offending key named.
    """
    if "family" not in config:
        raise DomainError("kernel config is missing the 'family' key")
    keys = schema_entry(KERNEL_SCHEMA, config["family"], "kernel family")
    family = config["family"]
    if family not in _CLOSED_FORMS:
        # Synthesized kernels live in the basis module; import locally to
        # keep the dependency one-way at module load time.
        from .basis import mercer_spec_from_config

        return mercer_spec_from_config(config)
    values = {key: value for key, value in config.items() if key != "family"}
    return _CLOSED_FORMS[family](
        **coerce_keys(values, keys, f"{family} kernel"))


#: The closed-form families by name; the rest are synthesized.
_CLOSED_FORMS = {cls.family: cls for cls in (StableSpline, Gaussian,
                                             TranslationInvariant, RankOne,
                                             Diagonal)}
