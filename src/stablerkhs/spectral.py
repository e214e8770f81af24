"""Truncated eigendecomposition and convergence monitoring.

The eigenpairs of the leading d x d window of a finite-trace kernel
converge, as d grows, to the eigenpairs of the kernel operator on the
space of square-summable sequences: eigenvalues from below (windows are
nested, so each eigenvalue path is non-decreasing in d), eigenvectors in
the l2 sense once zero-padded to a common length, provided the limiting
eigenvalue is simple. This module computes the finite spectra, monitors
those convergence diagnostics along a d-grid, and exposes the feature
map and low-rank reconstructions derived from a spectrum.

Eigenvector signs are meaningless individually; a canonical choice (the
largest-magnitude coordinate is made positive, ties broken by lowest
index) keeps traces reproducible, and consecutive-window comparisons
additionally align each pair by the sign minimizing the discrepancy.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import ConfigError, DomainError, NumericalError, StructuralError
from .kernels import EPS_PSD, EPS_SYM, KernelSpec, TruncatedKernel, truncate

#: Adjacent eigenvalues closer than EPS_GAP * lambda_1 trigger a
#: multiplicity warning: per-vector convergence is undefined on
#: (near-)degenerate eigenspaces, so affected traces are marked unreliable.
EPS_GAP = 1e-8

#: Slack for the monotone eigenvalue-path invariant.
MONOTONE_SLACK = 1e-12

#: check_spectrum's tolerances: elementwise |V'V - I|, and the Frobenius
#: reconstruction error relative to |K|_F.
ORTH_TOL = 1e-10
RECON_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Full spectrum of a truncated kernel, descending, sign-normalized."""

    d: int
    eigenvalues: np.ndarray            # descending, negatives clamped to 0
    eigenvectors: np.ndarray           # columns, orthonormal
    clamped: int = 0                   # count of small negatives clamped
    multiplicity_warnings: tuple[tuple[int, int], ...] = ()

    def rank(self) -> int:
        """Number of strictly positive eigenvalues."""
        return int(np.count_nonzero(self.eigenvalues > 0.0))

    def min_gap(self) -> float:
        """Smallest adjacent gap among the resolved eigenvalues.

        An eigenvalue is resolved when it exceeds EPS_PSD * lambda_1;
        below that the eigensolver's rounding (and the clamping of small
        negatives to zero) decides it, so equal zeros there are no
        multiplicity. inf when fewer than two are resolved.
        """
        lam = self.eigenvalues
        resolved = lam[lam > EPS_PSD * lam[0]] if self.d else lam
        if resolved.size < 2:
            return float("inf")
        return float(np.min(np.abs(np.diff(resolved))))


def _sign_normalize(vectors: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude coordinate of each column positive.

    np.argmax returns the first maximal index, which implements the
    lowest-index tie-break.
    """
    idx = np.abs(vectors).argmax(axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def eigendecompose(kernel: TruncatedKernel) -> Spectrum:
    """Full symmetric eigendecomposition of a PSD window.

    Eigenvalues are sorted descending; negatives within the PSD
    tolerance are clamped to zero and counted, larger negatives raise.
    """
    k = kernel.entries
    asym = np.abs(k - k.T).max()
    if asym > EPS_SYM * max(1.0, np.abs(k).max() if k.size else 0.0):
        raise StructuralError(f"matrix asymmetry {asym:.3e}; eigendecomposition "
                              f"requires a symmetric input")
    try:
        w, v = np.linalg.eigh(k)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge at d={kernel.d}") from exc
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    lam_max = float(w[0]) if w.size else 0.0
    tol = EPS_PSD * max(1.0, lam_max)
    if w[-1] < -tol:
        raise NumericalError(
            f"input is not PSD within tolerance: lambda_min = {w[-1]:.6e} "
            f"< {-tol:.3e} at d={kernel.d}")
    clamped = int(np.count_nonzero(w < 0.0))
    w[w < 0.0] = 0.0
    v = _sign_normalize(v)
    gap_tol = EPS_GAP * max(lam_max, 0.0)
    close = np.abs(np.diff(w)) < gap_tol
    warnings = tuple((int(i) + 1, int(i) + 2) for i in np.nonzero(close)[0])
    return Spectrum(d=kernel.d, eigenvalues=w, eigenvectors=v,
                    clamped=clamped, multiplicity_warnings=warnings)


def check_spectrum(spectrum: Spectrum, kernel: TruncatedKernel) -> None:
    """Verify the orthonormality and reconstruction contracts (O(d^3))."""
    v = spectrum.eigenvectors
    gram_dev = np.abs(v.T @ v - np.eye(spectrum.d)).max()
    if gram_dev > ORTH_TOL:
        raise NumericalError(f"eigenvector orthonormality off by {gram_dev:.3e}")
    recon = (v * spectrum.eigenvalues) @ v.T
    scale = np.linalg.norm(kernel.entries)
    err = np.linalg.norm(kernel.entries - recon)
    if err > RECON_TOL * max(scale, 1e-300):
        raise NumericalError(f"spectral reconstruction error {err:.3e} exceeds "
                             f"{RECON_TOL:g} of |K|_F")


@dataclass(frozen=True, eq=False)
class ConvergenceTrace:
    """Eigenvalue paths and eigenvector discrepancies along a d-grid."""

    grid: tuple[int, ...]
    tracked: tuple[int, ...]
    eigenvalue_paths: dict[int, np.ndarray]          # index -> values per d
    discrepancies: dict[int, np.ndarray]             # index -> len(grid)-1
    unreliable: frozenset[int] = frozenset()
    min_gaps: dict[int, float] = field(default_factory=dict)  # per d
    clamped: dict[int, int] = field(default_factory=dict)     # per d
    final: Spectrum | None = None                    # spectrum at grid[-1]

    def __post_init__(self) -> None:
        for i, path in self.eigenvalue_paths.items():
            drops = np.diff(path) < -MONOTONE_SLACK
            if np.any(drops):
                at = int(np.nonzero(drops)[0][0])
                raise NumericalError(
                    f"eigenvalue path {i} decreased between d={self.grid[at]} "
                    f"and d={self.grid[at + 1]} by more than {MONOTONE_SLACK:g}"
                    f" ({path[at]} -> {path[at + 1]}); nested windows cannot "
                    f"lose eigenvalue mass")


def _align_padded(longer: np.ndarray, shorter: np.ndarray) -> float:
    """l2 discrepancy after zero-padding and optimal sign alignment."""
    padded = np.zeros(longer.shape[0])
    padded[:shorter.shape[0]] = shorter
    sign = 1.0 if float(longer @ padded) >= 0.0 else -1.0
    return float(np.linalg.norm(longer - sign * padded))


def convergence_scan(spec: KernelSpec, grid: Sequence[int],
                     track: Sequence[int], *,
                     threads: int = 1) -> ConvergenceTrace:
    """Decompose K^(d) along an ascending grid and monitor tracked indices.

    The kernel is truncated once, at the largest order; smaller windows
    are its leading blocks, which are entry-exact. Decompositions at
    different orders are independent and may run on a thread pool; the
    trace itself is assembled by a deterministic sequential fold over
    ascending d, so the result does not depend on the schedule. The
    spectrum at the largest order is kept on the trace as ``final``; the
    smaller ones keep only their tracked leading eigenvectors, which
    bounds the scan's memory by one full spectrum.
    """
    grid = [int(d) for d in grid]
    track = sorted(int(i) for i in track)
    if len(grid) < 2:
        raise ConfigError("convergence scan needs at least two grid points")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("convergence scan grid must be strictly ascending")
    if not track:
        raise ConfigError("no tracked indices given")
    if track[0] < 1:
        raise ConfigError(f"tracked indices start at 1, got {track[0]}")
    if track[-1] > grid[0]:
        raise ConfigError(f"tracked index {track[-1]} exceeds the smallest "
                          f"grid order {grid[0]}")
    big = truncate(spec, grid[-1])

    def spectrum_at(d: int) -> Spectrum:
        if d == big.d:
            return eigendecompose(big)
        s = eigendecompose(big.leading(d))
        # The fold reads no eigenvector past the last tracked index.
        return replace(s, eigenvectors=s.eigenvectors[:, :track[-1]].copy())

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            spectra = list(pool.map(spectrum_at, grid))
    else:
        spectra = [spectrum_at(d) for d in grid]

    paths = {i: np.array([s.eigenvalues[i - 1] for s in spectra]) for i in track}
    discrepancies = {
        i: np.array([
            _align_padded(spectra[g + 1].eigenvectors[:, i - 1],
                          spectra[g].eigenvectors[:, i - 1])
            for g in range(len(grid) - 1)
        ])
        for i in track
    }
    # A tracked index is unreliable wherever a multiplicity warning names it.
    warned = {i for s in spectra for pair in s.multiplicity_warnings for i in pair}
    return ConvergenceTrace(grid=tuple(grid), tracked=tuple(track),
                            eigenvalue_paths=paths, discrepancies=discrepancies,
                            unreliable=frozenset(warned.intersection(track)),
                            min_gaps={s.d: s.min_gap() for s in spectra},
                            clamped={s.d: s.clamped for s in spectra},
                            final=spectra[-1])


def mercer_reconstruct(spectrum: Spectrum, rank: int,
                       reference: TruncatedKernel | None = None,
                       ) -> tuple[TruncatedKernel, float, float]:
    """Rank-r spectral reconstruction sum_{i<=r} lambda_i rho_i rho_i'.

    Returns (reconstruction, Frobenius error, tail energy ratio). The
    error is measured against the supplied reference window when given,
    otherwise against the full-rank reconstruction. r = 0 is allowed and
    yields the zero matrix.
    """
    if not 0 <= rank <= spectrum.d:
        raise DomainError(f"rank must be in [0, {spectrum.d}], got {rank}")
    v = spectrum.eigenvectors[:, :rank]
    lam = spectrum.eigenvalues[:rank]
    low = (v * lam) @ v.T
    low = np.triu(low) + np.triu(low, 1).T
    if reference is not None:
        if reference.d != spectrum.d:
            raise DomainError(f"reference order {reference.d} does not match "
                              f"spectrum order {spectrum.d}")
        target = reference.entries
    else:
        vf = spectrum.eigenvectors
        target = (vf * spectrum.eigenvalues) @ vf.T
    err = float(np.linalg.norm(target - low))
    total = float(spectrum.eigenvalues.sum())
    tail = float(spectrum.eigenvalues[rank:].sum())
    ratio = tail / total if total > 0 else 0.0
    kernel = TruncatedKernel(spectrum.d, low,
                             {"family": "reconstruction", "rank": rank})
    return kernel, err, ratio


def feature_map(spectrum: Spectrum, x: int) -> np.ndarray:
    """phi(x) with i-th entry sqrt(lambda_i) * rho_i(x).

    Inner products of feature vectors reproduce kernel entries:
    <phi(x), phi(y)> = K_xy within the spectral reconstruction accuracy.
    """
    if not 1 <= x <= spectrum.d:
        raise DomainError(f"feature map index must be in [1, {spectrum.d}], "
                          f"got {x}")
    return np.sqrt(spectrum.eigenvalues) * spectrum.eigenvectors[x - 1, :]
