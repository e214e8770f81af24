"""The (infinity, 1) operator norm of symmetric PSD windows.

For a PSD matrix K the norm max_{|u|_inf = 1} |K u|_1 is attained at a
sign vector u in {-1, +1}^d and there equals the quadratic form u' K u,
so computing it is a binary quadratic maximization. Two engines:

* exact: enumerate all 2^(d-1) sign classes (u and -u are equivalent,
  coordinate 1 is pinned to +1) in Gray-code order, in blocks. The
  LOW_BITS free coordinates after coordinate 1 form the low block; the
  others, coordinate 1 included, form the high block. The high block
  walks its own Gray sequence, keeping s = K u_hi and q = u_hi' K u_hi
  up to date: flipping coordinate p costs O(d) for s and O(1) for q,

      q' = q - 4 u_p s_p + 4 K_pp,      s' = s - 2 u_p K[:, p].

  At each high state one product with the table of low sign vectors
  scores all 2^LOW_BITS completions, in the order of a single Gray scan
  over all free coordinates. Both engines read the column K[:, p] as
  the row K[p], which it equals in a symmetric window, so no transposed
  copy is made.

  The reported value is re-evaluated non-incrementally at the winning
  sign vector, so accumulated drift cannot leak into the result.

* heuristic: best-of-restarts local ascent over single sign flips,
  deterministic given the seed. Always a valid lower bound.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EnumerationCapError, StructuralError
from .kernels import TruncatedKernel, validate_psd

#: Default cap on exact enumeration: 2^27 sign classes, scored in
#: 2^15 blocks of 2^LOW_BITS (about 1.5 s at d = 28 on a 2-core VM).
ENUMERATION_CAP = 28

#: Width of the exact engine's low block. Each high sign state scores
#: its 2^LOW_BITS low completions with one product against the Gray
#: table, which is 384 KiB at 12 bits.
LOW_BITS = 12

#: Default restart count for the ascent heuristic.
DEFAULT_RESTARTS = 16


class NormKind(enum.Enum):
    EXACT = "exact"
    LOWER_BOUND = "lower-bound"
    UPPER_BOUND = "upper-bound"


class NormMethod(enum.Enum):
    GRAY_CODE_ENUMERATION = "gray-code-enumeration"
    SIGN_FLIP_ASCENT = "sign-flip-ascent"
    TRACE_SANDWICH = "trace-sandwich"
    ABS_SUM_BOUND = "abs-sum-bound"


@dataclass(frozen=True, eq=False)
class NormEstimate:
    """A value for (or bound on) the (inf,1) norm of a d x d window."""

    value: float
    kind: NormKind
    d: int
    method: NormMethod
    witness: np.ndarray | None = None

    def witness_signs(self) -> list[int] | None:
        """Witness as a plain list of +-1 ints (JSON-friendly)."""
        if self.witness is None:
            return None
        return [int(x) for x in self.witness]


def _gray_table(k: int) -> np.ndarray:
    """The 2^k sign vectors of length k in reflected-Gray order.

    Row r has -1 exactly where bit j of gray(r) = r ^ (r >> 1) is set, so
    consecutive rows differ in one coordinate, that of the lowest set
    bit of r, as in the flip sequence of the full scan.
    """
    r = np.arange(1 << k)
    bits = ((r ^ (r >> 1))[:, None] >> np.arange(k)) & 1
    return 1.0 - 2.0 * bits


def _block_gray_scan(k: np.ndarray) -> np.ndarray:
    """The first maximizer of u' K u over u with u_1 = +1, in Gray order.

    At each high state the low completions g score

        u' K u = q_hi + 2 g' t + g' K_ll g,      t = K_lh u_hi;

    the table is read backwards on odd high states, so the candidates
    come in the order of the single Gray scan over all d - 1 free
    coordinates, and the first of equal maxima wins: argmax within a
    block, strict > across blocks.
    """
    d = k.shape[0]
    nlow = min(d - 1, LOW_BITS)
    low = slice(1, nlow + 1)
    g = _gray_table(nlow)
    c = np.einsum("rj,jl,rl->r", g, k[low, low], g)
    u = np.ones(d)
    hi = np.r_[0, nlow + 1:d]
    s = k[:, hi].sum(axis=1)         # K u restricted to the high columns
    q = s[hi].sum()
    diag = np.diag(k)
    best = -np.inf
    best_u = u
    for b in range(1 << (d - 1 - nlow)):
        if b:       # flip the high coordinate of b's lowest set bit
            p = nlow + (b & -b).bit_length()
            up = u[p]
            q = q + 4.0 * (diag[p] - up * s[p])
            u[p] = -up
            s -= (2.0 * up) * k[p]
        scores = q + 2.0 * (g @ s[low]) + c
        if b & 1:
            scores = scores[::-1]
        r = int(scores.argmax())
        if scores[r] > best:
            best = scores[r]
            best_u = u.copy()
            best_u[low] = g[len(g) - 1 - r if b & 1 else r]
    return best_u


def quadratic_form(k: np.ndarray, u: np.ndarray) -> float:
    """u' K u evaluated directly (no incremental state)."""
    return float(u @ (k @ u))


def inf_one_norm_exact(kernel: TruncatedKernel,
                       cap: int = ENUMERATION_CAP) -> NormEstimate:
    """Exact (inf,1) norm of a PSD window by Gray-code sign enumeration.

    Refuses d > cap (use the heuristic instead) and non-PSD input (the
    sign-vector reduction relies on positive semidefiniteness).
    """
    d = kernel.d
    if d > cap:
        raise EnumerationCapError(
            f"exact enumeration refused at d={d} > cap={cap}; "
            f"use inf_one_norm_heuristic for a lower bound")
    check = validate_psd(kernel)
    if not check.ok:
        raise StructuralError(
            f"exact (inf,1) norm requires a PSD matrix; lambda_min = "
            f"{check.lambda_min:.3e} below tolerance {-check.tolerance:.3e}")
    best_u = _block_gray_scan(kernel.entries)
    value = quadratic_form(kernel.entries, best_u)
    return NormEstimate(value=value, kind=NormKind.EXACT, d=d,
                        method=NormMethod.GRAY_CODE_ENUMERATION,
                        witness=best_u)


def _ascent(k: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Greedy single-flip ascent on u' K u from the given start.

    The first strictly improving flip in ascending index order is taken
    (deterministic tie-breaking).
    """
    diag = np.diag(k)
    s = k @ u
    while True:
        gains = 4.0 * (diag - u * s)
        p = int((gains > 0.0).argmax())
        if not gains[p] > 0.0:
            return u
        up = u[p]
        u[p] = -up
        s -= (2.0 * up) * k[p]


def inf_one_norm_heuristic(kernel: TruncatedKernel,
                           restarts: int = DEFAULT_RESTARTS,
                           seed: int = 0) -> NormEstimate:
    """Best-of-restarts sign-flip ascent; a certified lower bound.

    Restart 0 starts from the all-ones vector (optimal for entrywise
    nonnegative kernels); the remaining starts are seeded random signs,
    one independent stream per restart.
    """
    if restarts < 1:
        raise DomainError(f"need at least one restart, got {restarts}")
    k = kernel.entries
    d = kernel.d
    best_val = -np.inf
    best_u: np.ndarray | None = None
    for r in range(restarts):
        if r == 0:
            u = np.ones(d)
        else:
            rng = np.random.default_rng([seed, r])
            u = np.where(rng.random(d) < 0.5, -1.0, 1.0)
        u = _ascent(k, u)
        val = quadratic_form(k, u)
        if val > best_val:
            best_val = val
            best_u = u
    assert best_u is not None
    if best_u[0] < 0:        # canonicalize the u <-> -u symmetry
        best_u = -best_u
    return NormEstimate(value=best_val, kind=NormKind.LOWER_BOUND, d=d,
                        method=NormMethod.SIGN_FLIP_ASCENT, witness=best_u)


def trace_lower_bound(kernel: TruncatedKernel) -> NormEstimate:
    """tr(K) <= |K|_{inf,1}: the cheap side of the trace sandwich."""
    tr = float(np.trace(kernel.entries))
    return NormEstimate(value=tr, kind=NormKind.LOWER_BOUND, d=kernel.d,
                        method=NormMethod.TRACE_SANDWICH)


def abs_sum_upper_bound(kernel: TruncatedKernel) -> NormEstimate:
    """|K|_{inf,1} <= sum_ij |K_ij| (triangle inequality, any K)."""
    total = float(np.abs(kernel.entries).sum())
    return NormEstimate(value=total, kind=NormKind.UPPER_BOUND, d=kernel.d,
                        method=NormMethod.ABS_SUM_BOUND)


def sign_matrix(m: int) -> np.ndarray:
    """All 2^m sign vectors of length m as rows (the V^(n) construction)."""
    if m < 1:
        raise DomainError(f"sign matrix needs m >= 1, got {m}")
    if m > 20:
        raise DomainError(f"refusing to materialize 2^{m} sign vectors")
    n = 1 << m
    rows = np.empty((n, m))
    for c in range(m):
        period = 1 << (m - c - 1)
        col = np.tile(np.repeat(np.array([1.0, -1.0]), period), n // (2 * period))
        rows[:, c] = col
    return rows


def brute_force_inf_one_norm(k: np.ndarray) -> tuple[float, np.ndarray]:
    """Independent oracle: max_u |K u|_1 over all sign vectors, directly.

    Evaluates |K u|_1 (not the quadratic form) for every sign vector, so
    it is valid for any symmetric K and shares no code path with the
    Gray-code engine. Since |K(-u)|_1 = |K u|_1, only the first half of
    the sign matrix, the rows with u_1 = +1, is scored.
    """
    d = k.shape[0]
    signs = sign_matrix(d)[:1 << (d - 1)]
    ku = signs @ k.T                     # row r is K u_r (K symmetric)
    norms = np.abs(ku).sum(axis=1)
    r = int(np.argmax(norms))
    return float(norms[r]), signs[r]
