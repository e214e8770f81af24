"""Impulse-response identification from input-output data.

Three estimators over a common regression setup. The measured output at
instant t_k is the causal convolution of a known input with the unknown
impulse response f, so each observation contributes a regression row
Phi[k, j] = u(t_k - j + 1) for j <= t_k (zero otherwise), with f
truncated at a computation window T_f whose tail is audited.

* ls_estimate: classical least squares on the first d vectors of an
  orthonormal basis; d trades bias against variance and is selected by
  AIC.
* rels_estimate / rels_path: kernel regularized least squares. The
  minimizer lives in an N-dimensional subspace determined by the kernel
  and the input, so the solve is an N x N SPD factorization,
  f = K Phi' c with c = (Phi K Phi' + gamma I)^(-1) y.
* trunc_mercer_estimate: the d-dimensional surrogate in truncated
  eigenbasis coordinates, ridge objective sum (a_i^2 / lambda_i). At
  full spectral rank it reproduces rels_estimate (the two quadratic
  programs are the same optimization written in different coordinates);
  for d much smaller than N it costs O(N d^2) after the regressors are
  projected once.

Costs. A problem builds Phi once, on first use, and every call shares
that read-only array. rels_path and select_gamma truncate the kernel,
audit its tail and form K Phi' and the N x N Gram G = Phi K Phi' once
per call; after that each gamma costs one N x N Cholesky of G + gamma I
(select_gamma: one per (fold, gamma), on row and column slices of G).
The truncated surrogate projects B = Phi V diag(sqrt(lambda)) and forms
B'B once, at the largest order a call needs; each order then factors
the leading d x d block, so sweep_d costs one projection for all orders.

All solves use SPD Cholesky factorizations; no explicit inverses and no
eigendecompositions. The truncated solve substitutes
b = diag(lambda)^(-1/2) a so that tiny eigenvalues never appear as
divisors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Sequence

import numpy as np

from .basis import OrthoBasis
from .errors import ConfigError, DomainError, NumericalError
from .kernels import KernelSpec, truncate
from .spectral import Spectrum

#: Default computation window for exponentially decaying kernels.
DEFAULT_WINDOW = 2000

#: The kernel diagonal at the window edge should be below this fraction of
#: its first entry, otherwise the truncation is flagged as lossy.
TAIL_RATIO = 1e-10

#: Pole of the one-pole smoother behind simulate's "filtered" input.
FILTER_POLE = 0.9


@dataclass(frozen=True, eq=False)
class RegressionProblem:
    """Input, observation instants and measurements of one experiment."""

    u: np.ndarray              # input samples u(1..len)
    times: np.ndarray          # observation instants t_1 < ... < t_N
    y: np.ndarray              # N measurements
    sigma: float               # noise level used to generate y (metadata)
    window: int                # T_f, computation window for f

    def __post_init__(self) -> None:
        u = np.asarray(self.u, dtype=float)
        times = np.asarray(self.times, dtype=int)
        y = np.asarray(self.y, dtype=float)
        if y.ndim != 1 or y.size < 1:
            raise ConfigError("need at least one observation")
        if times.shape != y.shape:
            raise ConfigError("times and y must have equal length")
        if np.any(np.diff(times) <= 0):
            raise ConfigError("observation instants must be strictly ascending")
        if times[0] < 1 or times[-1] > u.size:
            raise ConfigError(f"observation instants must lie in [1, {u.size}]")
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        for name, arr in (("u", u), ("times", times), ("y", y)):
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return int(self.y.size)

    @cached_property
    def phi(self) -> np.ndarray:
        """The regression matrix, built on first use; read-only."""
        phi = np.zeros((self.n, self.window))
        for k, t in enumerate(self.times):
            m = min(int(t), self.window)
            # u(t), u(t-1), ..., u(t-m+1) in 0-based storage
            phi[k, :m] = self.u[t - m:t][::-1]
        phi.setflags(write=False)
        return phi


def regression_matrix(problem: RegressionProblem) -> np.ndarray:
    """N x T_f matrix with rows Phi[k, j] = u(t_k - j + 1), 0 beyond t_k.

    Built once per problem; every call returns the same read-only array.
    """
    return problem.phi


def convolve_truth(u: np.ndarray, f0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Noise-free outputs sum_j f0(j) u(t - j + 1) at the given instants."""
    full = np.convolve(u, f0)
    return full[np.asarray(times, dtype=int) - 1]


def simulate(f0: np.ndarray, input_kind: str, n: int, sigma: float, seed: int,
             window: int = DEFAULT_WINDOW) -> tuple[RegressionProblem, np.ndarray]:
    """Generate a synthetic identification problem with known truth.

    input_kind is one of "white" (unit Gaussian), "filtered" (white
    noise through a one-pole smoother), "step", "impulse". Observation
    instants are 1..n. Deterministic given the seed.
    """
    if sigma < 0:
        raise DomainError(f"noise level must be >= 0, got {sigma}")
    if n < 1:
        raise DomainError(f"need n >= 1 observations, got {n}")
    times = np.arange(1, n + 1)
    rng = np.random.default_rng(seed)
    if input_kind == "white":
        u = rng.standard_normal(n)
    elif input_kind == "filtered":
        w = rng.standard_normal(n)
        u = np.empty(n)
        acc = 0.0
        for t in range(n):
            acc = FILTER_POLE * acc + w[t]
            u[t] = acc
    elif input_kind == "step":
        u = np.ones(n)
    elif input_kind == "impulse":
        u = np.zeros(n)
        u[0] = 1.0
    else:
        raise ConfigError(f"unknown input kind {input_kind!r}")
    f0 = np.asarray(f0, dtype=float)
    y = convolve_truth(u, f0, times)
    if sigma > 0:
        y = y + sigma * rng.standard_normal(n)
    problem = RegressionProblem(u=u, times=times, y=y, sigma=sigma,
                                window=window)
    return problem, f0


def decaying_exponential_mix(coeffs: Sequence[float], poles: Sequence[float],
                             length: int) -> np.ndarray:
    """f0(t) = sum_m c_m p_m^t, the stock synthetic truth."""
    if len(coeffs) != len(poles):
        raise ConfigError("coefficient and pole lists must have equal length")
    if length < 1:
        raise DomainError(f"truth length must be >= 1, got {length}")
    t = np.arange(1, length + 1, dtype=float)
    out = np.zeros(length)
    for c, p in zip(coeffs, poles):
        if not abs(p) < 1:
            raise DomainError(f"truth poles must satisfy |p| < 1, got {p}")
        out += c * p ** t
    return out


@dataclass(frozen=True, eq=False)
class Estimate:
    """An impulse-response estimate plus solver diagnostics."""

    estimator: str                      # "ls" | "rels" | "trunc-mercer"
    impulse_response: np.ndarray        # length T_f
    coefficients: np.ndarray | None     # basis/eigenbasis coefficients
    order: int | None                   # d for ls / trunc-mercer
    gamma: float | None                 # regularization weight
    rss: float
    diagnostics: dict[str, Any] = field(default_factory=dict)


def _rss(problem: RegressionProblem, phi: np.ndarray, f: np.ndarray) -> float:
    r = problem.y - phi @ f
    return float(r @ r)


def ls_estimate(problem: RegressionProblem, basis: OrthoBasis,
                order: int) -> Estimate:
    """Least squares on the first `order` basis vectors.

    Rank-deficient normal equations fall back to the minimum-norm
    solution and are flagged in the diagnostics. order = 0 returns the
    zero estimate.
    """
    if not 0 <= order <= basis.count:
        raise DomainError(f"order must be in [0, {basis.count}], got {order}")
    if basis.window < problem.window:
        raise DomainError(f"basis window {basis.window} shorter than the "
                          f"computation window {problem.window}")
    phi = regression_matrix(problem)
    if order == 0:
        f = np.zeros(problem.window)
        return Estimate(estimator="ls", impulse_response=f,
                        coefficients=np.zeros(0), order=0, gamma=None,
                        rss=float(problem.y @ problem.y),
                        diagnostics={"rank": 0, "rank_deficient": False})
    b = basis.vectors[:problem.window, :order]
    g = phi @ b
    coeffs, _, rank, _ = np.linalg.lstsq(g, problem.y, rcond=None)
    f = b @ coeffs
    return Estimate(
        estimator="ls", impulse_response=f, coefficients=coeffs, order=order,
        gamma=None, rss=_rss(problem, phi, f),
        diagnostics={"rank": int(rank), "rank_deficient": bool(rank < order),
                     "condition": float(np.linalg.cond(g))})


#: RSS below this floor makes the AIC log term degenerate; it is clamped
#: and the selection records the degeneracy.
RSS_FLOOR = 1e-300


@dataclass(frozen=True)
class OrderSelection:
    order: int
    scores: tuple[tuple[int, float], ...]
    degenerate: bool = False


def select_order(problem: RegressionProblem, basis: OrthoBasis,
                 orders: Sequence[int]) -> OrderSelection:
    """Pick the estimation order by AIC.

    AIC = N log(RSS / N) + 2 d with an RSS floor guarding the log. Ties
    go to the smallest order.
    """
    orders = sorted(set(int(d) for d in orders))
    if not orders:
        raise ConfigError("empty order range")
    if any(not 0 <= d <= basis.count for d in orders):
        raise ConfigError(f"orders must lie in [0, {basis.count}]")
    n = problem.n
    scores: list[tuple[int, float]] = []
    degenerate = False
    for d in orders:
        rss = ls_estimate(problem, basis, d).rss
        if rss < RSS_FLOOR:
            degenerate = True
            rss = RSS_FLOOR
        scores.append((d, n * float(np.log(rss / n)) + 2.0 * d))
    best = min(scores, key=lambda t: (t[1], t[0]))
    return OrderSelection(order=best[0], scores=tuple(scores),
                          degenerate=degenerate)


def _check_gamma(gamma: float) -> None:
    if not (gamma > 0 and np.isfinite(gamma)):
        raise DomainError("regularization weight must be positive and finite,"
                          f" got {gamma}")


def _ridge_solve(a: np.ndarray, gamma: float, b: np.ndarray,
                 what: str) -> np.ndarray:
    """Solve (a + gamma I) x = b for symmetric PSD a, gamma > 0.

    The shifted matrix is one Fortran-ordered copy that the Cholesky
    factorization (lower triangle) then overwrites in place. scipy is
    imported here, at the first solve, so that importing the package
    loads only numpy.
    """
    from scipy.linalg import cho_factor, cho_solve

    m = np.array(a, order="F")
    m[np.diag_indices_from(m)] += gamma
    try:
        return cho_solve(cho_factor(m, lower=True, overwrite_a=True), b)
    except np.linalg.LinAlgError as exc:   # pragma: no cover - gamma > 0 guards
        raise NumericalError(f"SPD solve failed in {what}") from exc


def _kernel_gram(problem: RegressionProblem,
                 kernel: KernelSpec) -> tuple[np.ndarray, np.ndarray, float]:
    """K Phi' (T_f x N), the Gram Phi K Phi' (N x N) and the tail ratio.

    The tail ratio is the kernel diagonal at the window edge over its
    first entry; above TAIL_RATIO the window may be truncating mass.
    """
    tf = problem.window
    k = truncate(kernel, tf).entries
    tail_ratio = float(k[tf - 1, tf - 1] / k[0, 0]) if k[0, 0] > 0 else 0.0
    phi = regression_matrix(problem)
    kp = k @ phi.T
    return kp, phi @ kp, tail_ratio


def rels_path(problem: RegressionProblem, kernel: KernelSpec,
              gammas: Sequence[float]) -> list[Estimate]:
    """Kernel regularized least squares on the T_f window, one per gamma.

    Estimates come in the order of `gammas`. The kernel window, K Phi',
    the Gram G = Phi K Phi' and the tail audit are shared by every gamma,
    which then costs one N x N Cholesky of G + gamma I. A kernel tail
    ratio above TAIL_RATIO is flagged in the diagnostics.
    """
    gammas = [float(g) for g in gammas]
    if not gammas:
        raise ConfigError("empty gamma grid")
    for gamma in gammas:
        _check_gamma(gamma)
    kp, gram, tail_ratio = _kernel_gram(problem, kernel)
    phi = regression_matrix(problem)
    n, tf = problem.n, problem.window
    path: list[Estimate] = []
    for gamma in gammas:
        c = _ridge_solve(gram, gamma, problem.y,
                         f"regularized least squares; gamma={gamma}")
        f = kp @ c
        hnorm2 = float(c @ (phi @ f))           # c' Phi K Phi' c
        path.append(Estimate(
            estimator="rels", impulse_response=f, coefficients=None,
            order=None, gamma=gamma, rss=_rss(problem, phi, f),
            diagnostics={"rkhs_norm_sq": hnorm2, "tail_ratio": tail_ratio,
                         "tail_flagged": bool(tail_ratio > TAIL_RATIO),
                         "cost_proxy": float(n ** 3 / 3 + n * tf ** 2)}))
    return path


def rels_estimate(problem: RegressionProblem, kernel: KernelSpec,
                  gamma: float) -> Estimate:
    """Kernel regularized least squares on the T_f window at one gamma.

    Cost is one N x N SPD solve plus the K Phi' products; rels_path
    shares those products across several gammas.
    """
    return rels_path(problem, kernel, [gamma])[0]


def _trunc_mercer_path(problem: RegressionProblem, spectrum: Spectrum,
                       gamma: float, orders: Sequence[int]) -> list[Estimate]:
    """Truncated solves at every order, in the given order, on one projection.

    B = Phi V_D diag(sqrt(lambda)), B'B and B'y are formed once at the
    largest order D; order d factors the leading d x d block of B'B.
    """
    _check_gamma(gamma)
    if spectrum.d != problem.window:
        raise DomainError(f"spectrum order {spectrum.d} does not match the "
                          f"problem window {problem.window}")
    for order in orders:
        if not 1 <= order <= spectrum.d:
            raise DomainError(f"order must be in [1, {spectrum.d}], "
                              f"got {order}")
    if not orders:
        return []
    top = max(orders)
    lam = spectrum.eigenvalues[:top]
    if np.any(lam <= 0):
        bad = int(np.nonzero(lam <= 0)[0][0]) + 1
        raise DomainError(f"eigenvalue {bad} of the requested {top} is not "
                          f"strictly positive; reduce the order to the "
                          f"spectral rank {spectrum.rank()}")
    v = spectrum.eigenvectors[:, :top]
    phi = regression_matrix(problem)
    s = np.sqrt(lam)
    b = phi @ v
    b *= s
    btb = b.T @ b
    bty = b.T @ problem.y
    n = problem.n
    path: list[Estimate] = []
    for d in orders:
        bcoef = _ridge_solve(btb[:d, :d], gamma, bty[:d],
                             f"the truncated solve; gamma={gamma}, d={d}")
        coeffs = s[:d] * bcoef
        f = v[:, :d] @ coeffs
        path.append(Estimate(
            estimator="trunc-mercer", impulse_response=f, coefficients=coeffs,
            order=d, gamma=gamma, rss=_rss(problem, phi, f),
            diagnostics={"penalty_value": float(bcoef @ bcoef),
                         "cost_proxy": float(n * d ** 2 + d ** 3 / 3)}))
    return path


def trunc_mercer_estimate(problem: RegressionProblem, spectrum: Spectrum,
                          gamma: float, order: int) -> Estimate:
    """Ridge solve in the first `order` eigenbasis coordinates.

    Requires strictly positive eigenvalues over the requested range
    (null directions carry no RKHS mass and are excluded from the
    parameterization). Implemented through b = diag(lambda)^(-1/2) a, so
    f = V_d diag(sqrt(lambda)) (B'B + gamma I)^(-1) B' y with
    B = Phi V_d diag(sqrt(lambda)); the objective value is unchanged and
    tiny eigenvalues stay out of denominators.
    """
    return _trunc_mercer_path(problem, spectrum, gamma, [order])[0]


def surrogate_objective(problem: RegressionProblem, spectrum: Spectrum,
                        gamma: float, coeffs: np.ndarray) -> float:
    """Value of the truncated ridge objective at the given coefficients."""
    d = coeffs.size
    lam = spectrum.eigenvalues[:d]
    if np.any(lam <= 0):
        raise DomainError("objective undefined on null eigendirections")
    v = spectrum.eigenvectors[:, :d]
    phi = regression_matrix(problem)
    r = problem.y - phi @ (v @ coeffs)
    return float(r @ r + gamma * np.sum(coeffs ** 2 / lam))


@dataclass(frozen=True)
class SweepRow:
    order: int
    l2_gap: float            # |f_d - f_ref|_2 / |f_ref|_2
    seminorm_gap: float      # sqrt(sum (a_i - a_i^ref)^2 / lambda_i)
    cost_proxy: float
    estimate: Estimate = field(repr=False, compare=False)   # f_d itself


def sweep_d(problem: RegressionProblem, spectrum: Spectrum, gamma: float,
            orders: Sequence[int],
            reference: Estimate | None = None) -> list[SweepRow]:
    """Convergence of the truncated surrogate toward the full solution.

    The reference defaults to the full-spectral-rank solve. Gaps are
    expected to shrink as d grows (same objective over nested subspaces);
    the trend is reported, asserting it is left to the caller. Every
    order, and the default reference, shares one projection.
    """
    rank = spectrum.rank()
    orders = sorted(set(int(x) for x in orders))
    path = _trunc_mercer_path(problem, spectrum, gamma,
                              orders + ([rank] if reference is None else []))
    if reference is None:
        reference = path.pop()
    ref_f = reference.impulse_response
    ref_norm = float(np.linalg.norm(ref_f))
    scale = max(ref_norm, 1e-300)
    # Reference coefficients in eigen-coordinates over the positive modes.
    ref_a = spectrum.eigenvectors[:, :rank].T @ ref_f
    lam = spectrum.eigenvalues[:rank]
    rows: list[SweepRow] = []
    for d, est in zip(orders, path):
        gap = float(np.linalg.norm(est.impulse_response - ref_f)) / scale
        a = np.zeros(rank)
        a[:d] = est.coefficients[:min(d, rank)]
        sem = float(np.sqrt(np.sum((a - ref_a) ** 2 / lam)))
        rows.append(SweepRow(order=d, l2_gap=gap, seminorm_gap=sem,
                             cost_proxy=float(est.diagnostics["cost_proxy"]),
                             estimate=est))
    return rows


def select_gamma(problem: RegressionProblem, kernel: KernelSpec,
                 gammas: Sequence[float], folds: int = 5) -> tuple[float, list[tuple[float, float]]]:
    """Grid search for gamma by k-fold cross validation on held-out RSS.

    Folds are contiguous blocks of observations. The Gram G = Phi K Phi'
    is built once: a fold's training system is G[train][:, train], the
    Gram its own sub-problem would build, and its held-out predictions
    Phi[out] K Phi[train]' c are G[out][:, train] c. Each (fold, gamma)
    then costs one Cholesky of the training block. Ties go to the
    smallest gamma.
    """
    gammas = sorted(set(float(g) for g in gammas))
    if not gammas:
        raise ConfigError("empty gamma grid")
    if folds < 2:
        raise ConfigError(f"cross validation needs >= 2 folds, got {folds}")
    for gamma in gammas:
        _check_gamma(gamma)
    n = problem.n
    if n < 2:
        raise ConfigError("cross validation needs >= 2 observations")
    folds = min(folds, n)
    bounds = np.linspace(0, n, folds + 1, dtype=int)
    gram = _kernel_gram(problem, kernel)[1]
    y = problem.y
    press = [0.0] * len(gammas)
    for f in range(folds):
        train = np.ones(n, dtype=bool)
        train[bounds[f]:bounds[f + 1]] = False
        g_train = gram[np.ix_(train, train)]
        g_out = gram[np.ix_(~train, train)]
        for i, gamma in enumerate(gammas):
            c = _ridge_solve(g_train, gamma, y[train],
                             f"cross validation; gamma={gamma}")
            r = y[~train] - g_out @ c
            press[i] += float(r @ r)
    table = list(zip(gammas, press))
    best = min(table, key=lambda t: (t[1], t[0]))
    return best[0], table


def fit_percent(f_true: np.ndarray, f_hat: np.ndarray) -> float:
    """100 (1 - |f_true - f_hat| / |f_true - mean(f_true)|), the usual score."""
    f_true = np.asarray(f_true, dtype=float)
    f_hat = np.asarray(f_hat, dtype=float)
    m = min(f_true.size, f_hat.size)
    a = np.zeros(max(f_true.size, f_hat.size))
    b = a.copy()
    a[:f_true.size] = f_true
    b[:f_hat.size] = f_hat
    denom = float(np.linalg.norm(f_true - f_true.mean()))
    if denom == 0.0:
        return 100.0 if np.allclose(a, b) else -np.inf
    return 100.0 * (1.0 - float(np.linalg.norm(a - b)) / denom)
