import numpy as np
import pytest

from stablerkhs.basis import canonical_basis, laguerre_basis
from stablerkhs.errors import ConfigError, DomainError
from stablerkhs.kernels import Gaussian, StableSpline, truncate
from stablerkhs.spectral import eigendecompose
from stablerkhs.sysid import (
    RegressionProblem,
    decaying_exponential_mix,
    fit_percent,
    ls_estimate,
    regression_matrix,
    rels_estimate,
    rels_path,
    select_gamma,
    select_order,
    simulate,
    surrogate_objective,
    sweep_d,
    trunc_mercer_estimate,
)


def make_problem(seed=0, n=120, sigma=0.05, window=150, kind="white"):
    truth = decaying_exponential_mix([4.0, -3.0], [0.9, 0.8], window)
    return simulate(truth, kind, n, sigma, seed=seed, window=window)


# --------------------------------------------------------------------------
# Simulation and the regression map

def test_simulate_unit_impulse_truth_with_step_input():
    f0 = np.zeros(5)
    f0[0] = 1.0                       # unit impulse at lag 1
    problem, _ = simulate(f0, "step", 10, 0.0, seed=0, window=5)
    np.testing.assert_array_equal(problem.y, np.ones(10))


def test_simulate_zero_truth_gives_zero_output():
    problem, _ = simulate(np.zeros(8), "white", 20, 0.0, seed=3, window=8)
    np.testing.assert_array_equal(problem.y, np.zeros(20))


def test_simulate_impulse_input_reads_off_truth():
    f0 = 0.5 ** np.arange(1, 21)
    problem, _ = simulate(f0, "impulse", 15, 0.0, seed=0, window=20)
    np.testing.assert_allclose(problem.y, f0[:15], atol=1e-15)


def test_simulate_deterministic_given_seed():
    a, _ = make_problem(seed=11)
    b, _ = make_problem(seed=11)
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.u, b.u)


def test_simulate_validates_arguments():
    with pytest.raises(DomainError):
        simulate(np.ones(3), "white", 5, -0.1, seed=0)
    with pytest.raises(ConfigError):
        simulate(np.ones(3), "purple", 5, 0.0, seed=0)


def test_regression_matrix_causal_structure():
    u = np.arange(1.0, 8.0)           # u(t) = t
    problem = RegressionProblem(u=u, times=np.array([1, 3, 7]),
                                y=np.zeros(3), sigma=0.0, window=4)
    phi = regression_matrix(problem)
    np.testing.assert_array_equal(phi[0], [1, 0, 0, 0])
    np.testing.assert_array_equal(phi[1], [3, 2, 1, 0])
    np.testing.assert_array_equal(phi[2], [7, 6, 5, 4])


def test_regression_matrix_is_read_only_and_matches_definition():
    problem, _ = make_problem(n=40, window=60)
    phi = regression_matrix(problem)
    expected = np.zeros((problem.n, problem.window))
    for k, t in enumerate(problem.times):
        for j in range(1, problem.window + 1):      # lags are 1-based
            if j <= t:
                expected[k, j - 1] = problem.u[t - j]   # u(t - j + 1)
    np.testing.assert_array_equal(phi, expected)
    assert regression_matrix(problem) is phi
    assert not phi.flags.writeable
    with pytest.raises(ValueError):
        phi[0, 0] = 1.0


def test_problem_validates_instants():
    with pytest.raises(ConfigError):
        RegressionProblem(u=np.ones(5), times=np.array([2, 2]),
                          y=np.zeros(2), sigma=0.0, window=5)
    with pytest.raises(ConfigError):
        RegressionProblem(u=np.ones(5), times=np.array([1, 9]),
                          y=np.zeros(2), sigma=0.0, window=5)


# --------------------------------------------------------------------------
# Least squares and order selection

def test_ls_recovers_truth_in_span_noiseless():
    window = 100
    basis = laguerre_basis(0.7, 6, window)
    coeffs = np.array([1.0, -0.5, 0.25])
    truth = basis.vectors[:, :3] @ coeffs
    problem, _ = simulate(truth, "white", 100, 0.0, seed=2, window=window)
    est = ls_estimate(problem, basis, 3)
    np.testing.assert_allclose(est.coefficients, coeffs, atol=1e-8)
    np.testing.assert_allclose(est.impulse_response, truth, atol=1e-8)


def test_ls_full_order_recovers_truth_when_overdetermined():
    window = 30
    truth = decaying_exponential_mix([2.0], [0.8], window)
    problem, f0 = simulate(truth, "white", 80, 0.0, seed=5, window=window)
    est = ls_estimate(problem, canonical_basis(window), window)
    np.testing.assert_allclose(est.impulse_response, f0, atol=1e-8)
    assert not est.diagnostics["rank_deficient"]


def test_ls_zero_order():
    problem, _ = make_problem()
    est = ls_estimate(problem, canonical_basis(problem.window), 0)
    assert est.rss == pytest.approx(float(problem.y @ problem.y))
    np.testing.assert_array_equal(est.impulse_response,
                                  np.zeros(problem.window))


def test_ls_flags_rank_deficiency():
    problem, _ = simulate(decaying_exponential_mix([1.0], [0.5], 50),
                          "white", 10, 0.0, seed=1, window=50)
    est = ls_estimate(problem, canonical_basis(50), 50)   # 10 eqs, 50 unknowns
    assert est.diagnostics["rank_deficient"]


def test_select_order_finds_exact_rank_noiseless():
    window = 60
    basis = laguerre_basis(0.6, 8, window)
    truth = basis.vectors[:, :3] @ np.array([1.0, -0.5, 0.25])
    problem, _ = simulate(truth, "white", 120, 0.0, seed=7, window=window)
    sel = select_order(problem, basis, range(0, 7))
    assert sel.order == 3


def test_select_order_flags_degenerate_zero_rss():
    # all-zero data: RSS underflows the floor already at order 0
    problem, _ = simulate(np.zeros(10), "white", 30, 0.0, seed=0, window=10)
    sel = select_order(problem, canonical_basis(10), [0, 1, 2])
    assert sel.degenerate
    assert sel.order == 0            # ties resolve to the smallest order


def test_select_order_pure_noise_prefers_small_models():
    basis = canonical_basis(80)
    hits = 0
    for seed in range(10):
        problem, _ = simulate(np.zeros(80), "white", 100, 1.0, seed=seed,
                              window=80)
        sel = select_order(problem, basis, range(0, 9))
        hits += sel.order <= 2
    assert hits == 10


def test_select_order_single_candidate():
    problem, _ = make_problem()
    sel = select_order(problem, canonical_basis(problem.window), [4])
    assert sel.order == 4


# --------------------------------------------------------------------------
# Regularized least squares

def test_rels_large_gamma_shrinks_to_zero():
    problem, _ = make_problem(sigma=0.1)
    est = rels_estimate(problem, StableSpline(0.95), 1e12)
    assert np.linalg.norm(est.impulse_response) < 1e-6


def test_rels_scalar_case_matches_hand_formula():
    # one observation: c = y1 / (phi K phi' + gamma)
    problem = RegressionProblem(u=np.array([2.0]), times=np.array([1]),
                                y=np.array([3.0]), sigma=0.0, window=4)
    gamma = 0.7
    kernel = StableSpline(0.5)
    k = truncate(kernel, 4).entries
    phi = regression_matrix(problem)[0]
    c = 3.0 / (phi @ k @ phi + gamma)
    expected = k @ phi * c
    est = rels_estimate(problem, kernel, gamma)
    np.testing.assert_allclose(est.impulse_response, expected, atol=1e-12)


def test_rels_noiseless_high_fit():
    window = 200
    truth = decaying_exponential_mix([4.0, -3.0], [0.9, 0.8], window)
    problem, f0 = simulate(truth, "white", 300, 0.0, seed=4, window=window)
    est = rels_estimate(problem, StableSpline(0.95), 1e-8)
    rel_err = (np.linalg.norm(est.impulse_response - f0)
               / np.linalg.norm(f0))
    assert rel_err <= 0.1
    assert fit_percent(f0, est.impulse_response) >= 99.0


def test_rels_rejects_nonpositive_gamma():
    problem, _ = make_problem()
    with pytest.raises(DomainError):
        rels_estimate(problem, StableSpline(0.9), 0.0)


def test_rels_tail_diagnostic():
    problem, _ = make_problem(window=30)     # 0.95^30 is far from zero
    est = rels_estimate(problem, StableSpline(0.95), 1.0)
    assert est.diagnostics["tail_flagged"]
    problem2, _ = make_problem(window=600)
    est2 = rels_estimate(problem2, StableSpline(0.95), 1.0)
    assert not est2.diagnostics["tail_flagged"]


def test_regularization_path_monotonicity():
    problem, _ = make_problem(sigma=0.2)
    kernel = StableSpline(0.95)
    gammas = np.logspace(-4, 4, 9)
    rss, hnorm = [], []
    for g in gammas:
        est = rels_estimate(problem, kernel, float(g))
        rss.append(est.rss)
        hnorm.append(est.diagnostics["rkhs_norm_sq"])
    assert np.all(np.diff(rss) >= -1e-9)
    assert np.all(np.diff(hnorm) <= 1e-9)


def test_select_gamma_prefers_moderate_regularization():
    problem, _ = make_problem(sigma=0.3, n=150, window=150)
    best, table = select_gamma(problem, StableSpline(0.9),
                               [1e-8, 1e-2, 1.0, 1e6])
    assert best not in (1e-8, 1e6)
    assert len(table) == 4


ORACLE_KERNELS = [StableSpline(0.9), Gaussian(3.0)]


@pytest.mark.parametrize("kernel", ORACLE_KERNELS, ids=lambda k: k.family)
def test_rels_path_matches_dense_formula(kernel):
    problem, _ = make_problem(n=70, sigma=0.2, window=90)
    k = truncate(kernel, problem.window).entries
    phi = regression_matrix(problem)
    gammas = [10.0, 1e-2, 1.0, 1e3]           # deliberately unsorted
    path = rels_path(problem, kernel, gammas)
    assert [est.gamma for est in path] == gammas
    for gamma, est in zip(gammas, path):
        c = np.linalg.solve(phi @ k @ phi.T + gamma * np.eye(problem.n),
                            problem.y)
        f = k @ phi.T @ c
        scale = np.linalg.norm(f)
        assert np.linalg.norm(est.impulse_response - f) <= 1e-10 * scale
        r = problem.y - phi @ f
        assert est.rss == pytest.approx(float(r @ r), rel=1e-10)
        assert est.diagnostics["rkhs_norm_sq"] == pytest.approx(
            float(c @ phi @ k @ phi.T @ c), rel=1e-10)


def test_rels_path_rejects_empty_and_nonpositive_gammas():
    problem, _ = make_problem()
    with pytest.raises(ConfigError, match="empty gamma grid"):
        rels_path(problem, StableSpline(0.9), [])
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            rels_path(problem, StableSpline(0.9), [1.0, bad])


@pytest.mark.parametrize("kernel", ORACLE_KERNELS, ids=lambda k: k.family)
def test_select_gamma_matches_per_fold_subproblems(kernel):
    # N = 103 does not divide into 5 folds; the reference rebuilds each
    # training sub-problem and solves it from scratch
    problem, _ = make_problem(n=103, sigma=0.3, window=120)
    gammas = [1e-2, 1e-1, 1.0, 10.0, 100.0, 1e4]
    folds = 5
    n = problem.n
    bounds = np.linspace(0, n, folds + 1, dtype=int)
    phi = regression_matrix(problem)
    reference = []
    for gamma in gammas:
        press = 0.0
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            held = np.zeros(n, dtype=bool)
            held[lo:hi] = True
            sub = RegressionProblem(u=problem.u, times=problem.times[~held],
                                    y=problem.y[~held], sigma=problem.sigma,
                                    window=problem.window)
            est = rels_estimate(sub, kernel, gamma)
            r = problem.y[held] - phi[held] @ est.impulse_response
            press += float(r @ r)
        reference.append((gamma, press))
    best, table = select_gamma(problem, kernel, gammas, folds=folds)
    assert best == min(reference, key=lambda t: (t[1], t[0]))[0]
    assert [g for g, _ in table] == gammas
    for (_, got), (_, want) in zip(table, reference):
        assert got == pytest.approx(want, rel=1e-10)


def test_select_gamma_needs_two_observations():
    problem = RegressionProblem(u=np.array([1.0]), times=np.array([1]),
                                y=np.array([1.0]), sigma=0.0, window=3)
    with pytest.raises(ConfigError):
        select_gamma(problem, StableSpline(0.9), [1.0])


# --------------------------------------------------------------------------
# Truncated-eigenbasis surrogate

def test_trunc_mercer_scalar_ridge_closed_form():
    problem, _ = make_problem(n=50, window=60)
    spectrum = eigendecompose(truncate(StableSpline(0.9), 60))
    gamma = 0.3
    est = trunc_mercer_estimate(problem, spectrum, gamma, 1)
    g = regression_matrix(problem) @ spectrum.eigenvectors[:, 0]
    lam1 = spectrum.eigenvalues[0]
    a1 = float(g @ problem.y) / (float(g @ g) + gamma / lam1)
    assert est.coefficients[0] == pytest.approx(a1, rel=1e-12)


def test_trunc_mercer_full_rank_equals_rels():
    problem, _ = make_problem(n=100, sigma=0.1, window=200)
    kernel = StableSpline(0.95)
    spectrum = eigendecompose(truncate(kernel, 200))
    gamma = 5.0
    rels = rels_estimate(problem, kernel, gamma)
    full = trunc_mercer_estimate(problem, spectrum, gamma, spectrum.rank())
    gap = (np.linalg.norm(full.impulse_response - rels.impulse_response)
           / np.linalg.norm(rels.impulse_response))
    assert gap <= 1e-8


def test_trunc_mercer_rejects_null_eigendirections():
    problem, _ = make_problem(n=40, window=50)
    rank_deficient = np.zeros((50, 50))
    rank_deficient[:3, :3] = np.diag([3.0, 2.0, 1.0])
    from conftest import as_kernel
    spectrum = eigendecompose(as_kernel(rank_deficient))
    with pytest.raises(DomainError, match="rank"):
        trunc_mercer_estimate(problem, spectrum, 1.0, 10)
    trunc_mercer_estimate(problem, spectrum, 1.0, 3)     # rank is fine


def test_sweep_gap_decreases_and_vanishes_at_full_rank():
    problem, _ = make_problem(n=100, sigma=0.1, window=200)
    kernel = StableSpline(0.95)
    spectrum = eigendecompose(truncate(kernel, 200))
    rels = rels_estimate(problem, kernel, 10.0)
    rows = sweep_d(problem, spectrum, 10.0, [5, 10, 20, 50, spectrum.rank()],
                   reference=rels)
    gaps = [r.l2_gap for r in rows]
    assert gaps[-1] <= 1e-8
    assert all(b <= a + 1e-10 for a, b in zip(gaps, gaps[1:]))
    sems = [r.seminorm_gap for r in rows]
    assert all(b <= a + 1e-10 for a, b in zip(sems, sems[1:]))


@pytest.mark.parametrize("with_reference", [True, False])
def test_sweep_rows_match_separate_truncated_solves(with_reference):
    problem, _ = make_problem(n=90, sigma=0.1, window=120)
    kernel = StableSpline(0.9)
    spectrum = eigendecompose(truncate(kernel, 120))
    gamma, rank = 3.0, spectrum.rank()
    orders = [40, 3, 12, rank, 3]
    reference = rels_estimate(problem, kernel, gamma) if with_reference \
        else trunc_mercer_estimate(problem, spectrum, gamma, rank)
    rows = sweep_d(problem, spectrum, gamma, orders,
                   reference=reference if with_reference else None)
    assert [r.order for r in rows] == sorted(set(orders))
    ref_f = reference.impulse_response
    ref_a = spectrum.eigenvectors[:, :rank].T @ ref_f
    lam = spectrum.eigenvalues[:rank]
    for row in rows:
        est = trunc_mercer_estimate(problem, spectrum, gamma, row.order)
        scale = np.linalg.norm(est.impulse_response)
        assert np.linalg.norm(row.estimate.impulse_response
                              - est.impulse_response) <= 1e-10 * scale
        assert row.estimate.rss == pytest.approx(est.rss, rel=1e-10)
        assert row.cost_proxy == est.diagnostics["cost_proxy"]
        gap = np.linalg.norm(est.impulse_response - ref_f) \
            / np.linalg.norm(ref_f)
        assert row.l2_gap == pytest.approx(gap, rel=1e-8, abs=1e-12)
        a = np.zeros(rank)
        a[:row.order] = est.coefficients
        sem = np.sqrt(np.sum((a - ref_a) ** 2 / lam))
        assert row.seminorm_gap == pytest.approx(sem, rel=1e-8, abs=1e-10)


def test_sweep_cost_proxy_grows_quadratically():
    problem, _ = make_problem(n=100, window=200)
    spectrum = eigendecompose(truncate(StableSpline(0.95), 200))
    rows = sweep_d(problem, spectrum, 1.0, [10, 20, 40])
    c10, c20, c40 = (r.cost_proxy for r in rows)
    assert c20 / c10 == pytest.approx(4.0, rel=0.2)
    assert c40 / c20 == pytest.approx(4.0, rel=0.2)


def test_noiseless_consistency_all_three_estimators():
    # with no noise, a persistently exciting input and the truth inside
    # the model span, every estimator lands on the truth
    window = 120
    truth = decaying_exponential_mix([2.0, -1.0], [0.85, 0.6], window)
    problem, f0 = simulate(truth, "white", 300, 0.0, seed=9, window=window)
    ls = ls_estimate(problem, canonical_basis(window), window)
    rels = rels_estimate(problem, StableSpline(0.95), 1e-10)
    spectrum = eigendecompose(truncate(StableSpline(0.95), window))
    tm = trunc_mercer_estimate(problem, spectrum, 1e-10, spectrum.rank())
    scale = np.linalg.norm(f0)
    assert np.linalg.norm(ls.impulse_response - f0) / scale <= 1e-6
    assert np.linalg.norm(rels.impulse_response - f0) / scale <= 1e-6
    assert np.linalg.norm(tm.impulse_response - f0) / scale <= 1e-6


def test_surrogate_objective_certificate():
    # the solver's coefficients beat 20 random perturbations
    problem, _ = make_problem(n=80, sigma=0.1, window=100)
    spectrum = eigendecompose(truncate(StableSpline(0.9), 100))
    gamma, d = 2.0, 15
    est = trunc_mercer_estimate(problem, spectrum, gamma, d)
    base = surrogate_objective(problem, spectrum, gamma, est.coefficients)
    rng = np.random.default_rng(0)
    for _ in range(20):
        q = rng.standard_normal(d)
        perturbed = est.coefficients + 1e-4 * q
        assert surrogate_objective(problem, spectrum, gamma, perturbed) \
            >= base - 1e-12


def test_fit_percent_conventions():
    f = np.array([1.0, 0.5, 0.25])
    assert fit_percent(f, f) == 100.0
    assert fit_percent(f, np.zeros(3)) < 100.0
