import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import as_kernel, random_psd

from stablerkhs.errors import EnumerationCapError, StructuralError
from stablerkhs.opnorm import (
    NormKind,
    NormMethod,
    abs_sum_upper_bound,
    brute_force_inf_one_norm,
    inf_one_norm_exact,
    inf_one_norm_heuristic,
    quadratic_form,
    sign_matrix,
    trace_lower_bound,
    trace_upper_bound,
)


def test_all_ones_2x2():
    est = inf_one_norm_exact(as_kernel([[1.0, 1.0], [1.0, 1.0]]))
    assert est.value == 4.0
    np.testing.assert_array_equal(np.abs(est.witness), [1, 1])
    assert est.witness[0] * est.witness[1] == 1     # aligned signs


def test_identity_norm_is_trace():
    est = inf_one_norm_exact(as_kernel(np.eye(3)))
    assert est.value == 3.0


def test_diagonal_heuristic_sign_invariant():
    k = as_kernel(np.diag([2.0, 3.0, 0.5, 1.25]))
    for seed in (0, 1, 99):
        est = inf_one_norm_heuristic(k, restarts=4, seed=seed)
        assert est.value == pytest.approx(6.75, abs=0)


def test_exact_matches_brute_force_seeded_6x6():
    k = as_kernel(random_psd(42, 6))
    est = inf_one_norm_exact(k)
    oracle, _ = brute_force_inf_one_norm(k.entries)
    assert est.value == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("seed", range(25))
def test_exact_matches_brute_force_sweep(seed):
    m = 2 + seed % 9
    k = as_kernel(random_psd(seed, m))
    est = inf_one_norm_exact(k)
    oracle, _ = brute_force_inf_one_norm(k.entries)
    assert est.value == pytest.approx(oracle, rel=1e-12)
    # the witness really attains the reported value
    assert quadratic_form(k.entries, est.witness) == est.value


def test_witness_is_sign_vector_with_first_positive():
    k = as_kernel(random_psd(7, 8))
    est = inf_one_norm_exact(k)
    assert set(np.unique(est.witness)) <= {-1.0, 1.0}
    assert est.witness[0] == 1.0


def test_heuristic_all_ones_2x2_global():
    for seed in range(5):
        est = inf_one_norm_heuristic(as_kernel([[1.0, 1.0], [1.0, 1.0]]),
                                     restarts=1, seed=seed)
        assert est.value == 4.0


def test_heuristic_matches_exact_20x20():
    k = as_kernel(random_psd(3, 20))
    exact = inf_one_norm_exact(k)
    heur = inf_one_norm_heuristic(k, restarts=50, seed=0)
    assert heur.value == pytest.approx(exact.value, rel=1e-12)


@pytest.mark.parametrize("seed", range(30))
def test_heuristic_never_exceeds_exact(seed):
    m = 2 + seed % 11
    k = as_kernel(random_psd(1000 + seed, m))
    exact = inf_one_norm_exact(k)
    heur = inf_one_norm_heuristic(k, restarts=5, seed=seed)
    assert heur.value <= exact.value * (1 + 1e-12)
    assert heur.kind is NormKind.LOWER_BOUND


def test_heuristic_deterministic_given_seed():
    k = as_kernel(random_psd(5, 15))
    a = inf_one_norm_heuristic(k, restarts=8, seed=11)
    b = inf_one_norm_heuristic(k, restarts=8, seed=11)
    assert a.value == b.value
    np.testing.assert_array_equal(a.witness, b.witness)


def test_exact_refuses_beyond_cap():
    k = as_kernel(random_psd(0, 12))
    with pytest.raises(EnumerationCapError, match="heuristic"):
        inf_one_norm_exact(k, cap=10)


def test_exact_rejects_non_psd():
    with pytest.raises(StructuralError):
        inf_one_norm_exact(as_kernel([[1.0, 2.0], [2.0, 1.0]]))


def test_pure_python_fallback_full_api():
    k = as_kernel(random_psd(77, 9))
    est = inf_one_norm_exact(k)
    oracle, _ = brute_force_inf_one_norm(k.entries)
    assert est.value == pytest.approx(oracle, rel=1e-12)


def test_sign_matrix_enumerates_all_patterns():
    v = sign_matrix(3)
    assert v.shape == (8, 3)
    assert len({tuple(r) for r in v}) == 8
    np.testing.assert_array_equal(v[0], [1, 1, 1])
    np.testing.assert_array_equal(v[-1], [-1, -1, -1])


@pytest.mark.parametrize("seed", range(15))
def test_diagonal_maximum_identity(seed):
    # For PSD M the largest entry of V M V' sits on the diagonal and
    # equals the (inf,1) norm; V rows run over all sign vectors.
    m = 2 + seed % 9
    k = as_kernel(random_psd(200 + seed, m))
    v = sign_matrix(m)
    prod = v @ k.entries @ v.T
    assert prod.max() == pytest.approx(np.diag(prod).max(), rel=1e-13)
    assert np.diag(prod).max() == pytest.approx(
        inf_one_norm_exact(k).value, rel=1e-12)


@pytest.mark.parametrize("builder", [
    lambda rng, m: np.diag(rng.random(m) + 0.1),                 # diagonal
    lambda rng, m: np.outer(*(2 * [rng.standard_normal(m)])),    # rank one
    lambda rng, m: np.ones((m, m)),                              # all ties
    lambda rng, m: random_psd(int(rng.integers(1e6)), m, rank=2),
    lambda rng, m: np.diag(np.full(m, 3.0)) + 1e-12 * random_psd(3, m),
], ids=["diagonal", "rank-one", "all-ones", "low-rank", "near-diagonal"])
def test_exact_matches_oracle_on_structured_matrices(builder):
    # structured spectra produce many tied or near-tied sign classes;
    # the enumeration must still land on a true maximizer
    for seed in range(6):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 11))
        k = as_kernel(builder(rng, m))
        est = inf_one_norm_exact(k)
        oracle, _ = brute_force_inf_one_norm(k.entries)
        assert est.value == pytest.approx(oracle, rel=1e-11)
        assert quadratic_form(k.entries, est.witness) == est.value


def test_norm_scan_auto_crosses_cap_without_exact_claim():
    from stablerkhs.kernels import StableSpline
    from stablerkhs.stability import norm_growth_scan
    scan = norm_growth_scan(StableSpline(0.9), [4, 8, 16], method="auto",
                            cap=8)
    kinds = [e.kind for e in scan.estimates]
    assert kinds[:2] == [NormKind.EXACT, NormKind.EXACT]
    assert kinds[2] is NormKind.LOWER_BOUND
    assert scan.downgraded == ()      # auto mode: the cap is not a downgrade


def test_trace_and_abs_sum_bounds_bracket_exact():
    for seed in range(10):
        m = 2 + seed
        k = as_kernel(random_psd(300 + seed, m))
        exact = inf_one_norm_exact(k)
        lo = trace_lower_bound(k)
        hi_t = trace_upper_bound(k)
        hi_a = abs_sum_upper_bound(k)
        assert lo.value <= exact.value <= hi_t.value
        assert exact.value <= hi_a.value * (1 + 1e-12)
        assert lo.kind is NormKind.LOWER_BOUND
        assert hi_t.kind is NormKind.UPPER_BOUND
        assert hi_a.method is NormMethod.ABS_SUM_BOUND


@given(seed=st.integers(0, 10_000), m=st.integers(2, 8))
@settings(max_examples=40, deadline=None)
def test_bounds_property(seed, m):
    k = as_kernel(random_psd(seed, m))
    exact = inf_one_norm_exact(k).value
    heur = inf_one_norm_heuristic(k, restarts=3, seed=seed).value
    tr = float(np.trace(k.entries))
    assert tr <= exact * (1 + 1e-12) + 1e-12
    assert heur <= exact * (1 + 1e-12) + 1e-12
    assert exact <= (2.0 ** m) * tr * (1 + 1e-12) + 1e-12
