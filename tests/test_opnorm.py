import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import as_kernel, random_psd

from stablerkhs import opnorm
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


#: seed -> window size for random_psd(seed, size). Past d = 13 the
#: exact engine splits the free coordinates into a low and a high block.
_SWEEP = {**{seed: 2 + seed % 9 for seed in range(25)}, 77: 9,
          101: 12, 102: 13, 103: 14, 104: 17, 105: 18}


@pytest.mark.parametrize("seed", _SWEEP)
def test_exact_matches_brute_force_sweep(seed):
    m = _SWEEP[seed]
    k = as_kernel(random_psd(seed, m))
    est = inf_one_norm_exact(k)
    oracle, _ = brute_force_inf_one_norm(k.entries)
    assert est.value == pytest.approx(oracle, rel=1e-12)
    # the witness really attains the reported value
    assert quadratic_form(k.entries, est.witness) == est.value


def test_exact_engine_shares_no_code_with_the_oracle(monkeypatch):
    def refuse(m):
        raise AssertionError("the exact engine called sign_matrix")

    monkeypatch.setattr(opnorm, "sign_matrix", refuse)
    inf_one_norm_exact(as_kernel(random_psd(9, 15)))


def test_exact_at_d24_is_bracketed():
    k = as_kernel(random_psd(24, 24))
    exact = inf_one_norm_exact(k)
    assert exact.kind is NormKind.EXACT
    assert exact.value >= inf_one_norm_heuristic(k).value
    assert exact.value <= abs_sum_upper_bound(k).value * (1 + 1e-12)
    assert quadratic_form(k.entries, exact.witness) == exact.value


def test_norm_scan_auto_is_exact_at_d24():
    from stablerkhs.kernels import StableSpline
    from stablerkhs.stability import norm_growth_scan
    scan = norm_growth_scan(StableSpline(0.9), [24], method="auto")
    assert [e.kind for e in scan.estimates] == [NormKind.EXACT]
    assert scan.downgraded == ()


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


def test_heuristic_returns_on_a_single_nonzero_row():
    # K = B Lambda B' with one nonzero row of B: the true gain of flipping
    # that coordinate is 0, and a gain whose two sides round differently
    # stays positive and flips it forever.
    rng = np.random.default_rng(0)
    lam = np.sort(rng.random(12))[::-1]
    bd = np.vstack([rng.standard_normal(12), np.zeros(12)])
    k = as_kernel((bd * lam) @ bd.T)
    est = inf_one_norm_heuristic(k)
    assert est.value == quadratic_form(k.entries, est.witness)


def test_trace_and_abs_sum_bounds_bracket_exact():
    for seed in range(10):
        m = 2 + seed
        k = as_kernel(random_psd(300 + seed, m))
        exact = inf_one_norm_exact(k)
        lo = trace_lower_bound(k)
        hi_a = abs_sum_upper_bound(k)
        assert lo.value <= exact.value
        assert exact.value <= hi_a.value * (1 + 1e-12)
        assert lo.kind is NormKind.LOWER_BOUND
        assert hi_a.kind is NormKind.UPPER_BOUND
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


# --------------------------------------------------------------------------
# The vectorized first-improving flip search against the scalar scan it
# replaced: same flips in the same order, so bit-identical results.

def _scalar_ascent(k, u):
    d = k.shape[0]
    diag = np.diag(k)
    s = k @ u
    improved = True
    while improved:
        improved = False
        gains = 4.0 * (diag - u * s)
        for p in range(d):
            if gains[p] > 0.0:
                up = u[p]
                u[p] = -up
                s = s - (2.0 * up) * k[:, p]
                improved = True
                break
    return u


def _scalar_heuristic(k, restarts, seed):
    d = k.shape[0]
    best_val, best_u = -np.inf, None
    for r in range(restarts):
        if r == 0:
            u = np.ones(d)
        else:
            rng = np.random.default_rng([seed, r])
            u = np.where(rng.random(d) < 0.5, -1.0, 1.0)
        u = _scalar_ascent(k, u)
        val = quadratic_form(k, u)
        if val > best_val:
            best_val, best_u = val, u
    if best_u[0] < 0:
        best_u = -best_u
    return best_val, best_u


def _assert_heuristic_matches_scalar(matrix, restarts, seed):
    kernel = as_kernel(matrix)
    est = inf_one_norm_heuristic(kernel, restarts=restarts, seed=seed)
    value, witness = _scalar_heuristic(kernel.entries, restarts, seed)
    assert np.array_equal(est.witness, witness)
    assert np.float64(est.value).tobytes() == np.float64(value).tobytes()


def _padded(matrix, pad):
    m = matrix.shape[0]
    out = np.zeros((m + pad, m + pad))
    out[:m, :m] = matrix
    return out


@given(seed=st.integers(0, 10_000), m=st.integers(1, 40),
       rank=st.integers(1, 40), pad=st.integers(0, 40),
       restarts=st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_ascent_matches_scalar_scan(seed, m, rank, pad, restarts):
    matrix = random_psd(seed, m, rank=min(rank, m))
    _assert_heuristic_matches_scalar(matrix, restarts, seed)
    _assert_heuristic_matches_scalar(_padded(matrix, pad), restarts, seed)


@pytest.mark.parametrize("matrix", [
    np.ones((9, 9)),                                  # rank one, all gains tied
    np.outer([1.0, -1.0] * 6, [1.0, -1.0] * 6),       # tied, alternating signs
    _padded(np.ones((3, 3)), 5),
    np.zeros((7, 7)),                                 # all-zero window
], ids=["ones", "alternating", "padded-ones", "zero"])
def test_ascent_matches_scalar_scan_on_ties_and_zeros(matrix):
    _assert_heuristic_matches_scalar(matrix, restarts=8, seed=3)


# --------------------------------------------------------------------------
# The block Gray enumeration against the single Gray scan it replaced:
# the same candidates in the same order, scored with other roundings, so
# the same witness unless two sign classes tie within rounding.

def _scalar_gray_scan(k):
    """One candidate per Gray step; the start values are summed
    sequentially, so the scan's own rounding is fixed."""
    d = k.shape[0]
    u = np.ones(d)
    s = np.empty(d)
    for i in range(d):
        acc = 0.0
        for j in range(d):
            acc += k[i, j]
        s[i] = acc
    q = 0.0
    for i in range(d):
        q += s[i]
    best = q
    best_u = u.copy()
    diag = np.diag(k)
    for t in range(1, 1 << (d - 1)):
        # Coordinate 1 stays +1; Gray flip index over coordinates 2..d.
        p = 1 + ((t & -t).bit_length() - 1)
        up = u[p]
        q = q + 4.0 * (diag[p] - up * s[p])
        u[p] = -up
        s -= (2.0 * up) * k[p]
        if q > best:
            best = q
            best_u = u.copy()
    return quadratic_form(k, best_u), best_u


def _assert_exact_matches_scalar(matrix):
    kernel = as_kernel(matrix)
    est = inf_one_norm_exact(kernel)
    value, witness = _scalar_gray_scan(kernel.entries)
    assert est.value == quadratic_form(kernel.entries, est.witness)
    if np.array_equal(est.witness, witness):
        assert np.float64(est.value).tobytes() == np.float64(value).tobytes()
    else:       # a tie within rounding: both witnesses attain the maximum
        assert est.value == pytest.approx(value, rel=1e-12, abs=1e-12)
    return est.witness, witness


@given(seed=st.integers(0, 10_000), m=st.integers(1, 16),
       rank=st.integers(1, 16), pad=st.integers(0, 15))
@settings(max_examples=40, deadline=None)
def test_exact_matches_scalar_gray_scan(seed, m, rank, pad):
    matrix = random_psd(seed, m, rank=min(rank, m))
    _assert_exact_matches_scalar(matrix)
    _assert_exact_matches_scalar(_padded(matrix, min(pad, 16 - m)))


@pytest.mark.parametrize("m", [12, 13, 14, 16])
def test_exact_matches_scalar_gray_scan_across_the_block_split(m):
    for seed in range(3):
        engine, scalar = _assert_exact_matches_scalar(random_psd(seed, m))
        np.testing.assert_array_equal(engine, scalar)


@pytest.mark.parametrize("matrix", [
    np.eye(15),
    np.zeros((15, 15)),
    np.ones((15, 15)),
    np.outer(*(2 * [np.tile([1.0, -1.0, 2.0, -2.0, 1.0], 3)])),
    # two copies of one block: the classes (w, w) and (w, -w) tie
    # exactly, and the two engines' roundings pick different ones
    np.kron(np.eye(2), random_psd(0, 7)),
], ids=["eye", "zeros", "ones", "rank-one-tied", "kron-eye2"])
def test_exact_matches_scalar_gray_scan_on_ties(matrix):
    _assert_exact_matches_scalar(matrix)
