import numpy as np
import pytest

from conftest import as_kernel, random_psd, sq_sum_partial

from stablerkhs.errors import ConfigError, DomainError, NumericalError
from stablerkhs.generators import Geometric, Literal, PowerLaw
from stablerkhs.kernels import Diagonal, RankOne, StableSpline, truncate
from stablerkhs.spectral import (
    ConvergenceTrace,
    check_spectrum,
    convergence_scan,
    eigendecompose,
    feature_map,
    mercer_reconstruct,
)
from stablerkhs.stability import partial_trace


def quadratic_roots(b, c):
    """Roots of x^2 + b x + c, the 2x2 eigenvalue oracle."""
    disc = np.sqrt(b * b - 4 * c)
    return (-b + disc) / 2, (-b - disc) / 2


def test_stable_spline_2x2_eigenvalues_match_quadratic_oracle():
    k = truncate(StableSpline(0.5), 2)
    # char poly: x^2 - tr x + det
    tr = np.trace(k.entries)
    det = np.linalg.det(k.entries)
    hi, lo = quadratic_roots(-tr, det)
    s = eigendecompose(k)
    assert s.eigenvalues[0] == pytest.approx(hi, rel=1e-12)
    assert s.eigenvalues[1] == pytest.approx(lo, rel=1e-12)
    assert s.eigenvalues[0] == pytest.approx(0.6545085, abs=1e-7)
    assert s.eigenvalues[1] == pytest.approx(0.0954915, abs=1e-7)


def test_diagonal_kernel_spectrum_is_permuted_weights():
    s = eigendecompose(truncate(Diagonal(Literal((3.0, 1.0, 2.0))), 3))
    np.testing.assert_allclose(s.eigenvalues, [3.0, 2.0, 1.0], atol=1e-14)
    # eigenvectors are the canonical vectors, permuted to eigenvalue order
    expected_cols = [0, 2, 1]
    for out_col, canon in enumerate(expected_cols):
        e = np.zeros(3)
        e[canon] = 1.0
        np.testing.assert_allclose(s.eigenvectors[:, out_col], e, atol=1e-14)


def test_rank_one_projector_spectrum():
    v = np.array([1.0, 1.0]) / np.sqrt(2)
    s = eigendecompose(as_kernel(np.outer(v, v)))
    np.testing.assert_allclose(s.eigenvalues, [1.0, 0.0], atol=1e-15)


def test_eigendecompose_rejects_asymmetric_and_indefinite():
    from stablerkhs.kernels import TruncatedKernel
    from stablerkhs.errors import StructuralError
    with pytest.raises(StructuralError):
        eigendecompose(TruncatedKernel(2, np.array([[1.0, 0.3], [0.1, 1.0]]), {}))
    with pytest.raises(NumericalError):
        eigendecompose(as_kernel([[1.0, 2.0], [2.0, 1.0]]))


def test_small_negatives_are_clamped_and_counted():
    m = as_kernel(np.diag([1.0, -1e-14]))
    s = eigendecompose(m)
    assert s.clamped == 1
    assert s.eigenvalues[-1] == 0.0


def test_sign_normalization_largest_coordinate_positive():
    for seed in range(5):
        s = eigendecompose(as_kernel(random_psd(seed, 7)))
        v = s.eigenvectors
        idx = np.abs(v).argmax(axis=0)
        assert np.all(v[idx, np.arange(7)] > 0)


def test_spectrum_contracts_hold_on_zoo():
    specs = [StableSpline(0.95), StableSpline(0.5), Diagonal(PowerLaw(-2.0)),
             RankOne(PowerLaw(-1.0))]
    for spec in specs:
        k = truncate(spec, 60)
        s = eigendecompose(k)
        check_spectrum(s, k)    # orthonormality 1e-10, reconstruction 1e-9
        assert np.all(np.diff(s.eigenvalues) <= 0)


def test_multiplicity_warning_on_degenerate_spectrum():
    s = eigendecompose(as_kernel(np.eye(4)))
    assert len(s.multiplicity_warnings) == 3     # all gaps are zero


def test_trace_identity_against_partial_trace():
    for spec in (StableSpline(0.95), Diagonal(Geometric(0.5)),
                 RankOne(PowerLaw(-1.0))):
        s = eigendecompose(truncate(spec, 80))
        assert s.eigenvalues.sum() == pytest.approx(
            partial_trace(spec, 80), rel=1e-9)


def test_hilbert_schmidt_identity_against_square_sum():
    for spec in (StableSpline(0.95), Diagonal(Geometric(0.5)),
                 RankOne(PowerLaw(-1.0))):
        s = eigendecompose(truncate(spec, 80))
        assert (s.eigenvalues ** 2).sum() == pytest.approx(
            sq_sum_partial(spec, 80), rel=1e-9)


# --------------------------------------------------------------------------
# Convergence scans

def test_convergence_scan_eigenvalue_paths_monotone():
    trace = convergence_scan(StableSpline(0.95), [50, 100, 150, 200],
                             range(1, 11))
    for i in range(1, 11):
        assert np.all(np.diff(trace.eigenvalue_paths[i]) >= -1e-12)


@pytest.mark.parametrize("spec", [
    StableSpline(0.9),
    Diagonal(Geometric(0.5)),
    RankOne(PowerLaw(-1.0)),
], ids=lambda s: s.label())
def test_eigenvalue_paths_monotone_across_families(spec):
    # nested windows cannot lose eigenvalue mass, whatever the family
    trace = convergence_scan(spec, [20, 40, 80, 160], [1, 2, 3])
    for i in (1, 2, 3):
        assert np.all(np.diff(trace.eigenvalue_paths[i]) >= -1e-12)


def test_convergence_scan_diagonal_discrepancies_vanish():
    trace = convergence_scan(Diagonal(Geometric(0.5)), [20, 40, 60], [1, 2, 5])
    for i in (1, 2, 5):
        np.testing.assert_allclose(trace.discrepancies[i], 0.0, atol=1e-14)


def test_convergence_scan_discrepancy_decreases_for_stable_spline():
    trace = convergence_scan(StableSpline(0.95), [100, 200, 300, 400], [1])
    d = trace.discrepancies[1]
    assert d[-1] < d[0]
    assert d[-1] < 1e-4


def test_convergence_scan_threads_match_sequential():
    seq = convergence_scan(StableSpline(0.9), [30, 60, 90], [1, 2, 3])
    par = convergence_scan(StableSpline(0.9), [30, 60, 90], [1, 2, 3],
                           threads=3)
    for i in (1, 2, 3):
        np.testing.assert_array_equal(seq.eigenvalue_paths[i],
                                      par.eigenvalue_paths[i])
        np.testing.assert_array_equal(seq.discrepancies[i],
                                      par.discrepancies[i])


@pytest.mark.parametrize("threads", [1, 2])
def test_convergence_scan_final_is_the_largest_window_spectrum(threads):
    spec = StableSpline(0.9)
    trace = convergence_scan(spec, [30, 60, 90], [1, 2, 3], threads=threads)
    direct = eigendecompose(truncate(spec, 90))
    assert trace.final.d == 90
    np.testing.assert_array_equal(trace.final.eigenvalues, direct.eigenvalues)
    np.testing.assert_array_equal(trace.final.eigenvectors,
                                  direct.eigenvectors)


def test_convergence_scan_flags_degenerate_indices():
    # identity-like diagonal kernel: every tracked index is near-degenerate
    spec = Diagonal(Literal((2.0, 2.0, 2.0, 1.0)))
    trace = convergence_scan(spec, [4, 8], [1, 2])
    assert trace.unreliable == frozenset({1, 2})
    # Indices 1-3 share the eigenvalue 2; 5 and 6 sit among the zeros
    # past the support. Index 4 (the simple eigenvalue 1) stays reliable.
    trace = convergence_scan(spec, [8, 16], range(1, 7))
    assert trace.unreliable == frozenset({1, 2, 3, 5, 6})


def test_convergence_scan_validates_inputs():
    with pytest.raises(ConfigError):
        convergence_scan(StableSpline(0.9), [50], [1])
    with pytest.raises(ConfigError):
        convergence_scan(StableSpline(0.9), [50, 40], [1])
    with pytest.raises(ConfigError):
        convergence_scan(StableSpline(0.9), [50, 100], [51])
    with pytest.raises(ConfigError):
        convergence_scan(StableSpline(0.9), [50, 100], [])


def test_monotone_violation_raises():
    with pytest.raises(NumericalError):
        ConvergenceTrace(grid=(2, 4), tracked=(1,),
                         eigenvalue_paths={1: np.array([2.0, 1.0])},
                         discrepancies={1: np.array([0.0])})


# --------------------------------------------------------------------------
# Reconstruction and the feature map

def test_reconstruction_error_zero_at_full_rank():
    k = truncate(StableSpline(0.95), 40)
    s = eigendecompose(k)
    _, err, tail = mercer_reconstruct(s, 40, reference=k)
    assert err <= 1e-9 * np.linalg.norm(k.entries)
    assert tail == 0.0


def test_reconstruction_error_full_norm_at_rank_zero():
    k = truncate(StableSpline(0.95), 40)
    s = eigendecompose(k)
    rec, err, tail = mercer_reconstruct(s, 0, reference=k)
    np.testing.assert_array_equal(rec.entries, np.zeros((40, 40)))
    assert err == pytest.approx(np.linalg.norm(k.entries), rel=1e-12)
    assert tail == pytest.approx(1.0)


def test_reconstruction_error_monotone_in_rank():
    k = truncate(StableSpline(0.9), 30)
    s = eigendecompose(k)
    errs = [mercer_reconstruct(s, r, reference=k)[1] for r in range(31)]
    assert np.all(np.diff(errs) <= 1e-12)


def test_tc_energy_concentrates_in_leading_modes():
    s = eigendecompose(truncate(StableSpline(0.95), 400))
    _, _, tail = mercer_reconstruct(s, 10)
    assert tail < 0.15          # leading 10 modes carry most of the trace


def test_feature_map_reproduces_kernel_entries():
    k = truncate(StableSpline(0.5), 2)
    s = eigendecompose(k)
    assert feature_map(s, 1) @ feature_map(s, 2) == pytest.approx(0.25,
                                                                  rel=1e-9)
    for x in (1, 2):
        assert feature_map(s, x) @ feature_map(s, x) == pytest.approx(
            k.entries[x - 1, x - 1], rel=1e-9)


def test_feature_map_diagonal_kernel_is_scaled_canonical():
    s = eigendecompose(truncate(Diagonal(Literal((4.0, 1.0))), 2))
    phi = feature_map(s, 1)
    np.testing.assert_allclose(phi, [2.0, 0.0], atol=1e-14)


def test_feature_map_rejects_out_of_window():
    s = eigendecompose(truncate(StableSpline(0.5), 4))
    with pytest.raises(DomainError):
        feature_map(s, 0)
    with pytest.raises(DomainError):
        feature_map(s, 5)


def test_feature_map_gram_matches_kernel_on_window():
    k = truncate(StableSpline(0.9), 25)
    s = eigendecompose(k)
    phi = np.array([feature_map(s, x) for x in range(1, 26)])
    np.testing.assert_allclose(phi @ phi.T, k.entries, atol=1e-11)
