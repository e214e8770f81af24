import numpy as np
import pytest

from stablerkhs.basis import (
    CERTIFIED,
    NOT_CERTIFIED,
    MercerModel,
    MercerSynthesizedSpec,
    bounded_l1_test,
    builtin_model_zoo,
    canonical_basis,
    gram_deviation,
    l1_profile,
    laguerre_basis,
    mercer_spec_from_config,
    minimal_laguerre_window,
    ns_condition_estimate,
    random_orthogonal_basis,
    sufficient_stability_test,
    synthesize_kernel,
)
from stablerkhs.errors import DomainError
from stablerkhs.generators import Geometric, Literal, PowerLaw
from stablerkhs.kernels import spec_from_config, truncate
from stablerkhs.opnorm import NormKind, quadratic_form, sign_matrix
from stablerkhs.spectral import eigendecompose
from stablerkhs.stability import CONVERGING


# --------------------------------------------------------------------------
# Basis construction

def test_laguerre_zero_pole_is_canonical():
    b = laguerre_basis(0.0, 5, 10)
    np.testing.assert_array_equal(b.vectors, np.eye(10)[:, :5])


def _lfilter_laguerre(a, count, window):
    """Reference Laguerre columns from scipy's filter routine."""
    from scipy.signal import lfilter

    b = np.zeros((window, count))
    t = np.arange(1, window + 1, dtype=float)
    b[:, 0] = np.sqrt(1.0 - a * a) * a ** (t - 1.0)
    for k in range(1, count):
        b[:, k] = lfilter([-a, 1.0], [1.0, -a], b[:, k - 1])
    return b


@pytest.mark.parametrize("count", [1, 8, 40])
@pytest.mark.parametrize("pole", [-0.9, -0.6, 0.0, 0.35, 0.8, 0.95])
def test_laguerre_matches_lfilter_oracle(pole, count):
    # Four minimal windows hold 40 functions within the Gram tolerance.
    window = max(4 * minimal_laguerre_window(pole), count)
    got = laguerre_basis(pole, count, window).vectors
    ref = _lfilter_laguerre(pole, count, window)
    assert np.abs(got - ref).max() <= 1e-14
    if pole == 0.0:
        np.testing.assert_array_equal(got, np.eye(window, count))


def test_laguerre_first_vector_closed_form():
    b = laguerre_basis(0.8, 3, 400)
    assert b.vectors[0, 0] == pytest.approx(0.6, abs=1e-15)   # sqrt(1-0.64)
    t = np.arange(1, 401, dtype=float)
    np.testing.assert_allclose(b.vectors[:, 0], 0.6 * 0.8 ** (t - 1),
                               rtol=1e-13)


def test_laguerre_gram_within_tolerance():
    b = laguerre_basis(0.8, 8, 400)
    assert gram_deviation(b) <= 1e-8


def test_laguerre_window_requirement_names_minimum():
    need = minimal_laguerre_window(0.8)
    with pytest.raises(DomainError, match=str(need)):
        laguerre_basis(0.8, 4, need - 1)
    laguerre_basis(0.8, 4, need)        # boundary accepted


def test_laguerre_negative_pole_orthonormal():
    b = laguerre_basis(-0.6, 6, 200)
    assert gram_deviation(b) <= 1e-8
    # alternating first vector
    assert b.vectors[0, 0] > 0 > b.vectors[1, 0]


def test_laguerre_rejects_pole_outside_unit_disk():
    for a in (1.0, -1.0, 1.5):
        with pytest.raises(DomainError):
            laguerre_basis(a, 3, 500)


def test_laguerre_l1_norm_closed_form():
    # |rho_1|_1 = sqrt(1-a^2)/(1-a), geometric series oracle
    a = 0.8
    oracle = np.sqrt(1 - a * a) / (1 - a)
    prof = l1_profile(laguerre_basis(a, 5, 400))
    assert prof.norms[0] == pytest.approx(oracle, abs=1e-9)
    assert prof.norms[0] == pytest.approx(3.0, abs=1e-12)


def test_laguerre_l1_growth_is_at_most_linear():
    prof = l1_profile(laguerre_basis(0.8, 20, 400))
    assert np.isfinite(prof.max_ratio)
    ratios = np.array(prof.norms) / np.arange(1, 21)
    assert prof.max_ratio == pytest.approx(ratios.max())


def test_canonical_l1_norms_all_one():
    prof = l1_profile(canonical_basis(10))
    assert all(n == 1.0 for n in prof.norms)


def test_random_orthogonal_deterministic_and_orthonormal():
    a = random_orthogonal_basis(3, 6, 40)
    b = random_orthogonal_basis(3, 6, 40)
    np.testing.assert_array_equal(a.vectors, b.vectors)
    assert gram_deviation(a) <= 1e-12


def test_parseval_inequality_and_completeness():
    rng = np.random.default_rng(5)
    f = rng.standard_normal(30)
    partial = random_orthogonal_basis(1, 10, 30)
    full = random_orthogonal_basis(1, 30, 30)
    energy = float(f @ f)
    coeffs_partial = partial.vectors.T @ f
    coeffs_full = full.vectors.T @ f
    assert (coeffs_partial ** 2).sum() <= energy * (1 + 1e-12)
    assert (coeffs_full ** 2).sum() == pytest.approx(energy, rel=1e-12)


# --------------------------------------------------------------------------
# Models and synthesis

def test_model_rejects_bad_eigenvalue_laws():
    with pytest.raises(DomainError):
        MercerModel(basis=canonical_basis(8), eigenvalue_law=PowerLaw(1.0))
    with pytest.raises(DomainError):
        MercerModel(basis=canonical_basis(8),
                    eigenvalue_law=Literal((1.0, -0.5)))


def test_synthesize_canonical_literal_is_diagonal():
    m = MercerModel(basis=canonical_basis(8),
                    eigenvalue_law=Literal((3.0, 2.0, 1.0)))
    k = synthesize_kernel(m, 3)
    np.testing.assert_allclose(k.entries, np.diag([3.0, 2.0, 1.0]), atol=0)


def test_synthesize_zero_pole_laguerre_is_diagonal_geometric():
    m = MercerModel(basis=laguerre_basis(0.0, 6, 12),
                    eigenvalue_law=Geometric(0.5))
    k = synthesize_kernel(m, 6)
    np.testing.assert_allclose(k.entries, np.diag(0.5 ** np.arange(1, 7)),
                               atol=1e-15)


def test_synthesis_round_trip_recovers_eigenvalues():
    m = MercerModel(basis=laguerre_basis(0.8, 20, 400),
                    eigenvalue_law=PowerLaw(-4.0))
    k = synthesize_kernel(m, 200)
    s = eigendecompose(k)
    lam = m.eigenvalues()
    residual = m.eigenvalue_tail_bound()
    # leading synthesized eigenvalues match the law within the dropped tail
    for i in range(8):
        assert s.eigenvalues[i] == pytest.approx(lam[i],
                                                 abs=residual + 1e-9)
    from stablerkhs.kernels import validate_psd
    assert validate_psd(k).ok


def test_synthesize_refuses_unsummable_overlapping_combination():
    m = MercerModel(basis=laguerre_basis(0.8, 20, 400),
                    eigenvalue_law=PowerLaw(-1.0))
    with pytest.raises(DomainError, match="not"):
        synthesize_kernel(m, 50)
    # canonical supports are disjoint: the same law is fine there
    mc = MercerModel(basis=canonical_basis(16),
                     eigenvalue_law=PowerLaw(-1.0))
    synthesize_kernel(mc, 8)


def test_synthesized_spec_round_trip_and_zero_extension():
    cfg = {"family": "mercer", "basis": "laguerre", "pole": 0.8,
           "count": 10, "window": 200, "eigenvalues": "power:-4"}
    spec = spec_from_config(cfg)
    assert isinstance(spec, MercerSynthesizedSpec)
    assert spec.to_config() == cfg
    k = truncate(spec, 50)
    assert k.entries.shape == (50, 50)
    assert spec.entry(3, 7) == k.entries[2, 6]
    # materialized vectors are zero beyond the window, hence so is K
    assert spec.entry(201, 5) == 0.0
    big = truncate(spec, 250)
    assert np.all(big.entries[200:, :] == 0.0)
    np.testing.assert_array_equal(big.entries[:200, :200],
                                  truncate(spec, 200).entries)


def test_mercer_config_rejects_missing_keys():
    with pytest.raises(DomainError):
        mercer_spec_from_config({"family": "mercer", "basis": "canonical"})


def test_random_basis_rejects_a_negative_seed():
    with pytest.raises(DomainError, match="seed"):
        random_orthogonal_basis(-1, 4, 8)


def test_laguerre_at_pole_zero_synthesizes_like_the_canonical_basis():
    # Its vectors are the unit vectors, whose supports do not overlap, so
    # a non-summable law is as safe as on the canonical basis.
    law = PowerLaw(-1.0)
    k = synthesize_kernel(MercerModel(laguerre_basis(0.0, 8, 8), law), 8)
    np.testing.assert_array_equal(
        k.entries, synthesize_kernel(MercerModel(canonical_basis(8), law),
                                     8).entries)


# --------------------------------------------------------------------------
# Stability tests in feature space

def test_certificate_canonical_p2():
    m = MercerModel(basis=canonical_basis(128), eigenvalue_law=PowerLaw(-2.0))
    cert = sufficient_stability_test(m)
    assert cert.verdict == CERTIFIED
    assert not cert.contradiction
    assert cert.cross_check is not None
    assert cert.cross_check.decision == CONVERGING


def test_certificate_linear_growth_with_p2_fails():
    # |rho_i|_1 ~ c i with lambda_i = i^-2 gives harmonic-order terms
    m = builtin_model_zoo()["laguerre08-power2"]
    assert sufficient_stability_test(m).verdict == NOT_CERTIFIED


def test_certificate_laguerre_p4():
    m = builtin_model_zoo()["laguerre08-power4"]
    cert = sufficient_stability_test(m)
    assert cert.verdict == CERTIFIED
    assert not cert.contradiction


def test_certificate_exponent_boundary_sweep():
    # With |rho_i|_1 growing at most linearly the certificate needs the
    # eigenvalue exponent beyond 3; record where the numerical boundary
    # falls for the Laguerre pole 0.8 window.
    outcomes = {}
    for nu in (2.5, 3.0, 3.5, 4.0):
        m = MercerModel(basis=laguerre_basis(0.8, 20, 400),
                        eigenvalue_law=PowerLaw(-nu))
        outcomes[nu] = sufficient_stability_test(m).verdict
    assert outcomes[4.0] == CERTIFIED
    assert outcomes[2.5] == NOT_CERTIFIED
    assert CERTIFIED in {outcomes[3.5], outcomes[4.0]}


def test_zoo_certified_models_pass_abs_sum_cross_check():
    for name, model in builtin_model_zoo().items():
        cert = sufficient_stability_test(model)
        if cert.verdict == CERTIFIED:
            assert not cert.contradiction, name


def test_bounded_l1_canonical_rates():
    stable = MercerModel(basis=canonical_basis(128),
                         eigenvalue_law=PowerLaw(-2.0))
    unstable = MercerModel(basis=canonical_basis(128),
                           eigenvalue_law=PowerLaw(-1.0))
    finite = MercerModel(basis=canonical_basis(16),
                         eigenvalue_law=Literal((3.0, 2.0, 1.0)))
    assert bounded_l1_test(stable, 1.0).verdict == "stable"
    assert bounded_l1_test(unstable, 1.0).verdict == "unstable"
    assert bounded_l1_test(finite, 1.0).verdict == "stable"


def test_bounded_l1_reports_violations():
    m = builtin_model_zoo()["laguerre08-power4"]
    res = bounded_l1_test(m, 1.0)      # laguerre norms exceed 1 quickly
    assert not res.applicable
    assert res.verdict == "inapplicable"
    assert res.violating_index is not None


def test_ns_condition_canonical_is_eigenvalue_sum():
    m = MercerModel(basis=canonical_basis(10), eigenvalue_law=PowerLaw(-2.0))
    est = ns_condition_estimate(m, 10)
    assert est.value == pytest.approx(float(m.eigenvalues().sum()), rel=1e-12)


def test_ns_condition_rank_one_flat_vector():
    from stablerkhs.basis import OrthoBasis
    d = 9
    flat = OrthoBasis(kind="literal", window=d,
                      vectors=np.full((d, 1), 1.0 / np.sqrt(d)), params={})
    m = MercerModel(basis=flat, eigenvalue_law=Literal((1.0,)))
    est = ns_condition_estimate(m, d)
    assert est.value == pytest.approx(float(d), rel=1e-12)


@pytest.mark.parametrize("name", ["laguerre05-power4", "random-power4",
                                  "canonical-geometric"])
def test_ns_condition_equals_inf_one_norm_exact(name):
    # Reference in eigen-coordinates, sharing no code with the engines:
    # max over all sign vectors u of sum_i lambda_i (B_d' u)_i^2.
    model = builtin_model_zoo()[name]
    lam = model.eigenvalues()
    for d in (6, 10):
        est = ns_condition_estimate(model, d)
        assert est.kind is NormKind.EXACT
        coeffs = sign_matrix(d) @ model.basis.vectors[:d, :]
        ref = float(((coeffs * coeffs) @ lam).max())
        assert est.value == pytest.approx(ref, rel=1e-12)
        k = synthesize_kernel(model, d)
        assert quadratic_form(k.entries, est.witness) == est.value


def test_ns_condition_heuristic_beyond_cap_is_lower_bound():
    model = builtin_model_zoo()["laguerre08-power4"]
    exact = ns_condition_estimate(model, 12)
    heur = ns_condition_estimate(model, 12, cap=8, restarts=8, seed=0)
    assert heur.kind is NormKind.LOWER_BOUND
    assert heur.value <= exact.value * (1 + 1e-12)
    assert heur.value == pytest.approx(exact.value, rel=1e-9)


def test_ns_condition_heuristic_on_window_with_zero_rows():
    # Rows 4..40 of the window are zero, so flipping their signs gains
    # exactly nothing; the ascent must see that and stop.
    m = MercerModel(basis=canonical_basis(3, window=40),
                    eigenvalue_law=PowerLaw(-2.0))
    est = ns_condition_estimate(m, 40, cap=8)
    assert est.kind is NormKind.LOWER_BOUND
    assert est.value == pytest.approx(float(m.eigenvalues().sum()), rel=1e-12)
