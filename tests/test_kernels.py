import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablerkhs.errors import DomainError, StructuralError
from stablerkhs.basis import (
    MercerModel,
    MercerSynthesizedSpec,
    canonical_basis,
    laguerre_basis,
    minimal_laguerre_window,
    random_orthogonal_basis,
)
from stablerkhs.config import BASIS_SCHEMA
from stablerkhs.generators import Constant, Geometric, Literal, PowerLaw
from stablerkhs.kernels import (
    Diagonal,
    Gaussian,
    RankOne,
    StableSpline,
    TranslationInvariant,
    TruncatedKernel,
    spec_from_config,
    truncate,
    validate_psd,
)

ALL_SPECS = [
    StableSpline(0.95),
    StableSpline(0.5),
    Gaussian(),
    TranslationInvariant(Geometric(0.5)),
    RankOne(PowerLaw(-1.0)),
    Diagonal(PowerLaw(-2.0)),
    Diagonal(Literal((3.0, 1.0, 2.0))),
]


def test_eval_entry_closed_forms():
    assert StableSpline(0.95).entry(2, 3) == pytest.approx(0.95 ** 3,
                                                           abs=1e-15)
    assert Gaussian().entry(7, 7) == 1.0
    assert RankOne(PowerLaw(-1.0)).entry(2, 3) == pytest.approx(1 / 6)


def test_eval_entry_rejects_bad_indices():
    with pytest.raises(DomainError):
        Gaussian().entry(0, 1)
    with pytest.raises(DomainError):
        Gaussian().entry(1, -3)


def test_parameter_validation_at_construction():
    with pytest.raises(DomainError):
        StableSpline(1.0)
    with pytest.raises(DomainError):
        StableSpline(-0.1)
    with pytest.raises(DomainError):
        Gaussian(0.0)
    StableSpline(0.0)       # boundary allowed: the zero kernel


def test_truncate_stable_spline_2x2():
    k = truncate(StableSpline(0.5), 2)
    np.testing.assert_array_equal(k.entries, [[0.5, 0.25], [0.25, 0.25]])


def test_truncate_single_entry():
    for spec in ALL_SPECS:
        k = truncate(spec, 1)
        assert k.entries.shape == (1, 1)
        assert k.entries[0, 0] == spec.entry(1, 1)


def test_truncate_gaussian_3x3():
    k = truncate(Gaussian(), 3).entries
    e = np.exp
    np.testing.assert_allclose(
        k, [[1, e(-1), e(-4)], [e(-1), 1, e(-1)], [e(-4), e(-1), 1]],
        rtol=0, atol=0)


@pytest.mark.parametrize("width", [1e-300, 1e-160])
def test_gaussian_tiny_width_entries_vanish_off_the_diagonal(width):
    # (lag / width)**2 would overflow; the off-diagonal entries are 0.0.
    spec = Gaussian(width)
    k = truncate(spec, 6).entries
    np.testing.assert_array_equal(k, np.eye(6))
    for i in range(1, 7):
        for j in range(1, 7):
            assert spec.entry(i, j) == k[i - 1, j - 1]


def test_truncate_rejects_zero_order():
    with pytest.raises(DomainError):
        truncate(Gaussian(), 0)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
def test_entries_match_eval_entry_exactly(spec):
    d = 12
    k = truncate(spec, d)
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            assert k.entries[i - 1, j - 1] == spec.entry(i, j)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
def test_symmetry_exact_on_probed_indices(spec):
    rng = np.random.default_rng(0)
    for _ in range(50):
        i, j = rng.integers(1, 1000, size=2)
        assert spec.entry(int(i), int(j)) == spec.entry(int(j), int(i))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
def test_truncation_nesting_entry_exact(spec):
    big = truncate(spec, 30)
    small = truncate(spec, 11)
    np.testing.assert_array_equal(big.entries[:11, :11], small.entries)
    np.testing.assert_array_equal(big.leading(11).entries, small.entries)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
def test_diagonal_matches_entries(spec):
    d = 17
    np.testing.assert_array_equal(spec.diagonal(d),
                                  np.diag(truncate(spec, d).entries))


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("d", [1, 10, 100])
def test_stable_spline_truncations_psd(alpha, d):
    assert validate_psd(truncate(StableSpline(alpha), d)).ok


def test_validate_psd_derived_case():
    check = validate_psd(truncate(StableSpline(0.95), 50))
    assert check.ok
    assert check.lambda_min >= -check.tolerance


def test_validate_psd_indefinite_matrix():
    k = TruncatedKernel(2, np.array([[1.0, 2.0], [2.0, 1.0]]), {})
    check = validate_psd(k)
    assert not check.ok
    assert check.lambda_min == pytest.approx(-1.0, abs=1e-12)


def test_validate_psd_zero_matrix():
    check = validate_psd(TruncatedKernel(4, np.zeros((4, 4)), {}))
    assert check.ok
    assert check.lambda_min == pytest.approx(0.0, abs=1e-300)


def test_validate_psd_catches_non_psd_translation_invariant():
    spec = TranslationInvariant(Literal((1.0, -1.0, -1.0)))
    assert not validate_psd(truncate(spec, 3)).ok


def test_validate_psd_rejects_asymmetric_input():
    bad = TruncatedKernel(2, np.array([[1.0, 0.5], [0.2, 1.0]]), {})
    with pytest.raises(StructuralError):
        validate_psd(bad)


@given(alpha=st.floats(min_value=0.0, max_value=0.99),
       d=st.integers(min_value=1, max_value=40))
@settings(max_examples=30, deadline=None)
def test_stable_spline_windows_always_psd(alpha, d):
    assert validate_psd(truncate(StableSpline(alpha), d)).ok


def test_entries_read_only():
    k = truncate(Gaussian(), 4)
    with pytest.raises(ValueError):
        k.entries[0, 0] = 7.0


def test_config_round_trip():
    for spec in ALL_SPECS:
        again = spec_from_config(spec.to_config())
        assert again.to_config() == spec.to_config()
        assert again.entry(3, 5) == spec.entry(3, 5)


_finite = st.floats(allow_nan=False, allow_infinity=False)
_generators = st.one_of(
    _finite.map(PowerLaw), _finite.map(Geometric), _finite.map(Constant),
    st.lists(_finite, min_size=1, max_size=4).map(
        lambda v: Literal(tuple(v))))
_closed_forms = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True).map(StableSpline),
    st.floats(0.0, 1e300, exclude_min=True).map(Gaussian),
    _generators.map(TranslationInvariant), _generators.map(RankOne),
    _generators.map(Diagonal))
#: Eigenvalue laws a Mercer model accepts: non-negative, non-increasing.
_eigenvalue_laws = st.one_of(
    st.floats(-1e3, 0.0).map(PowerLaw), st.floats(0.0, 1.0).map(Geometric),
    st.floats(0.0, 1e3).map(Constant),
    st.lists(st.floats(0.0, 1e3), min_size=1, max_size=4).map(
        lambda v: Literal(tuple(sorted(v, reverse=True)))))


@st.composite
def _mercer_specs(draw):
    count = draw(st.integers(1, 6))
    pad = draw(st.integers(0, 4))
    kind = draw(st.sampled_from(sorted(BASIS_SCHEMA)))
    if kind == "laguerre":
        pole = draw(st.floats(-0.9, 0.9))
        window = max(count, minimal_laguerre_window(pole)) + pad
        basis = laguerre_basis(pole, count, window)
    elif kind == "random":
        basis = random_orthogonal_basis(draw(st.integers(0, 2 ** 63)),
                                        count, count + pad)
    else:
        basis = canonical_basis(count, count + pad)
    return MercerSynthesizedSpec(MercerModel(basis, draw(_eigenvalue_laws)))


def _leading_block(spec):
    """The leading 4 x 4 block, or the message of the error it raises."""
    try:
        with np.errstate(all="ignore"):
            return truncate(spec, 4).entries
    except (DomainError, ArithmeticError) as exc:
        return repr(exc)


@given(spec=st.one_of(_closed_forms, _mercer_specs()))
@settings(max_examples=150, deadline=None)
def test_config_round_trip_every_family_and_basis(spec):
    again = spec_from_config(spec.to_config())
    assert again.to_config() == spec.to_config()
    np.testing.assert_array_equal(_leading_block(again),
                                  _leading_block(spec))


_SUPPORTED = {
    "mercer-canonical": MercerSynthesizedSpec(MercerModel(
        canonical_basis(5, 12), PowerLaw(-2.0))),
    "mercer-laguerre": MercerSynthesizedSpec(MercerModel(
        laguerre_basis(0.6, 8, 64), PowerLaw(-4.0))),
    "mercer-random": MercerSynthesizedSpec(MercerModel(
        random_orthogonal_basis(11, 6, 20), PowerLaw(-3.0))),
    "rank-one-negative": spec_from_config(
        {"family": "rank-one", "v": "lit:1,-2,0,-0.5,3"}),
    "diagonal-literal": spec_from_config(
        {"family": "diagonal", "g": "lit:3,0,1,0.5"}),
}


@pytest.mark.parametrize("name", sorted(_SUPPORTED))
def test_truncate_past_support_is_the_dense_mirror(name):
    # Zero padding past the support must equal the triu mirror of the
    # whole block bit for bit, -0.0 normalized to +0.0 included.
    spec = _SUPPORTED[name]
    n = spec.support
    for d in (n - 1, n, n + 1, 2 * n, 7 * n):
        block = spec._block(d)
        dense = np.triu(block) + np.triu(block, 1).T
        entries = truncate(spec, d).entries
        assert np.array_equal(entries, dense)
        assert np.array_equal(np.signbit(entries), np.signbit(dense))
        assert not np.signbit(entries[n:, :]).any()


def test_config_rejects_unknown_keys_and_families():
    with pytest.raises(DomainError, match="typo"):
        spec_from_config({"family": "gaussian", "typo": 1})
    with pytest.raises(DomainError):
        spec_from_config({"family": "nope"})
    with pytest.raises(DomainError):
        spec_from_config({"family": "stable-spline"})   # alpha missing
