import numpy as np
import pytest

from stablerkhs.errors import DomainError
from stablerkhs.generators import (
    Constant,
    Geometric,
    Literal,
    PowerLaw,
    _zeta,
    parse_generator,
)


def test_power_law_terms():
    g = PowerLaw(-1.0)
    assert g.term(1) == 1.0
    assert g.term(4) == 0.25
    np.testing.assert_allclose(g.terms(3), [1.0, 0.5, 1 / 3])


def test_power_law_lag_zero_negative_exponent_rejected():
    with pytest.raises(DomainError):
        PowerLaw(-1.0).lag(0)
    assert PowerLaw(0.0).lag(0) == 1.0
    assert PowerLaw(2.0).lag(0) == 0.0


def test_geometric_conventions():
    g = Geometric(0.5)
    assert g.term(1) == 0.5          # series starts at ratio^1
    assert g.lag(0) == 1.0           # lag form starts at ratio^0
    np.testing.assert_allclose(g.terms(3), [0.5, 0.25, 0.125])


def test_literal_anchoring_and_zero_extension():
    g = Literal((3.0, 1.0, 2.0))
    assert g.term(1) == 3.0
    assert g.lag(0) == 3.0
    assert g.term(4) == 0.0
    assert g.lag(10) == 0.0
    np.testing.assert_array_equal(g.terms(5), [3, 1, 2, 0, 0])


def test_index_domain_errors():
    for g in (PowerLaw(-2.0), Geometric(0.3), Constant(1.0), Literal((1.0,))):
        with pytest.raises(DomainError):
            g.term(0)
        with pytest.raises(DomainError):
            g.lag(-1)


@pytest.mark.parametrize("gen, abs_s, sq_s", [
    (PowerLaw(-2.0), "yes", "yes"),
    (PowerLaw(-1.0), "no", "yes"),
    (PowerLaw(-0.75), "no", "yes"),
    (PowerLaw(-0.5), "no", "no"),
    (Geometric(0.5), "yes", "yes"),
    (Geometric(1.0), "no", "no"),
    (Constant(0.0), "yes", "yes"),
    (Constant(2.0), "no", "no"),
    (Literal((1.0, -5.0)), "yes", "yes"),
])
def test_analytic_summability(gen, abs_s, sq_s):
    assert gen.abs_summable() == abs_s
    assert gen.sq_summable() == sq_s


def test_abs_sum_limits_against_partial_sums():
    # zeta(2) for 1/i^2 and r/(1-r) for geometric: compare with long sums
    i = np.arange(1, 200001, dtype=float)
    assert PowerLaw(-2.0).abs_sum_limit() == pytest.approx((i ** -2).sum(), abs=1e-4)
    assert Geometric(0.5).abs_sum_limit() == pytest.approx(1.0, abs=1e-12)
    assert Literal((1.0, -2.0, 3.0)).abs_sum_limit() == 6.0


def test_zeta_matches_scipy_oracle():
    from scipy.special import zeta

    # Dense near the pole at s = 1, where the tail term dominates.
    s = np.concatenate([1.0 + np.geomspace(1e-6, 1.0, 300, endpoint=False),
                        np.linspace(2.0, 60.0, 700)])
    got = np.array([_zeta(float(x)) for x in s])
    ref = zeta(s)
    assert np.all(np.abs(got - ref) <= 4e-15 * ref)
    # Closed forms, independent of the oracle.
    assert _zeta(2.0) == pytest.approx(np.pi ** 2 / 6, rel=4e-16)
    assert _zeta(4.0) == pytest.approx(np.pi ** 4 / 90, rel=4e-16)


def test_power_law_abs_sum_limit_is_zeta_only_when_summable():
    assert PowerLaw(-2.0).abs_sum_limit() == _zeta(2.0)
    assert PowerLaw(-4.5).abs_sum_limit() == _zeta(4.5)
    assert PowerLaw(-1.0).abs_sum_limit() is None
    assert PowerLaw(-0.5).abs_sum_limit() is None


def test_spec_string_round_trip():
    for gen in (PowerLaw(-1.0), Geometric(0.95), Constant(2.0),
                Literal((1.0, -2.5, 3.0)), PowerLaw(-0.5000001),
                Geometric(1 / 3), Constant(0.1 + 0.2),
                Literal((-0.5000001, 1 / 3, 0.1 + 0.2))):
        again = parse_generator(gen.spec_string())
        assert again == gen
    # Short text wherever it is exact, so such spec strings are unchanged.
    assert PowerLaw(-1.0).spec_string() == "power:-1"
    assert Literal((3.0, 1.0, 2.0)).spec_string() == "lit:3,1,2"
    assert PowerLaw(-0.5000001).spec_string() == "power:-0.5000001"


def test_parse_rejects_malformed_specs():
    for bad in ("power", "power:abc", "frobnicate:1", "lit:", ""):
        with pytest.raises(DomainError):
            parse_generator(bad)
    for bad in ("power:nan", "geometric:inf", "const:-inf", "lit:1,nan",
                "lit:-inf,2"):
        with pytest.raises(DomainError, match="non-finite"):
            parse_generator(bad)
