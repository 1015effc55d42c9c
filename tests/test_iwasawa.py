"""Invariants of characteristic series, checked against hand expansions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwakit.iwasawa import (
    CharSeries,
    EulerCharUndefinedError,
    PrecisionError,
    euler_char_defined,
    euler_characteristic,
    from_elementary,
    iwasawa_invariants,
    mu_lambda_zero,
    multiply,
)
from iwakit.ntheory import padic_valuation


def test_constant_p_series():
    f = CharSeries(p=5, coeffs=(5,))
    inv = iwasawa_invariants(f)
    assert (inv.mu, inv.lambda_) == (1, 0)
    assert euler_characteristic(f) == 5


def test_quadratic_distinguished():
    # T^2 + pT + p at p = 7: unit content, Weierstrass degree 2
    f = CharSeries(p=7, coeffs=(7, 7, 1))
    inv = iwasawa_invariants(f)
    assert (inv.mu, inv.lambda_) == (0, 2)
    assert euler_characteristic(f) == 7
    assert not mu_lambda_zero(f)


def test_from_elementary_mixed():
    # p^2 * (T^2 + p) * (T + p)^3 at p = 5
    p = 5
    f = from_elementary(p, [2], [([p, 0, 1], 1), ([p, 1], 3)])
    inv = iwasawa_invariants(f)
    assert (inv.mu, inv.lambda_) == (2, 5)
    assert len(f.coeffs) == 6
    assert f.coeffs[-1] == p**2


def test_from_elementary_euler_char():
    p = 7
    f = from_elementary(p, [1], [([p, 1], 1)])
    # a0 = p * p
    assert f.coeffs[0] == p**2
    assert euler_characteristic(f) == p**2


def test_from_elementary_rejects_non_distinguished():
    with pytest.raises(ValueError):
        from_elementary(5, [], [([1, 1], 1)])  # constant term a unit
    with pytest.raises(ValueError):
        from_elementary(5, [], [([5, 2], 1)])  # not monic
    with pytest.raises(ValueError):
        from_elementary(5, [], [([5], 1)])  # degree 0
    with pytest.raises(ValueError):
        from_elementary(5, [], [([5, 1], 0)])  # multiplicity 0
    with pytest.raises(ValueError):
        from_elementary(5, [-1], [])


def test_exactly_zero_constant_term():
    # (1+T)^3 - 1 = T^3 + 3T^2 + 3T at p = 3: trivial zero of the module map
    f = CharSeries(p=3, coeffs=(0, 3, 3, 1))
    assert euler_char_defined(f) is False
    with pytest.raises(EulerCharUndefinedError):
        euler_characteristic(f)
    with pytest.raises(EulerCharUndefinedError):
        mu_lambda_zero(f)
    inv = iwasawa_invariants(f)
    # f = T (T^2 + 3T + 3) is distinguished of degree 3
    assert (inv.mu, inv.lambda_) == (0, 3)
    assert inv.euler_char_defined is False
    assert inv.euler_char_valuation is None


def test_zero_at_precision_is_not_zero():
    # a0 = p^N is invisible at precision N but nonzero; must refuse to decide
    p, n = 5, 4
    f = CharSeries(p=p, coeffs=(p**n, 1), precision=n, exact=False)
    with pytest.raises(PrecisionError):
        euler_char_defined(f)
    with pytest.raises(PrecisionError):
        euler_characteristic(f)
    with pytest.raises(PrecisionError):
        iwasawa_invariants(f)
    # the same integers marked exact are decidable
    g = CharSeries(p=p, coeffs=(p**n, 1), precision=n, exact=True)
    assert euler_char_defined(g) is True
    assert euler_characteristic(g) == p**n


def test_all_coefficients_indeterminate():
    p = 3
    f = CharSeries(p=p, coeffs=(p**20, 2 * p**20), precision=20, exact=False)
    with pytest.raises(PrecisionError):
        iwasawa_invariants(f)


def test_inexact_coefficients_reduced_mod_precision():
    # 1 + p^N and 1 agree at precision N and give identical invariants
    p, n = 5, 3
    f = CharSeries(p=p, coeffs=(1 + p**n, p), precision=n, exact=False)
    inv = iwasawa_invariants(f)
    assert (inv.mu, inv.lambda_) == (0, 0)
    assert euler_characteristic(f) == 1
    assert mu_lambda_zero(f)


def test_series_validation():
    with pytest.raises(ValueError):
        CharSeries(p=2, coeffs=(1,))
    with pytest.raises(ValueError):
        CharSeries(p=9, coeffs=(1,))
    with pytest.raises(ValueError):
        CharSeries(p=5, coeffs=())
    with pytest.raises(ValueError):
        CharSeries(p=5, coeffs=(0, 0), exact=True)
    with pytest.raises(ValueError):
        CharSeries(p=5, coeffs=(1,), precision=0)
    # exact high-degree zeros are trimmed
    f = CharSeries(p=5, coeffs=(5, 1, 0, 0))
    assert f.coeffs == (5, 1)


small_coeffs = st.lists(st.integers(min_value=-200, max_value=200), min_size=1, max_size=5)


def _nonzero_series(p: int, coeffs: list[int]) -> CharSeries | None:
    try:
        return CharSeries(p=p, coeffs=tuple(coeffs))
    except ValueError:
        return None


@settings(max_examples=200)
@given(st.sampled_from([3, 5, 7, 11]), small_coeffs, small_coeffs)
def test_invariants_multiplicative(p, cf, cg):
    f = _nonzero_series(p, cf)
    g = _nonzero_series(p, cg)
    if f is None or g is None:
        return
    fg = multiply(f, g)
    inv_f, inv_g, inv_fg = map(iwasawa_invariants, (f, g, fg))
    assert inv_fg.mu == inv_f.mu + inv_g.mu
    assert inv_fg.lambda_ == inv_f.lambda_ + inv_g.lambda_


@settings(max_examples=200)
@given(st.sampled_from([3, 5, 7, 11]), small_coeffs)
def test_unit_term_three_way_equivalence(p, cf):
    f = _nonzero_series(p, cf)
    if f is None or f.coeffs[0] == 0:
        return
    inv = iwasawa_invariants(f)
    a0_unit = f.coeffs[0] % p != 0
    assert mu_lambda_zero(f) == a0_unit
    assert ((inv.mu, inv.lambda_) == (0, 0)) == a0_unit
    assert (euler_characteristic(f) == 1) == a0_unit


@settings(max_examples=100)
@given(
    st.sampled_from([3, 5, 7]),
    st.lists(st.integers(min_value=0, max_value=3), max_size=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=3),
)
def test_from_elementary_round_trip(p, powers, deg, vlow, mult):
    # distinguished poly T^deg + p^vlow * (lower part)
    poly = [p**vlow * c for c in range(1, deg + 1)] + [1]
    if poly[0] == 0:
        return
    f = from_elementary(p, powers, [(poly, mult)])
    inv = iwasawa_invariants(f)
    assert inv.mu == sum(powers)
    assert inv.lambda_ == deg * mult
    assert euler_characteristic(f) == p ** padic_valuation(f.coeffs[0], p)


def test_multiply_validation():
    f = CharSeries(p=5, coeffs=(5, 1))
    g = CharSeries(p=7, coeffs=(7, 1))
    with pytest.raises(ValueError):
        multiply(f, g)
    h = multiply(f, CharSeries(p=5, coeffs=(1, 1), precision=4, exact=False))
    assert h.precision == 4
    assert h.exact is False
