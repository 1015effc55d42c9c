"""Dense polynomial helpers over F_q, checked by evaluation at every x in F_q.

Tate's algorithm and the psi_3 kernel reach _gcd at large q; here the
helpers run directly on small primes q, where every residue can be tried.
"""

from hypothesis import given, settings, strategies as st

from iwakit._poly import _gcd, _mul, _rem, _sub, _trim, _value, _x_pow_mod
from iwakit.ntheory import sieve_primes

SMALL_Q = [q for q in sieve_primes(97) if q >= 5]


def _roots(f, q):
    return {x for x in range(q) if _value(f, x) % q == 0}


@st.composite
def _field_and_polys(draw):
    q = draw(st.sampled_from(SMALL_Q))
    coeff = st.integers(-(10**6), 10**6)
    a = draw(st.lists(coeff, min_size=1, max_size=9))
    b = draw(st.lists(coeff, min_size=1, max_size=9))
    # m has a unit leading coefficient and degree >= 1, like every modulus in Tate's algorithm
    m = draw(st.lists(coeff, min_size=1, max_size=5)) + [draw(st.integers(1, q - 1))]
    # factors split over F_q, so that roots, gcds and remainders at roots are not vacuous
    for r in draw(st.lists(st.integers(0, q - 1), max_size=4)):
        if draw(st.booleans()):
            a, b = _mul(a, [-r, 1]), _mul(b, [-r, 1])
        if draw(st.booleans()):
            m = _mul(m, [-r, 1])
    return q, a, b, m


@settings(max_examples=200, deadline=None)
@given(_field_and_polys(), st.lists(st.integers(-(10**6), 10**6), max_size=9))
def test_rem_gcd_and_x_pow_mod_by_evaluation(inputs, r0):
    q, a, b, m = inputs
    roots = _roots(m, q)

    rem = _rem(a, m, q)
    assert rem == _trim(rem, q) and len(rem) < len(m)
    assert all((_value(rem, x) - _value(a, x)) % q == 0 for x in roots)
    # a known remainder: m a + r0 leaves r0 mod q
    r0 = r0[: len(m) - 1]
    assert _rem(_sub(_mul(m, a), [-c for c in r0]), m, q) == _trim(r0, q)

    # _gcd takes inputs reduced by _trim and overwrites them, so it gets copies
    g = _gcd(_trim(a, q), _trim(b, q), q)
    if _trim(a, q) or _trim(b, q):
        assert g == _trim(g, q)  # reduced, with a unit leading coefficient; not made monic
        assert _rem(a, g, q) == [] and _rem(b, g, q) == []
        assert _roots(g, q) == _roots(a, q) & _roots(b, q)
    else:
        assert g == []

    frob = _x_pow_mod(q, m, q)
    assert len(frob) < len(m)
    assert all((_value(frob, x) - x) % q == 0 for x in roots)  # x^q = x on F_q
    # gcd(m, x^q - x) has one linear factor per distinct root of m in F_q
    assert len(_gcd(_trim(m, q), _trim(_sub(frob, [0, 1]), q), q)) - 1 == len(roots)


@settings(max_examples=100, deadline=None)
@given(_field_and_polys(), st.integers(0, 10**4))
def test_x_pow_mod_any_exponent_by_evaluation(inputs, e):
    q, _, _, m = inputs
    power = _x_pow_mod(e, m, q)
    assert len(power) < len(m)
    assert all((_value(power, x) - pow(x, e, q)) % q == 0 for x in _roots(m, q))
