import gc
import pickle
import random
import time
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from iwakit import elliptic
from iwakit.elliptic import (
    InvalidTwistError,
    LocalReductionData,
    NonMinimalModelError,
    SingularCurveError,
    WeierstrassModel,
    conductor,
    format_model,
    has_potential_good_reduction,
    local_data,
    minimal_model,
    model_from_c4c6,
    parse_model,
    quadratic_twist,
    reduction_type,
)
from iwakit.elliptic import _kept, _minimality_exponent
from iwakit.eulerchar import HypothesisNotMetError, euler_char_factors
from iwakit.ntheory import factorize, is_prime, padic_valuation

E99 = WeierstrassModel(0, 0, 1, -3, -5)  # y^2 + y = x^3 - 3x - 5, conductor 99
E11 = WeierstrassModel(0, -1, 1, -10, -20)  # conductor 11, Tamagawa 5 at 11
E32 = WeierstrassModel(0, 0, 0, -1, 0)  # y^2 = x^3 - x, conductor 32
E27 = WeierstrassModel(0, 0, 1, 0, -7)  # y^2 + y = x^3 - 7, conductor 27
E37 = WeierstrassModel(0, 0, 1, -1, 0)  # conductor 37
E389 = WeierstrassModel(0, 1, 1, -2, 0)  # conductor 389


def test_invariants_main_example():
    assert E99.c4 == 144
    assert E99.c6 == 4104
    assert E99.disc == -8019
    assert E99.disc == -(3**6) * 11
    assert Fraction(E99.c4**3, E99.disc) == Fraction(-(144**3), 8019)


def test_invariants_small():
    assert E32.disc == 64
    assert E32.c4 == 48


@given(
    st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50),
    st.integers(-500, 500), st.integers(-500, 500),
)
@settings(max_examples=200, deadline=None)
def test_invariant_identities(a1, a2, a3, a4, a6):
    try:
        w = WeierstrassModel(a1, a2, a3, a4, a6)
    except SingularCurveError:
        return
    assert 4 * w.b8 == w.b2 * w.b6 - w.b4 * w.b4
    assert w.b2 * w.b2 - 24 * w.b4 == w.c4
    assert w.c4**3 - w.c6**2 == 1728 * w.disc


def test_singular_rejected():
    with pytest.raises(SingularCurveError):
        WeierstrassModel(0, 0, 0, 0, 0)
    with pytest.raises(SingularCurveError):
        WeierstrassModel(0, 0, 0, -3, 2)  # y^2 = (x-1)^2 (x+2)


def test_transform_roundtrip():
    w = E99.transform(r=2, s=-1, t=3)
    assert w.disc == E99.disc
    assert w.c4 == E99.c4 and w.c6 == E99.c6
    assert _undo(w, r=2, s=-1, t=3) == E99


def _undo(w: WeierstrassModel, r: int, s: int, t: int) -> WeierstrassModel:
    # inverse of (r, s, t) is (-r, -s, rs - t)
    return w.transform(r=-r, s=-s, t=r * s - t)


@given(
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=-20, max_value=20),
)
def test_transform_inverse_property(r, s, t):
    w = E99.transform(r=r, s=s, t=t)
    assert _undo(w, r, s, t) == E99
    assert w.disc == E99.disc


def test_transform_scaling_integrality():
    scaled = model_from_c4c6(2**4 * 48, 0)  # u=2 blowup of y^2 = x^3 - x
    assert minimal_model(scaled) == (E32, 2)


def test_minimal_model_twist_example():
    tw = quadratic_twist(E99, -3)
    assert tw.c4 == 1296 and tw.c6 == -110808
    assert padic_valuation(tw.c4, 3) >= 4
    assert padic_valuation(tw.c6, 3) >= 6
    assert padic_valuation(tw.disc, 3) >= 12
    mm, u = minimal_model(tw)
    assert u == 3
    assert mm.c4 == 16 and mm.c6 == -152
    assert mm.disc == -11
    assert mm == WeierstrassModel(0, -1, 1, 0, 0)
    assert reduction_type(mm, 3).is_good


def test_minimal_model_fixed_point():
    mm, u = minimal_model(E99)
    assert mm == E99 and u == 1


def test_minimal_model_u2_roundtrip():
    blown = model_from_c4c6(2**4 * 48, 2**6 * 0)
    mm, u = minimal_model(blown)
    assert (mm, u) == (E32, 2)


def test_minimal_model_u6_roundtrip():
    blown = model_from_c4c6(6**4 * 144, 6**6 * 4104)
    mm, u = minimal_model(blown)
    assert (mm, u) == (E99, 6)


def test_minimal_despite_high_valuations():
    # v2(c4) = 6, v2(c6) = oo, v2(disc) = 12, yet minimal at 2: the divided
    # pair fails the existence conditions for an integral model.
    w = WeierstrassModel(0, 0, 0, 4, 0)
    assert _minimality_exponent(w.c4, w.c6, w.disc, 2) == 0
    assert minimal_model(w) == (w, 1)


def _rescale(w: WeierstrassModel, u: int) -> WeierstrassModel:
    """The model with a_i scaled by u^i, so c4 and c6 pick up u^4 and u^6."""
    return WeierstrassModel(u * w.a1, u**2 * w.a2, u**3 * w.a3, u**4 * w.a4, u**6 * w.a6)


def test_minimal_model_big_discriminant():
    # a 603-digit discriminant whose content is 10^50: found from gcd(c4, c6)
    # in a few steps instead of walking every q up to |disc|^(1/12)
    w = WeierstrassModel(0, 0, 0, 10**200, 10**300)
    assert len(str(abs(w.disc))) == 603
    assert minimal_model(w) == (WeierstrassModel(0, 0, 0, 1, 1), 10**50)


def test_minimal_model_large_prime_content_ends():
    # gcd(c4, c6) = 48 P with P = 10^40 + 121 prime: a walk of every q with
    # q^4 <= gcd would take about 10^10 steps
    big = 10**40 + 121
    w = WeierstrassModel(0, 0, 0, big, big)
    start = time.perf_counter()
    assert minimal_model(w) == (w, 1)
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("u", [1031, 1031 * 1033, 65537 * 65539])
def test_minimal_model_scales_away_primes_above_trial_bound(u):
    # 1031, 1033, 65537 and 65539 are primes above factorize's trial bound 2^10
    assert minimal_model(_rescale(E99, u)) == (E99, u)


def test_minimal_model_is_freed_without_the_cyclic_collector():
    w = _rescale(WeierstrassModel(0, 0, 1, -3, -5), 2)
    gc.disable()
    try:
        mm, _ = minimal_model(w)
        local_data(w)
        kept = weakref.ref(mm)
        del w, mm
        assert kept() is None
    finally:
        gc.enable()


def test_kept_error_is_raised_anew_without_a_rebuild():
    # a ValueError outcome is kept as its type and arguments, not as the
    # exception, whose traceback would hold the model
    w = WeierstrassModel(0, 0, 1, -3, -5)
    calls = []

    def build(model, q):
        calls.append(q)
        raise NonMinimalModelError(f"model is not minimal at {q}")

    gc.disable()
    try:
        for _ in range(2):
            with pytest.raises(NonMinimalModelError, match="^model is not minimal at 7$"):
                _kept(w, "_probe", build, w, 7)
        assert calls == [7]
        kept = weakref.ref(w)
        del w
        assert kept() is None
    finally:
        gc.enable()


@pytest.mark.parametrize(("coeffs", "fails"), [
    ((0, 0, 1, -3, -5), False),
    # additive at 3 with a good ordinary twist but no reference record
    ((0, 0, 1, -93, 625), True),
])
def test_euler_audit_outcome_is_freed_without_the_cyclic_collector(coeffs, fails):
    # the audit's outcome is kept on the minimal model; a kept error would
    # hold, through its traceback, the frames that hold the model
    mm, _ = minimal_model(WeierstrassModel(*coeffs))
    gc.disable()
    try:
        for _ in range(2):  # the audit, then its kept outcome
            try:
                euler_char_factors(mm, 3)
            except HypothesisNotMetError:
                assert fails
            else:
                assert not fails
        kept = weakref.ref(mm)
        del mm
        assert kept() is None
    finally:
        gc.enable()


@given(
    st.sampled_from([0, 1]), st.sampled_from([-1, 0, 1]), st.sampled_from([0, 1]),
    st.integers(-500, 500), st.integers(-500, 500), st.integers(1, 30),
)
@settings(deadline=None)
def test_minimal_model_rescaling_invariant(a1, a2, a3, a4, a6, u):
    try:
        w = WeierstrassModel(a1, a2, a3, a4, a6)
    except SingularCurveError:
        return
    fresh = WeierstrassModel(a1, a2, a3, a4, a6)
    key = hash(w)
    mm, u0 = minimal_model(w)
    assert minimal_model(_rescale(w, u)) == (mm, u * u0)
    # the answer is kept on the model, and the minimal model is its own
    assert minimal_model(mm) == (mm, 1) and minimal_model(mm)[0] is mm
    assert minimal_model(w) == minimal_model(fresh)
    # the kept answer is not a field: ==, hash and pickling see the coefficients only
    assert w == fresh and hash(w) == hash(fresh) == key
    assert pickle.loads(pickle.dumps(w)) == w


def _tate_at_disc_factors(w: WeierstrassModel) -> list[LocalReductionData]:
    mm, _ = minimal_model(w)
    return [reduction_type(mm, q) for q, _ in factorize(mm.disc)]


def test_local_data_named_curves():
    for w in (E99, E11, E32, E27, E37, E389):
        assert local_data(w) == _tate_at_disc_factors(w)
        assert [local.ell for local in local_data(w)] == [q for q, _ in factorize(conductor(w))]


@pytest.mark.parametrize("u", [1, 2])
def test_local_data_is_kept_on_the_minimal_model(monkeypatch, u):
    # a fresh model, so nothing is kept on it yet; u = 2 is not minimal
    w = _rescale(WeierstrassModel(0, 0, 1, -3, -5), u)
    first = local_data(w)
    calls = []

    def counted(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(elliptic, "factorize", counted)
    assert local_data(w) == first
    assert calls == []
    assert first == _tate_at_disc_factors(E99)


def test_local_data_two_large_prime_factors():
    # Delta = 91026379747 * 7233465781205009: trial division alone runs towards 9e10
    w = WeierstrassModel(0, 0, 1, -7, 1234567891011)
    bad = local_data(w)
    assert [(local.ell, local.kodaira) for local in bad] == [
        (91026379747, "I1"), (7233465781205009, "I1"),
    ]
    assert bad == _tate_at_disc_factors(w)
    assert conductor(w) == -w.disc == 91026379747 * 7233465781205009


def test_local_data_unfactorable_discriminant():
    # Delta = -a6 (1 + 432 a6) with a6 the product of two 20-digit primes
    w = WeierstrassModel(1, 0, 0, 0, 10000000000000000051 * 30000000000000000041)
    with pytest.raises(ValueError, match="cannot factor"):
        local_data(w)


@given(
    st.sampled_from([0, 1]), st.sampled_from([-1, 0, 1]), st.sampled_from([0, 1]),
    st.integers(-300, 300), st.integers(-300, 300), st.sampled_from([1, 2, 3, 5, 6]),
)
@settings(deadline=None, max_examples=50)
def test_local_data_rescaled_random_curves(a1, a2, a3, a4, a6, u):
    try:
        w = _rescale(WeierstrassModel(a1, a2, a3, a4, a6), u)
    except SingularCurveError:
        return
    assert local_data(w) == _tate_at_disc_factors(w)


def test_model_from_c4c6_errors():
    with pytest.raises(ValueError):
        model_from_c4c6(1, 2)  # 1728 does not divide c4^3 - c6^2
    with pytest.raises(SingularCurveError):
        model_from_c4c6(1, 1)
    with pytest.raises(ValueError):
        model_from_c4c6(177, 9)  # v3(c6) = 2 obstruction


def test_reduction_main_example_at_3():
    rd = reduction_type(E99, 3)
    assert rd.type == "additive"
    assert rd.v_disc == 6 and rd.v_c4 == 2
    assert rd.kodaira == "I0*"
    assert rd.tamagawa == 1
    assert rd.conductor_exponent == 2


def test_reduction_main_example_at_11():
    rd = reduction_type(E99, 11)
    assert rd.type == "nonsplit_multiplicative"
    assert rd.kodaira == "I1"
    assert rd.tamagawa == 1
    assert rd.conductor_exponent == 1
    assert rd.v_disc == 1


def test_reduction_main_example_at_7():
    rd = reduction_type(E99, 7)
    assert rd.is_good and rd.kodaira == "I0" and rd.tamagawa == 1


def test_reduction_known_curves():
    rd = reduction_type(E11, 11)
    assert rd.type == "split_multiplicative"
    assert rd.kodaira == "I5" and rd.tamagawa == 5

    rd = reduction_type(E32, 2)
    assert rd.kodaira == "III" and rd.tamagawa == 2 and rd.conductor_exponent == 5

    rd = reduction_type(E27, 3)
    assert rd.kodaira == "IV*" and rd.tamagawa == 3 and rd.conductor_exponent == 3

    rd = reduction_type(E37, 37)
    assert rd.kodaira == "I1" and rd.tamagawa == 1 and rd.conductor_exponent == 1


def test_conductors():
    assert conductor(E99) == 99
    assert conductor(E11) == 11
    assert conductor(E32) == 32
    assert conductor(E27) == 27
    assert conductor(E37) == 37
    assert conductor(E389) == 389


def test_nonminimal_rejected():
    blown = model_from_c4c6(6**4 * 144, 6**6 * 4104)
    with pytest.raises(NonMinimalModelError, match="^model is not minimal at 2$"):
        reduction_type(blown, 2)
    with pytest.raises(NonMinimalModelError, match="^model is not minimal at 3$"):
        reduction_type(blown, 3)
    # still fine at a prime where it is minimal
    assert reduction_type(blown, 11).type == "nonsplit_multiplicative"
    with pytest.raises(ValueError, match="^4 is not prime$"):
        reduction_type(blown, 4)


def test_reduction_type_checks_primality_once(monkeypatch):
    calls = []
    monkeypatch.setattr(elliptic, "is_prime", lambda n: calls.append(n) or is_prime(n))
    for ell in (3, 11, 13):
        reduction_type(E99, ell)
    assert calls == [3, 11, 13]


def test_potential_good_reduction():
    assert has_potential_good_reduction(E99, 3)  # v3(j-denominator) = 0
    assert not has_potential_good_reduction(E99, 11)
    assert has_potential_good_reduction(E32, 2)


def _j_is_integral_at(model: WeierstrassModel, q: int) -> bool:
    """Oracle: q does not divide the denominator of j = c4^3 / disc in lowest terms."""
    return Fraction(model.c4**3, model.disc).denominator % q != 0


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 401])
def test_potential_good_reduction_against_fraction_oracle(q):
    rng = random.Random(q)
    # y^2 + xy = x^3 + q^k has c4 = 1 and v_q(disc) = k: j is not q-integral
    models = [WeierstrassModel(1, 0, 0, 0, q**k) for k in (1, 3)] + [E99, E32]
    while len(models) < 150:
        a = [rng.randint(-30, 30) for _ in range(5)]
        if len(models) % 3 == 0:
            a[1] = a[3] = 0  # with a1 = 0 as well, c4 = 0 and j = 0
            a[0] = 0
        try:
            models.append(WeierstrassModel(*a))
        except SingularCurveError:
            continue
    # the same j with q-powers in c4 and disc, which cancel in part
    models += [_rescale(w, u) for w in models[:30] for u in (q, q * q)]
    assert any(w.c4 == 0 for w in models) and any(w.disc < 0 for w in models)
    assert any(w.disc % q == 0 for w in models)
    outcomes = set()
    for w in models:
        outcome = has_potential_good_reduction(w, q)
        assert outcome == _j_is_integral_at(w, q), w
        outcomes.add(outcome)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# oracle: Kodaira type from (v_disc, v_c4) valuations, valid for q >= 5
# ---------------------------------------------------------------------------


def kodaira_from_valuations(v_disc: int, v_c4) -> str:
    """Valuation table for minimal models at residue characteristic >= 5."""
    if v_disc == 0:
        return "I0"
    if v_c4 == 0:
        return f"I{v_disc}"
    big = 10**9 if v_c4 is None else v_c4
    if v_disc == 2:
        return "II"
    if v_disc == 3:
        return "III"
    if v_disc == 4:
        return "IV"
    if v_disc == 6:
        return "I0*"
    if big == 2:
        return f"I{v_disc - 6}*"
    if v_disc == 8:
        return "IV*"
    if v_disc == 9:
        return "III*"
    if v_disc == 10:
        return "II*"
    raise AssertionError(f"unrealizable valuations ({v_disc}, {v_c4})")


TAMAGAWA_RANGE = {
    "II": {1}, "II*": {1}, "III": {2}, "III*": {2},
    "IV": {1, 3}, "IV*": {1, 3}, "I0*": {1, 2, 4},
}


def _is_starred_in(kodaira: str) -> bool:
    """I_m* with m >= 1 (not IV*/III*/II*, not I0*)."""
    return (kodaira.endswith("*") and kodaira[1:-1].isdigit() and kodaira != "I0*"
            and kodaira.startswith("I"))


def _sweep_models(q):
    for alpha in (1, 2, 3, 4):
        for beta in (1, 2, 3, 4, 5):
            for a in (-2, -1, 0, 1, 2, 3):
                for b in (-2, -1, 0, 1, 2, 3):
                    if a == 0 and b == 0:
                        continue
                    try:
                        yield WeierstrassModel(0, 0, 0, a * q**alpha, b * q**beta)
                    except SingularCurveError:
                        continue


@pytest.mark.parametrize("q", [5, 7, 13])
def test_tate_against_valuation_table(q):
    seen = set()
    for w in _sweep_models(q):
        if _minimality_exponent(w.c4, w.c6, w.disc, q):
            continue
        rd = reduction_type(w, q)
        expected = kodaira_from_valuations(rd.v_disc, rd.v_c4)
        assert rd.kodaira == expected, (w, rd)
        seen.add(rd.kodaira)
        if rd.is_additive:
            assert rd.conductor_exponent == 2
            if _is_starred_in(rd.kodaira):
                assert rd.tamagawa in (2, 4)
            elif rd.kodaira in TAMAGAWA_RANGE:
                assert rd.tamagawa in TAMAGAWA_RANGE[rd.kodaira]
    # the sweep must actually exercise the whole additive menagerie
    assert {"II", "III", "IV", "I0*", "IV*", "III*", "II*"} <= seen
    assert any(_is_starred_in(k) for k in seen)


@pytest.mark.parametrize("q", [5, 7, 13])
def test_potential_good_reduction_against_valuations(q):
    # v_q(j) = 3 v_q(c4) - v_q(disc), and j = 0 when c4 = 0
    seen = set()
    for w in _sweep_models(q):
        potentially_good = has_potential_good_reduction(w, q)
        if w.c4 == 0:
            assert potentially_good, w
        else:
            expected = 3 * padic_valuation(w.c4, q) >= padic_valuation(w.disc, q)
            assert potentially_good == expected, w
        seen.add(potentially_good)
    assert seen == {True, False}


def test_tate_large_prime_paths():
    # Tate's algorithm at a large q agrees with the valuation table
    q = 1009
    for alpha, beta, a, b in [(1, 1, 1, 1), (2, 2, 1, 1), (2, 3, 1, 1), (2, 3, 2, 2),
                              (3, 4, 1, 1), (3, 5, 1, 2), (4, 5, 1, 1), (1, 2, 0, 1)]:
        if a == 0 and b == 0:
            continue
        w = WeierstrassModel(0, 0, 0, a * q**alpha, b * q**beta)
        if _minimality_exponent(w.c4, w.c6, w.disc, q):
            continue
        rd = reduction_type(w, q)
        assert rd.kodaira == kodaira_from_valuations(rd.v_disc, rd.v_c4)


def cubic_structure_by_enumeration(c2, c1, c0, q):
    """_cubic_structure's oracle: every t in F_q is tried, and a root r is
    repeated when the quotient by T - r vanishes at r."""
    roots = [t for t in range(q) if (((t + c2) * t + c1) * t + c0) % q == 0]
    if len(roots) == 3 or not roots:
        return (len(roots), None, 1)
    for r in roots:
        d1 = (c2 + r) % q
        d0 = (c1 + r * d1) % q  # f = (T - r)(T^2 + d1 T + d0)
        if (r * r + d1 * r + d0) % q == 0:
            return (len(roots), r, 4 - len(roots))
    assert len(roots) == 1, "two roots but no double root"
    return (1, None, 1)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_cubic_structure_every_cubic_against_enumeration(q):
    for c in [(c2, c1, c0) for c2 in range(q) for c1 in range(q) for c0 in range(q)]:
        assert elliptic._cubic_structure(*c, q) == cubic_structure_by_enumeration(*c, q), c


@pytest.mark.parametrize("q", [397, 401, 10007])
def test_cubic_structure_against_enumeration(q):
    rng = random.Random(q)
    cubics = [(rng.randrange(q), rng.randrange(q), rng.randrange(q)) for _ in range(100)]
    for _ in range(20):
        r, s = rng.randrange(q), rng.randrange(q)
        cubics.append(((-2 * r - s) % q, (r * r + 2 * r * s) % q, -r * r * s % q))  # (T-r)^2 (T-s)
        cubics.append((-3 * r % q, 3 * r * r % q, -(r**3) % q))  # (T-r)^3
    found = [elliptic._cubic_structure(*c, q) for c in cubics]
    assert found == [cubic_structure_by_enumeration(*c, q) for c in cubics]
    assert {mult for _, _, mult in found} == {1, 2, 3}
    assert {n for n, _, mult in found if mult == 1} == {0, 1, 3}


# ---------------------------------------------------------------------------
# oracle: nonsingular point counts distinguish split/nonsplit/additive
# ---------------------------------------------------------------------------


def nonsingular_count(w: WeierstrassModel, q: int) -> int:
    a1, a2, a3, a4, a6 = w.coefficients()
    total = 1  # point at infinity
    for x in range(q):
        for y in range(q):
            on = (y * y + a1 * x * y + a3 * y - (x**3 + a2 * x * x + a4 * x + a6)) % q
            if on:
                continue
            fx = (a1 * y - (3 * x * x + 2 * a2 * x + a4)) % q
            fy = (2 * y + a1 * x + a3) % q
            if fx == 0 and fy == 0:
                continue
            total += 1
    return total


def test_reduction_category_against_point_counts():
    coeffs = [
        (0, 0, 1, -3, -5), (0, -1, 1, -10, -20), (0, 0, 0, -1, 0), (0, 0, 1, 0, -7),
        (1, 0, 0, 0, 1), (1, 1, 0, -2, 3), (0, 0, 0, 0, 16), (1, -1, 1, -3, 3),
        (0, 1, 0, -4, 4), (1, 0, 1, -5, 2), (0, 0, 0, 3, -2), (2, 1, 0, 1, 1),
    ]
    for c in coeffs:
        try:
            w = WeierstrassModel(*c)
        except SingularCurveError:
            continue
        mm, _ = minimal_model(w)
        for q, _ in factorize(mm.disc):
            if q > 13:
                continue
            rd = reduction_type(mm, q)
            if rd.type == "split_multiplicative":
                want = q - 1
            elif rd.type == "nonsplit_multiplicative":
                want = q + 1
            else:
                want = q
            assert nonsingular_count(mm, q) == want, (mm, q, rd)


# ---------------------------------------------------------------------------
# invariance and twist properties
# ---------------------------------------------------------------------------


@given(
    st.sampled_from([E99, E11, E32, E27, E389]),
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-8, max_value=8),
)
@settings(deadline=None)
def test_local_data_is_translation_invariant(w, r, s, t):
    moved = w.transform(r=r, s=s, t=t)
    for q, _ in factorize(w.disc):
        assert reduction_type(moved, q) == reduction_type(w, q)


def test_twist_identity():
    assert quadratic_twist(E99, 1) == minimal_model(E99)[0]
    tw = quadratic_twist(E99, 1)
    assert tw.c4 == E99.c4 and tw.c6 == E99.c6


def test_twist_involution():
    for d in (-3, 5, -1, 6, -11):
        once = quadratic_twist(E99, d)
        twice = quadratic_twist(once, d)
        assert minimal_model(twice)[0] == minimal_model(E99)[0]


def test_twist_validation():
    with pytest.raises(InvalidTwistError):
        quadratic_twist(E99, 0)
    with pytest.raises(InvalidTwistError):
        quadratic_twist(E99, 12)


def test_twist_scales_invariants():
    for d in (-3, 5, -7, 10):
        tw = quadratic_twist(E32, d)
        c4r = Fraction(tw.c4, E32.c4)
        # c4 ratio is d^2 times a fourth power of 1, 2, 3 or 6
        assert c4r / d**2 in [Fraction(u**4) for u in (1, 2, 3, 6)]


def test_parse_format():
    assert parse_model("0,0,1,-3,-5") == E99
    assert format_model(E99) == "0,0,1,-3,-5"
    assert parse_model(" 0, 0, 1, -3, -5 ") == E99
    with pytest.raises(ValueError):
        parse_model("1,2,3")
    with pytest.raises(ValueError):
        parse_model("a,b,c,d,e")


def test_local_data_validation():
    with pytest.raises(ValueError):
        LocalReductionData(ell=11, type="good", kodaira="I0", tamagawa=1,
                           conductor_exponent=0, v_disc=3, v_c4=0)
    with pytest.raises(ValueError):
        LocalReductionData(ell=11, type="split_multiplicative", kodaira="I3",
                           tamagawa=2, conductor_exponent=1, v_disc=3, v_c4=0)
    with pytest.raises(ValueError):
        LocalReductionData(ell=11, type="elliptic", kodaira="I0", tamagawa=1,
                           conductor_exponent=0, v_disc=0, v_c4=0)
