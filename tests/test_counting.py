import functools
import hashlib
import io
import math
import os
import random
import stat
import struct
import sys
import tracemalloc
from array import array

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from iwakit import counting
from iwakit._poly import _gcd, _mul, _rem, _sub, _trim, _value, _x_pow_mod
from iwakit.classify import _distinguished_primes, _verdicts, bulk_classify, classify_prime
from iwakit.counting import (
    BSGS_BUDGET,
    FrobeniusData,
    TraceCache,
    _bsgs_annihilators,
    _ec_mul,
    _meet,
    _quartic_gcd,
    _three_divides,
    count_points,
    count_points_bsgs,
    count_points_naive,
    order_over_extension,
    trace_of_frobenius,
)
from iwakit.elliptic import (
    BadReductionError,
    SingularCurveError,
    WeierstrassModel,
    format_model,
    minimal_model,
    model_from_c4c6,
    quadratic_twist,
)
from iwakit.density import asymptotic_report
from iwakit.eulerchar import division_polynomial
from iwakit.ntheory import is_prime, legendre, sieve_primes

E99 = WeierstrassModel(0, 0, 1, -3, -5)
E32 = WeierstrassModel(0, 0, 0, -1, 0)
E11 = WeierstrassModel(0, -1, 1, -10, -20)


# ---------------------------------------------------------------------------
# independent oracle: enumeration over F_{ell^n} built as F_ell[t]/(f)
# ---------------------------------------------------------------------------


def _pmul(a, b, f, ell):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % ell
    # reduce modulo the monic f
    n = len(f) - 1
    for i in range(len(out) - 1, n - 1, -1):
        c = out[i]
        if c:
            for k in range(n):
                out[i - n + k] = (out[i - n + k] - c * f[k]) % ell
            out[i] = 0
    out = out[:n]
    while len(out) < n:
        out.append(0)
    return tuple(out)


def _ppow(a, e, f, ell):
    n = len(f) - 1
    result = tuple([1] + [0] * (n - 1))
    base = tuple(a)
    while e:
        if e & 1:
            result = _pmul(result, base, f, ell)
        base = _pmul(base, base, f, ell)
        e >>= 1
    return result


def _poly_gcd(a, b, ell):
    a, b = list(a), list(b)

    def trim(p):
        while p and p[-1] % ell == 0:
            p.pop()
        return p

    a, b = trim(a), trim(b)
    while b:
        inv = pow(b[-1], -1, ell)
        r = a
        while True:
            r = trim(r)
            if len(r) < len(b):
                break
            c = r[-1] * inv % ell
            shift = len(r) - len(b)
            for i, bc in enumerate(b):
                r[shift + i] = (r[shift + i] - c * bc) % ell
        a, b = b, r
    return trim(a)


def _is_irreducible(f, ell):
    # Rabin: X^(ell^n) = X mod f, and gcd(X^(ell^(n/d)) - X, f) = 1 for each
    # prime d | n.  The gcd step matters: a product of factors with mixed
    # degrees all dividing n passes the weaker fixed-point check alone.
    n = len(f) - 1
    if n == 1:
        return True
    x = tuple(([0, 1] + [0] * n)[:n])
    t = x
    for _ in range(n):
        t = _ppow(t, ell, f, ell)
    if t != x:
        return False
    for d in {p for p, _ in _factor(n)}:
        t = x
        for _ in range(n // d):
            t = _ppow(t, ell, f, ell)
        diff = list(t)
        diff[1] = (diff[1] - 1) % ell
        if len(_poly_gcd(diff, f, ell)) != 1:
            return False
    return True


def _factor(n):
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def _find_irreducible(ell, n):
    # iterate constant-first coefficient vectors of monic degree-n polynomials
    for code in range(ell**n):
        coeffs = []
        c = code
        for _ in range(n):
            coeffs.append(c % ell)
            c //= ell
        f = coeffs + [1]
        if f[0] == 0:
            continue
        if _is_irreducible(f, ell):
            return f
    raise AssertionError("no irreducible polynomial found")


class Ext:
    """Tiny F_{ell^n} arithmetic for the enumeration oracle."""

    def __init__(self, ell, n):
        self.ell, self.n = ell, n
        self.f = _find_irreducible(ell, n)
        self.q = ell**n
        self.zero = tuple([0] * n)
        self.one = tuple([1] + [0] * (n - 1))

    def embed(self, c):
        return tuple([c % self.ell] + [0] * (self.n - 1))

    def elements(self):
        for code in range(self.q):
            coeffs = []
            c = code
            for _ in range(self.n):
                coeffs.append(c % self.ell)
                c //= self.ell
            yield tuple(coeffs)

    def add(self, a, b):
        return tuple((x + y) % self.ell for x, y in zip(a, b))

    def mul(self, a, b):
        return _pmul(a, b, self.f, self.ell)

    def pow(self, a, e):
        return _ppow(a, e, self.f, self.ell)


@functools.cache
def _ext_tables(ell, n):
    """F_{ell^n} and what ext_count looks up in it, built once per field by
    literal enumeration, as count_points_naive lists its squares once per ell:
    at odd ell the nonzero squares y*y; at ell = 2 the values z*z + z (the c
    for which z^2 + z = c has a root) and each inverse, read off the powers
    g^k of a generator as g^(q-1-k)."""
    field = Ext(ell, n)
    if ell != 2:
        return field, {field.mul(y, y) for y in field.elements()} - {field.zero}, None
    values = {field.add(field.mul(z, z), z) for z in field.elements()}
    q1 = field.q - 1
    g = next(g for g in field.elements() if g != field.zero
             and all(field.pow(g, q1 // r) != field.one for r, _ in _factor(q1)))
    powers = [field.one]
    for _ in range(q1 - 1):
        powers.append(field.mul(powers[-1], g))
    return field, values, {powers[k]: powers[-k] for k in range(q1)}


def ext_count(model, ell, n):
    """#E(F_{ell^n}) by per-x solution counting in the extension field."""
    field, values, inverses = _ext_tables(ell, n)
    a1, a2, a3, a4, a6 = (field.embed(c) for c in model.coefficients())
    total = 1
    if ell == 2:
        for x in field.elements():
            x2 = field.mul(x, x)
            rhs = field.add(
                field.add(field.mul(x2, x), field.mul(a2, x2)),
                field.add(field.mul(a4, x), a6),
            )
            h = field.add(field.mul(a1, x), a3)
            if h == field.zero:
                total += 1
            else:
                # y = h z turns y^2 + h y = rhs into z^2 + z = rhs / h^2
                inv = inverses[h]
                if field.mul(rhs, field.mul(inv, inv)) in values:
                    total += 2
        return total
    b2 = field.embed(model.b2)
    b4 = field.embed(model.b4)
    b6 = field.embed(model.b6)
    four = field.embed(4)
    two = field.embed(2)
    for x in field.elements():
        x2 = field.mul(x, x)
        g = field.add(
            field.add(field.mul(four, field.mul(x2, x)), field.mul(b2, x2)),
            field.add(field.mul(two, field.mul(b4, x)), b6),
        )
        if g == field.zero:
            total += 1
        elif g in values:
            total += 2
    return total


def ext_count_direct(model, ell, n):
    """Fully naive double loop, used to validate ext_count itself."""
    field = Ext(ell, n)
    a1, a2, a3, a4, a6 = (field.embed(c) for c in model.coefficients())
    total = 1
    for x in field.elements():
        x2 = field.mul(x, x)
        rhs = field.add(
            field.add(field.mul(x2, x), field.mul(a2, x2)),
            field.add(field.mul(a4, x), a6),
        )
        for y in field.elements():
            lhs = field.add(field.mul(y, y), field.add(field.mul(a1, field.mul(x, y)), field.mul(a3, y)))
            if lhs == rhs:
                total += 1
    return total


def test_oracle_self_consistency():
    for ell, n in [(2, 2), (2, 3), (3, 2), (5, 2)]:
        for w in (E99, E32, WeierstrassModel(1, 0, 0, 0, 1)):
            if w.disc % ell == 0:
                continue
            assert ext_count(w, ell, n) == ext_count_direct(w, ell, n)


# ---------------------------------------------------------------------------
# naive counting
# ---------------------------------------------------------------------------


def test_naive_main_example():
    assert count_points_naive(E99, 7) == 10


def test_naive_small():
    assert count_points_naive(WeierstrassModel(0, 0, 0, 1, 0), 5) == 4


def test_naive_ell2():
    # y^2 + y = x^3: all four affine pairs satisfy or not by hand: (0,0),(0,1) work
    assert count_points_naive(WeierstrassModel(0, 0, 1, 0, 0), 2) == 3


def brute(w, ell):
    """#E(F_ell) for the model w, by a double loop over the affine plane."""
    a1, a2, a3, a4, a6 = (c % ell for c in w.coefficients())
    total = 1
    for x in range(ell):
        for y in range(ell):
            if (y * y + a1 * x * y + a3 * y - (x**3 + a2 * x * x + a4 * x + a6)) % ell == 0:
                total += 1
    return total


def test_naive_matches_double_loop():
    curves = [E99, E32, WeierstrassModel(1, 1, 0, -2, 3), WeierstrassModel(1, 0, 1, -5, 2)]
    for w in curves:
        for ell in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            if w.disc % ell == 0:
                continue
            assert count_points_naive(w, ell) == brute(w, ell), (w, ell)


def _assert_naive_matches_brute(model, ells):
    """count_points_naive against the double loop on the model good at each ell."""
    mm, _ = minimal_model(model)
    for ell in ells:
        w = model if model.disc % ell else mm
        if w.disc % ell:
            assert count_points_naive(model, ell) == brute(w, ell), (model, ell)


SMALL_PRIMES = sieve_primes(229)


@given(st.integers(0, 1), st.integers(-1, 1), st.integers(0, 1),
       st.integers(-3000, 3000), st.integers(-3000, 3000))
@settings(deadline=None, max_examples=3)
def test_naive_eta_read_matches_double_loop(a1, a2, a3, a4, a6):
    # the integer values of eta are kept on the model and sliced per ell
    try:
        model = WeierstrassModel(a1, a2, a3, a4, a6)
    except SingularCurveError:
        assume(False)
    _assert_naive_matches_brute(model, SMALL_PRIMES)


@pytest.mark.parametrize("u", [2, 3])
def test_naive_eta_read_rescaled(u):
    # at ell | u the count reads the minimal model, which keeps its own values
    blown = WeierstrassModel(*(c * u**k for c, k in zip(E11.coefficients(), (1, 2, 3, 4, 6))))
    mm, scale = minimal_model(blown)
    assert scale == u and "_eta" not in mm.__dict__
    assert count_points_naive(blown, u) == brute(mm, u)
    # ell = 2 enumerates the plane; ell = 3 reads the minimal model's values
    assert ("_eta" in mm.__dict__) == (u == 3) and "_eta" not in blown.__dict__
    _assert_naive_matches_brute(blown, SMALL_PRIMES)
    assert len(blown.__dict__["_eta"]) == 229


def test_naive_eta_read_at_3():
    for w in (E11, E32, WeierstrassModel(0, 0, 1, -1, 0), WeierstrassModel(1, -1, 1, 2, -1),
              WeierstrassModel(1, 0, 0, 1, 1)):
        assert w.disc % 3
        assert count_points_naive(w, 3) == brute(w, 3), w


def test_naive_kept_values_then_large_ell():
    # a model that keeps its values at ell <= 229 counts a larger ell from a
    # list built for that call, and keeps the 229 values it had
    w = WeierstrassModel(1, 0, 1, -5, 2)
    assert count_points_naive(w, 229) == brute(w, 229)
    kept = w.__dict__["_eta"]
    for ell in (233, 239, 241, 409):
        assert count_points_naive(w, ell) == brute(w, ell), ell
    assert w.__dict__["_eta"] is kept and len(kept) == 229


@pytest.mark.parametrize("sign", [1, -1])
def test_naive_eta_read_huge_coefficients(sign):
    # coefficients far above the product of the odd primes <= 229 are reduced
    # mod that product before eta is evaluated
    big = sign * (10**300 + 7)
    w = WeierstrassModel(1, -1, 1, big, 3 * big + 5)
    assert abs(w.b6) > counting._ETA_MOD
    ells = [ell for ell in SMALL_PRIMES + (233, 251) if w.disc % ell]
    assert len(ells) > 40
    _assert_naive_matches_brute(w, ells)
    assert all(abs(v) < counting._ETA_MOD * 4 * 229**3 for v in w.__dict__["_eta"])


def test_naive_caches_stay_bounded():
    # a count at one small ell evaluates eta at few x; an ascending walk to
    # 1500 keeps 229 values and no square-root table above 229
    w = WeierstrassModel(0, 1, 1, -7, 11)
    assert count_points_naive(w, 5) == brute(w, 5)
    assert len(w.__dict__["_eta"]) == 5
    for ell in sieve_primes(1500):
        if w.disc % ell:
            count_points_naive(w, ell)
    assert max(counting._SQRT_COUNTS) <= 229
    assert len(w.__dict__["_eta"]) == 229


def test_naive_bad_reduction():
    with pytest.raises(BadReductionError):
        count_points_naive(E99, 3)
    with pytest.raises(BadReductionError):
        count_points_naive(E99, 11)


def test_count_on_nonminimal_model():
    blown = model_from_c4c6(6**4 * 144, 6**6 * 4104)
    assert count_points(blown, 7) == 10


@given(st.sampled_from([E99, E32, E11]), st.sampled_from([5, 7, 13, 17, 101, 103]))
def test_hasse_bound(w, ell):
    if w.disc % ell == 0:
        return
    n = count_points_naive(w, ell)
    assert abs(ell + 1 - n) <= 2 * math.isqrt(ell) + 1


# ---------------------------------------------------------------------------
# BSGS counting
# ---------------------------------------------------------------------------


def _primes_in(lo, hi):
    from iwakit.ntheory import sieve_primes

    return [q for q in sieve_primes(hi) if q > lo]


def test_bsgs_matches_naive():
    curves = [E99, E32, WeierstrassModel(1, 1, 0, -2, 3), WeierstrassModel(1, 0, 1, -5, 2)]
    for w in curves:
        for ell in _primes_in(457, 1200):
            if w.disc % ell == 0:
                continue
            assert count_points_bsgs(w, ell) == count_points_naive(w, ell), (w, ell)


def test_bsgs_large_twist_consistency():
    ell = 99991
    n = count_points_bsgs(E99, ell)
    assert abs(ell + 1 - n) <= 2 * math.isqrt(ell) + 1
    tw = quadratic_twist(E99, 5)  # 5 is a nonresidue mod 99991 iff legendre says so; any d works:
    # the twist by a nonresidue has count 2(ell+1) - n; by a residue, the same count
    from iwakit.ntheory import legendre

    m = count_points_bsgs(tw, ell)
    if legendre(5, ell) == -1:
        assert n + m == 2 * (ell + 1)
    else:
        assert n == m


def test_bsgs_supersingular():
    w = WeierstrassModel(0, 0, 0, 0, 1)  # y^2 = x^3 + 1
    for ell in (5, 11, 17):
        assert count_points_naive(w, ell) == ell + 1
    for ell in (461, 1019):
        assert ell % 3 == 2
        assert count_points_bsgs(w, ell) == ell + 1


def _prime_in_class(digits, modulus, residue):
    """A prime of the given digits = residue mod modulus, seeded by digits."""
    n = random.Random(digits).randrange(10 ** (digits - 1), 10**digits)
    n += (residue - n) % modulus
    while not is_prime(n):
        n += modulus
    return n


SUPERSINGULAR = pytest.mark.parametrize(("model", "modulus", "residue"), [
    # j = 0: supersingular at ell = 2 mod 3; (0, 0) has order 3 on the first
    (WeierstrassModel(0, 0, 1, 0, 0), 3, 2),  # y^2 + y = x^3
    (WeierstrassModel(0, 0, 0, 0, 1), 3, 2),  # y^2 = x^3 + 1
    # j = 1728: supersingular at ell = 3 mod 4, with all its 2-torsion rational
    (WeierstrassModel(0, 0, 0, -1, 0), 4, 3),  # y^2 = x^3 - x
], ids=["y2+y=x3", "y2=x3+1", "y2=x3-x"])


@pytest.mark.parametrize("digits", range(10, 16))
@SUPERSINGULAR
def test_bsgs_supersingular_at_large_ell(model, modulus, residue, digits):
    # #E(F_ell) = ell + 1 in closed form
    ell = _prime_in_class(digits, modulus, residue)
    assert count_points(model, ell) == ell + 1


@SUPERSINGULAR
def test_bsgs_small_order_draw_lists_no_multiples(model, modulus, residue):
    # the draw at x = 0 has order 3, 3 and 2, so every third or second n of
    # the Hasse interval is an annihilator, about 4e5 at this ell: listed,
    # they peaked at 20-47 MB, where a range and the baby-step table's
    # 1.4 ell^(1/4) = 800 points peak at 0.1 MB
    ell = _prime_in_class(11, modulus, residue)
    tracemalloc.start()
    try:
        assert count_points(model, ell) == ell + 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_meet_is_the_intersection_of_two_answers():
    # answers as _bsgs_annihilators gives them: every n = r mod d in [lo, hi],
    # or one n or none; as they are, and mirrored about lo + hi as a draw on
    # the twist mirrors them
    lo, hi = 1000, 1130
    classes = [range(lo + (r - lo) % d, hi + 1, d) for d in range(1, 10) for r in range(d)]
    answers = [*classes, range(1017, 1018), range(1130, 1131), range(0)]
    for a in answers:
        for b in [*answers[::5], *answers[-3:]]:
            mirrored = range(lo + hi - b.start, lo + hi - b.stop, -b.step)
            for x, y in ((a, b), (b, a), (a, mirrored)):
                assert sorted(_meet(x, y)) == sorted(set(x) & set(y)), (x, y)


def test_bsgs_refuses_an_ell_past_its_budget(monkeypatch):
    def fail(*args):
        raise AssertionError("BSGS started work past its budget")

    monkeypatch.setattr(counting, "_good_model_at", fail)
    ell = BSGS_BUDGET + 1
    while not is_prime(ell):
        ell += 2
    for count in (count_points, count_points_bsgs, counting._count_points):
        with pytest.raises(ValueError, match=f"ell {ell} exceeds the BSGS budget {BSGS_BUDGET}"):
            count(E99, ell)


def test_bsgs_rejects_tiny():
    with pytest.raises(ValueError):
        count_points_bsgs(E99, 3)
    with pytest.raises(ValueError):
        count_points_bsgs(E99, 10)  # not prime


def test_dispatcher_crossover():
    assert count_points(E99, 461) == count_points_naive(E99, 461)


def test_small_ell_counts_naively_below_mestre_bound():
    # BSGS used to stop with "group order at 5 not pinned down" on this curve
    w = WeierstrassModel(1, 1, 1, 2656, 2341)
    assert count_points_naive(w, 5) == 8
    assert count_points(w, 5) == 8
    for ell in (5, 7, 229):
        with pytest.raises(ValueError):
            count_points_bsgs(w, ell)
    for model in (w, E99, E32, E11):
        for ell in _primes_in(3, 240):
            if model.disc % ell:
                assert count_points(model, ell) == count_points_naive(model, ell)
    assert count_points_bsgs(E99, 233) == count_points_naive(E99, 233)


def _short_order(a, b, ell):
    """#E(F_ell) for y^2 = x^3 + ax + b, by enumeration."""
    is_sq = bytearray(ell)
    for t in range(1, ell):
        is_sq[t * t % ell] = 1
    total = 1
    for x in range(ell):
        g = (x * x * x + a * x + b) % ell
        total += 1 if g == 0 else 2 * is_sq[g]
    return total


def _assert_counts_above_mestre_bound(model):
    # count_points switches to BSGS above 229; the short model y^2 = x^3 -
    # 27 c4 x - 54 c6 of the minimal model is isomorphic to it at ell > 3
    mm, _ = minimal_model(model)
    for ell in _primes_in(229, 1000):
        if mm.disc % ell:
            want = _short_order(-27 * mm.c4 % ell, -54 * mm.c6 % ell, ell)
            assert count_points(model, ell) == want, (model, ell)


@pytest.mark.parametrize("model", [E11, E32, E99], ids=["E11", "E32", "E99"])
def test_dispatch_above_mestre_bound_against_short_model(model):
    _assert_counts_above_mestre_bound(model)


@given(st.integers(0, 1), st.integers(-1, 1), st.integers(0, 1),
       st.integers(-300, 300), st.integers(-300, 300))
@settings(deadline=None, max_examples=3)
def test_dispatch_above_mestre_bound_random_curves(a1, a2, a3, a4, a6):
    try:
        model = WeierstrassModel(a1, a2, a3, a4, a6)
    except SingularCurveError:
        assume(False)
    _assert_counts_above_mestre_bound(model)


def _assert_counts_match_naive(model):
    disc = minimal_model(model)[0].disc
    for ell in _primes_in(229, 1500):
        if disc % ell:
            assert count_points(model, ell) == count_points_naive(model, ell), (model, ell)


@given(st.integers(0, 1), st.integers(-1, 1), st.integers(0, 1),
       st.integers(-300, 300), st.integers(-300, 300))
@example(0, -1, 1, -10, -20)  # E11
@settings(deadline=None, max_examples=3)
def test_bsgs_draws_match_naive_random_curves(a1, a2, a3, a4, a6):
    # count_points against the naive count at every good ell in (229, 1500);
    # BSGS searches 2P over the halved Hasse window exactly where the
    # cubic's discriminant D is not a square mod ell, and both branches run
    # unless D is a square in Z
    try:
        model = WeierstrassModel(a1, a2, a3, a4, a6)
    except SingularCurveError:
        assume(False)
    A, B = model.short
    D = -4 * A**3 - 27 * B * B
    his = []

    def wrapped(p, a, ell, lo, hi):
        his.append(hi)
        return _bsgs_annihilators(p, a, ell, lo, hi)

    branches = set()
    disc = minimal_model(model)[0].disc
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_bsgs_annihilators", wrapped)
        for ell in _primes_in(229, 1500):
            if disc % ell:
                his.clear()
                assert count_points(model, ell) == count_points_naive(model, ell), (model, ell)
                halved = any(hi < ell for hi in his)
                assert halved is (legendre(D, ell) == -1), (model, ell)
                branches.add(halved)
    square = D >= 0 and math.isqrt(D) ** 2 == D
    assert branches == ({False} if square else {False, True})


@pytest.mark.parametrize("u", [2, 3])
def test_bsgs_draws_match_naive_rescaled(u):
    # a u-rescaled model is not minimal at u, so the count goes through the
    # minimal model there and through the rescaled short model elsewhere
    blown = WeierstrassModel(*(c * u**k for c, k in zip(E11.coefficients(), (1, 2, 3, 4, 6))))
    assert minimal_model(blown)[1] == u
    _assert_counts_match_naive(blown)


def test_bsgs_draws_match_naive_with_two_torsion():
    # y^2 = x^3 - x: the short model has B = 0, so the draw at x = 0 is the
    # 2-torsion point (0, 0)
    assert E32.short[1] == 0
    _assert_counts_match_naive(E32)


@pytest.mark.parametrize("model", [E11, E32, E99], ids=["E11", "E32", "E99"])
def test_bsgs_draws_reach_both_twists(monkeypatch, model):
    # the k-th draw is at x = k: P = (x g, g^2) on the twist by g = x^3 + Ax +
    # B, which is E or E' as g is a square or not, or (x, 0) when g = 0.  When
    # the cubic's discriminant is not a square mod ell the search runs on 2P
    # over the halved Hasse window, so P is checked before the doubling
    calls = []

    def wrapped(p, a, ell, lo, hi):
        calls.append((p, a, (lo, hi)))
        return _bsgs_annihilators(p, a, ell, lo, hi)

    monkeypatch.setattr(counting, "_bsgs_annihilators", wrapped)
    A, B = model.short
    sides = set()
    for ell in _primes_in(229, 1500):
        if model.disc % ell == 0:
            continue
        t = math.isqrt(4 * ell)
        full = (ell + 1 - t, ell + 1 + t)
        halved = ((full[0] + 1) // 2, full[1] // 2)
        even = legendre(-4 * A**3 - 27 * B * B, ell) == -1
        calls.clear()
        count_points_bsgs(model, ell)
        for x, (p, a, window) in enumerate(calls):
            g = (x**3 + A * x + B) % ell
            if g == 0:
                assert (p, a, window) == ((x, 0), A % ell, full)
                sides.add("2-torsion")
                continue
            drawn = (x * g % ell, g * g % ell)
            assert a == A * g * g % ell
            for X, Y in (drawn, p):
                assert (Y * Y - X**3 - a * X - B * g**3) % ell == 0  # on the twist by g
            if even:
                assert (p, window) == (_ec_mul(2, drawn, a, ell), halved)
                sides.add("2P")
            else:
                assert (p, window) == (drawn, full)
            sides.add("E" if legendre(g, ell) == 1 else "E'")
    assert {"E", "E'"} <= sides
    # y^2 = x^3 - x has all its 2-torsion rational: its discriminant is a square
    assert ("2P" in sides) is (model is not E32)
    if model is E32:
        assert "2-torsion" in sides


def test_bsgs_parity_branch_meets_the_two_torsion_draw(monkeypatch):
    # y^2 = x^3 + x: at ell = 3 mod 4 the cubic x(x^2 + 1) has the one root 0,
    # so the first draw is (0, 0) over the whole Hasse window and every later
    # one searches 2P over the halved window; the curve is supersingular there
    model = WeierstrassModel(0, 0, 0, 1, 0)
    assert model.short[1] == 0
    calls = []

    def wrapped(p, a, ell, lo, hi):
        calls.append((p, hi))
        return _bsgs_annihilators(p, a, ell, lo, hi)

    monkeypatch.setattr(counting, "_bsgs_annihilators", wrapped)
    ells = [ell for ell in _primes_in(229, 1500) if ell % 4 == 3]
    for ell in ells:
        calls.clear()
        assert count_points(model, ell) == ell + 1 == count_points_naive(model, ell)
        assert calls[0] == ((0, 0), ell + 1 + math.isqrt(4 * ell))
        assert len(calls) >= 2 and all(hi < ell for _, hi in calls[1:])
    assert len(ells) == 95


def _some_points(a, b, ell, rng, k):
    out = []
    while len(out) < k:
        x = rng.randrange(ell)
        g = (x * x * x + a * x + b) % ell
        if legendre(g, ell) >= 0:
            out.append((x, next(y for y in range(ell) if y * y % ell == g)))
    return out


@pytest.mark.parametrize("seed", range(3))
def test_bsgs_annihilators_complete(seed):
    # Mestre's early stop returns a lone annihilator in the Hasse window as
    # the group order, which is right only if no annihilator is ever missed
    rng = random.Random(seed)
    primes = [q for q in sieve_primes(5000) if q > 229]
    for ell in rng.sample(primes, 4):
        t = math.isqrt(4 * ell)
        lo, hi = ell + 1 - t, ell + 1 + t
        z = next(z for z in range(2, ell) if legendre(z, ell) == -1)
        a, r, s = rng.randrange(ell), rng.randrange(ell), rng.randrange(1, ell)
        special = [
            (a, rng.randrange(ell), None),
            (a, (-r * r * r - a * r) % ell, (r, 0)),  # a point of order 2
            (0, s * s % ell, (0, s)),  # a point of order 3
        ]
        for a0, b0, p0 in special:
            if (4 * a0**3 + 27 * b0 * b0) % ell == 0:
                continue
            twist = (a0 * z * z % ell, b0 * z**3 % ell, None)
            for ca, cb, pt in ((a0, b0, p0), twist):
                order = _short_order(ca, cb, ell)
                base = _some_points(ca, cb, ell, rng, 2) + ([pt] if pt else [])
                # multiples of small order, down to the y = 0 and repeated-x cases
                small = [_ec_mul(order // d, p, ca, ell) for p in base
                         for d in range(2, 65) if order % d == 0]
                for p in base + small:
                    want = [n for n in range(lo, hi + 1) if _ec_mul(n, p, ca, ell) is None]
                    # a point of small order answers with a range, not a list
                    assert list(_bsgs_annihilators(p, ca, ell, lo, hi)) == want, (ell, ca, cb, p)


@pytest.mark.parametrize("seed", range(3))
def test_bsgs_halved_search_finds_the_even_annihilators(seed):
    # on a curve whose cubic has one root, the annihilators of 2P in the
    # halved window, doubled, are the even annihilators of P in the Hasse
    # window: the multiples of P's order, from the _short_order oracle's
    # group order, that are even
    rng = random.Random(seed)
    primes = [q for q in sieve_primes(5000) if q > 229]
    for ell in rng.sample(primes, 4):
        t = math.isqrt(4 * ell)
        lo, hi = ell + 1 - t, ell + 1 + t
        while True:
            a, b = rng.randrange(ell), rng.randrange(ell)
            if legendre(-4 * a**3 - 27 * b * b, ell) == -1:
                break
        order = _short_order(a, b, ell)
        assert order % 2 == 0
        divisors = [d for d in range(1, order + 1) if order % d == 0]
        base = _some_points(a, b, ell, rng, 3)
        # multiples of small order, down to the 2-torsion point (2P = O) and
        # points of order 4 (2P has y = 0)
        small = [_ec_mul(order // d, p, a, ell) for p in base for d in range(2, 65)
                 if order % d == 0]
        for p in base + small:
            d = next(d for d in divisors if _ec_mul(d, p, a, ell) is None)
            want = [n for n in range(lo, hi + 1) if n % 2 == 0 and n % d == 0]
            got = _bsgs_annihilators(_ec_mul(2, p, a, ell), a, ell, (lo + 1) // 2, hi // 2)
            assert [2 * n for n in got] == want, (ell, a, b, p)
            assert order in want


def _ec_add(p, q, a, ell):
    """P + Q on y^2 = x^3 + ax + b over F_ell, None for O: the chord-tangent law."""
    if p is None:
        return q
    if q is None:
        return p
    x1, y1 = p
    x2, y2 = q
    if x1 == x2:
        if (y1 + y2) % ell == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, ell) % ell
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, ell) % ell
    x3 = (lam * lam - x1 - x2) % ell
    return (x3, (lam * (x1 - x3) - y1) % ell)


def _multiples(p, a, ell):
    """[O, P, 2P, ..., (d-1)P] by repeated addition, d the order of P."""
    out = [None, p]
    while True:
        q = _ec_add(out[-1], p, a, ell)
        if q is None:
            return out
        out.append(q)


def _assert_ec_mul_matches_repeated_addition(p, a, ell):
    table = _multiples(p, a, ell)
    d = len(table)
    for n in range(-50, 5001):
        assert _ec_mul(n, p, a, ell) == table[n % d], (n, p, a, ell)
    # O in the middle of the ladder: 0 * P, multiples of the order, and n
    # whose low bits already make a multiple of it (the running sum is O)
    top = 1 << d.bit_length()
    for n in (0, d, 2 * d, 7 * d, d + top, d + 5 * top, 3 * d + top, 10**6 * d + 1, -d - 1):
        assert _ec_mul(n, p, a, ell) == table[n % d], (n, p, a, ell)
    return d


def test_ec_mul_random_points():
    rng = random.Random(5)
    primes = [q for q in sieve_primes(2000) if q > 232]
    orders = set()
    for ell in rng.sample(primes, 4):
        while True:
            a, b = rng.randrange(ell), rng.randrange(ell)
            if (4 * a**3 + 27 * b * b) % ell:
                break
        for p in _some_points(a, b, ell, rng, 2):
            orders.add(_assert_ec_mul_matches_repeated_addition(p, a, ell))
    assert len(orders) >= 6


def test_ec_mul_two_power_orders():
    # points with y = 0 (order 2), and points of order 4 or 8, whose ladder
    # doubles down to a point with y = 0 and then to O
    rng = random.Random(6)
    seen = set()
    while not {2, 4, 8} <= seen:
        ell = rng.choice([q for q in sieve_primes(2000) if q > 232])
        a, r = rng.randrange(ell), rng.randrange(ell)
        b = (-r * r * r - a * r) % ell
        if (4 * a**3 + 27 * b * b) % ell == 0:
            continue
        assert _ec_mul(1, (r, 0), a, ell) == (r, 0) and _ec_mul(2, (r, 0), a, ell) is None
        for q in [(r, 0)] + _some_points(a, b, ell, rng, 3):
            table = _multiples(q, a, ell)
            d = len(table)
            k = (d & -d).bit_length() - 1  # d = 2^k m with m odd
            if k and 1 << k <= 8:
                seen.add(1 << k)
                assert _assert_ec_mul_matches_repeated_addition(table[d >> k], a, ell) == 1 << k


# ---------------------------------------------------------------------------
# 3 | #E(F_ell) from the 3-division polynomial
# ---------------------------------------------------------------------------

PRIMES_1_MOD_6 = [ell for ell in sieve_primes(10**5) if ell > 229 and ell % 6 == 1]
E27 = WeierstrassModel(0, 0, 1, 0, 0)  # (0, 0) is a rational point of order 3


def _psi3_roots(minimal, ell):
    """The degree of gcd(x^ell - x, psi_3) over F_ell for eulerchar's psi_3 of
    the short model, by this file's own _ppow and _poly_gcd: the kernel's
    root count is checked against a gcd and powering it does not share."""
    A, B = minimal.short
    psi3 = division_polynomial(WeierstrassModel(0, 0, 0, A, B), 3)
    lead = pow(psi3[-1], -1, ell)
    monic = [c * lead % ell for c in psi3]
    x_ell = list(_ppow((0, 1, 0, 0), ell, monic, ell))
    x_ell[1] -= 1
    return len(_poly_gcd(x_ell, monic, ell)) - 1


@given(st.integers(0, 1), st.integers(-1, 1), st.integers(0, 1),
       st.integers(-500, 500), st.integers(-500, 500), st.sampled_from(PRIMES_1_MOD_6))
@settings(deadline=None, max_examples=60)
def test_three_divides_matches_bsgs_and_generic_gcd(a1, a2, a3, a4, a6, ell):
    try:
        minimal, _ = minimal_model(WeierstrassModel(a1, a2, a3, a4, a6))
    except SingularCurveError:
        return
    assume(minimal.disc % ell)
    verdict = _three_divides(*minimal.short, ell)
    assert verdict == ((ell + 1 - trace_of_frobenius(minimal, ell)) % 3 == 0)
    roots = _psi3_roots(minimal, ell)
    assert roots in (0, 1, 4)  # Frobenius acts on the four roots through A_4
    if roots == 0:
        assert not verdict


# (curve, ell, roots of psi_3 mod ell, 3 | #E(F_ell)), one per branch
THREE_BRANCHES = [
    (E99, 349, 0, False),
    (E99, 271, 1, True),  # f(x0) is a square: a rational point of order 3
    (E99, 241, 1, False),  # Frobenius is -1 on the one rational line
    (E99, 337, 4, True),  # Frobenius is +I on E[3]
    (E99, 829, 4, False),  # Frobenius is -I on E[3]
    (E27, 241, 4, True),
]


@pytest.mark.parametrize(("model", "ell", "roots", "divides"), THREE_BRANCHES)
def test_three_divides_each_branch(model, ell, roots, divides):
    assert _psi3_roots(model, ell) == roots
    assert _three_divides(*model.short, ell) is divides
    assert (count_points_bsgs(model, ell) % 3 == 0) is divides


def test_three_divides_on_the_twist_of_plus_identity():
    # Frobenius is +I on E99[3] at 337; on the twist by a non-residue it is -I
    d = next(d for d in (5, 7, 10, 11, 13) if legendre(d, 337) == -1)
    twist, _ = minimal_model(quadratic_twist(E99, d))
    assert _psi3_roots(twist, 337) == 4
    assert _three_divides(*twist.short, 337) is False
    assert count_points_bsgs(twist, 337) % 3
    assert count_points_bsgs(E99, 337) % 9 == 0  # E[3] is rational on E99


def test_three_divides_with_a_rational_three_torsion_point():
    # 3 divides every #E27(F_ell) at a good ell
    assert all(_three_divides(*E27.short, ell) for ell in PRIMES_1_MOD_6[:40])


def test_three_divides_at_two_roots():
    # at ell = 5 mod 6 Frobenius has determinant -1; it fixes two of the four
    # lines exactly when it is diag(1, -1), that is when 3 divides #E(F_ell)
    assert _psi3_roots(E99, 233) == 2
    assert _three_divides(*E99.short, 233) == (count_points(E99, 233) % 3 == 0)


@pytest.mark.parametrize("seed", [0, 1])
def test_three_divides_matches_naive_count_in_both_classes(seed):
    rng = random.Random(seed)
    seen = set()
    for _ in range(4):
        try:
            minimal, _ = minimal_model(WeierstrassModel(
                rng.randint(0, 1), rng.randint(-1, 1), rng.randint(0, 1),
                rng.randint(-3000, 3000), rng.randint(-3000, 3000)))
        except SingularCurveError:
            continue
        for ell in sieve_primes(2000)[2:]:  # 5 <= ell < 2000
            if minimal.disc % ell:
                divides = _three_divides(*minimal.short, ell)
                assert divides == (count_points_naive(minimal, ell) % 3 == 0), (minimal, ell)
                seen.add((ell % 3, divides))
    # both answers occur in both classes mod 3
    assert seen == {(1, True), (1, False), (2, True), (2, False)}


def test_counts_and_psi3_kernel_on_twenty_seeded_curves():
    """count_points equals the naive count, _three_divides equals 3 | that
    count, and both _poly._gcd and _quartic_gcd count the roots of psi_3 / 3
    found by trying every x, on 20 seeded curves at every good ell in
    (229, 2000), both classes mod 3."""
    rng = random.Random(0)
    curves = []
    while len(curves) < 20:
        coeffs = (rng.randint(0, 1), rng.randint(-1, 1), rng.randint(0, 1),
                  rng.randint(-3000, 3000), rng.randint(-3000, 3000))
        try:
            curves.append(WeierstrassModel(*coeffs))
        except SingularCurveError:
            pass
    for w in curves:
        minimal = minimal_model(w)[0]
        for ell in sieve_primes(2000):
            if ell <= 229 or minimal.disc % ell == 0:
                continue
            naive = count_points_naive(w, ell)
            assert count_points(w, ell) == naive, (w.coefficients(), ell)
            assert _three_divides(*minimal.short, ell) == (naive % 3 == 0), (w.coefficients(), ell)
            A, B = minimal.short
            psi = [-A * A * pow(3, -1, ell) % ell, 4 * B % ell, 2 * A % ell, 0, 1]  # psi_3 / 3
            roots = sum(_value(psi, x) % ell == 0 for x in range(ell))
            frob = _trim(_sub(_x_pow_mod(ell, psi, ell), [0, 1]), ell)  # x^ell - x mod psi_3 / 3
            assert len(_gcd(list(psi), list(frob), ell)) - 1 == roots, (w.coefficients(), ell)
            c0, c1, c2, c3 = frob + [0] * (4 - len(frob))
            degree, x0 = _quartic_gcd(-psi[0] % ell, -psi[1] % ell, -psi[2] % ell, c0, c1, c2, c3, ell)
            assert degree == roots, (w.coefficients(), ell)
            assert (x0 is not None) == (degree == 1)
            if x0 is not None:
                assert _value(psi, x0) % ell == 0


# ---------------------------------------------------------------------------
# the straight-line root count behind _three_divides
# ---------------------------------------------------------------------------


def _remainder_degrees(f, c, ell):
    """The degrees of Euclid's remainders on (f, c), c first, ending in -1 for
    the zero remainder: the branch of _quartic_gcd that (f, c) takes."""
    a, b = _trim(f, ell), _trim(c, ell)
    out = [len(b) - 1]
    while b:
        a, b = b, _rem(a, b, ell)
        out.append(len(b) - 1)
    return tuple(out)


# every path of Euclid on a monic quartic f and a residue c of degree <= 3
EUCLID_PATHS = {
    (-1,), (0, -1),
    (1, -1), (1, 0, -1),
    (2, -1), (2, 0, -1), (2, 1, -1), (2, 1, 0, -1),
    (3, -1), (3, 0, -1), (3, 1, -1), (3, 1, 0, -1),
    (3, 2, -1), (3, 2, 0, -1), (3, 2, 1, -1), (3, 2, 1, 0, -1),
}


def _check_quartic_gcd(e0, e1, e2, c, ell):
    """_quartic_gcd against _poly._gcd and this file's _poly_gcd, and its root
    against f and c."""
    f = [-e0 % ell, -e1 % ell, -e2 % ell, 0, 1]
    degree, x0 = _quartic_gcd(e0, e1, e2, *c, ell)
    assert degree == len(_gcd(list(f), _trim(c, ell), ell)) - 1, (e0, e1, e2, c, ell)
    assert degree == len(_poly_gcd(f, c, ell)) - 1, (e0, e1, e2, c, ell)
    if degree == 1:
        assert 0 <= x0 < ell
        assert _value(f, x0) % ell == 0 and _value(c, x0) % ell == 0
    else:
        assert x0 is None
    return degree


def test_quartic_gcd_every_input_over_f5():
    # all 5^3 depressed quartics against all 5^4 residues: every Euclid path
    ell, paths = 5, set()
    for code in range(ell**7):
        digits = [code // ell**i % ell for i in range(7)]
        e0, e1, e2, c = *digits[:3], digits[3:]
        _check_quartic_gcd(e0, e1, e2, c, ell)
        paths.add(_remainder_degrees([-e0, -e1, -e2, 0, 1], c, ell))
    assert paths == EUCLID_PATHS


def _mul_add(q, u, r, ell):
    """q u + r over F_ell."""
    return _trim(_sub(_mul(q, u), [-x for x in r]), ell)


@st.composite
def _quartic_and_residue(draw):
    """A prime ell, a depressed quartic f = x^4 - e2 x^2 - e1 x - e0 and a
    residue c that take a drawn Euclid path, built backwards along it: the
    last nonzero remainder first, then each dividend as quotient * divisor +
    remainder up to c, and f = q c + (f mod c) with q fixed to leave f monic
    with no x^3 term.  So every drop in remainder degree is reached at any ell."""
    ell = draw(st.sampled_from([7, 13, 233, 10007, 2**31 - 1, 2**61 - 1]))
    path = draw(st.sampled_from(sorted(EUCLID_PATHS)))
    elem, unit = st.integers(0, ell - 1), st.integers(1, ell - 1)

    def poly(degree):  # exactly this degree
        return [draw(elem) for _ in range(degree)] + [draw(unit)]

    if path == (-1,):  # c = 0
        return ell, draw(elem), draw(elem), draw(elem), [0, 0, 0, 0], path
    rems = [[], poly(path[-2])]  # the zero remainder and the last nonzero one
    for d in reversed(path[:-2]):
        rems.append(_mul_add(poly(d - len(rems[-1]) + 1), rems[-1], rems[-2], ell))
    c, r = rems[-1], rems[-2]
    inv = pow(c[-1], -1, ell)
    q = poly(4 - len(c) + 1)
    q[-1] = inv
    q[-2] = -inv * (c[-2] if len(c) > 1 else 0) * inv % ell
    f = _mul_add(q, c, r, ell)
    assert f[3:] == [0, 1]
    return ell, -f[0] % ell, -f[1] % ell, -f[2] % ell, c + [0] * (4 - len(c)), path


@settings(max_examples=400, deadline=None)
@given(_quartic_and_residue())
def test_quartic_gcd_along_every_euclid_path(drawn):
    ell, e0, e1, e2, c, path = drawn
    assert _remainder_degrees([-e0, -e1, -e2, 0, 1], c, ell) == path
    # the last nonzero remainder is the gcd: f itself when c is zero
    assert _check_quartic_gcd(e0, e1, e2, c, ell) == (4 if path == (-1,) else max(path[-2], 0))


@pytest.mark.parametrize(("A", "B", "ell", "roots", "allowed"), [
    # y^2 = (x - 1)^2 (x + 2): psi_3 / 3 = (x - 1)^3 (x + 3), two roots at 1 mod 3
    (-3, 2, 7, 2, "not 0, 1 or 4"),
    (0, 0, 5, 1, "not 0 or 2"),  # y^2 = x^3: psi_3 / 3 = x^4, one root at 2 mod 3
])
def test_three_divides_raises_on_a_forbidden_degree(A, B, ell, roots, allowed):
    # bad reduction at ell breaks the premises, and the gcd has a degree that
    # no Frobenius on E[3] gives
    psi = [-A * A * pow(3, -1, ell), 4 * B, 2 * A, 0, 1]
    assert sum(_value(psi, x) % ell == 0 for x in range(ell)) == roots
    with pytest.raises(AssertionError, match=f"psi_3 has {roots} roots mod {ell}, {allowed}"):
        _three_divides(A, B, ell)


# ---------------------------------------------------------------------------
# Frobenius data and extensions
# ---------------------------------------------------------------------------


def test_frobenius_data_main_example():
    fd = FrobeniusData(7, trace_of_frobenius(E99, 7))
    assert fd.a_ell == -2
    assert order_over_extension(fd, 1) == 10
    assert order_over_extension(fd, 2) == 60


def test_order_over_extension_formula():
    fd = FrobeniusData(ell=7, a_ell=-2)
    assert order_over_extension(fd, 2) == 7**2 + 1 - ((-2) ** 2 - 2 * 7)
    with pytest.raises(ValueError):
        order_over_extension(fd, 0)


def test_frobenius_data_validates_hasse():
    with pytest.raises(ValueError):
        FrobeniusData(ell=7, a_ell=8)


def test_extension_counts_against_oracle():
    cases = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (5, 2),
             (5, 3), (7, 2), (7, 3), (11, 2), (13, 2), (47, 2)]
    curves = [E99, E32, WeierstrassModel(1, 0, 0, 0, 1), WeierstrassModel(0, 0, 0, 0, 1)]
    for w in curves:
        for ell, n in cases:
            if w.disc % ell == 0:
                continue
            fd = FrobeniusData(ell, trace_of_frobenius(w, ell))
            assert order_over_extension(fd, n) == ext_count(w, ell, n), (w, ell, n)


# ---------------------------------------------------------------------------
# trace cache
# ---------------------------------------------------------------------------


def _cache_file_bytes(table):
    """The cache file layout: slot i holds a_{2i+1} and slot 0 holds a_2, as
    little-endian int16 with -32768 where a_ell is unknown, then the sha256 of
    those bytes."""
    slots = [-32768] * (max(ell // 2 for ell in table) + 1) if table else []
    for ell, a in table.items():
        slots[0 if ell == 2 else ell // 2] = a
    body = struct.pack(f"<{len(slots)}h", *slots)
    return body + hashlib.sha256(body).digest()


def _three_code(ell, a):
    """The code the p = 3 density scan stores for ell > 229 in place of a_ell."""
    if (ell + 1 - a) % 3 == 0:
        return counting._THREE_DIVIDES
    return counting._THREE_DOES_NOT_DIVIDE


def _count_traces(monkeypatch):
    """Wraps the trace cache's counting kernel; returns the list of ells it counts."""
    counted = []
    count = counting._count_points

    def wrapped(model, ell):
        counted.append(ell)
        return count(model, ell)

    monkeypatch.setattr(counting, "_count_points", wrapped)
    return counted


def test_trace_cache_roundtrip(tmp_path):
    cache = TraceCache(tmp_path)
    got = cache.traces(E99, [2, 5, 7, 13, 463])
    assert got[7] == -2
    files = list(tmp_path.glob("*.traces"))
    assert len(files) == 1
    data = files[0].read_bytes()
    assert data == _cache_file_bytes(got)

    fresh = TraceCache(tmp_path)
    again = fresh.traces(E99, [2, 5, 7, 13, 463])
    assert again == got
    assert files[0].read_bytes() == data  # bit-identical after a pure hit


def test_trace_cache_recomputes_damaged_lines(tmp_path, monkeypatch):
    good = TraceCache(None).traces(E99, [5, 7, 13, 463])
    TraceCache(tmp_path).traces(E99, [5])
    (path,) = tmp_path.glob("*.traces")
    # the digest verifies, but a_7 is unknown and a_13 is outside the Hasse
    # bound, so each slot is counted again when it is read
    path.write_bytes(_cache_file_bytes({5: good[5], 13: 99, 463: good[463]}))
    counted = _count_traces(monkeypatch)
    assert TraceCache(tmp_path).traces(E99, [5, 7, 13, 463]) == good
    assert counted == [7, 13]
    assert path.read_bytes() == _cache_file_bytes(good)
    assert list(tmp_path.iterdir()) == [path]  # no temporary file is left behind


CACHE_ELLS = [5, 7, 13, 463, 1009]


def _filled_cache_file(tmp_path):
    TraceCache(tmp_path).traces(E99, CACHE_ELLS)
    (path,) = tmp_path.glob("*.traces")
    return path, path.read_bytes()


def _assert_whole_file_miss(tmp_path, path, data, counted, good, note):
    """A fresh cache counts every ell again and rewrites the file as it was."""
    counted.clear()
    assert TraceCache(tmp_path).traces(E99, CACHE_ELLS) == good, note
    assert counted == CACHE_ELLS, note
    assert path.read_bytes() == data, note
    assert list(tmp_path.iterdir()) == [path], note


def test_trace_cache_second_load_counts_nothing(tmp_path, monkeypatch):
    good = TraceCache(None).traces(E99, CACHE_ELLS)
    path, data = _filled_cache_file(tmp_path)
    assert data == _cache_file_bytes(good)
    counted = _count_traces(monkeypatch)
    assert TraceCache(tmp_path).traces(E99, CACHE_ELLS) == good
    assert counted == []
    assert path.read_bytes() == data


def test_trace_cache_truncation_is_whole_file_miss(tmp_path, monkeypatch):
    good = TraceCache(None).traces(E99, CACHE_ELLS)
    path, data = _filled_cache_file(tmp_path)
    counted = _count_traces(monkeypatch)
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        _assert_whole_file_miss(tmp_path, path, data, counted, good, cut)


def test_trace_cache_flipped_body_byte_is_whole_file_miss(tmp_path, monkeypatch):
    good = TraceCache(None).traces(E99, CACHE_ELLS)
    path, data = _filled_cache_file(tmp_path)
    counted = _count_traces(monkeypatch)
    for i in range(len(data)):
        # flipping the low bit of a slot's low byte gives a value that often
        # still passes the Hasse bound; the digest's own bytes are flipped too
        path.write_bytes(data[:i] + bytes([data[i] ^ 1]) + data[i + 1:])
        _assert_whole_file_miss(tmp_path, path, data, counted, good, i)


@pytest.mark.parametrize("trailer", [False, True], ids=["cut", "stale-trailer"])
def test_trace_cache_truncated_line_is_recomputed(tmp_path, monkeypatch, trailer):
    good = TraceCache(None).traces(E99, CACHE_ELLS)
    path, data = _filled_cache_file(tmp_path)
    assert good[1009] == -10
    # a_1009 = 1 passes a^2 <= 4 ell, so no slot check can catch it: either
    # the digest is cut off or it is the digest of the old body
    slot = 2 * (1009 // 2)
    body = data[:slot] + struct.pack("<h", 1) + data[slot + 2: -32]
    path.write_bytes(body + data[-32:] if trailer else body)
    counted = _count_traces(monkeypatch)
    _assert_whole_file_miss(tmp_path, path, data, counted, good, trailer)


@pytest.mark.parametrize("body", [b"5 x\n7 -2\n", b"5 \xff", None],
                         ids=["word", "non-ascii", "odd-slot"])
def test_trace_cache_unparseable_body_is_whole_file_miss(tmp_path, monkeypatch, body):
    good = TraceCache(None).traces(E99, CACHE_ELLS)
    path, data = _filled_cache_file(tmp_path)
    # the digest verifies, but a body of odd length is no whole int16 slots:
    # text, or a real body one byte short
    body = data[:-33] if body is None else body
    assert len(body) % 2
    path.write_bytes(body + hashlib.sha256(body).digest())
    counted = _count_traces(monkeypatch)
    _assert_whole_file_miss(tmp_path, path, data, counted, good, body)


# files the one-buffer read must miss: shorter than the digest, an empty body
# with its digest, and the body one byte short with or without its old digest
SHORT_FILES = {
    "empty": lambda data: b"",
    "one-byte": lambda data: data[-32:-31],
    "31-bytes": lambda data: data[-32:-1],
    "empty-body": lambda data: hashlib.sha256(b"").digest(),
    "cut-before-digest": lambda data: data[:-33],
    "old-digest": lambda data: data[:-33] + data[-32:],
}


@pytest.mark.parametrize("damage", SHORT_FILES)
def test_trace_cache_short_file_reads_empty_and_misses_whole(tmp_path, monkeypatch, damage):
    good = TraceCache(None).traces(E99, CACHE_ELLS)
    path, data = _filled_cache_file(tmp_path)
    path.write_bytes(SHORT_FILES[damage](data))
    assert TraceCache._read(path) == array("h")
    counted = _count_traces(monkeypatch)
    _assert_whole_file_miss(tmp_path, path, data, counted, good, damage)


def test_trace_cache_reads_a_body_larger_than_one_buffer(tmp_path):
    # about 40 KB of slots: more than two buffers of the buffered reader
    _distinguished_primes(E99, 3, 40_000, TraceCache(tmp_path))
    (path,) = tmp_path.glob("*.traces")
    data = path.read_bytes()
    assert len(data) - 32 > 2 * io.DEFAULT_BUFFER_SIZE
    expected = array("h")
    expected.frombytes(data[:-32])
    if sys.byteorder == "big":
        expected.byteswap()
    assert TraceCache._read(path) == expected


def test_trace_cache_old_file_without_trailer_is_rewritten(tmp_path, monkeypatch):
    good = TraceCache(None).traces(E99, CACHE_ELLS)
    path, data = _filled_cache_file(tmp_path)
    counted = _count_traces(monkeypatch)
    # the text formats of earlier versions: "ell a_ell" lines, with no trailer
    # and then with the trailer "# <line count> <sha256 hex of the lines>"
    lines = "".join(f"{ell} {good[ell]}\n" for ell in CACHE_ELLS).encode("ascii")
    trailer = b"# %d %s\n" % (len(CACHE_ELLS), hashlib.sha256(lines).hexdigest().encode())
    for text in (lines, lines + trailer):
        path.write_bytes(text)
        _assert_whole_file_miss(tmp_path, path, data, counted, good, text)
    counted.clear()
    assert TraceCache(tmp_path).traces(E99, CACHE_ELLS) == good
    assert counted == []


def test_trace_cache_merges_before_replace(tmp_path, monkeypatch):
    good = TraceCache(None).traces(E99, CACHE_ELLS)
    first, second = TraceCache(tmp_path), TraceCache(tmp_path)
    first.traces(E99, [])
    second.traces(E99, [])  # both have read the empty directory
    first.traces(E99, [5, 7, 1009])
    second.traces(E99, [13, 463])  # second never saw first's primes in memory
    counted = _count_traces(monkeypatch)
    assert TraceCache(tmp_path).traces(E99, CACHE_ELLS) == good
    assert counted == []
    (path,) = tmp_path.glob("*.traces")
    assert path.read_bytes() == _cache_file_bytes(good)


def test_distinguished_primes_recount_a_damaged_slot(tmp_path, monkeypatch):
    # the density path reads slots with stride p off the array; a slot that
    # fails the Hasse bound in a file whose digest verifies is counted again
    expected = _distinguished_primes(E99, 3, 2000, None)
    assert _distinguished_primes(E99, 3, 2000, TraceCache(tmp_path)) == expected
    (path,) = tmp_path.glob("*.traces")
    data = path.read_bytes()
    body = data[:2 * (7 // 2)] + struct.pack("<h", 99) + data[2 * (7 // 2) + 2: -32]
    path.write_bytes(body + hashlib.sha256(body).digest())
    counted = _count_traces(monkeypatch)
    assert _distinguished_primes(E99, 3, 2000, TraceCache(tmp_path)) == expected
    assert counted == [7]
    assert path.read_bytes() == data


@pytest.mark.parametrize("budget", [7, 1000])
@pytest.mark.parametrize("p", [3, 5])
def test_distinguished_primes_past_the_array_budget(tmp_path, monkeypatch, p, budget):
    # an ell above GRID_BUDGET has no slot, so it is counted on every call;
    # at p = 5 the bad prime 11 = 1 mod 10 sits above the budget 7 and below 1000
    expected = _distinguished_primes(E99, p, 3000, None)
    monkeypatch.setattr(counting, "GRID_BUDGET", budget)
    for _ in ("cold", "warm"):
        assert _distinguished_primes(E99, p, 3000, TraceCache(tmp_path)) == expected
    for path in tmp_path.glob("*.traces"):  # none when no good ell has a slot
        assert len(path.read_bytes()) - 32 <= 2 * (budget // 2 + 1)


def test_trace_cache_file_holds_the_union_of_density_and_classify(tmp_path):
    # density at p = 3, classify, then density at p = 5 on one directory
    asymptotic_report(E99, 3, [100, 1000, 2000, 6000], cache=TraceCache(tmp_path))
    bulk_classify(E99, 3, 3000, cache=TraceCache(tmp_path))
    asymptotic_report(E99, 5, [100, 1000, 2000, 8000], cache=TraceCache(tmp_path))
    bad = {3, 11}  # the conductor is 99
    ells = {ell for ell in sieve_primes(8000) if ell not in bad and (
        ell <= 3000 or (ell % 3 == 1 and ell <= 6000) or ell % 5 == 1)}
    expected = TraceCache(None).traces(E99, ells)
    # the primes = 1 mod 3 above 3000 that no p = 5 report reached keep the
    # p = 3 scan's codes; classify and the p = 5 report stored a_ell over the rest
    for ell in expected:
        if ell > 3000 and ell % 5 != 1:
            expected[ell] = _three_code(ell, expected[ell])
    (path,) = tmp_path.glob("*.traces")
    assert path.read_bytes() == _cache_file_bytes(expected)


def test_three_codes_fail_hasse_and_carry_their_verdict():
    codes = (counting._THREE_DIVIDES, counting._THREE_DOES_NOT_DIVIDE)
    # below every a_ell a file can hold and above _UNKNOWN, in merge order
    assert counting._UNKNOWN < codes[0] < codes[1] < -2 * math.isqrt(counting.GRID_BUDGET) - 1
    assert all(code * code > 4 * counting.GRID_BUDGET for code in codes)
    # #E(F_ell) = 2 - a_ell mod 3 at ell = 1 mod 3: 0 for "divides", not 0 otherwise
    assert (2 - codes[0]) % 3 == 0
    assert (2 - codes[1]) % 3 == 2


CODE_BOUND = 2000
# E99 is bad only at 3 and 11, so every ell = 1 mod 6 below the bound is good
ELLS_1_MOD_6 = [ell for ell in sieve_primes(CODE_BOUND) if ell % 6 == 1]


def _coded_bytes():
    """The cache file a p = 3 density scan to CODE_BOUND writes on an empty
    directory: a_ell through 229, codes above."""
    good = TraceCache(None).traces(E99, ELLS_1_MOD_6)
    return _cache_file_bytes({ell: a if ell <= 229 else _three_code(ell, a) for ell, a in good.items()})


def _density_scan(tmp_path):
    _distinguished_primes(E99, 3, CODE_BOUND, TraceCache(tmp_path))
    (path,) = tmp_path.glob("*.traces")
    return path


def test_density_scan_stores_codes_and_reads_them_back(tmp_path, monkeypatch):
    expected = _distinguished_primes(E99, 3, CODE_BOUND, None)
    assert expected[0] == [r.ell for r in bulk_classify(E99, 3, CODE_BOUND) if r.in_script_q]
    data = _coded_bytes()
    counted = _count_traces(monkeypatch)
    decided = []

    def kernel(A, B, ell):
        decided.append(ell)
        return _three_divides(A, B, ell)

    monkeypatch.setattr(counting, "_three_divides", kernel)
    path = _density_scan(tmp_path)
    assert counted == [ell for ell in ELLS_1_MOD_6 if ell <= 229]  # no BSGS above
    assert decided == [ell for ell in ELLS_1_MOD_6 if ell > 229]
    assert path.read_bytes() == data
    counted.clear()
    decided.clear()
    assert _distinguished_primes(E99, 3, CODE_BOUND, TraceCache(tmp_path)) == expected
    assert counted == decided == []  # the codes answer the second report
    assert path.read_bytes() == data


def test_density_scan_with_two_jobs_stores_the_same_codes(tmp_path):
    expected = _distinguished_primes(E99, 3, CODE_BOUND, None)
    assert _distinguished_primes(E99, 3, CODE_BOUND, TraceCache(tmp_path, jobs=2)) == expected
    (path,) = tmp_path.glob("*.traces")
    assert path.read_bytes() == _coded_bytes()


def test_classify_recounts_code_slots(tmp_path, monkeypatch):
    records = bulk_classify(E99, 3, CODE_BOUND)
    ells = [r.ell for r in records if r.a_ell is not None]
    full = _cache_file_bytes({r.ell: r.a_ell for r in records if r.a_ell is not None})
    path = _density_scan(tmp_path)
    counted = _count_traces(monkeypatch)
    assert bulk_classify(E99, 3, CODE_BOUND, cache=TraceCache(tmp_path)) == records
    # every good prime but the a_ell the scan stored, the code slots among them
    assert counted == [ell for ell in ells if not (ell % 6 == 1 and ell <= 229)]
    assert path.read_bytes() == full


def test_hasse_only_reader_recounts_codes(tmp_path, monkeypatch):
    # traces() checks slots against the Hasse bound alone, as every reader
    # before the codes did, so it never reads a code as a_ell
    good = TraceCache(None).traces(E99, CACHE_ELLS)
    path, data = _filled_cache_file(tmp_path)
    assert [ell for ell in CACHE_ELLS if ell % 6 == 1 and ell > 229] == [463, 1009]
    coded = {**good, 463: _three_code(463, good[463]), 1009: _three_code(1009, good[1009])}
    path.write_bytes(_cache_file_bytes(coded))
    counted = _count_traces(monkeypatch)
    assert TraceCache(tmp_path).traces(E99, CACHE_ELLS) == good
    assert counted == [463, 1009]
    assert path.read_bytes() == data


def test_density_at_p5_counts_code_slots(tmp_path, monkeypatch):
    expected = _distinguished_primes(E99, 5, CODE_BOUND, None)
    _density_scan(tmp_path)
    counted = _count_traces(monkeypatch)
    assert _distinguished_primes(E99, 5, CODE_BOUND, TraceCache(tmp_path)) == expected
    # the scan stored a_ell at ell = 1 mod 30 through 229 and codes above, which
    # p = 5 counts again with the rest
    assert counted == [ell for ell in sieve_primes(CODE_BOUND)
                       if ell % 10 == 1 and ell != 11 and not (ell % 3 == 1 and ell <= 229)]
    assert 241 in counted
    a = TraceCache(None).traces(E99, [241])[241]
    assert TraceCache(tmp_path)._load(format_model(E99))[241 >> 1] == a


def _report_counts(tmp_path):
    """The verdicts of report's class counts at p = 3 to CODE_BOUND on the
    cache in tmp_path."""
    return list(_verdicts(E99, 3, CODE_BOUND, TraceCache(tmp_path)))


def test_report_stores_codes_in_both_classes_and_classify_counts_over_them(tmp_path, monkeypatch):
    records = bulk_classify(E99, 3, CODE_BOUND)
    traces = {r.ell: r.a_ell for r in records if r.a_ell is not None}
    verdicts = [(r.category, r.in_script_q) for r in records]
    counted = _count_traces(monkeypatch)
    decided = []

    def kernel(A, B, ell):
        decided.append(ell)
        return _three_divides(A, B, ell)

    monkeypatch.setattr(counting, "_three_divides", kernel)
    assert _report_counts(tmp_path) == verdicts
    assert counted == [ell for ell in traces if ell <= 229]  # no BSGS above
    assert decided == [ell for ell in traces if ell > 229]
    assert {ell % 6 for ell in decided} == {1, 5}
    (path,) = tmp_path.glob("*.traces")
    coded = {ell: a if ell <= 229 else _three_code(ell, a) for ell, a in traces.items()}
    assert path.read_bytes() == _cache_file_bytes(coded)
    counted.clear()
    decided.clear()
    assert _report_counts(tmp_path) == verdicts
    assert counted == decided == []  # the codes answer the second report
    # classify counts every code slot again and stores a_ell over it
    assert bulk_classify(E99, 3, CODE_BOUND, cache=TraceCache(tmp_path)) == records
    assert counted == [ell for ell in traces if ell > 229]
    assert path.read_bytes() == _cache_file_bytes(traces)
    counted.clear()
    assert _report_counts(tmp_path) == verdicts
    assert counted == decided == []


def test_three_mode_counts_a_ell_above_the_trace_array():
    # no slot holds ell > GRID_BUDGET, and past 2.68e8 a code would pass the
    # Hasse bound, so three mode answers such an ell with a_ell
    ell = 10000019
    assert TraceCache(None)._traces(E99, [ell], three=True) == TraceCache(None).traces(E99, [ell])


def test_density_at_p5_on_a_report_cache_equals_a_fresh_run(tmp_path):
    _report_counts(tmp_path / "report")
    grid = [100, 500, 1000, CODE_BOUND]
    assert (asymptotic_report(E99, 5, grid, cache=TraceCache(tmp_path / "report"))
            == asymptotic_report(E99, 5, grid, cache=TraceCache(tmp_path / "fresh")))


@pytest.mark.parametrize("first", ["density", "classify"])
def test_store_merges_traces_over_codes_in_either_order(tmp_path, first):
    runs = {
        "density": lambda cache: _distinguished_primes(E99, 3, CODE_BOUND, cache),
        "classify": lambda cache: bulk_classify(E99, 3, CODE_BOUND // 2, cache=cache),
    }
    caches = {name: TraceCache(tmp_path) for name in runs}
    for cache in caches.values():
        cache.traces(E99, [])  # both have read the empty directory
    runs[first](caches[first])
    second = "classify" if first == "density" else "density"
    runs[second](caches[second])
    # a_ell wherever classify reached, the scan's codes above it
    records = bulk_classify(E99, 3, CODE_BOUND // 2)
    expected = {r.ell: r.a_ell for r in records if r.a_ell is not None}
    good = TraceCache(None).traces(E99, ELLS_1_MOD_6)
    expected.update({ell: _three_code(ell, a) for ell, a in good.items() if ell > CODE_BOUND // 2})
    (path,) = tmp_path.glob("*.traces")
    assert path.read_bytes() == _cache_file_bytes(expected)


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
@pytest.mark.parametrize(("umask", "mode"), [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask022", "umask077"])
def test_trace_cache_file_mode_follows_umask(tmp_path, umask, mode):
    # the mode open(path, "w") gives, not mkstemp's 0600
    old = os.umask(umask)
    try:
        TraceCache(tmp_path).traces(E99, [5, 7])
    finally:
        os.umask(old)
    (path,) = tmp_path.glob("*.traces")
    assert stat.S_IMODE(path.stat().st_mode) == mode


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
def test_trace_cache_store_leaves_the_umask_alone(tmp_path, monkeypatch):
    # the store never reads the umask by setting it, which would change it for
    # a moment under every other thread of the process
    old = os.umask(0o022)

    def forbidden(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", forbidden)
    try:
        TraceCache(tmp_path).traces(E99, [5, 7])
    finally:
        monkeypatch.undo()
        os.umask(old)
    (path,) = tmp_path.glob("*.traces")
    assert stat.S_IMODE(path.stat().st_mode) == 0o644


def test_trace_cache_isomorphic_models_share_key(tmp_path):
    cache = TraceCache(tmp_path)
    cache.traces(E99, [7])
    cache.traces(E99.transform(r=3, s=-2, t=5), [7, 13])
    assert len(list(tmp_path.glob("*.traces"))) == 1


# a trace file of E99 at the good primes below 60, with its name, as
# TraceCache wrote it when it still keyed its memory by the file's hash
E99_TRACE_FILE = "20e33d0760b7622b8d018c25.traces"
E99_TRACE_BYTES = bytes.fromhex(
    "02000080fffffeff00800080040000800200000000800100008000800000070000800080"
    "030000800800faff0080f8ff00800080060000800080fbff0c720606fc704aa737838d51"
    "33592f8c74ed071e4046752ff6fd83209cdcf9a5")


def test_trace_cache_reads_and_writes_the_same_files(tmp_path, monkeypatch):
    ells = [ell for ell in sieve_primes(60) if ell not in (3, 11)]
    good = TraceCache(None).traces(E99, ells)
    written = tmp_path / "written"
    TraceCache(written).traces(E99, ells)
    assert [(p.name, p.read_bytes()) for p in written.iterdir()] == [
        (E99_TRACE_FILE, E99_TRACE_BYTES)]
    stored = tmp_path / "stored"
    stored.mkdir()
    (stored / E99_TRACE_FILE).write_bytes(E99_TRACE_BYTES)
    counted = _count_traces(monkeypatch)
    # a hit for the model and for an isomorphic one, with nothing counted or rewritten
    assert TraceCache(stored).traces(E99, ells) == good
    assert TraceCache(stored).traces(E99.transform(r=1, s=2, t=-3), ells) == good
    assert counted == []
    assert [(p.name, p.read_bytes()) for p in stored.iterdir()] == [
        (E99_TRACE_FILE, E99_TRACE_BYTES)]


def test_digest_size_is_sha256():
    assert counting._DIGEST == hashlib.sha256().digest_size


def test_trace_cache_memory_only():
    cache = TraceCache(None)
    assert cache.trace(E99, 7) == -2


def test_trace_cache_parallel(tmp_path):
    cache = TraceCache(tmp_path, jobs=2)
    got = cache.traces(E99, [5, 7, 13, 17])
    assert got[7] == -2
    assert set(got) == {5, 7, 13, 17}


def test_a_pool_starts_only_for_more_than_one_miss(monkeypatch, pool_sizes):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    one = classify_prime(E99, 3, 467, cache=TraceCache(None, jobs=2))
    assert one == classify_prime(E99, 3, 467)
    assert TraceCache(None, jobs=2).trace(E99, 467) == one.a_ell
    assert pool_sizes == []
    records = bulk_classify(E99, 3, 2000, cache=TraceCache(None, jobs=2))
    assert pool_sizes == [2]
    assert records == bulk_classify(E99, 3, 2000, cache=TraceCache(None, jobs=1))
    assert pool_sizes == [2]


def test_trace_cache_jobs_checked_and_capped(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    assert TraceCache(None, jobs=5).jobs == 2
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            TraceCache(None, jobs=jobs)


def test_trace_cache_traces_checks_its_requests():
    # the counting kernel behind the cache takes its primes as proven, so the
    # public entry tests them
    cache = TraceCache(None)
    for ells in ([231], [10**7 + 1], [1], [5, 7, 9]):
        with pytest.raises(ValueError, match="is not prime"):
            cache.traces(E99, ells)
    with pytest.raises(BadReductionError):
        cache.traces(E99, [11])


def test_trace_cache_bad_prime():
    cache = TraceCache(None)
    with pytest.raises(BadReductionError):
        cache.trace(E99, 11)


def test_trace_cache_minimizes_once(monkeypatch):
    calls = []

    def counted(model):
        calls.append(model)
        return minimal_model(model)

    monkeypatch.setattr(counting, "minimal_model", counted)
    blown = model_from_c4c6(6**4 * 144, 6**6 * 4104)
    assert TraceCache(None).traces(blown, [5, 7, 13, 467]) == TraceCache(None).traces(E99, [5, 7, 13, 467])
    assert len(calls) == 2  # one per traces call


def test_trace_matches_count():
    for ell in (5, 7, 13, 467):
        assert trace_of_frobenius(E99, ell) == ell + 1 - count_points(E99, ell)
