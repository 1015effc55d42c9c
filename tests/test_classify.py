"""Prime classification, torsion growth up the tower, splitting counts."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from iwakit import counting
from iwakit.classify import (
    PrimeClass,
    bulk_classify,
    classification_rows,
    classify_prime,
    cyclotomic_split_count,
    p2_membership,
)
from iwakit.classify import _distinguished_primes
from iwakit.counting import (
    FrobeniusData,
    TraceCache,
    _count_points,
    count_points,
    count_points_naive,
    order_over_extension,
    trace_of_frobenius,
)
from iwakit.elliptic import SingularCurveError, WeierstrassModel, minimal_model, reduction_type
from iwakit.ntheory import is_prime, padic_valuation, sieve_primes
from test_ntheory import mult_order

E99 = WeierstrassModel(0, 0, 1, -3, -5)
E11 = WeierstrassModel(0, -1, 1, -10, -20)


def test_good_prime_outside_q2():
    # ell = 7: ten points over F_7, not divisible by 3, and 7 = 1 mod 3
    rec = classify_prime(E99, 3, 7)
    assert rec.category == "Q3"
    assert rec.a_ell == -2
    assert rec.in_script_q is True


def test_bad_prime_is_q1():
    rec = classify_prime(E99, 3, 11)
    assert rec.category == "Q1"
    assert rec.a_ell is None
    assert rec.in_script_q is False


def test_thirteen_decided_by_naive_count():
    rec = classify_prime(E99, 3, 13)
    n13 = count_points_naive(E99, 13)
    assert rec.category == ("Q2" if n13 % 3 == 0 else "Q3")
    assert rec.a_ell == 13 + 1 - n13


def test_classify_rejects_excluded_prime():
    with pytest.raises(ValueError):
        classify_prime(E99, 3, 3)
    with pytest.raises(ValueError):
        classify_prime(E99, 3, 4)
    with pytest.raises(ValueError):
        classify_prime(E99, 2, 5)


def test_classification_partition():
    # trichotomy: each prime gets exactly one class, recomputed independently
    for ell in (2, 5, 7, 11, 13, 17, 19, 23):
        rec = classify_prime(E99, 3, ell)
        red = reduction_type(minimal_model(E99)[0], ell)
        if red.v_disc > 0:
            assert rec.category == "Q1"
        else:
            n = count_points_naive(E99, ell)
            assert rec.category == ("Q2" if n % 3 == 0 else "Q3")


def test_p2_membership_base_level():
    assert p2_membership(E99, 3, 7, 1) is False
    assert p2_membership(E99, 3, 7, 3) is False


def test_p2_membership_tests_ell_for_primality_once(monkeypatch):
    # _check_primes tests ell, and the count behind the answer does not test it again
    ells = (7, 13, 233, 997)
    expected = [order_over_extension(FrobeniusData(ell, trace_of_frobenius(E99, ell)), f) % 3 == 0
                for ell in ells for f in (1, 2)]

    def fail(n):
        raise AssertionError(f"counting tested {n} for primality")

    monkeypatch.setattr(counting, "is_prime", fail)
    assert [p2_membership(E99, 3, ell, f) for ell in ells for f in (1, 2)] == expected


PRIMES_ABOVE_229 = [ell for ell in sieve_primes(10**5) if ell > 229]


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


# a prime of each of 12 to 15 digits, where BSGS still ends in well under a second
LARGE_PRIMES = [_next_prime(random.Random(digits).randrange(10 ** (digits - 1), 10**digits))
                for digits in (12, 13, 14, 15)]


@given(st.integers(0, 1), st.integers(-1, 1), st.integers(0, 1),
       st.integers(-3000, 3000), st.integers(-3000, 3000), st.sampled_from(PRIMES_ABOVE_229))
@settings(deadline=None, max_examples=150)
def test_p2_membership_at_p3_equals_the_trace_path(a1, a2, a3, a4, a6, ell):
    # p = 3, f = 1 and ell > 229 read psi_3; the a_ell path is the oracle
    try:
        model = WeierstrassModel(a1, a2, a3, a4, a6)
    except SingularCurveError:
        return
    if minimal_model(model)[0].disc % ell == 0:
        return
    expected = order_over_extension(FrobeniusData(ell, trace_of_frobenius(model, ell)), 1) % 3 == 0
    assert p2_membership(model, 3, ell, 1) is expected


@pytest.mark.parametrize("ell", LARGE_PRIMES)
def test_p2_membership_at_p3_equals_the_trace_path_at_large_ell(ell):
    rng = random.Random(ell)
    models = [E99]
    while len(models) < 3:
        try:
            models.append(WeierstrassModel(rng.randint(0, 1), rng.randint(-1, 1), rng.randint(0, 1),
                                           rng.randint(-3000, 3000), rng.randint(-3000, 3000)))
        except SingularCurveError:
            pass
    for model in models:
        assert p2_membership(model, 3, ell, 1) is (count_points(model, ell) % 3 == 0), model
    # (0, 0) has order 3 on y^2 + y = x^3 and reduces to a point of order 3
    assert p2_membership(WeierstrassModel(0, 0, 1, 0, 0), 3, ell, 1) is True


def test_p2_membership_counts_only_off_the_psi3_route(monkeypatch):
    # p = 3, f = 1 above 229 counts nothing, also on a model that is bad at ell;
    # every other (p, ell, f) counts #E(F_ell)
    calls = []

    def counted(model, ell):
        calls.append(ell)
        return _count_points(model, ell)

    monkeypatch.setattr(counting, "_count_points", counted)
    scaled = WeierstrassModel(0, 0, 233**3, -3 * 233**4, -5 * 233**6)  # E99 with u = 233
    assert p2_membership(scaled, 3, 233, 1) is p2_membership(E99, 3, 233, 1)
    assert p2_membership(E99, 3, 997, 1) is (count_points(E99, 997) % 3 == 0)
    assert calls == []
    p2_membership(E99, 3, 229, 1)
    p2_membership(E99, 3, 997, 3)
    p2_membership(E99, 5, 997, 1)
    assert calls == [229, 997, 997]
    with pytest.raises(ValueError, match="bad reduction at 233"):
        p2_membership(WeierstrassModel(0, 0, 0, 233, 233), 3, 233, 1)


def test_p2_membership_from_rational_torsion():
    # the conductor-11 curve has a rational 5-torsion point, so every good
    # residue count is divisible by 5
    for ell in (2, 3, 7, 13, 17):
        assert p2_membership(E11, 5, ell, 1) is True
        assert p2_membership(E11, 5, ell, 5) is True


def test_p2_membership_requires_good_reduction():
    with pytest.raises(ValueError):
        p2_membership(E99, 3, 11, 1)
    with pytest.raises(ValueError):
        p2_membership(E99, 3, 7, 0)


def test_p2_membership_stable_under_p_extension():
    # torsion growth is decided at the base: degree f = p sees nothing new
    rng = random.Random(20260822)
    curves = []
    while len(curves) < 100:
        m = WeierstrassModel(
            rng.randrange(2), rng.choice((-1, 0, 1)), rng.randrange(2),
            rng.randrange(-8, 9), rng.randrange(-8, 9),
        )
        if m.disc != 0:
            curves.append(m)
    ells = [ell for ell in sieve_primes(199)]
    checked = 0
    for m in curves:
        minimal, _ = minimal_model(m)
        for p in (3, 5):
            for ell in ells:
                if ell == p or not reduction_type(minimal, ell).is_good:
                    continue
                fd = FrobeniusData(ell, trace_of_frobenius(minimal, ell))
                base = order_over_extension(fd, 1) % p == 0
                assert (order_over_extension(fd, p) % p == 0) == base
                checked += 1
    assert checked > 3000


def test_p2_membership_stabilizes_along_tower():
    # no n <= 3 ever sees p-torsion invisible at the base field
    for m in (E99, E11, WeierstrassModel(0, 0, 0, -1, 0)):
        minimal, _ = minimal_model(m)
        for p in (3, 5):
            for ell in sieve_primes(47):
                if ell == p or not reduction_type(minimal, ell).is_good:
                    continue
                fd = FrobeniusData(ell, trace_of_frobenius(minimal, ell))
                base = order_over_extension(fd, 1) % p == 0
                for n in (1, 2, 3):
                    assert (order_over_extension(fd, p**n) % p == 0) == base


def test_cyclotomic_split_count_examples():
    assert cyclotomic_split_count(7, 3) == 0
    assert cyclotomic_split_count(2, 3) == 0
    # 19 = 1 mod 9 but 19^2 - 1 = 360 has 3-valuation exactly 2
    assert padic_valuation(19**2 - 1, 3) == 2
    assert cyclotomic_split_count(19, 3) == 1


def _layer_split_count(ell, p, n):
    """Number of primes above ell in the degree-p^n layer of the p-tower.

    Computed from the order of ell in (Z/p^{n+1})*: the layer is cut out of
    the p^{n+1}-th cyclotomic field, where Frobenius at ell is ell itself.
    """
    order = mult_order(ell, p ** (n + 1))
    order_p_part = p ** padic_valuation(order, p) if order % p == 0 else 1
    return p**n // order_p_part


def test_cyclotomic_split_count_vs_layer_oracle():
    for p in (3, 5):
        for ell in sieve_primes(499):
            if ell == p:
                continue
            m = cyclotomic_split_count(ell, p)
            for n in range(4):
                assert _layer_split_count(ell, p, n) == p ** min(n, m)


def test_cyclotomic_split_count_validation():
    with pytest.raises(ValueError):
        cyclotomic_split_count(3, 3)
    with pytest.raises(ValueError):
        cyclotomic_split_count(10, 3)
    with pytest.raises(ValueError):
        cyclotomic_split_count(7, 4)


def test_bulk_classify_small_bound():
    records = bulk_classify(E99, 3, 20)
    assert [r.ell for r in records] == [2, 5, 7, 11, 13, 17, 19]
    by_ell = {r.ell: r for r in records}
    assert by_ell[11].category == "Q1"
    for ell in (2, 5, 7, 13, 17, 19):
        assert by_ell[ell] == classify_prime(E99, 3, ell)


@pytest.mark.parametrize("p", [3, 5])
def test_classify_prime_matches_bulk_classify(monkeypatch, p):
    records = bulk_classify(E99, p, 500)
    cache = TraceCache(None)
    calls = []

    def counted(model, ell):
        calls.append(ell)
        return _count_points(model, ell)

    monkeypatch.setattr(counting, "_count_points", counted)
    for rec in records:
        calls.clear()
        assert classify_prime(E99, p, rec.ell) == rec
        assert classify_prime(E99, p, rec.ell, cache=cache) == rec
        assert calls == ([] if rec.category == "Q1" else [rec.ell, rec.ell])


@pytest.mark.parametrize(("ell", "expected"), [
    # the first prime above the trace array's range of 1e7
    (10000019, PrimeClass(ell=10000019, category="Q3", a_ell=-1690, in_script_q=False)),
    # a_ell does not fit in int16 here
    (1000000000471,
     PrimeClass(ell=1000000000471, category="Q3", a_ell=-729128, in_script_q=True)),
])
def test_classify_prime_above_the_trace_array(tmp_path, monkeypatch, ell, expected):
    assert classify_prime(E99, 3, ell, cache=TraceCache(None)) == expected
    # nothing is stored: no file for a large ell alone, and a file of small
    # ells keeps its bytes
    assert classify_prime(E99, 3, ell, cache=TraceCache(tmp_path)) == expected
    assert list(tmp_path.iterdir()) == []
    TraceCache(tmp_path).traces(E99, [5, 7])
    (path,) = tmp_path.glob("*.traces")
    data = path.read_bytes()
    cache = TraceCache(tmp_path)
    calls = []

    def counted(model, ell):
        calls.append(ell)
        return _count_points(model, ell)

    monkeypatch.setattr(counting, "_count_points", counted)
    assert classify_prime(E99, 3, ell, cache=cache) == expected
    assert classify_prime(E99, 3, ell, cache=cache) == expected
    assert calls == [ell, ell]  # counted on every call, never cached
    assert path.read_bytes() == data


def test_bulk_classify_empty_and_deterministic():
    assert bulk_classify(E99, 3, 1) == []
    a = bulk_classify(E99, 3, 60)
    b = bulk_classify(E99, 3, 60)
    assert a == b


def test_bulk_classify_with_shared_cache(tmp_path):
    cache = TraceCache(tmp_path, jobs=2)
    records = bulk_classify(E99, 3, 60, cache=cache)
    again = bulk_classify(E99, 3, 60, cache=cache)
    assert records == again
    assert records == bulk_classify(E99, 3, 60)


def test_script_q_membership_shape():
    for rec in bulk_classify(E99, 3, 120):
        if rec.in_script_q:
            assert rec.category == "Q3"
            assert rec.ell % 3 == 1
        if rec.category == "Q3" and rec.ell % 3 == 1:
            assert rec.in_script_q


def test_prime_class_validation():
    with pytest.raises(ValueError):
        PrimeClass(ell=7, category="Q4", a_ell=1, in_script_q=False)
    with pytest.raises(ValueError):
        PrimeClass(ell=7, category="Q1", a_ell=2, in_script_q=False)
    with pytest.raises(ValueError):
        PrimeClass(ell=7, category="Q3", a_ell=None, in_script_q=False)
    with pytest.raises(ValueError):
        PrimeClass(ell=7, category="Q2", a_ell=2, in_script_q=True)


def test_classification_csv_format():
    records = bulk_classify(E99, 3, 13)
    text = "".join(classification_rows(records))
    lines = text.splitlines()
    assert lines[0] == "ell,class,a_ell,in_script_Q"
    assert len(lines) == 1 + len(records)
    row11 = next(line for line in lines if line.startswith("11,"))
    assert row11 == "11,Q1,,false"
    row7 = next(line for line in lines if line.startswith("7,"))
    assert row7 == "7,Q3,-2,true"
    assert "".join(classification_rows(records)) == text


def test_bulk_classify_non_minimal_model():
    # E99 rescaled by u = 2; the bad primes come from the minimal model
    scaled = WeierstrassModel(0, 0, 8, -48, -320)
    minimal, u = minimal_model(scaled)
    assert u == 2 and minimal_model(E99)[0] == minimal
    records = bulk_classify(scaled, 3, 2000)
    assert records == bulk_classify(E99, 3, 2000)
    q1 = {r.ell for r in records if r.category == "Q1"}
    oracle = {
        ell for ell in sieve_primes(2000)
        if reduction_type(minimal, ell).v_disc > 0
    }
    assert q1 == oracle - {3}
    assert [classify_prime(scaled, 3, ell) for ell in (2, 5, 11)] == [
        r for r in records if r.ell in (2, 5, 11)
    ]


def _bulk_oracle(model, p, bound, cache=None):
    records = bulk_classify(model, p, bound, cache=cache)
    return [r.ell for r in records if r.in_script_q], len(records) + (p <= bound)


@given(
    st.sampled_from([0, 1]), st.sampled_from([-1, 0, 1]), st.sampled_from([0, 1]),
    st.integers(-300, 300), st.integers(-300, 300), st.sampled_from([1, 2]),
    st.sampled_from([3, 5, 7]), st.integers(0, 3000),
)
@settings(deadline=None, max_examples=30)
def test_distinguished_primes_match_bulk_classify(a1, a2, a3, a4, a6, u, p, bound):
    try:
        model = WeierstrassModel(a1 * u, a2 * u**2, a3 * u**3, a4 * u**4, a6 * u**6)
    except SingularCurveError:
        return
    expected = _bulk_oracle(model, p, bound)
    # cold, then warm on what it stored, then on a cache bulk_classify filled
    cache = TraceCache(None)
    assert _distinguished_primes(model, p, bound, cache) == expected
    assert _distinguished_primes(model, p, bound, cache) == expected
    assert _bulk_oracle(model, p, bound, cache) == expected
    filled = TraceCache(None)
    bulk_classify(model, p, bound, cache=filled)
    assert _distinguished_primes(model, p, bound, filled) == expected


def test_distinguished_primes_edges():
    assert _distinguished_primes(E99, 3, 1, None) == ([], 0)
    assert _distinguished_primes(E99, 3, 7, None) == ([7], 4)
    with pytest.raises(ValueError, match="odd prime"):
        _distinguished_primes(E99, 9, 100, None)
    # the prime count is 1 + the odd flags set, so bound 2 counts the even prime only
    assert _distinguished_primes(E99, 3, 2, None) == ([], 1)
    assert _distinguished_primes(E99, 3, 3, None) == ([], 2)
    # p itself is no candidate; 2p + 1 is the first odd number = 1 mod p
    for p in (3, 5, 7):
        for bound in (2, 3, p, 2 * p + 1):
            assert _distinguished_primes(E99, p, bound, None) == _bulk_oracle(E99, p, bound)
