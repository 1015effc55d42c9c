"""Cyclic extension enumeration, splitting data, and the counting functions."""

import bisect
import itertools
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from iwakit.classify import cyclotomic_split_count
from iwakit.elliptic import WeierstrassModel
from iwakit.fields import (
    CyclicExtension,
    M_of_X,
    SplittingRecord,
    _char_value,
    count_extensions,
    discriminant,
    enumerate_extensions,
    extension_record,
    g_of_X,
    g_steps,
    m_steps,
    ramified_splitting,
    script_q_primes,
    splitting,
    _m_totals,
    _m_weights,
    _product_totals_dfs,
    _product_weights_dfs,
    _product_weights_sieve,
    _sieve_counts,
)
from iwakit.ntheory import primitive_root, sieve_primes

E99 = WeierstrassModel(0, 0, 1, -3, -5)


def totals_sieve(primes, p, bounds):
    """Total weight of the products <= each bound of an ascending list, summed
    off the sieve counts.  The oracle for the counting walk _product_totals_dfs."""
    if bounds[-1] < 2:
        return [0] * len(bounds)
    c = _sieve_counts(primes, p, bounds[-1])
    c[1] = 0  # the empty product is no field
    return [sum(itertools.islice(c, b + 1)) // (p - 1) for b in bounds]


def m_totals_sieve(p, bounds):
    """Degree-p cyclic fields of conductor <= each bound of an ascending list.
    The oracle for _m_totals: the wild conductor p^2 enters the sieve as one
    more place, where _m_totals adds the wild fields by a formula."""
    tame = [ell for ell in sieve_primes(max(bounds[-1], 2)) if ell % p == 1]
    return totals_sieve(sorted(tame + [p * p]), p, bounds)


def _ext(p, primes, exps, wild=None):
    return CyclicExtension(
        p=p, tame_ramified=tuple(primes), wild_at_p=wild is not None,
        exponents=tuple(exps), wild_exponent=wild,
    )


def test_count_extensions_examples():
    assert count_extensions(3, [7]) == 1
    assert count_extensions(3, [7, 13]) == 2
    assert count_extensions(5, [11, 31, 41]) == 16
    assert count_extensions(3, []) == 0


def test_count_extensions_obstruction():
    with pytest.raises(ValueError):
        count_extensions(3, [5])  # 5 is not 1 mod 3
    with pytest.raises(ValueError):
        count_extensions(3, [7, 7])
    with pytest.raises(ValueError):
        count_extensions(3, [3])
    with pytest.raises(ValueError):
        count_extensions(4, [5])


def test_enumerate_matches_count_exhaustively():
    pools = {3: [7, 13, 19, 31], 5: [11, 31, 41, 61]}
    for p, pool in pools.items():
        for k in range(len(pool) + 1):
            for subset in itertools.combinations(pool, k):
                exts = enumerate_extensions(p, subset)
                assert len(exts) == count_extensions(p, subset)
                assert len(set(exts)) == len(exts)


def test_enumerate_examples():
    assert enumerate_extensions(3, []) == []
    (only,) = enumerate_extensions(3, [7])
    assert only.exponents == (1,)
    two = enumerate_extensions(3, [7, 13])
    assert {e.exponents for e in two} == {(1, 1), (1, 2)}


def test_enumerate_order_independent():
    a = enumerate_extensions(3, [13, 7])
    b = enumerate_extensions(3, [7, 13])
    assert a == b
    assert all(e.tame_ramified == (7, 13) for e in a)


def test_enumerate_wild():
    (only,) = enumerate_extensions(3, [], wild_at_p=True)
    assert only.wild_at_p and only.wild_exponent == 1
    assert only.conductor == 9
    wild_pair = enumerate_extensions(3, [7], wild_at_p=True)
    assert len(wild_pair) == 2
    assert {e.wild_exponent for e in wild_pair} == {1, 2}


def test_discriminants():
    assert discriminant(_ext(3, [7], [1])) == 49
    assert discriminant(_ext(3, [], [], wild=1)) == 81
    assert discriminant(_ext(3, [7, 13], [1, 1])) == 8281
    assert discriminant(_ext(5, [11], [1])) == 11**4


def test_extension_validation():
    with pytest.raises(ValueError):
        _ext(3, [], [])  # unramified everywhere
    with pytest.raises(ValueError):
        _ext(3, [5], [1])
    with pytest.raises(ValueError):
        _ext(3, [13, 7], [1, 1])  # unsorted
    with pytest.raises(ValueError):
        _ext(3, [7], [2])  # not normalized
    with pytest.raises(ValueError):
        _ext(3, [7], [3])  # exponent out of range
    with pytest.raises(ValueError):
        _ext(3, [7], [1, 1])


def test_splitting_in_cubic_of_conductor_seven():
    ext = _ext(3, [7], [1])
    rec2 = splitting(ext, 2)
    assert (rec2.e, rec2.f, rec2.g) == (1, 3, 1)
    rec13 = splitting(ext, 13)
    assert (rec13.e, rec13.f, rec13.g) == (1, 1, 3)
    assert rec13.e_cyc == 1


def test_splitting_against_power_residue_oracle():
    # single tame prime: f = 1 iff ell is a p-th power residue mod the conductor
    for p, ell1 in ((3, 7), (3, 13), (5, 11), (7, 29)):
        ext = _ext(p, [ell1], [1])
        powers = {pow(x, p, ell1) for x in range(1, ell1)}
        for ell in sieve_primes(60):
            if ell in (p, ell1):
                continue
            rec = splitting(ext, ell)
            expected_f = 1 if ell % ell1 in powers else p
            assert rec.f == expected_f, (p, ell1, ell)


def test_char_value_against_brute_dlog():
    # recompute the character by scanning all powers of the fixed generator
    for ext in (_ext(3, [7, 13], [1, 2]), _ext(5, [11, 31], [1, 3]), _ext(3, [7], [1], wild=2)):
        p = ext.p
        for x in (2, 5, 11, 17, 191):
            if any(x % ell == 0 for ell in ext.tame_ramified) or (ext.wild_at_p and x % p == 0):
                continue
            total = 0
            for ell, exp in zip(ext.tame_ramified, ext.exponents):
                g = primitive_root(ell)
                dlog = next(t for t in range(ell - 1) if pow(g, t, ell) == x % ell)
                total += exp * (dlog % p)
            if ext.wild_at_p:
                p2 = p * p
                g = primitive_root(p2)
                dlog = next(t for t in range(p2 - p) if pow(g, t, p2) == x % p2)
                total += ext.wild_exponent * (dlog % p)
            assert _char_value(ext, x) == total % p


def test_splitting_structure_sweep():
    exts = [
        _ext(3, [7], [1]), _ext(3, [7, 13], [1, 2]), _ext(5, [11], [1]),
        _ext(3, [7], [1], wild=2),
    ]
    for ext in exts:
        p = ext.p
        for ell in sieve_primes(40):
            if ell == p or ell in ext.tame_ramified:
                continue
            rec = splitting(ext, ell)
            assert rec.e * rec.f * rec.g == p
            assert rec.e == 1
            m = cyclotomic_split_count(ell, p).m
            assert rec.w_count == p ** (m + 1)


def test_ramified_splitting():
    ext = _ext(3, [7], [1])
    rec = ramified_splitting(ext, 7)
    assert (rec.e, rec.f, rec.g) == (3, 1, 1)
    assert rec.e_cyc == 3
    assert rec.w_count == 1  # 7^2 - 1 has 3-valuation 1
    ext2 = _ext(3, [19], [1])
    assert ramified_splitting(ext2, 19).w_count == 3  # 19 = 1 mod 9


def test_splitting_errors():
    ext = _ext(3, [7], [1])
    with pytest.raises(ValueError):
        splitting(ext, 7)
    with pytest.raises(ValueError):
        splitting(ext, 3)
    with pytest.raises(ValueError):
        splitting(ext, 6)
    with pytest.raises(ValueError):
        ramified_splitting(ext, 11)
    wild_only = _ext(3, [], [], wild=1)
    with pytest.raises(ValueError):
        splitting(wild_only, 11)
    with pytest.raises(ValueError):
        ramified_splitting(wild_only, 11)


def test_splitting_record_validation():
    with pytest.raises(ValueError):
        SplittingRecord(ell=2, e=3, f=3, g=1, e_cyc=3, w_count=1)
    with pytest.raises(ValueError):
        SplittingRecord(ell=2, e=1, f=3, g=1, e_cyc=3, w_count=1)
    with pytest.raises(ValueError):
        SplittingRecord(ell=2, e=1, f=3, g=1, e_cyc=1, w_count=0)


def test_g_of_x_small():
    assert g_of_X(E99, 3, 6) == 0
    assert g_of_X(E99, 3, 7) == 1


def test_g_of_x_dual_algorithms():
    for bound in (7, 50, 100, 300, 600):
        primes = script_q_primes(E99, 3, bound)
        assert g_of_X(E99, 3, bound) == totals_sieve(primes, 3, [bound])[0]


def test_g_of_x_brute_subsets():
    bound = 600
    primes = script_q_primes(E99, 3, bound)
    total = 0
    for k in range(1, 4):
        for combo in itertools.combinations(primes, k):
            prod = 1
            for q in combo:
                prod *= q
            if prod <= bound:
                total += 2**(k - 1)
    # no product of four distinct such primes fits under 600
    assert g_of_X(E99, 3, bound) == total


def test_g_of_x_monotone():
    values = [g_of_X(E99, 3, x) for x in range(1, 130)]
    assert all(a <= b for a, b in zip(values, values[1:]))


# the dual-algorithm tests compare these two sums
def _product_sum_dfs(primes, p, bound):
    return sum(_product_weights_dfs(primes, p, bound).values())


def _product_sum_sieve(primes, p, bound):
    return sum(_product_weights_sieve(primes, p, bound).values())


def test_product_sum_helpers_agree_everywhere():
    primes = [ell for ell in sieve_primes(3000) if ell % 3 == 1]
    for bound in range(1, 3000, 7):
        assert _product_sum_dfs(primes, 3, bound) == _product_sum_sieve(primes, 3, bound)


def test_product_sum_helpers_agree_at_scale():
    primes = [ell for ell in sieve_primes(10**5) if ell % 3 == 1]
    for bound in (10**4, 10**5):
        assert _product_sum_dfs(primes, 3, bound) == _product_sum_sieve(primes, 3, bound)


_ONE_MOD = {p: [ell for ell in sieve_primes(5000) if ell % p == 1] for p in (3, 5, 7)}


@st.composite
def _weight_inputs(draw):
    p = draw(st.sampled_from(sorted(_ONE_MOD)))
    primes = draw(st.lists(st.sampled_from(_ONE_MOD[p]), unique=True, max_size=12))
    return sorted(primes), p, draw(st.integers(1, 5000))


@settings(max_examples=150, deadline=None)
@given(_weight_inputs())
@example(([], 3, 1000))  # no primes
@example(([7, 13], 3, 6))  # a bound below the first prime
@example(([7, 13, 19], 3, 7 * 13))  # a bound equal to a product
@example(([7, 13, 19], 3, 7 * 13 * 19))  # ... of every listed prime
@example(([11, 31, 41, 61], 5, 11 * 31 * 41 - 1))
def test_product_weight_tables_agree(inputs):
    # the whole tables, not only their sums: each key with its weight
    primes, p, bound = inputs
    assert _product_weights_dfs(primes, p, bound) == _product_weights_sieve(primes, p, bound)


def _grid_totals(weights, bounds):
    """Total weight of the keys <= each bound of an ascending list; every key is
    <= bounds[-1].  The oracle for the counting walks."""
    per_point = [0] * len(bounds)
    for key, w in weights.items():
        per_point[bisect.bisect_left(bounds, key)] += w
    return list(itertools.accumulate(per_point))


@st.composite
def _walk_inputs(draw):
    p = draw(st.sampled_from(sorted(_ONE_MOD)))
    primes = sorted(draw(st.lists(st.sampled_from(_ONE_MOD[p]), unique=True, max_size=12)))
    products = [prod for k in (1, 2, 3) for combo in itertools.combinations(primes[:6], k)
                if (prod := math.prod(combo)) <= 20000]
    point = st.one_of(st.integers(1, 5000), st.integers(1, p * p - 1),
                      *([st.sampled_from(products)] if products else []))
    return primes, p, sorted(draw(st.lists(point, min_size=1, max_size=6)))


@settings(max_examples=150, deadline=None)
@given(_walk_inputs())
@example(([], 3, [1000]))  # no primes
@example(([7, 13], 3, [6]))  # one point below the first prime
@example(([7, 13, 19], 3, [7, 13, 91, 1729]))  # every point a product
@example(([7, 13, 19], 3, [8, 8, 90, 91]))  # a repeated point and one just below a product
@example(([11, 31, 41, 61], 5, [24, 11 * 31 * 41 - 1]))
@example(([29, 43, 71], 7, [48, 29 * 43 * 71]))
def test_walk_totals_match_weight_tables(inputs):
    primes, p, bounds = inputs
    walk = _product_totals_dfs(primes, p, bounds)
    for build in (_product_weights_dfs, _product_weights_sieve):
        assert walk == _grid_totals(build(primes, p, bounds[-1]), bounds)
    assert totals_sieve(primes, p, bounds) == walk


@st.composite
def _conductor_bounds(draw):
    p = draw(st.sampled_from(sorted(_ONE_MOD)))
    wild = [p * p - 1, p * p, *(p * p * q for q in _ONE_MOD[p][:4])]
    point = st.one_of(st.integers(1, 3000), st.sampled_from(wild))
    return p, sorted(draw(st.lists(point, min_size=1, max_size=5)))


@settings(max_examples=100, deadline=None)
@given(_conductor_bounds())
@example((3, [8]))  # below p^2: no wild field yet
@example((3, [9]))  # the wild field alone
@example((3, [1, 8, 9, 63]))  # conductor 9 * 7 brings the wild place into a product
@example((5, [24, 25, 275]))
@example((7, [48, 49, 49 * 29 * 43]))
def test_m_totals_match_weight_tables(inputs):
    # conductor bounds; the weight tables take the discriminant bound
    p, bounds = inputs
    disc_bound = bounds[-1] ** (p - 1)
    totals = _m_totals(p, bounds)
    for method in ("dfs", "sieve"):
        assert totals == _grid_totals(_m_weights(p, disc_bound, method), bounds), method
    assert totals == m_totals_sieve(p, bounds)


def test_unknown_method_rejected_before_any_work(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("work started before checking the method")

    monkeypatch.setattr("iwakit.fields._primes_1_mod_2p", fail)
    monkeypatch.setattr("iwakit.fields._distinguished_primes", fail)
    calls = [
        lambda: g_steps(E99, 3, 600, method="bogus"),
        lambda: m_steps(3, 600, method="bogus"),
        lambda: m_steps(3, 1, method="bogus"),  # no field at all below 49
    ]
    for call in calls:
        with pytest.raises(ValueError, match="unknown method"):
            call()


@pytest.mark.parametrize("count", [
    lambda: g_of_X(E99, 3, 0),
    lambda: M_of_X(3, 0),
    lambda: g_steps(E99, 3, 0),
    lambda: m_steps(3, 0),
], ids=["g_of_X", "M_of_X", "g_steps", "m_steps"])
def test_counts_reject_bound_zero(count):
    with pytest.raises(ValueError, match="bound must be >= 1, got 0"):
        count()


def test_m_of_x_smallest_fields():
    assert M_of_X(3, 48) == 0
    assert M_of_X(3, 49) == 1
    assert M_of_X(3, 80) == 1
    assert M_of_X(3, 81) == 2  # the wild field of conductor 9
    assert M_of_X(5, 14640) == 0
    assert M_of_X(5, 14641) == 1  # conductor 11
    assert M_of_X(5, 5**8) == 2  # conductor 25 joins


def test_m_of_x_conductor_hundred():
    # conductors <= 100: eleven single tame primes, 7*13, plus wild 9 and 9*7
    assert M_of_X(3, 10**4) == 16
    assert m_totals_sieve(3, [100]) == [16]


def test_m_of_x_vs_direct_enumeration():
    for p, bound in ((3, 10**4), (3, 10**5), (5, 10**6)):
        max_f = 1
        while (max_f + 1) ** (p - 1) <= bound:
            max_f += 1
        pool = [ell for ell in sieve_primes(max_f) if ell % p == 1]
        total = 0
        for k in range(0, 4):
            for combo in itertools.combinations(pool, k):
                prod = 1
                for q in combo:
                    prod *= q
                if prod <= max_f and k > 0:
                    total += len(enumerate_extensions(p, combo))
                if prod * p * p <= max_f:
                    total += len(enumerate_extensions(p, combo, wild_at_p=True))
        sieve = m_totals_sieve(p, [max_f])[0]
        assert M_of_X(p, bound) == total == sieve


def test_m_of_x_monotone():
    values = [M_of_X(3, x) for x in range(1, 9100, 90)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_g_steps_pin_the_scalar_function():
    steps = g_steps(E99, 3, 700)
    assert steps == g_steps(E99, 3, 700, method="sieve")
    assert steps[0] == (7, 1)
    previous = 0
    for x, running in steps:
        assert g_of_X(E99, 3, x) == running
        assert g_of_X(E99, 3, x - 1) == previous
        previous = running
    assert g_of_X(E99, 3, 700) == steps[-1][1]


def test_m_steps_pin_the_scalar_function():
    steps = m_steps(3, 10**4)
    assert steps == m_steps(3, 10**4, method="sieve")
    assert steps[0] == (49, 1)
    assert steps[-1][1] == 16 == M_of_X(3, 10**4)
    previous = 0
    for x, running in steps:
        assert M_of_X(3, x) == running
        assert M_of_X(3, x - 1) == previous
        previous = running
    assert m_steps(3, 48) == ()
    assert m_steps(5, 100) == ()


def test_extension_record_shape():
    ext = _ext(3, [7, 13], [1, 2])
    rec = extension_record(ext)
    assert rec == {
        "p": 3, "tame_ramified": [7, 13], "wild_at_p": False,
        "exponents": [1, 2], "discriminant": 8281,
    }
    wild = _ext(3, [7], [1], wild=2)
    rec2 = extension_record(wild)
    assert rec2["exponents"] == [1, 2]
    assert rec2["discriminant"] == (7 * 9) ** 2
