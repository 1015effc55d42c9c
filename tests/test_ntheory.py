import functools
import math
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from iwakit.ntheory import (
    factorize,
    iroot,
    is_prime,
    is_squarefree,
    legendre,
    padic_valuation,
    primitive_root,
    sieve_primes,
)
from iwakit import ntheory
from iwakit.ntheory import _TRIAL_BOUND, _primes_1_mod_2p, _strong_lucas


def oracle_is_prime(n: int) -> bool:
    """Trial division up to sqrt, no shortcuts shared with the sieve."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def mult_order(a: int, m: int) -> int:
    """Multiplicative order of a modulo m, by repeated multiplication; requires
    gcd(a, m) = 1.  The oracle for primitive_root and for the splitting exponent
    of the cyclotomic tower."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    a %= m
    if math.gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit modulo {m}")
    k, x = 1, a
    while x != 1:
        x = x * a % m
        k += 1
    return k


def test_sieve_small_exact():
    assert sieve_primes(100) == tuple(n for n in range(101) if oracle_is_prime(n))


def test_sieve_counts():
    # pi(10^5) cross-checked against the trial-division oracle below;
    # pi(10^6) is the classical count.
    assert len(sieve_primes(10**5)) == 9592
    assert len(sieve_primes(10**6)) == 78498


def test_sieve_oracle_block():
    s = set(sieve_primes(3000))
    for n in range(3001):
        assert (n in s) == oracle_is_prime(n)


def test_flat_sieve_matches_is_prime_at_every_bound():
    # the odd-only sieve at both parities of the bound, at squares of
    # primes and just below them
    primes = [n for n in range(2001) if is_prime(n)]
    for bound in range(2, 2001):
        assert sieve_primes(bound) == tuple(q for q in primes if q <= bound), bound


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_odd_flags_give_the_primes_one_mod_p(p):
    # an odd ell = 1 mod p is 1 mod 2p, so every p-th flag is a candidate
    primes = sieve_primes(3000)
    for bound in range(2, 3001):
        got, prime_count = _primes_1_mod_2p(bound, p)
        assert got == tuple(ell for ell in primes if ell <= bound and ell % p == 1), bound
        assert prime_count == len(sieve_primes(bound)), bound
    assert _primes_1_mod_2p(1, p) == ((), 0)


def test_primes_one_mod_p_are_built_once_per_key():
    _primes_1_mod_2p.cache_clear()
    first = _primes_1_mod_2p(3000, 3)
    assert type(first[0]) is tuple
    assert _primes_1_mod_2p(3000, 3) is first
    assert _primes_1_mod_2p(3000, 5) is not first
    assert _primes_1_mod_2p.cache_info().hits == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6000))
@example(2_000_000)  # is_prime's Miller-Rabin bases against every n below 2*10^6
def test_segmented_sieve_matches_flat_and_is_prime(bound):
    assert sieve_primes(bound) == tuple(n for n in range(bound + 1) if is_prime(n))


def test_sieve_bound_validation():
    for bound in (-1, 0, 1):
        with pytest.raises(ValueError):
            sieve_primes(bound)


def test_is_prime_against_oracle():
    for n in range(2000):
        assert is_prime(n) == oracle_is_prime(n), n


def test_is_prime_large():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)
    # Carmichael numbers
    for n in (561, 1105, 41041, 825265):
        assert not is_prime(n)


# the least strong pseudoprime to the first k prime bases, for each row of
# is_prime's table of proven base sets (Jaeschke 1993; Sorenson-Webster 2015)
_PSEUDOPRIME_ROWS = [
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
]
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _strong_probable_prime(n: int, bases) -> bool:
    """Whether the odd n > 2 passes the strong (Miller-Rabin) test to every base."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _trial_division_6k(n: int) -> bool:
    """Primality by trial division to sqrt(n) with 2, 3 and 6k +- 1."""
    if n < 4:
        return n > 1
    if n % 2 == 0 or n % 3 == 0:
        return False
    for d in range(5, math.isqrt(n) + 1, 6):
        if n % d == 0 or n % (d + 2) == 0:
            return False
    return True


@pytest.mark.parametrize("bound, k", _PSEUDOPRIME_ROWS)
def test_is_prime_rejects_the_pseudoprime_that_bounds_each_row(bound, k):
    # the row's k bases alone would call its bound prime, so the row must end there
    assert _strong_probable_prime(bound, _PRIME_BASES[:k])
    assert not _trial_division_6k(bound)  # each has a prime factor below 1.1e7
    assert not is_prime(bound)


@pytest.mark.parametrize("bound", [b for b, _ in _PSEUDOPRIME_ROWS])
def test_is_prime_near_each_row_bound(bound):
    # trial division up to 3.4e14; at 3.8e18 it would take 2e9 divisions, so the
    # oracle there is the strong test to all 12 bases, proven below 3.18e23
    if bound < 10**15:
        oracle = _trial_division_6k
    else:
        oracle = functools.partial(_strong_probable_prime, bases=_PRIME_BASES)
    window = range(bound - 50, bound + 51)
    got = [is_prime(n) for n in window]
    assert got == [n % 2 == 1 and oracle(n) for n in window]
    assert any(got)


# psi_12 and psi_13: the least strong pseudoprimes to the first 12 and 13 prime
# bases (Sorenson-Webster 2015), and their factors
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_psi_12_and_psi_13_pass_every_miller_rabin_base_but_are_composite():
    assert PSI_12 == 399165290221 * 798330580441
    assert PSI_13 == 1287836182261 * 2575672364521
    for n in (PSI_12, PSI_13):
        assert _strong_probable_prime(n, _PRIME_BASES)


@pytest.mark.parametrize("n", [
    PSI_12,
    PSI_13,
    999999999989 * 999999999959,  # two 12-digit primes, past psi_12
    (2**89 - 1) ** 2,  # a square has no Selfridge D
])
def test_is_prime_rejects_composites_past_psi_12(n):
    assert n >= PSI_12 and not is_prime(n)


@pytest.mark.parametrize("n", [
    1000000000000000000000007,  # 10^24 + 7, 25 digits
    2**89 - 1,  # the Mersenne prime M89, 27 digits
    math.factorial(27) + 1,  # a factorial prime, 29 digits
    100000000000000000000000000319,  # the least prime above 10^29, 30 digits
    318665857834031151167483,  # the least prime above psi_12
])
def test_is_prime_accepts_primes_past_psi_12(n):
    assert n >= PSI_12 and is_prime(n)


def test_factorize_splits_psi_12():
    assert factorize(11 * PSI_12) == [(11, 1), (399165290221, 1), (798330580441, 1)]


def test_strong_lucas_runs_only_from_psi_12(monkeypatch):
    def fail(n):
        raise AssertionError(f"strong Lucas test at {n}")

    monkeypatch.setattr(ntheory, "_strong_lucas", fail)
    # the greatest prime below psi_12, and a sieved range
    assert is_prime(318665857834031151167441)
    assert [n for n in range(10**6, 10**6 + 200) if is_prime(n)] == [
        n for n in range(10**6, 10**6 + 200) if _trial_division_6k(n)]


def _strong_lucas_oracle(n: int) -> bool:
    """The strong Lucas test with Selfridge's parameters read off the definition:
    U_k and V_k by their recurrences, one index at a time, mod n."""
    D = 5
    # the Jacobi symbol (D/n), from the factorization of n
    while (symbol := math.prod(legendre(D, q) ** e for q, e in factorize(n))) != -1:
        if symbol == 0:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    us, vs = [0, 1], [2, 1]
    while len(us) <= n + 1:
        us.append((us[-1] - Q * us[-2]) % n)
        vs.append((vs[-1] - Q * vs[-2]) % n)
    return us[d] == 0 or any(vs[d * 2**r] == 0 for r in range(s))


def test_strong_lucas_against_the_definition():
    odd = [n for n in (*range(41, 2000, 2), *range(5451, 5781, 2)) if math.isqrt(n) ** 2 != n]
    assert [_strong_lucas(n) for n in odd] == [_strong_lucas_oracle(n) for n in odd]


def test_strong_lucas_pseudoprimes_below_1e5():
    # every odd prime passes, and the composites that pass are the strong Lucas
    # pseudoprimes of OEIS A217255
    odd = range(41, 10**5, 2)
    assert all(_strong_lucas(n) for n in odd if _trial_division_6k(n))
    assert [n for n in odd if not _trial_division_6k(n) and _strong_lucas(n)] == [
        5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439]


def test_legendre_against_squares():
    for ell in (3, 5, 7, 11, 13, 101):
        squares = {x * x % ell for x in range(1, ell)}
        for a in range(ell):
            want = 0 if a == 0 else (1 if a in squares else -1)
            assert legendre(a, ell) == want


def test_legendre_rejects_bad_modulus():
    for m in (2, 9, 15, 1):
        with pytest.raises(ValueError):
            legendre(3, m)


def test_padic_valuation():
    assert padic_valuation(48, 2) == 4
    assert padic_valuation(-8019, 3) == 6
    assert padic_valuation(-8019, 11) == 1
    assert padic_valuation(7, 5) == 0
    with pytest.raises(ValueError):
        padic_valuation(0, 3)


def test_mult_order():
    # orders in (Z/7)^*: 3 is a generator
    assert mult_order(3, 7) == 6
    assert mult_order(2, 7) == 3
    assert mult_order(6, 7) == 2
    assert mult_order(1, 7) == 1
    with pytest.raises(ValueError):
        mult_order(6, 9)


@given(st.integers(min_value=2, max_value=500), st.integers(min_value=-10**6, max_value=10**6))
def test_mult_order_divides_group_order(m, a):
    if math.gcd(a % m, m) != 1:
        return
    k = mult_order(a, m)
    assert pow(a, k, m) == 1
    # no smaller exponent works
    for d in range(1, k):
        if k % d == 0:
            assert pow(a, d, m) != 1 or d == k


def test_factorize():
    assert factorize(-8019) == [(3, 6), (11, 1)]
    assert factorize(1) == []
    assert factorize(97) == [(97, 1)]
    assert factorize(2**10 * 3**4 * 101) == [(2, 10), (3, 4), (101, 1)]
    with pytest.raises(ValueError):
        factorize(0)


@given(st.integers(min_value=1, max_value=10**6))
def test_factorize_reconstructs(n):
    prod = 1
    for q, e in factorize(n):
        assert oracle_is_prime(q)
        prod *= q**e
    assert prod == n


def _trial_division(n: int) -> list[tuple[int, int]]:
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


def _next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


@given(
    st.integers(min_value=1, max_value=10**4),
    st.integers(min_value=2**16, max_value=2**18).map(_next_prime),
    st.integers(min_value=2**16, max_value=2**34).map(_next_prime),
)
@settings(deadline=None, max_examples=40)
def test_factorize_two_large_primes_matches_trial_division(smooth, p, q):
    # both primes lie above 2^16, so the cofactor p*q reaches rho under any
    # trial bound up to 2^16; primes between the trial bound and 2^16 reach
    # rho too (test_factorize_primes_past_the_trial_bound)
    n = smooth * p * q
    assert factorize(n) == _trial_division(n)


_BAND_PRIME = st.integers(min_value=_TRIAL_BOUND + 1, max_value=2**16).map(_next_prime)


@given(
    st.sampled_from(["q^2", "q^3", "q1^2 q2", "smooth q"]),
    _BAND_PRIME,
    _BAND_PRIME,
    st.integers(min_value=1, max_value=10**4),
)
@settings(deadline=None, max_examples=60)
def test_factorize_primes_past_the_trial_bound(shape, q1, q2, smooth):
    # prime factors between the trial bound and 2^16 are split off by rho,
    # including repeated ones; _next_prime can step just past 2^16
    n = {"q^2": q1**2, "q^3": q1**3, "q1^2 q2": q1**2 * q2, "smooth q": smooth * q1}[shape]
    assert factorize(n) == _trial_division(n)


def test_factorize_gives_up_on_two_20_digit_primes():
    # rho would need about 1e10 steps; the step budget turns that into an error
    start = time.perf_counter()
    with pytest.raises(ValueError, match="cannot factor"):
        factorize(10000000000000000051 * 30000000000000000041)
    assert time.perf_counter() - start < 20.0


def test_is_squarefree():
    assert is_squarefree(1)
    assert is_squarefree(-15)
    assert not is_squarefree(12)
    assert not is_squarefree(0)


@given(st.integers(min_value=0, max_value=10**12), st.integers(min_value=1, max_value=6))
def test_iroot(n, k):
    r = iroot(n, k)
    assert r**k <= n < (r + 1) ** k


@given(st.integers(min_value=0, max_value=2**2000 - 1), st.integers(min_value=1, max_value=12))
def test_iroot_big(n, k):
    r = iroot(n, k)
    assert r**k <= n < (r + 1) ** k


def test_iroot_beyond_float_range():
    # a float guess overflows above about 1e308
    r = iroot(10**400, 12)
    assert r**12 <= 10**400 < (r + 1) ** 12
    assert iroot(10**408, 12) == 10**34


def test_primitive_root():
    assert primitive_root(7) == 3
    assert primitive_root(9) == 2
    assert primitive_root(25) == 2
    for m in (3, 5, 7, 11, 13, 9, 27, 25, 49, 121):
        g = primitive_root(m)
        phi = m - m // [q for q, _ in factorize(m)][0]
        assert mult_order(g, m) == phi
        # least such generator
        assert all(mult_order(c, m) < phi for c in range(2, g) if math.gcd(c, m) == 1)
    with pytest.raises(ValueError):
        primitive_root(8)
    with pytest.raises(ValueError):
        primitive_root(15)
