"""Prime sieves, modular arithmetic and valuations on plain integers.

Everything here is exact bigint arithmetic; no floating point.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

__all__ = [
    "sieve_primes",
    "is_prime",
    "check_odd_prime",
    "legendre",
    "padic_valuation",
    "is_squarefree",
    "factorize",
    "iroot",
    "primitive_root",
]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# (B, bases): the first k bases of _MR_BASES prove every n < B.  Each B is the
# least strong pseudoprime to those k bases (Jaeschke 1993, Math. Comp. 61;
# Sorenson-Webster 2015, Math. Comp. 86); all 12 prove n < 3.18e23.
_MR_BOUNDS = tuple((bound, _MR_BASES[:k]) for bound, k in (
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
))
# psi_12, the least strong pseudoprime to all 12 bases (Sorenson-Webster 2015):
# from here on a strong Lucas test joins them (BPSW; Baillie-Wagstaff 1980)
_MR_PROVEN = 318_665_857_834_031_151_167_461


def is_prime(n: int) -> bool:
    """Trial division by the primes 2..37, which proves n < 41^2 = 1681; above
    that, Miller-Rabin to the first k bases 2, 3, 5, ..., with k read from the
    proven bounds of ``_MR_BOUNDS`` (Jaeschke 1993; Sorenson-Webster 2015):
    bases 2 and 3 below 1,373,653, ..., all 12 below 3.18e23.  From 3.18e23
    on, all 12 bases and a strong Lucas test make a Baillie-PSW test, which
    no known composite passes: the answer there is probable, not proven."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n < 1681:  # 41^2: a composite below it has a prime factor up to 37
        return True
    bases = _MR_BASES
    for bound, proven in _MR_BOUNDS:
        if n < bound:
            bases = proven
            break
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_PROVEN or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n > 37 with Selfridge's
    parameters (Baillie-Wagstaff 1980, Math. Comp. 35): D the first of
    5, -7, 9, -11, ... with (D/n) = -1, P = 1 and Q = (1 - D)/4.  With
    n + 1 = d 2^s, d odd, n passes when U_d = 0 or V_(d 2^r) = 0 mod n for
    some 0 <= r < s.  A square n has no such D and is rejected first."""
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:  # gcd(D, n) > 1, and |D| < n
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # (U, V, Q^k) at k = 1, then k = 2k or 2k + 1 per bit of d below the top
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            # U_(k+1) = (U + V)/2 and V_(k+1) = (D U + V)/2; n is odd, so
            # adding n to an odd residue makes the halving exact
            U, V = (U + V) % n, (D * U + V) % n
            U, V = (U + n * (U & 1)) // 2, (V + n * (V & 1)) // 2
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def check_odd_prime(p: int) -> None:
    if p == 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")


def _odd_flags(bound: int) -> bytearray:
    """Flag i is 1 exactly when the odd number 2i + 1 <= bound is prime; bound >= 1."""
    # q^2, q^2 + 2q, ... sit q apart from index q^2 // 2
    size = (bound + 1) // 2
    flags = bytearray([1]) * size
    flags[0] = 0
    for i in range(1, (math.isqrt(bound) + 1) // 2):
        if flags[i]:
            q = 2 * i + 1
            flags[q * q // 2 :: q] = bytes(len(range(q * q // 2, size, q)))
    return flags


# the keys of a p = 3 and p = 5 density report pair: each grid's top, and
# the top conductor of each M table
@lru_cache(maxsize=4)
def _primes_1_mod_2p(bound: int, p: int) -> tuple[tuple[int, ...], int]:
    """The primes = 1 mod p up to bound, ascending, and pi(bound); p is an
    odd prime.  Neither depends on a curve, so a process builds them once per
    (bound, p), and every caller at that key gets the same tuple."""
    if bound < 2:
        return (), 0
    flags = _odd_flags(bound)
    # an odd ell = 1 mod p is 1 mod 2p, so its flag index (ell - 1) / 2 is 0
    # mod p: only every p-th flag is read; pi(bound) counts 2 too
    return tuple(itertools.compress(range(1, bound + 1, 2 * p), flags[::p])), 1 + flags.count(1)


def sieve_primes(bound: int) -> tuple[int, ...]:
    """Primes <= bound, ascending."""
    if bound < 2:
        raise ValueError(f"sieve bound must be >= 2, got {bound}")
    return (2, *itertools.compress(range(1, bound + 1, 2), _odd_flags(bound)))


def legendre(a: int, ell: int) -> int:
    """Legendre symbol (a/ell) in {-1, 0, 1} by Euler's criterion.

    ell must be an odd prime.
    """
    if ell == 2 or not is_prime(ell):
        raise ValueError(f"legendre modulus must be an odd prime, got {ell}")
    a %= ell
    if a == 0:
        return 0
    r = pow(a, (ell - 1) // 2, ell)
    return 1 if r == 1 else -1


def padic_valuation(n: int, p: int) -> int:
    """Largest v with p^v | n.  n must be nonzero."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    if p < 2:
        raise ValueError(f"valuation base must be >= 2, got {p}")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _is_p_power(n: int, p: int) -> bool:
    """Whether n is p^k for some k >= 0; p >= 2."""
    if n < 1:
        return False
    while n % p == 0:
        n //= p
    return n == 1


# trial division stops here; a cofactor below its square is then 1 or prime
_TRIAL_BOUND = 1 << 10
# steps one rho call may take: enough for a second-largest prime factor up to
# about 1e11, while a harder n fails in bounded time
_RHO_STEPS = 1 << 20


def factorize(n: int) -> list[tuple[int, int]]:
    """Factorization of |n| as [(prime, exponent), ...] in increasing order.

    Trial division runs up to _TRIAL_BOUND = 2^10: rho finds a prime q above
    it in about sqrt(q) steps against q/3 for the wheel, and bounds of 2^8 to
    2^10 were fastest on small curves' discriminants (scripts/count_bands.py).
    A composite cofactor left over is split by Pollard rho with Brent's
    cycle search (Brent 1980), whose running time grows with the square root
    of the second-largest prime factor.  A cofactor that rho
    cannot split within _RHO_STEPS steps raises ValueError ("cannot factor").
    Factors from 3.18e23 on are Baillie-PSW probable primes (is_prime).
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out: list[tuple[int, int]] = []
    for q in (2, 3):
        e = 0
        while n % q == 0:
            n //= q
            e += 1
        if e:
            out.append((q, e))
    q = 5
    step = 2
    limit = min(math.isqrt(n), _TRIAL_BOUND)
    while q <= limit:
        if n % q == 0:
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            out.append((q, e))
            limit = min(math.isqrt(n), _TRIAL_BOUND)
        q += step
        step = 6 - step  # 5, 7, 11, 13, ... wheel
    if q * q > n:
        if n > 1:
            out.append((n, 1))
        return out
    # every prime factor left exceeds the trial bound, so the order is kept
    exponents: dict[int, int] = {}
    pending = [n]
    while pending:
        m = pending.pop()
        if is_prime(m):
            exponents[m] = exponents.get(m, 0) + 1
        else:
            d = _rho_divisor(m)
            pending += [d, m // d]
    return out + sorted(exponents.items())


def _rho_divisor(n: int) -> int:
    """A proper divisor of an odd composite n (Pollard rho, Brent's variant).

    Products of |x - y| are batched 128 steps to a gcd; a batch that
    overshoots to n is replayed one step at a time, and a walk that still
    gives n restarts with the next constant c of x -> x^2 + c.  Raises
    ValueError once the walks have taken more than _RHO_STEPS steps.
    """
    c, steps = 1, 0
    while True:
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if steps > _RHO_STEPS:
                raise ValueError(f"cannot factor {n}: Pollard rho found no divisor "
                                 f"in {_RHO_STEPS} steps")
            steps += 2 * r
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        c += 1


def is_squarefree(n: int) -> bool:
    if n == 0:
        return False
    return all(e == 1 for _, e in factorize(n))


def primitive_root(m: int) -> int:
    """Least generator of (Z/m)* for m an odd prime or odd prime power."""
    facts = factorize(m)
    if len(facts) != 1 or facts[0][0] == 2:
        raise ValueError(f"{m} is not an odd prime power")
    q, k = facts[0]
    phi = q ** (k - 1) * (q - 1)
    checks = [phi // f for f, _ in factorize(phi)]
    for c in range(2, m):
        if c % q == 0:
            continue
        if all(pow(c, e, m) != 1 for e in checks):
            return c
    raise AssertionError(f"no generator below {m}")


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0."""
    if n < 0 or k < 1:
        raise ValueError("iroot needs n >= 0, k >= 1")
    if n == 0:
        return 0
    # integer Newton from above: the start 2^ceil(bits/k) exceeds the root,
    # and the iterates fall monotonically until they reach the floor
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y
