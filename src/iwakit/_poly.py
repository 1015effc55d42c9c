"""Dense polynomials as coefficient lists, lowest degree first: product,
difference and value over Z; trim, remainder, gcd and x^e mod m over F_q, q
prime.  The number of distinct roots of f in F_q is deg gcd(f, x^q - x)
(Cohen, GTM 138, 3.4), which Tate's cubic reads through _gcd; the psi_3
kernel takes its gcd in closed form (counting._quartic_gcd), and the tests
check that against _gcd.  Every name is private, so a tracer that wraps the
package's public functions adds no spans here."""

from __future__ import annotations


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _sub(a: list[int], b: list[int]) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _value(coeffs: list[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _trim(a: list[int], q: int) -> list[int]:
    """a reduced mod q, without zero leading coefficients ([] for zero)."""
    a = [c % q for c in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def _rem(a: list[int], b: list[int], q: int) -> list[int]:
    """a mod b over F_q; b has a leading coefficient prime to q."""
    a = list(a)
    lead = pow(b[-1], -1, q)
    while len(a) >= len(b):
        if a[-1] % q == 0:
            a.pop()
            continue
        f = a[-1] * lead % q
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - f * c) % q
        a.pop()
    return _trim(a, q)


def _gcd(a: list[int], b: list[int], q: int) -> list[int]:
    """A gcd of a and b over F_q, not made monic ([] when both are zero).
    Both inputs are reduced mod q with no zero leading coefficient, as _trim
    leaves them.  _gcd owns both lists: it overwrites them with the remainders
    and returns one of them, a itself when b is zero, so callers pass fresh
    lists."""
    while b:  # a mod b in place, then swap, until b is zero
        d = len(b) - 1
        inv = pow(b[-1], -1, q)
        for k in range(len(a) - 1, d - 1, -1):
            c = a[k] * inv % q
            if c:
                for j in range(d):
                    a[k - d + j] = (a[k - d + j] - c * b[j]) % q
        del a[d:]
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return a


def _x_pow_mod(e: int, m: list[int], q: int) -> list[int]:
    """x^e mod m over F_q, by square-and-multiply."""
    result, base = [1], [0, 1]
    while e:
        if e & 1:
            result = _rem(_mul(result, base), m, q)
        base = _rem(_mul(base, base), m, q)
        e >>= 1
    return result
