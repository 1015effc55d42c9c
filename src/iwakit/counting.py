"""Point counts of reduced curves over F_ell and its extensions, plus a
per-curve trace cache.

Counts always refer to the good reduction of the curve, i.e. the reduction of
a model minimal at ell.  Naive enumeration, O(ell), counts through ell = 229,
reading the integer values of the cubic, which each model computes once, and
a square-root table per ell, built once; above it the Shanks-Mestre
baby-step/giant-step search takes over (Cohen, A Course in Computational
Algebraic Number Theory, 7.4.3).  Three facts make
it correct: an exact (x, y) match between a giant and a baby step proves
n*P = O, so no match is re-checked; the annihilators
of a point in the Hasse interval are found completely, so the order N is one
of them and N' = 2(ell + 1) - N one of each twist point's; and for
ell > 229 (Mestre; Schoof 1995, Thm 3.2) the curve or its quadratic twist has
a point with a single annihilator there, so the candidates come down to one.
Below 229 the search need not stop, and count_points counts naively.  No
square root is taken: each draw is a point (xg, g^2) on the twist by g.
When the discriminant of the cubic is not a square mod ell, the cubic has one
root, so #E and #E' are both even: a draw P then searches the annihilators of
2P over the halved Hasse interval and doubles them (Cohen 7.4.3), which keeps
the answer complete.  Each answer is a range, the multiples of the point's
order in the interval, so a point of small order d costs no list of its
about 4 sqrt(ell) / d annihilators: ranges meet, double and mirror by
arithmetic.  An ell past BSGS_BUDGET is refused before any work.

Where only whether 3 divides #E(F_ell) is wanted, as in the density scan,
report's class counts and the P2 witness of kida at p = 3, _three_divides
answers at every good ell > 229, in both classes mod 3: Schoof's mod-3 step
reads the bit off gcd(x^ell - x, psi_3), and the trace cache stores it as a
code, not a_ell.  _quartic_gcd takes that gcd in straight-line code, Euclid's
steps in closed form for the depressed quartic psi_3 / 3, with no lists.

Primality is checked at the public entries: count_points, count_points_naive,
count_points_bsgs, trace_of_frobenius and TraceCache.traces raise ValueError
for an ell that is not prime.  The trace cache counts through the private
_count_points, which takes ell as proven (a sieved prime, or one classify has
checked) and checks only for bad reduction.
"""

from __future__ import annotations

import bisect
import math
import os
import sys
from array import array
from functools import partial
from itertools import islice
from pathlib import Path

from ._record import _frozen
from .elliptic import BadReductionError, WeierstrassModel, _kept, format_model, minimal_model
from .ntheory import is_prime, sieve_primes

__all__ = [
    "FrobeniusData",
    "count_points",
    "count_points_naive",
    "count_points_bsgs",
    "order_over_extension",
    "trace_of_frobenius",
    "TraceCache",
]

# Mestre (Schoof 1995, Thm 3.2): for ell > 229, E or its quadratic twist has a
# point whose order has exactly one multiple in the Hasse interval
_MESTRE_BOUND = 229
# BSGS takes about ell^(1/4) steps and baby-table entries: about 3-5 s and
# 80 MB below 10^22, and 1.8 times more per digit past it, so a larger ell
# is refused before any work (README, "Command line", has the timing table)
BSGS_BUDGET = 10**22


def _good_model_at(model: WeierstrassModel, ell: int) -> WeierstrassModel:
    if model.disc % ell != 0:
        return model
    mm, _ = minimal_model(model)
    if mm.disc % ell != 0:
        return mm
    raise BadReductionError(f"bad reduction at {ell}")


def _eta(w: WeierstrassModel, m: int, start: int, stop: int) -> list[int]:
    """eta(x) = 4x^3 + b2 x^2 + 2b4 x + b6 at start <= x < stop.  A coefficient
    larger than m is reduced mod m first, which keeps eta(x) mod every ell
    dividing m."""
    b2, c1, b6 = (c % m if abs(c) > m else c for c in (w.b2, 2 * w.b4, w.b6))
    return [((4 * x + b2) * x + c1) * x + b6 for x in range(start, stop)]


def _sqrt_counts(ell: int) -> bytes:
    """Slot v holds the number of y in F_ell with y^2 = v."""
    sq = bytearray(ell)
    for t in range(1, (ell + 1) // 2):
        sq[t * t % ell] = 2
    sq[0] = 1
    return bytes(sq)


# A model keeps eta(x) for x = 0, 1, ..., which holds a residue system mod each
# ell <= 229 it has counted, with coefficients reduced mod the product of the
# odd ell <= 229: at most 229 values, and a model counted at one small ell
# evaluates few.  One square-root table is kept per odd ell <= 229.  Larger
# ell build both per call.
_ETA_MOD = math.prod(sieve_primes(_MESTRE_BOUND)[1:])
_SQRT_COUNTS: dict[int, bytes] = {}


def count_points_naive(model: WeierstrassModel, ell: int) -> int:
    """#E(F_ell) by direct enumeration, including the point at infinity.

    At odd ell it counts the y-solutions of the completed square eta^2 =
    4x^3 + b2 x^2 + 2b4 x + b6 over 0 <= x < ell, one lookup in a table of
    square-root counts per x.  For ell <= 229 the good model keeps the
    integer values of eta, each computed once, and the table is built once
    per ell; above 229 both are built for the call only.
    """
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    return _count_naive(model, ell)


def _count_naive(model: WeierstrassModel, ell: int) -> int:
    """count_points_naive at an ell the caller knows to be prime."""
    w = _good_model_at(model, ell)
    if ell == 2:
        a1, a2, a3, a4, a6 = w.coefficients()
        return 1 + sum((y * y + a1 * x * y + a3 * y - (x**3 + a2 * x * x + a4 * x + a6)) % 2 == 0
                       for x in (0, 1) for y in (0, 1))
    if ell <= _MESTRE_BOUND:
        sq = _SQRT_COUNTS.get(ell) or _SQRT_COUNTS.setdefault(ell, _sqrt_counts(ell))
        eta = _kept(w, "_eta", list)
        if len(eta) < ell:  # grow by doubling: an ascending walk extends it 8 times
            eta += _eta(w, _ETA_MOD, len(eta), min(max(ell, 2 * len(eta)), _MESTRE_BOUND))
        values = eta[:ell]
    else:
        sq, values = _sqrt_counts(ell), _eta(w, ell, 0, ell)
    return 1 + sum([sq[v % ell] for v in values])


# -- baby-step/giant-step ----------------------------------------------------


def _ec_mul(n, p, a, ell):
    """n*P on y^2 = x^3 + ax + b over F_ell (None is O), by one right-to-left
    double-and-add loop: (x, y) runs through 2^i P and (u, v) holds the sum."""
    if p is None or n == 0:
        return None
    x, y = p
    if n < 0:
        n, y = -n, -y % ell
    u = v = None
    while True:
        if n & 1:
            if u is None:
                u, v = x, y
            elif u != x:
                lam = (y - v) * pow(x - u, -1, ell) % ell
                w = (lam * lam - u - x) % ell
                u, v = w, (lam * (u - w) - v) % ell
            elif (v + y) % ell:  # the same point: double it
                lam = (3 * u * u + a) * pow(2 * v, -1, ell) % ell
                w = (lam * lam - 2 * u) % ell
                u, v = w, (lam * (u - w) - v) % ell
            else:  # opposite points
                u = None
        n >>= 1
        if not n or y == 0:  # every further 2^i P is O
            return None if u is None else (u, v)
        lam = (3 * x * x + a) * pow(2 * y, -1, ell) % ell
        w = (lam * lam - 2 * x) % ell
        x, y = w, (lam * (x - w) - y) % ell


def _multiples(d, lo, hi):
    return range(lo + (-lo) % d, hi + 1, d)


def _meet(a, b):
    """The n in both ranges.  Each holds every n = r mod d in the Hasse
    interval, d the order of its point, or at most one n: so their common
    n recur every lcm of the two steps, and the first lies within that
    many steps of the shorter one's start (Chinese remainders)."""
    if len(a) > len(b):
        a, b = b, a
    k = math.lcm(a.step, b.step) // abs(a.step)
    i = next((i for i, n in enumerate(a[:k]) if n in b), None)
    return range(0) if i is None else a[i::k]


def _bsgs_annihilators(p, a, ell, lo, hi):
    """All n in [lo, hi] with n*P = O on y^2 = x^3 + ax + b, as an ascending
    range: the multiples of the order of P there.

    Baby steps jP (1 <= j <= m) are keyed by x, so one lookup matches +-jP.
    A point of order d <= 2m - 1 shows itself as the first repeated x, jP =
    -iP with i + j = d (if y(jP) = 0, then (j+1)P = -(j-1)P a step later),
    and the answer is the multiples of d.  Otherwise d > 2m - 1 = s, the
    points +-jP (j < m) are distinct and none has y = 0, so the blocks
    ks - (m-1) .. ks + (m-1) around the giant steps ksP hold one annihilator
    at most, matched by the baby step with x(ksP); an exact (x, y) match
    proves n*P = O.  So the answer is complete, which Mestre's early stop in
    count_points_bsgs relies on.  As a range it costs no memory when the
    order is small and there are about 4 sqrt(ell) / d multiples.
    """
    if p is None:
        return range(lo, hi + 1)
    px, py = p
    if py == 0:
        return _multiples(2, lo, hi)
    m = max(2, math.isqrt((hi - lo) // 2) + 1)
    baby = {px: 1}
    ys = [0, py]
    # (x, y) = jP, starting from 2P by the tangent
    lam = (3 * px * px + a) * pow(2 * py, -1, ell) % ell
    x = (lam * lam - 2 * px) % ell
    y = (lam * (px - x) - py) % ell
    lx, ly = px, py
    for j in range(2, m + 1):
        i = baby.get(x)
        if i is not None:  # jP = -iP: jP = iP would have met O first
            return _multiples(i + j, lo, hi)
        if j == m:
            break
        baby[x] = j
        ys.append(y)
        # (j+1)P = jP + P by the chord: x != px, as px is a key of baby
        lx, ly = x, y
        lam = (ly - py) * pow(lx - px, -1, ell) % ell
        x = (lam * lam - lx - px) % ell
        y = (lam * (lx - x) - ly) % ell
    # the stride (2m - 1)P = mP + (m-1)P, and x(mP) != x((m-1)P)
    lam = (y - ly) * pow(x - lx, -1, ell) % ell
    sx = (lam * lam - x - lx) % ell
    sy = (lam * (x - sx) - y) % ell
    stride = (sx, sy)
    # blocks centred on the multiples of the stride s tile the integers; start
    # at the first block that reaches lo, so the scalar is about ell / s
    s = 2 * m - 1
    k = -((m - 1 - lo) // s)
    out = []
    g = _ec_mul(k, stride, a, ell)
    gx, gy = (-1, 0) if g is None else g  # gx = -1 stands for O
    for base in range(k * s, hi + m, s):
        j = baby.get(gx)
        if j is not None:
            n = base - j if gy == ys[j] else base + j
            if lo <= n <= hi:
                out.append(n)
        elif gx < 0 and lo <= base <= hi:
            out.append(base)
        # g += stride
        if gx != sx and gx >= 0:
            lam = (sy - gy) * pow(sx - gx, -1, ell) % ell
            x = (lam * lam - gx - sx) % ell
            gx, gy = x, (lam * (gx - x) - gy) % ell
        elif gx < 0:
            gx, gy = sx, sy
        elif (gy + sy) % ell:  # g = stride: double it
            lam = (3 * sx * sx + a) * pow(2 * sy, -1, ell) % ell
            x = (lam * lam - 2 * sx) % ell
            gx, gy = x, (lam * (sx - x) - sy) % ell
        else:  # g = -stride
            gx = -1
    if len(out) < 2:  # at most one multiple of the order lies in [lo, hi]
        return range(out[0], out[0] + 1) if out else range(0)
    return range(out[0], out[-1] + 1, out[1] - out[0])


def count_points_bsgs(model: WeierstrassModel, ell: int) -> int:
    """#E(F_ell) by Shanks-Mestre baby-step/giant-step; ell must be a prime
    in (229, BSGS_BUDGET].

    E is y^2 = x^3 + Ax + B, (A, B) = WeierstrassModel.short.  At x = 0, 1, ...
    with g = x^3 + Ax + B != 0, (xg, g^2) lies on y^2 = X^3 + Ag^2 X + Bg^3,
    the twist by g: E when g is a square, its quadratic twist E' when not, so
    one Euler test and no square root make a draw; a root x of g gives (x, 0)
    on E.  The order N of E(F_ell) lies in every E point's annihilator set in
    the Hasse interval, and 2(ell + 1) - N in every E' point's; their
    intersection shrinks until one candidate is left, whatever the draw
    order.  Mestre's theorem (Schoof 1995, Thm 3.2) makes this terminate:
    above 229, E or E' has a point whose order has exactly one multiple in
    the interval.

    When the discriminant -4A^3 - 27B^2 of the cubic is not a square mod ell,
    the cubic has exactly one root, so E and E' each have one point of order
    2 and N and N' are both even.  A draw P then keeps only its even
    annihilators: twice those of 2P in the halved interval, which is searched
    in about 1/sqrt(2) of the steps.  The list stays complete and holds N (or
    N'), so Mestre's lone candidate still ends the search.
    """
    if ell <= _MESTRE_BOUND or not is_prime(ell):
        raise ValueError(f"count_points_bsgs needs a prime ell > {_MESTRE_BOUND}, got {ell}")
    return _count_bsgs(model, ell)


def _count_bsgs(model: WeierstrassModel, ell: int) -> int:
    """count_points_bsgs at an ell > 229 the caller knows to be prime."""
    if ell > BSGS_BUDGET:
        raise ValueError(f"ell {ell} exceeds the BSGS budget {BSGS_BUDGET}")
    A, B = _good_model_at(model, ell).short
    a, b = A % ell, B % ell
    t = math.isqrt(4 * ell)
    lo, hi = ell + 1 - t, ell + 1 + t
    half, mirror = (ell - 1) // 2, 2 * (ell + 1)
    # Euler's criterion on the cubic's discriminant, nonzero at a good ell
    even = pow(-4 * a * a * a - 27 * b * b, half, ell) != 1
    inv2 = (ell + 1) // 2
    cands = None
    for x in range(128):  # distinct x, as ell > 229
        g = ((x * x + a) * x + b) % ell
        if g == 0:
            anns = _bsgs_annihilators((x, 0), a, ell, lo, hi)
        else:
            g2 = g * g % ell
            px = x * g % ell
            if even:
                # 2P by the tangent, of slope (3x^2 g^2 + a g^2) / 2g^2: no inverse
                lam = (3 * x * x + a) * inv2 % ell
                qx = (lam * lam - 2 * px) % ell
                halved = _bsgs_annihilators(
                    (qx, (lam * (px - qx) - g2) % ell), a * g2 % ell, ell, (lo + 1) // 2, hi // 2)
                anns = range(2 * halved.start, 2 * halved.stop, 2 * halved.step)
            else:
                anns = _bsgs_annihilators((px, g2), a * g2 % ell, ell, lo, hi)
            if pow(g, half, ell) != 1:  # Euler's criterion: the draw is on E'
                anns = range(mirror - anns.start, mirror - anns.stop, -anns.step)
        cands = anns if cands is None else _meet(cands, anns)
        if len(cands) == 1:
            return cands[0]
    raise AssertionError(f"group order at {ell} not pinned down")


# -- 3 | #E(F_ell) from the 3-division polynomial ----------------------------


def _mul_mod_quartic(u, v, e0, e1, e2, ell):
    """u v modulo x^4 - e2 x^2 - e1 x - e0 over F_ell; residues are their
    coefficients (c0, c1, c2, c3), lowest first."""
    u0, u1, u2, u3 = u
    v0, v1, v2, v3 = v
    # fold x^6, x^5, x^4 down in turn: x^(k+4) = x^k (e2 x^2 + e1 x + e0)
    s6 = u3 * v3 % ell
    s5 = (u2 * v3 + u3 * v2) % ell
    s4 = (u1 * v3 + u2 * v2 + u3 * v1 + e2 * s6) % ell
    s3 = u0 * v3 + u1 * v2 + u2 * v1 + u3 * v0 + e1 * s6 + e2 * s5
    s2 = u0 * v2 + u1 * v1 + u2 * v0 + e0 * s6 + e1 * s5 + e2 * s4
    s1 = u0 * v1 + u1 * v0 + e0 * s5 + e1 * s4
    return (u0 * v0 + e0 * s4) % ell, s1 % ell, s2 % ell, s3 % ell


def _quartic_gcd(e0, e1, e2, c0, c1, c2, c3, ell):
    """(d, x0): d is the degree of gcd(f, c) over F_ell, for the depressed
    quartic f = x^4 - e2 x^2 - e1 x - e0 and c = c0 + c1 x + c2 x^2 + c3 x^3,
    all coefficients reduced mod ell; x0 is the root when d = 1, else None.
    With c = x^ell - x mod f, d counts the distinct roots of f in F_ell.

    Euclid's steps in closed form, each divisor made monic by one inversion:
    f mod c when c is a cubic or a quadratic, then c mod that remainder when
    it is a quadratic, until a remainder r1 x + r0 of degree <= 1 is left
    beside a monic divisor u.  Then the gcd is u when r1 = r0 = 0, 1 when
    r1 = 0 != r0, and x - x0 with x0 = -r0/r1 exactly when u(x0) = 0.
    """
    if c3:  # f mod c by x^3 = -a x^2 - b x - k
        inv = pow(c3, -1, ell)
        a, b, k = c2 * inv % ell, c1 * inv % ell, c0 * inv % ell
        q2, q1, q0 = (a * a - b - e2) % ell, (a * b - k - e1) % ell, (a * k - e0) % ell
        if q2:  # c mod (f mod c) by x^2 = -s x - t
            inv = pow(q2, -1, ell)
            s, t = q1 * inv % ell, q0 * inv % ell
            r1, r0 = (s * s - t - a * s + b) % ell, (s * t - a * t + k) % ell
            degree, u = 2, (t, s)
        else:
            r1, r0 = q1, q0
            degree, u = 3, (k, b, a)
    elif c2:  # f mod c by x^2 = -s x - t, so x^4 = (2st - s^3) x + t^2 - s^2 t
        inv = pow(c2, -1, ell)
        s, t = c1 * inv % ell, c0 * inv % ell
        r1 = (2 * s * t - s * s * s + e2 * s - e1) % ell
        r0 = (t * t - s * s * t + e2 * t - e0) % ell
        degree, u = 2, (t, s)
    elif c1:
        r1, r0 = c1, c0
        degree, u = 4, (-e0, -e1, -e2, 0)
    else:  # c is a constant: f itself when it is 0, else a unit
        return (0, None) if c0 else (4, None)
    if not r1:
        return (0, None) if r0 else (degree, None)
    x0 = -r0 * pow(r1, -1, ell) % ell
    value = 1  # u(x0), u monic of the given degree
    for coeff in reversed(u):
        value = value * x0 + coeff
    return (1, x0) if value % ell == 0 else (0, None)


def _three_divides(A: int, B: int, ell: int) -> bool:
    """Whether 3 divides #E(F_ell) for E: y^2 = x^3 + Ax + B, read off the
    3-division polynomial alone (Schoof's mod-l step at l = 3).  ell is a prime
    >= 5 at which E has good reduction, in either class mod 3.

    The roots of psi_3 / 3 = x^4 + 2Ax^2 + 4Bx - A^2/3 are the x of the four
    pairs +-P of nonzero 3-torsion points, one per line of E[3], and
    gcd(x^ell - x, psi_3) has one root per line that Frobenius fixes.  Its
    determinant on E[3] is ell mod 3.

    At ell = 1 mod 3, Frobenius lies in SL_2(F_3), and its image in
    PSL_2(F_3) = A_4 fixes 0, 1 or 4 of the lines, so the gcd has degree 0, 1
    or 4:
    - 0: no pair is fixed, so no point of order 3 is rational;
    - 1: Frobenius fixes the pair over the root x0.  It is +1 on P = (x0, y0),
      a rational point of order 3, exactly when f(x0) = x0^3 + Ax0 + B is a
      square; otherwise it is -1 there and, of determinant 1, has no
      eigenvalue 1;
    - 4: Frobenius is +I or -I, so f^((ell-1)/2) mod psi_3 is the constant +1
      (every point of E[3] is rational) or -1 (none is).

    At ell = 2 mod 3, Frobenius has determinant -1 and characteristic
    polynomial x^2 - tx - 1, and #E(F_ell) = det(1 - Frobenius) = -t mod 3.
    At t = 0 it is x^2 - 1 = (x - 1)(x + 1): Frobenius is diag(1, -1), which
    fixes its two eigenlines and swaps the other two, so the gcd has degree
    2 and 3 divides #E(F_ell).  At t = +-1, x^2 -+ x - 1 has no root in F_3:
    Frobenius fixes no line, the gcd has degree 0 and 3 does not divide
    #E(F_ell).

    Any other degree, or a degree-4 power that is not +-1, would mean ell
    breaks these premises, and raises AssertionError.
    """
    a, b = A % ell, B % ell
    # x^4 = e2 x^2 + e1 x + e0 modulo psi_3 / 3
    e2, e1, e0 = -2 * a % ell, -4 * b % ell, a * a * pow(3, -1, ell) % ell
    # x^ell, left to right over the bits of ell: h = x after the top bit, then
    # h -> h^2 per bit and h -> h x per bit set, unrolled as in _mul_mod_quartic
    h0, h1, h2, h3 = 0, 1, 0, 0
    for bit in bin(ell)[3:]:
        s6 = h3 * h3 % ell
        s5 = 2 * h2 * h3 % ell
        s4 = (h2 * h2 + 2 * h1 * h3 + e2 * s6) % ell
        s3 = 2 * (h0 * h3 + h1 * h2) + e1 * s6 + e2 * s5
        s2 = h1 * h1 + 2 * h0 * h2 + e0 * s6 + e1 * s5 + e2 * s4
        s1 = 2 * h0 * h1 + e0 * s5 + e1 * s4
        s0 = h0 * h0 + e0 * s4
        if bit == "1":  # the shift by x folds the x^3 coefficient down
            s3 %= ell
            h0, h1, h2, h3 = e0 * s3 % ell, (s0 + e1 * s3) % ell, (s1 + e2 * s3) % ell, s2 % ell
        else:
            h0, h1, h2, h3 = s0 % ell, s1 % ell, s2 % ell, s3 % ell
    roots, x0 = _quartic_gcd(e0, e1, e2, h0, (h1 - 1) % ell, h2, h3, ell)  # x^ell - x
    if ell % 3 == 2:  # Frobenius is diag(1, -1) or fixes no line
        if roots not in (0, 2):
            raise AssertionError(f"psi_3 has {roots} roots mod {ell}, not 0 or 2")
        return roots == 2
    if roots == 4:
        f = (b, a, 0, 1)
        power = f
        for bit in bin((ell - 1) // 2)[3:]:
            power = _mul_mod_quartic(power, power, e0, e1, e2, ell)
            if bit == "1":
                power = _mul_mod_quartic(power, f, e0, e1, e2, ell)
        if power not in ((1, 0, 0, 0), (ell - 1, 0, 0, 0)):
            raise AssertionError(f"f^((ell-1)/2) mod psi_3 is not +-1 at {ell}")
        return power[0] == 1
    if roots == 0:
        return False
    if roots != 1:
        raise AssertionError(f"psi_3 has {roots} roots mod {ell}, not 0, 1 or 4")
    return pow((x0 * x0 + a) * x0 + b, (ell - 1) // 2, ell) == 1


def count_points(model: WeierstrassModel, ell: int) -> int:
    """#E(F_ell): naive counting through Mestre's bound, ell = 229, below
    which the BSGS search need not stop; BSGS above, where it is faster."""
    if ell <= _MESTRE_BOUND:
        return count_points_naive(model, ell)
    return count_points_bsgs(model, ell)


def _count_points(model: WeierstrassModel, ell: int) -> int:
    """count_points at an ell the caller knows to be prime: the trace cache
    counts through it, so a sieved prime or one classify has checked is not
    tested again.  Bad reduction at ell still raises BadReductionError."""
    if ell <= _MESTRE_BOUND:
        return _count_naive(model, ell)
    return _count_bsgs(model, ell)


def trace_of_frobenius(model: WeierstrassModel, ell: int) -> int:
    return ell + 1 - count_points(model, ell)


# -- Frobenius data and extension fields -------------------------------------


@_frozen
class FrobeniusData:
    """Trace of Frobenius at a good prime."""

    ell: int
    a_ell: int

    # written out, not _frozen's generic __init__: p2_membership builds one per prime
    def __init__(self, ell: int, a_ell: int) -> None:
        self.__dict__.update(ell=ell, a_ell=a_ell)
        if a_ell * a_ell > 4 * ell:
            raise ValueError(f"Hasse bound violated: a={a_ell} at ell={ell}")


def order_over_extension(fd: FrobeniusData, n: int) -> int:
    """#E(F_{ell^n}) via the Frobenius trace recurrence."""
    if n < 1:
        raise ValueError(f"extension degree must be >= 1, got {n}")
    s_prev, s_cur = 2, fd.a_ell
    for _ in range(n - 1):
        s_prev, s_cur = s_cur, fd.a_ell * s_cur - fd.ell * s_prev
    return fd.ell**n + 1 - s_cur


# -- trace cache -------------------------------------------------------------

# The largest ell a trace array holds, and the largest grid point of a density
# report: its array is at most 10 MB.
GRID_BUDGET = 10**7
# A trace array has slot i for a_{2i+1} and slot 0 for a_2 (1 is never prime).
# Every |a_ell| <= 2 sqrt(ell) fits in int16 for ell < 2.68e8, so the three
# lowest values are free.  -32768 marks a slot whose trace is not known.  The
# density scan and report at p = 3 store only whether 3 divides #E(F_ell) at
# ell > 229, as -32767 (it does) or -32766 (it does not), and a reader takes
# a code by that meaning.  At ell = 1 mod 3, where #E(F_ell) = 2 - a_ell mod
# 3, (2 - code) % 3 is 0 or 2 as the Q3 test of a_ell would be; at ell = 2
# mod 3 it is not, so classify._verdict reads the code itself.  All three
# fail the Hasse bound, so a reader that wants a_ell counts the slot again.
# In a merge an a_ell beats a code and a code beats -32768: the greater value.
_UNKNOWN = -32768
_THREE_DIVIDES = -32767
_THREE_DOES_NOT_DIVIDE = -32766
_DIGEST = 32  # the size of a sha256 digest


def _sha256(data):
    """hashlib.sha256(data), with hashlib loaded on first use: a cache with no
    directory hashes nothing."""
    import hashlib

    return hashlib.sha256(data)


def _slot_value(minimal: WeierstrassModel, three: bool, ell: int) -> int:
    """a_ell at a good prime ell; with three, at 229 < ell <= GRID_BUDGET, the
    code that says whether 3 divides #E(F_ell), in either class mod 3.  In that
    range a code fails the Hasse bound, so no reader takes it for a_ell."""
    if three and _MESTRE_BOUND < ell <= GRID_BUDGET:
        return _THREE_DIVIDES if _three_divides(*minimal.short, ell) else _THREE_DOES_NOT_DIVIDE
    return ell + 1 - _count_points(minimal, ell)


def _slot(ell: int) -> int | None:
    """The slot of a_ell in a trace array, or None for an ell it does not hold."""
    if ell == 2:
        return 0
    return ell >> 1 if ell & 1 and 3 <= ell <= GRID_BUDGET else None


class TraceCache:
    """a_ell values per curve in one int16 trace array, optionally persisted.

    Entries are keyed by the minimal model's text, so isomorphic models share
    an entry, and a file is named by the sha256 of that text.  Stored values
    must be bit-identical to recomputation.  A file is the array's slots as
    little-endian int16, then the 32-byte sha256 of those bytes; a file whose
    digest does not match or whose body is an odd number of bytes is a miss as
    a whole, so truncation, a flipped byte or a file in another format is
    recomputed and rewritten, never trusted slot by slot.  A slot is checked
    against the Hasse bound when it is read, and one that fails is counted
    again.  A slot may hold one of two codes instead of a_ell: _THREE_DIVIDES
    or _THREE_DOES_NOT_DIVIDE, which readers in three mode (the density scan
    and report's class counts at p = 3) store at ell > 229 and accept there,
    whatever ell is mod 3.  Both fail the Hasse bound, so every other reader
    (classify, p >= 5, traces) counts such a slot again and stores a_ell over
    it.  Only ell <= GRID_BUDGET is stored; a larger ell is counted on every
    call.  Files are replaced whole, through a temporary file, after merging in
    what is on disk (an a_ell over a code, a code over _UNKNOWN), so a reader
    never sees a partial write and a writer keeps the entries another process
    stored before it.

    Misses are counted by jobs worker processes, capped at the CPU count; a
    single miss is counted in this process.  traces tests each requested ell
    for primality; classify and the density scan, whose primes are sieved or
    already checked, ask through _traces and _distinguished, which do not.
    """

    def __init__(self, directory: str | Path | None = None, jobs: int = 1):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = min(jobs, os.cpu_count() or 1)
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._mem: dict[str, array] = {}

    def _path(self, key: str) -> Path | None:
        if self.directory is None:
            return None
        return self.directory / f"{_sha256(key.encode('ascii')).hexdigest()[:24]}.traces"

    @staticmethod
    def _read(path: Path) -> array:
        """The trace array in a cache file, or an empty one unless the file's
        digest verifies and its body is whole int16 slots."""
        try:
            fh = open(path, "rb")
        except FileNotFoundError:
            return array("h")
        with fh:
            size = os.fstat(fh.fileno()).st_size - _DIGEST
            if size < 0 or size % 2:
                return array("h")
            # the body is read straight into the array: one buffer per file
            arr = array("h", [0]) * (size // 2)
            if fh.readinto(arr) != size or _sha256(arr).digest() != fh.read():
                return array("h")
        if sys.byteorder == "big":
            arr.byteswap()
        return arr

    def _load(self, key: str) -> array:
        if key not in self._mem:
            path = self._path(key)
            self._mem[key] = self._read(path) if path is not None else array("h")
        return self._mem[key]

    def _store(self, key: str) -> None:
        path = self._path(key)
        if path is None:
            return
        arr = self._mem[key]
        disk = self._read(path)
        n = min(len(arr), len(disk))
        if arr[:n] != disk[:n]:  # keep what other writers stored
            for i in range(n):
                # a code or _UNKNOWN gives way to a greater value on disk
                if arr[i] <= _THREE_DOES_NOT_DIVIDE and disk[i] > arr[i]:
                    arr[i] = disk[i]
        arr.extend(disk[n:])
        body = arr
        if sys.byteorder == "big":
            body = array("h", arr)
            body.byteswap()
        # a unique name beside the target, made with mode 0666 so that the
        # kernel applies the umask, as open(path, "w") does
        tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(body)
                fh.write(_sha256(body).digest())
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    def _count(
        self, key: str, minimal: WeierstrassModel, ells: list[int], three: bool = False
    ) -> list[int]:
        """_slot_value at the good primes ells, counted; those the array holds are stored."""
        answer = partial(_slot_value, minimal, three)
        if self.jobs > 1 and len(ells) > 1:
            from multiprocessing import Pool  # serial runs skip this import

            with Pool(self.jobs) as pool:
                results = pool.map(answer, ells, chunksize=64)
        else:
            results = [answer(ell) for ell in ells]
        arr = self._mem[key]
        stored = False
        for ell, a in zip(ells, results):
            i = _slot(ell)
            if i is not None:
                if i >= len(arr):
                    arr.extend(array("h", [_UNKNOWN]) * (i + 1 - len(arr)))
                arr[i] = a
                stored = True
        if stored:
            self._store(key)
        return results

    def trace(self, model: WeierstrassModel, ell: int) -> int:
        return self.traces(model, [ell])[ell]

    def traces(self, model: WeierstrassModel, ells) -> dict[int, int]:
        """a_ell for each requested good prime, ascending, computing and caching
        misses; a request that is not prime raises ValueError."""
        ells = sorted(set(ells))
        for ell in ells:
            if not is_prime(ell):
                raise ValueError(f"{ell} is not prime")
        return self._traces(model, ells)

    def _traces(self, model: WeierstrassModel, ells, three: bool = False) -> dict[int, int]:
        """traces at ascending distinct ells the caller knows to be prime.  With
        three, a stored code is accepted as the answer, and a miss at an ell
        > 229 that the array holds is answered by _three_divides as a code."""
        minimal, _ = minimal_model(model)
        key = format_model(minimal)
        arr = self._load(key)
        out = {}
        for ell in ells:
            i = _slot(ell)
            out[ell] = arr[i] if i is not None and i < len(arr) else _UNKNOWN
        codes = (_THREE_DIVIDES, _THREE_DOES_NOT_DIVIDE) if three else ()
        missing = [ell for ell, a in out.items()
                   if a == _UNKNOWN or a * a > 4 * ell and a not in codes]
        out.update(zip(missing, self._count(key, minimal, missing, three)))
        return out

    def _distinguished(self, model: WeierstrassModel, p: int, ells: tuple[int, ...]) -> list[int]:
        """The good primes among ells, the ascending primes = 1 mod p that
        ntheory._primes_1_mod_2p lists, at which p does not divide #E(F_ell).

        One loop answers each stored slot ell >> 1: the Hasse check and the Q3
        test of classify._verdict, p not dividing ell + 1 - a_ell = 2 - a_ell
        mod p.  At p = 3 a code answers both, as every ell here is 1 mod 3,
        and a miss above 229 is stored as a code.
        """
        minimal, _ = minimal_model(model)
        key = format_model(minimal)
        arr = self._load(key)
        # ells[:held] have a slot in the array
        held = bisect.bisect_left(ells, min(2 * len(arr), GRID_BUDGET + 1))
        codes = (_THREE_DIVIDES, _THREE_DOES_NOT_DIVIDE) if p == 3 else ()
        out: list[int] = []
        missing: list[int] = []
        for ell in islice(ells, held):
            a = arr[ell >> 1]
            if a * a <= 4 * ell or a in codes:
                if (2 - a) % p:
                    out.append(ell)
            else:  # _UNKNOWN, a code at p >= 5, or a damaged slot
                missing.append(ell)
        missing += ells[held:]
        if missing:
            # the minimal model has bad reduction exactly at the primes of its
            # discriminant, and a bad prime has no trace
            disc = minimal.disc
            good = [ell for ell in missing if disc % ell]
            answers = self._count(key, minimal, good, three=p == 3)
            out += [ell for ell, a in zip(good, answers) if (2 - a) % p]
            out.sort()  # two ascending runs
        return out
