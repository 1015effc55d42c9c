"""Degree-p cyclic extensions of Q modeled by ramification characters.

An extension is a tuple of tame primes (each 1 mod p), an optional wild
place at p, and a character exponent per ramified place, normalized so the
first exponent is 1.  Everything downstream (discriminants, Frobenius
orders, counting functions) is computed from this data; defining
polynomials are never constructed.
"""

from __future__ import annotations

import bisect
import itertools

from ._record import _frozen
from .classify import _distinguished_primes, cyclotomic_split_count
from .counting import TraceCache
from .elliptic import WeierstrassModel
from .ntheory import _primes_1_mod_2p, check_odd_prime, iroot, is_prime, primitive_root

__all__ = [
    "CyclicExtension",
    "SplittingRecord",
    "count_extensions",
    "enumerate_extensions",
    "discriminant",
    "splitting",
    "ramified_splitting",
    "script_q_primes",
    "g_steps",
    "m_steps",
    "extension_record",
]


@_frozen
class CyclicExtension:
    """Cyclic degree-p field cut out by a product of local characters."""

    p: int
    tame_ramified: tuple[int, ...]
    wild_at_p: bool
    exponents: tuple[int, ...]
    wild_exponent: int | None = None

    def __post_init__(self) -> None:
        p = self.p
        check_odd_prime(p)
        if not self.tame_ramified and not self.wild_at_p:
            raise ValueError("a nontrivial extension of Q ramifies somewhere")
        if list(self.tame_ramified) != sorted(set(self.tame_ramified)):
            raise ValueError("tame primes must be sorted and distinct")
        for ell in self.tame_ramified:
            if not is_prime(ell) or ell % p != 1:
                raise ValueError(
                    f"no cyclic degree-{p} field is tamely ramified at {ell}: "
                    f"tame primes must be 1 mod {p}"
                )
        if len(self.exponents) != len(self.tame_ramified):
            raise ValueError("one exponent per tame prime")
        if any(not 1 <= e <= p - 1 for e in self.exponents):
            raise ValueError("tame exponents lie in [1, p-1]")
        if self.wild_at_p != (self.wild_exponent is not None):
            raise ValueError("wild exponent present exactly when wild_at_p")
        if self.wild_exponent is not None and not 1 <= self.wild_exponent <= p - 1:
            raise ValueError("wild exponent lies in [1, p-1]")
        vector = self.exponents + ((self.wild_exponent,) if self.wild_at_p else ())
        if vector[0] != 1:
            raise ValueError("characters are normalized to leading exponent 1")

    @property
    def conductor(self) -> int:
        f = 1
        for ell in self.tame_ramified:
            f *= ell
        if self.wild_at_p:
            f *= self.p**2
        return f


@_frozen
class SplittingRecord:
    """Decomposition of a prime in L/Q and above it in L_cyc."""

    ell: int
    e: int
    f: int
    g: int
    e_cyc: int
    w_count: int

    def __post_init__(self) -> None:
        p = self.e * self.f * self.g
        if not is_prime(p):
            raise ValueError("e*f*g must be the degree p")
        if sorted((self.e, self.f, self.g)) != [1, 1, p]:
            raise ValueError("exactly one of e, f, g equals p")
        if self.e_cyc != self.e:
            raise ValueError("tame ramification is unchanged up the tower")
        if self.w_count < 1:
            raise ValueError("at least one prime lies above ell")


def _check_ram_set(p: int, ram_set) -> tuple[int, ...]:
    check_odd_prime(p)
    primes = sorted(ram_set)
    if len(primes) != len(set(primes)):
        raise ValueError("ramified primes must be distinct")
    for ell in primes:
        if not is_prime(ell):
            raise ValueError(f"ramified primes must be prime, got {ell}")
        if ell % p != 1:
            raise ValueError(
                f"no cyclic degree-{p} field of Q is tamely ramified exactly at "
                f"a prime not 1 mod {p}: {ell}"
            )
    return tuple(primes)


def count_extensions(p: int, ram_set) -> int:
    """(p-1)^(k-1) fields tamely ramified exactly at the k given primes."""
    primes = _check_ram_set(p, ram_set)
    if not primes:
        return 0
    return (p - 1) ** (len(primes) - 1)


def enumerate_extensions(p: int, ram_set, *, wild_at_p: bool = False) -> list[CyclicExtension]:
    """All normalized characters ramified exactly at ram_set (plus p if wild)."""
    primes = _check_ram_set(p, ram_set)
    if not primes and not wild_at_p:
        return []
    k = len(primes) + (1 if wild_at_p else 0)
    # the leading exponent is 1, each later one any of 1..p-1, in lexicographic order
    vectors = ((1, *rest) for rest in itertools.product(range(1, p), repeat=k - 1))
    return [
        CyclicExtension(
            p=p, tame_ramified=primes, wild_at_p=wild_at_p,
            exponents=vector[:len(primes)],
            wild_exponent=vector[-1] if wild_at_p else None,
        )
        for vector in vectors
    ]


def discriminant(ext: CyclicExtension) -> int:
    """Conductor-discriminant: the conductor to the power p-1."""
    return ext.conductor ** (ext.p - 1)


def _char_value(ext: CyclicExtension, x: int) -> int:
    """Value in Z/p of the defining character at an integer prime to the conductor."""
    p = ext.p
    # (modulus m, exponent, index e): the order-p quotient of the cyclic group
    # (Z/m)* is its e-th powers, for m each tame ell and, when wild, p^2
    places = [(ell, exp, (ell - 1) // p) for ell, exp in zip(ext.tame_ramified, ext.exponents)]
    if ext.wild_at_p:
        places.append((p * p, ext.wild_exponent, p - 1))
    total = 0
    for m, exp, e in places:  # the discrete log of x^e to the base g^e
        z = pow(primitive_root(m), e, m)
        h = pow(x, e, m)
        total += exp * next(t for t in range(p) if pow(z, t, m) == h)
    return total % p


def _reject_inside_tower(ext: CyclicExtension) -> None:
    if ext.wild_at_p and not ext.tame_ramified:
        raise ValueError(
            "the wild-only field lies inside the cyclotomic tower; "
            "splitting data over it degenerates"
        )


def splitting(ext: CyclicExtension, ell: int) -> SplittingRecord:
    """Decomposition of an unramified prime ell != p."""
    _reject_inside_tower(ext)
    if not is_prime(ell):
        raise ValueError(f"ell must be prime, got {ell}")
    if ell in ext.tame_ramified or ell == ext.p:
        raise ValueError(f"{ell} is not unramified here; use ramified_splitting")
    p = ext.p
    f = 1 if _char_value(ext, ell) == 0 else p
    m = cyclotomic_split_count(ell, p)
    return SplittingRecord(ell=ell, e=1, f=f, g=p // f, e_cyc=1, w_count=p ** (m + 1))


def ramified_splitting(ext: CyclicExtension, ell: int) -> SplittingRecord:
    """Decomposition of a tame ramified prime: totally ramified, e = p."""
    _reject_inside_tower(ext)
    if ell not in ext.tame_ramified:
        raise ValueError(f"{ell} is not in the tame ramified set {ext.tame_ramified}")
    p = ext.p
    m = cyclotomic_split_count(ell, p)
    return SplittingRecord(ell=ell, e=p, f=1, g=1, e_cyc=p, w_count=p**m)


def script_q_primes(
    model: WeierstrassModel,
    p: int,
    bound: int,
    *,
    cache: TraceCache | None = None,
) -> list[int]:
    """Good primes = 1 mod p, below the bound, with no p-torsion mod ell."""
    return _distinguished_primes(model, p, bound, cache)[0]


def _product_weights_dfs(primes: list[int], p: int, bound: int) -> dict[int, int]:
    """Weight (p-1)^(k-1) at each product of k >= 1 distinct listed primes <= bound."""
    weights: dict[int, int] = {}

    def rec(start: int, prod: int, weight: int) -> None:
        # primes[start:stop] are the listed primes q with prod * q <= bound
        stop = bisect.bisect_right(primes, bound // prod, start)
        for j in range(start, stop):
            nxt = prod * primes[j]
            # distinct prime sets have distinct products, so no key repeats
            weights[nxt] = weight
            if j + 1 < stop and nxt * primes[j + 1] <= bound:
                rec(j + 1, nxt, weight * (p - 1))

    rec(0, 1, 1)
    return weights


def _product_totals_dfs(primes: list[int], p: int, bounds: list[int]) -> list[int]:
    """Total weight of the products <= each bound of an ascending list, by a
    counting walk over the same tree as _product_weights_dfs.

    Each node adds its leaves in bulk: weight * (number of listed primes q past
    the node with prod * q <= bound), one bisection per bound.  The walk only
    descends to nodes that have a leaf, so no weight table is built.
    """
    totals = [0] * len(bounds)
    top = bounds[-1]

    def rec(start: int, prod: int, weight: int) -> None:
        for i, b in enumerate(bounds):
            totals[i] += weight * (bisect.bisect_right(primes, b // prod, start) - start)
        stop = bisect.bisect_right(primes, top // prod, start)
        for j in range(start, stop - 1):
            nxt = prod * primes[j]
            if nxt * primes[j + 1] > top:  # and so for every later j
                break
            rec(j + 1, nxt, weight * (p - 1))

    rec(0, 1, 1)
    return totals


def _sieve_counts(primes: list[int], p: int, bound: int) -> list[int]:
    """(p-1) times the weight of each n in [2, bound] as entry n, by an additive
    convolution; entry 1 is 1 for the empty product.  bound >= 1."""
    c = [0] * (bound + 1)
    c[1] = 1
    for q in primes:
        if q > bound:
            break
        # descending targets so each prime is used at most once per product
        for n in range(bound // q, 0, -1):
            if c[n]:
                c[n * q] += (p - 1) * c[n]
    return c


def _product_weights_sieve(primes: list[int], p: int, bound: int) -> dict[int, int]:
    """Same weights as _product_weights_dfs, read off the sieve counts.  bound >= 1."""
    c = _sieve_counts(primes, p, bound)
    weights = {}
    for n in range(2, bound + 1):
        if c[n]:
            assert c[n] % (p - 1) == 0
            weights[n] = c[n] // (p - 1)
    return weights


# the step tables' weight builders: (primes, p, bound) -> {product: weight}
_METHODS = {"dfs": _product_weights_dfs, "sieve": _product_weights_sieve}


def _method(method: str):
    """The weight builder named by method."""
    build = _METHODS.get(method)
    if build is None:
        raise ValueError(f"unknown method {method!r}")
    return build


def _g_weights(model, p, bound, *, cache, method) -> dict[int, int]:
    """Weight of each squarefree conductor <= bound in g(X): the distinguished
    primes it is a product of k of, (p-1)^(k-1)."""
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    build = _method(method)
    return build(script_q_primes(model, p, bound, cache=cache), p, bound)


def _m_weights(p: int, bound: int, method: str) -> dict[int, int]:
    """Number of degree-p cyclic fields at each conductor, discriminant <= bound."""
    check_odd_prime(p)
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    build = _method(method)
    max_conductor = iroot(bound, p - 1)
    if max_conductor < 2:
        return {}
    # the primes = 1 mod p: the tame places of degree-p fields
    primes = _primes_1_mod_2p(max_conductor, p)[0]
    weights = build(primes, p, max_conductor)
    wild_bound = max_conductor // (p * p)
    if wild_bound >= 1:
        # conductor p^2 * n: the wild place joins the ramified set
        weights[p * p] = 1
        for n, w in build(primes, p, wild_bound).items():
            # tame conductors are squarefree, so p^2 * n never collides
            weights[p * p * n] = (p - 1) * w
    return weights


def _m_totals(p: int, bounds: list[int]) -> list[int]:
    """Degree-p cyclic fields of conductor <= each bound of an ascending list.

    With T(b) the tame fields of conductor <= b, the count is T(b) plus, once
    b >= p^2, the wild field of conductor p^2 and the (p-1) T(b // p^2) fields
    of conductor p^2 * n.
    """
    wild = [b // (p * p) for b in bounds]
    points = sorted(set(bounds).union(wild))
    primes = _primes_1_mod_2p(bounds[-1], p)[0]
    tame = dict(zip(points, _product_totals_dfs(primes, p, points)))
    return [tame[b] + (1 + (p - 1) * tame[w] if b >= p * p else 0)
            for b, w in zip(bounds, wild)]


def _running_totals(weights: dict[int, int]):
    keys = sorted(weights)
    return zip(keys, itertools.accumulate(weights[k] for k in keys))


def g_steps(
    model: WeierstrassModel,
    p: int,
    bound: int,
    *,
    cache: TraceCache | None = None,
    method: str = "dfs",
) -> tuple[tuple[int, int], ...]:
    """Jump points of X -> g(X), the fields ramified only at distinguished
    primes with squarefree conductor <= X, as (conductor, running count).

    The step list pins the function on all of [1, bound]: the count is zero
    before the first jump and constant between consecutive jumps, so two
    methods producing equal step lists agree at every X.
    """
    return tuple(_running_totals(
        _g_weights(model, p, bound, cache=cache, method=method)))


def m_steps(p: int, bound: int, *, method: str = "dfs") -> tuple[tuple[int, int], ...]:
    """Jump points of X -> M(X), the degree-p cyclic fields of discriminant
    <= X, as (discriminant, running count)."""
    weights = _m_weights(p, bound, method)
    return tuple((f ** (p - 1), n) for f, n in _running_totals(weights))


def extension_record(ext: CyclicExtension) -> dict:
    """JSON-ready dump of one extension."""
    vector = list(ext.exponents) + ([ext.wild_exponent] if ext.wild_at_p else [])
    return {
        "p": ext.p,
        "tame_ramified": list(ext.tame_ramified),
        "wild_at_p": ext.wild_at_p,
        "exponents": vector,
        "discriminant": discriminant(ext),
    }
