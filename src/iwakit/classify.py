"""Classification of rational primes relative to a fixed curve and odd prime p.

Primes split three ways: bad reduction (Q1), good reduction with p dividing
the residue point count (Q2), and the rest (Q3).  Q3 primes congruent to
1 mod p form the distinguished set used by the density counts; torsion
growth along the cyclotomic tower is decided at the finite residue level.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .counting import (
    _MESTRE_BOUND,
    _THREE_DIVIDES,
    FrobeniusData,
    TraceCache,
    _count_points,
    _good_model_at,
    _three_divides,
    order_over_extension,
)
from .elliptic import WeierstrassModel, minimal_model
from .ntheory import _primes_1_mod_2p, check_odd_prime, is_prime, padic_valuation, sieve_primes

__all__ = [
    "PrimeClass",
    "CyclotomicSplitting",
    "classify_prime",
    "p2_membership",
    "cyclotomic_split_count",
    "bulk_classify",
    "classification_rows",
]


@dataclass(frozen=True)
class PrimeClass:
    """Verdict for one prime: Q1 bad, Q2 good with p-torsion mod ell, Q3 rest."""

    ell: int
    category: str
    a_ell: int | None
    in_script_q: bool

    def __post_init__(self) -> None:
        if self.category not in ("Q1", "Q2", "Q3"):
            raise ValueError(f"unknown class {self.category!r}")
        if (self.category == "Q1") != (self.a_ell is None):
            raise ValueError("a_ell is recorded exactly for good-reduction primes")
        if self.in_script_q and self.category != "Q3":
            raise ValueError("the distinguished set is contained in Q3")


@dataclass(frozen=True)
class CyclotomicSplitting:
    """ell splits into p^m primes in every deep enough layer of the p-tower."""

    ell: int
    p: int
    m: int

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ValueError("splitting exponent is nonnegative")
        if self.m != padic_valuation(self.ell ** (self.p - 1) - 1, self.p) - 1:
            raise ValueError("splitting exponent inconsistent with ell and p")


def _check_primes(p: int, ell: int) -> None:
    check_odd_prime(p)
    if not is_prime(ell):
        raise ValueError(f"ell must be prime, got {ell}")
    if ell == p:
        raise ValueError(f"ell = p = {p} is excluded from classification")


def _good_traces(
    model: WeierstrassModel, ells, cache: TraceCache | None, three: bool = False
) -> dict[int, int]:
    """a_ell at the good primes among ells, ascending; a bad prime gets no entry.
    With three, an ell > 229 may get a trace-cache code instead of a_ell.

    ells are ascending primes, sieved or checked by _check_primes, so the
    cache's private entry counts them without testing primality again."""
    minimal, _ = minimal_model(model)
    # the global minimal model has bad reduction exactly at the primes of its discriminant
    disc = minimal.disc
    good = [ell for ell in ells if disc % ell]
    return (cache if cache is not None else TraceCache(None))._traces(minimal, good, three)


def _verdict(p: int, ell: int, a: int | None) -> tuple[str, bool]:
    """The class at ell from a_ell, from a trace-cache code at p = 3, or from
    None at a bad prime, and whether ell is distinguished: Q2 when p divides
    #E(F_ell) = ell + 1 - a_ell, else Q3, distinguished if ell = 1 mod p."""
    if a is None:
        return "Q1", False
    if a * a > 4 * ell:
        # a code, which fails the Hasse bound: whether 3 divides #E(F_ell),
        # read as it is, since (2 - code) % 3 is that test only at ell = 1 mod 3
        divides = a == _THREE_DIVIDES
    else:
        divides = (ell + 1 - a) % p == 0
    if divides:
        return "Q2", False
    return "Q3", ell % p == 1


def _prime_class(p: int, ell: int, a: int | None) -> PrimeClass:
    category, distinguished = _verdict(p, ell, a)
    return PrimeClass(ell=ell, category=category, a_ell=a, in_script_q=distinguished)


def classify_prime(
    model: WeierstrassModel,
    p: int,
    ell: int,
    *,
    cache: TraceCache | None = None,
) -> PrimeClass:
    _check_primes(p, ell)
    return _prime_class(p, ell, _good_traces(model, [ell], cache).get(ell))


def p2_membership(model: WeierstrassModel, p: int, ell: int, f: int) -> bool:
    """Whether the reduction over the degree-f residue extension has p-torsion.

    The kernel of reduction at a place over ell is pro-ell, and the orders of
    the Frobenius eigenvalues mod p are prime to p, so torsion growth anywhere
    up the p-tower is already visible at the base residue field F_{ell^f}.

    At p = 3, f = 1 and ell > 229 the bit is read off psi_3 by
    counting._three_divides, in time polynomial in the digits of ell; every
    other (p, ell, f) counts #E(F_ell) and takes a_ell through the trace
    recurrence, by BSGS above 229, which grows as ell^(1/4).
    """
    _check_primes(p, ell)
    if f < 1:
        raise ValueError(f"residue degree must be >= 1, got {f}")
    if p == 3 and f == 1 and ell > _MESTRE_BOUND:
        # a model that is bad at ell is minimized, as the count below would
        return _three_divides(*_good_model_at(model, ell).short, ell)
    # point counting minimizes a model that is bad at ell; _check_primes has
    # tested ell, so it is counted without a second primality test
    a_ell = ell + 1 - _count_points(model, ell)
    return order_over_extension(FrobeniusData(ell=ell, a_ell=a_ell), f) % p == 0


def cyclotomic_split_count(ell: int, p: int) -> CyclotomicSplitting:
    _check_primes(p, ell)
    m = padic_valuation(ell ** (p - 1) - 1, p) - 1
    return CyclotomicSplitting(ell=ell, p=p, m=m)


def bulk_classify(
    model: WeierstrassModel,
    p: int,
    bound: int,
    *,
    cache: TraceCache | None = None,
) -> list[PrimeClass]:
    """Classify every prime ell <= bound except p, in increasing order."""
    return list(_classified(model, p, bound, cache)[1])


def _table(
    model: WeierstrassModel, p: int, bound: int, cache: TraceCache | None, three: bool
) -> tuple[list[int], dict[int, int]]:
    """The primes ell <= bound except p, ascending, and _good_traces at them."""
    check_odd_prime(p)
    ells = [ell for ell in sieve_primes(bound) if ell != p] if bound >= 2 else []
    return ells, _good_traces(model, ells, cache, three) if ells else {}


def _classified(
    model: WeierstrassModel,
    p: int,
    bound: int,
    cache: TraceCache | None,
) -> tuple[Iterator[tuple[str, bool]], Iterator[PrimeClass]]:
    """The (class, distinguished) verdicts of ``bulk_classify``'s records, and
    those records, each made one at a time from one table of traces: a caller
    that writes the records as they come holds no list of them."""
    ells, traces = _table(model, p, bound, cache, three=False)
    verdicts = (_verdict(p, ell, traces.get(ell)) for ell in ells)
    records = (_prime_class(p, ell, traces.get(ell)) for ell in ells)
    return verdicts, records


def _verdicts(
    model: WeierstrassModel,
    p: int,
    bound: int,
    cache: TraceCache | None,
) -> Iterator[tuple[str, bool]]:
    """The verdicts of ``_classified`` alone.  No record needs a_ell, so at
    p = 3 the trace cache answers each good ell > 229 in three mode: whether 3
    divides #E(F_ell), from the psi_3 kernel or a stored code."""
    ells, traces = _table(model, p, bound, cache, three=p == 3)
    return (_verdict(p, ell, traces.get(ell)) for ell in ells)


def _distinguished_primes(
    model: WeierstrassModel,
    p: int,
    bound: int,
    cache: TraceCache | None,
) -> tuple[list[int], int]:
    """The distinguished primes <= bound, ascending, and the count of all primes <= bound.

    The same set as the ``in_script_q`` records of ``bulk_classify``, but only
    the good primes = 1 mod p reach the trace cache and no record is built.
    """
    check_odd_prime(p)
    if bound < 2:
        return [], 0
    primes, prime_count = _primes_1_mod_2p(bound, p)
    cache = cache if cache is not None else TraceCache(None)
    return cache._distinguished(model, p, primes), prime_count


def classification_rows(records: Iterable[PrimeClass]) -> Iterator[str]:
    """The CSV lines of the records, header first, each ending in a newline."""
    # no field holds a comma, quote or newline, so csv.writer would quote none
    yield "ell,class,a_ell,in_script_Q\n"
    for r in records:
        a_ell = "" if r.a_ell is None else r.a_ell
        yield f"{r.ell},{r.category},{a_ell},{'true' if r.in_script_q else 'false'}\n"
