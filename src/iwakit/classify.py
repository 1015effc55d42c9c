"""Classification of rational primes relative to a fixed curve and odd prime p.

Primes split three ways: bad reduction (Q1), good reduction with p dividing
the residue point count (Q2), and the rest (Q3).  Q3 primes congruent to
1 mod p form the distinguished set used by the density counts; torsion
growth along the cyclotomic tower is decided at the finite residue level.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from . import counting
from ._record import _frozen
from .counting import FrobeniusData, TraceCache, _p_divides, _slot_divides, order_over_extension
from .elliptic import WeierstrassModel, minimal_model
from .ntheory import _primes_1_mod_2p, check_odd_prime, is_prime, padic_valuation, sieve_primes

__all__ = [
    "PrimeClass",
    "classify_prime",
    "p2_membership",
    "cyclotomic_split_count",
    "bulk_classify",
    "classification_rows",
]


@_frozen
class PrimeClass:
    """Verdict for one prime: Q1 bad, Q2 good with p-torsion mod ell, Q3 rest."""

    ell: int
    category: str
    a_ell: int | None
    in_script_q: bool

    # written out, not _frozen's generic __init__: a classify call builds one
    # per prime, thousands of them
    def __init__(self, ell: int, category: str, a_ell: int | None, in_script_q: bool) -> None:
        self.__dict__.update(ell=ell, category=category, a_ell=a_ell, in_script_q=in_script_q)
        if category not in ("Q1", "Q2", "Q3"):
            raise ValueError(f"unknown class {category!r}")
        if (category == "Q1") != (a_ell is None):
            raise ValueError("a_ell is recorded exactly for good-reduction primes")
        if in_script_q and category != "Q3":
            raise ValueError("the distinguished set is contained in Q3")


def _check_primes(p: int, ell: int) -> None:
    check_odd_prime(p)
    if not is_prime(ell):
        raise ValueError(f"ell must be prime, got {ell}")
    if ell == p:
        raise ValueError(f"ell = p = {p} is excluded from classification")


def _good_traces(
    model: WeierstrassModel, ells, cache: TraceCache | None, verdict: int | None = None
) -> dict[int, int]:
    """a_ell at the good primes among ells, ascending; a bad prime gets no entry.
    Asked for the verdict of a p, an ell may get a trace-cache code instead.

    ells are ascending primes, sieved or checked by _check_primes, so the
    cache's private entry counts them without testing primality again."""
    minimal, _ = minimal_model(model)
    # the global minimal model has bad reduction exactly at the primes of its discriminant
    disc = minimal.disc
    good = [ell for ell in ells if disc % ell]
    return (cache if cache is not None else TraceCache(None))._traces(minimal, good, verdict)


def _verdict(p: int, ell: int, a: int | None) -> tuple[str, bool]:
    """The class at ell from _good_traces there, a_ell or a trace-cache code
    for p, or from None at a bad prime, and whether ell is distinguished: Q2
    when p divides #E(F_ell), else Q3, distinguished if ell = 1 mod p."""
    if a is None:
        return "Q1", False
    return ("Q2", False) if _slot_divides(p, ell, a) else ("Q3", ell % p == 1)


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

    At f = 1 counting._p_divides answers, in time polynomial in the digits of
    ell at p = 3; BSGS at p >= 5 refuses an ell past counting.BSGS_BUDGET with
    ValueError.  A larger f counts a_ell as p >= 5 does and takes
    #E(F_{ell^f}) through the trace recurrence.
    """
    _check_primes(p, ell)
    if f < 1:
        raise ValueError(f"residue degree must be >= 1, got {f}")
    # both minimize a model bad at ell, and take ell as tested by _check_primes;
    # the count is looked up in counting at call time, as _p_divides looks it up
    if f == 1:
        return _p_divides(model, p, ell)
    a_ell = ell + 1 - counting._count_points(model, ell)
    return order_over_extension(FrobeniusData(ell=ell, a_ell=a_ell), f) % p == 0


def cyclotomic_split_count(ell: int, p: int) -> int:
    """m >= 0 such that ell splits into p^m primes in every deep enough layer
    of the cyclotomic Z_p-extension: v_p(ell^(p-1) - 1) - 1."""
    _check_primes(p, ell)
    return padic_valuation(ell ** (p - 1) - 1, p) - 1


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
    model: WeierstrassModel, p: int, bound: int, cache: TraceCache | None, verdict: int | None
) -> tuple[list[int], dict[int, int]]:
    """The primes ell <= bound except p, ascending, and _good_traces at them."""
    check_odd_prime(p)
    ells = [ell for ell in sieve_primes(bound) if ell != p] if bound >= 2 else []
    return ells, _good_traces(model, ells, cache, verdict) if ells else {}


def _classified(
    model: WeierstrassModel,
    p: int,
    bound: int,
    cache: TraceCache | None,
) -> tuple[Iterator[tuple[str, bool]], Iterator[PrimeClass]]:
    """The (class, distinguished) verdicts of ``bulk_classify``'s records, and
    those records, each made one at a time from one table of traces: a caller
    that writes the records as they come holds no list of them."""
    ells, traces = _table(model, p, bound, cache, None)
    verdicts = (_verdict(p, ell, traces.get(ell)) for ell in ells)
    records = (_prime_class(p, ell, traces.get(ell)) for ell in ells)
    return verdicts, records


def _verdicts(
    model: WeierstrassModel,
    p: int,
    bound: int,
    cache: TraceCache | None,
) -> Iterator[tuple[str, bool]]:
    """The verdicts of ``_classified`` alone.  No record needs a_ell, so the
    trace cache is asked for p's verdict, which it may answer with a code:
    at p = 3 each good ell > 229 is, from counting._p_divides or the file."""
    ells, traces = _table(model, p, bound, cache, p)
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
