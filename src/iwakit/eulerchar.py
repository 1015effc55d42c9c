"""Euler-characteristic factor data for curves additive at p.

The pipeline twists by the quadratic field of discriminant (-1)^((p-1)/2) p,
demands good ordinary reduction of the twist, and assembles the local
factors whose p-divisibility decides whether both Iwasawa invariants vanish.
The local-points factor is never computed directly: only its p-divisibility
is consumed, and Lagrange gives that from the residue count.
"""

from __future__ import annotations

import math
from functools import lru_cache

from ._poly import _mul, _sub, _value
from ._record import _asdict, _frozen
from .counting import _p_divides, trace_of_frobenius
from .elliptic import (
    LocalReductionData,
    WeierstrassModel,
    _kept,
    has_potential_good_reduction,
    local_data,
    minimal_model,
    quadratic_twist,
    reduction_type,
)
from .ntheory import _is_p_power, check_odd_prime, factorize, sieve_primes
from .refdata import reference_record

__all__ = [
    "OrdinaryTwist",
    "EulerFactors",
    "TwistNotGoodError",
    "SupersingularTwistError",
    "HypothesisNotMetError",
    "good_ordinary_twist",
    "euler_char_factors",
    "euler_factors_record",
    "mu_lambda_vanish",
    "division_polynomial",
    "has_rational_p_torsion",
    "tamagawa_product_away_from",
]


class TwistNotGoodError(ValueError):
    """The canonical quadratic twist fails to have good reduction at p."""


class SupersingularTwistError(ValueError):
    """The twist is good at p but supersingular, outside this pipeline."""


class HypothesisNotMetError(ValueError):
    """A stated hypothesis of the Euler-characteristic criterion fails."""


@_frozen
class OrdinaryTwist:
    p: int
    d: int
    model: WeierstrassModel
    a_p: int

    def __post_init__(self) -> None:
        if self.a_p % self.p == 0:
            raise ValueError("ordinary twist requires a_p prime to p")

    @property
    def residue_count(self) -> int:
        """#F(F_p) for the reduction F of the twisted model."""
        return self.p + 1 - self.a_p


@_frozen
class EulerFactors:
    p: int
    sha_p_order: int | None
    frak_F_count: int
    pi_image_status: str
    tamagawa_product: int
    ordinary: bool
    analytic_rank_zero: bool
    torsion_free_at_p: bool

    def __post_init__(self) -> None:
        p = self.p
        check_odd_prime(p)
        if abs(p + 1 - self.frak_F_count) ** 2 > 4 * p:
            raise ValueError(f"residue count {self.frak_F_count} violates the Hasse bound at {p}")
        if self.pi_image_status not in ("prime_to_p_implied", "unknown"):
            raise ValueError(f"unknown pi status {self.pi_image_status!r}")
        if self.pi_image_status == "prime_to_p_implied" and self.frak_F_count % p == 0:
            raise ValueError("Lagrange implication requires the residue count prime to p")
        if self.tamagawa_product < 1:
            raise ValueError("Tamagawa product is a positive integer")
        if self.sha_p_order is not None and not _is_p_power(self.sha_p_order, p):
            raise ValueError(f"sha order must be a power of {p}, got {self.sha_p_order}")


def _twist_at_p(
    minimal: WeierstrassModel, p: int
) -> tuple[LocalReductionData, bool, int, WeierstrassModel | None]:
    """Reduction at p, potential good reduction at p, a twist d and the model
    good at p that it reaches: d = 1 and the curve when it is good at p, else
    d = (-1)^((p-1)/2) p and its minimal twist, or None if that is not good.

    Kept on the minimal model per p, so the audit and the Euler factors of one
    curve share one decision; a curve good at p keeps None for itself."""
    local, potentially_good, d, good = _kept(minimal, f"_twist_at_{p}", _decide_twist, minimal, p)
    return local, potentially_good, d, minimal if local.is_good else good


def _decide_twist(minimal: WeierstrassModel, p: int) -> tuple:
    local = reduction_type(minimal, p)
    potentially_good = has_potential_good_reduction(minimal, p)
    # unit twists are unramified at p, and every d with v_p(d) = 1 is this d times a unit
    d = 1 if local.is_good else p if p % 4 == 1 else -p
    good = minimal_model(quadratic_twist(minimal, d))[0] if d != 1 and potentially_good else None
    if good is not None and not reduction_type(good, p).is_good:
        good = None
    return local, potentially_good, d, good


def _ordinary_at(good: WeierstrassModel, p: int) -> tuple[int, bool]:
    """a_p of a model good at p, kept on it per p, and whether it is ordinary
    there: p does not divide a_p."""
    a_p = _kept(good, f"_a_{p}", trace_of_frobenius, good, p)
    return a_p, a_p % p != 0


def _ordinary_twist(minimal: WeierstrassModel, p: int) -> OrdinaryTwist:
    """The twist pipeline's reading of the twist decision at p: raise unless good ordinary."""
    local, potentially_good, d, good = _twist_at_p(minimal, p)
    if not local.is_additive:
        raise ValueError(
            f"reduction at {p} is {local.type}; the twist pipeline starts from additive reduction"
        )
    if not potentially_good:
        raise ValueError(f"potentially multiplicative at {p}: no good twist exists")
    if good is None:
        raise TwistNotGoodError(
            f"twist by {d} is not good at {p}; the quadratic-subfield assumption fails"
        )
    a_p, ordinary = _ordinary_at(good, p)
    if not ordinary:
        raise SupersingularTwistError(f"twist by {d} is supersingular at {p} (a_p = {a_p})")
    return OrdinaryTwist(p=p, d=d, model=good, a_p=a_p)


def good_ordinary_twist(model: WeierstrassModel, p: int) -> OrdinaryTwist:
    """Twist by the discriminant of the degree-2 field inside the p-th
    cyclotomic field; the result must be good ordinary at p."""
    check_odd_prime(p)
    minimal, _ = minimal_model(model)
    return _ordinary_twist(minimal, p)


# ---------------------------------------------------------------------------
# division polynomials and rational p-torsion
# ---------------------------------------------------------------------------


def division_polynomial(model: WeierstrassModel, n: int) -> list[int]:
    """Coefficients (low to high) of the n-th division polynomial in x, n odd.

    Roots over any field are the x-coordinates of the nonzero points killed
    by n.  Even n would need the two-variable factor and is not provided.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError(f"only odd n >= 1 is supported, got {n}")
    b2, b4, b6, b8 = model.b2, model.b4, model.b6, model.b8
    quartic = [b6, 2 * b4, b2, 4]  # the square of the two-variable factor

    def _sq(t: tuple[int, ...]) -> list[int]:
        return _mul(list(t), list(t))

    def _cube(t: tuple[int, ...]) -> list[int]:
        return _mul(_mul(list(t), list(t)), list(t))

    # psi_n = f(n) for odd n, psi_n = psi_2 * g(n) for even n
    @lru_cache(maxsize=None)
    def f(k: int) -> tuple[int, ...]:
        if k == 1:
            return (1,)
        if k == 3:
            return (b8, 3 * b6, 3 * b4, b2, 3)
        assert k >= 5 and k % 2 == 1
        m = (k - 1) // 2
        if m % 2 == 0:
            lead = _mul(_mul(quartic, quartic), _mul(list(g(m + 2)), _cube(g(m))))
            tail = _mul(list(f(m - 1)), _cube(f(m + 1)))
        else:
            lead = _mul(list(f(m + 2)), _cube(f(m)))
            tail = _mul(_mul(quartic, quartic), _mul(list(g(m - 1)), _cube(g(m + 1))))
        return tuple(_sub(lead, tail))

    @lru_cache(maxsize=None)
    def g(k: int) -> tuple[int, ...]:
        if k == 2:
            return (1,)
        if k == 4:
            return (
                b4 * b8 - b6 * b6,
                b2 * b8 - b4 * b6,
                10 * b8,
                10 * b6,
                5 * b4,
                b2,
                2,
            )
        assert k >= 6 and k % 2 == 0
        m = k // 2
        if m % 2 == 0:
            inner = _sub(
                _mul(list(g(m + 2)), _sq(f(m - 1))),
                _mul(list(g(m - 2)), _sq(f(m + 1))),
            )
            return tuple(_mul(list(g(m)), inner))
        inner = _sub(
            _mul(list(f(m + 2)), _sq(g(m - 1))),
            _mul(list(f(m - 2)), _sq(g(m + 1))),
        )
        return tuple(_mul(list(f(m)), inner))

    return list(f(n))


def _integer_roots(coeffs: list[int]) -> list[int]:
    """All integer roots of a nonzero integer polynomial with a nonzero leading coefficient."""
    roots = []
    shift = 0
    while coeffs[0] == 0:
        shift += 1
        coeffs = coeffs[1:]
    if shift:
        roots.append(0)
    c0 = abs(coeffs[0])
    if len(coeffs) == 1:
        return roots
    divisors = {1}
    for q, e in factorize(c0):
        divisors = {d * q**k for d in divisors for k in range(e + 1)}
    for d in sorted(divisors):
        for cand in (d, -d):
            if _value(coeffs, cand) == 0:
                roots.append(cand)
    return sorted(roots)


# the sieved primes ell <= 1000, whose counts can certify that E(Q) has no p-torsion
_TORSION_PRIMES = sieve_primes(1000)


def has_rational_p_torsion(model: WeierstrassModel, p: int) -> bool:
    """Whether E(Q) contains a point of order p.

    Fast path: a single good prime ell != p with count prime to p certifies
    absence, since reduction is injective on p-torsion there.  Otherwise the
    p-division polynomial of the integral short model is searched for
    integer roots giving rational points; torsion roots are integral there.
    """
    check_odd_prime(p)
    minimal, _ = minimal_model(model)
    disc = minimal.disc
    if not all(_p_divides(minimal, p, ell) for ell in _TORSION_PRIMES if ell != p and disc % ell):
        return False
    return _division_poly_torsion(minimal, p)


def _division_poly_torsion(model: WeierstrassModel, p: int) -> bool:
    """Exact decision by integer-root search on the short model."""
    short = WeierstrassModel(0, 0, 0, *model.short)
    psi = division_polynomial(short, p)
    for x in _integer_roots(psi):
        rhs = (x * x + short.a4) * x + short.a6
        if rhs >= 0 and math.isqrt(rhs) ** 2 == rhs:
            return True
    return False


# ---------------------------------------------------------------------------
# factor assembly and the vanishing criterion
# ---------------------------------------------------------------------------


def tamagawa_product_away_from(model: WeierstrassModel, p: int) -> int:
    """Product of Tamagawa numbers over all bad primes except p."""
    return math.prod(local.tamagawa for local in local_data(model) if local.ell != p)


def euler_char_factors(
    model: WeierstrassModel,
    p: int,
    *,
    sha_order: int | str | None = None,
    analytic_rank_zero: bool | None = None,
    dataset: tuple[dict, ...] | None = None,
) -> EulerFactors:
    """Assemble the factors of the Euler-characteristic product.

    An analytic input left as None is read from the reference record for the
    curve and p in dataset: the bundled records when dataset is None, no
    record when it is ().  The analytic rank is required; sha_order="unknown"
    keeps the sha order unknown whatever the record holds.
    """
    check_odd_prime(p)
    if sha_order not in (None, "unknown") and type(sha_order) is not int:
        raise ValueError(f"sha order must be an integer or 'unknown', got {sha_order!r}")
    minimal, _ = minimal_model(model)
    if sha_order is None and analytic_rank_zero is None and dataset is None:
        return _default_euler_factors(minimal, p)[0]
    if sha_order is not None and analytic_rank_zero is not None:
        dataset = ()  # no input is left for a record to fill in
    return _euler_factors(minimal, p, sha_order, analytic_rank_zero, dataset)[0]


def _default_euler_factors(minimal: WeierstrassModel, p: int) -> tuple[EulerFactors, dict | None]:
    """_euler_factors on the bundled reference data alone.  Its outcome, the
    factors and record or the error that stopped the audit, is kept on the
    minimal model per p, so a report and its hypothesis audit share one run."""
    return _kept(minimal, f"_euler_factors_{p}", _euler_factors, minimal, p)


def _euler_factors(minimal: WeierstrassModel, p: int, sha_order: int | str | None = None,
                   analytic_rank_zero: bool | None = None,
                   dataset: tuple[dict, ...] | None = None) -> tuple[EulerFactors, dict | None]:
    """euler_char_factors on a minimal model, past its checks, and the record it
    read, or None: the one place where a record fills in the inputs left out.
    The record is read, whatever the inputs, unless dataset is ()."""
    twist = _ordinary_twist(minimal, p)
    rec = None if dataset == () else reference_record(minimal, p, dataset=dataset)
    if rec is not None:
        if analytic_rank_zero is None:
            analytic_rank_zero = rec["analytic_rank"] == 0
        if sha_order is None:
            sha_order = rec["sha_p_order"]
    if analytic_rank_zero is None:
        raise HypothesisNotMetError(
            "analytic rank is an external input: none supplied and no reference record"
        )
    if not analytic_rank_zero:
        raise HypothesisNotMetError("the criterion requires analytic rank 0")
    if has_rational_p_torsion(minimal, p):
        raise HypothesisNotMetError(f"the criterion requires E(Q)[{p}] = 0")
    count = twist.residue_count
    status = "prime_to_p_implied" if count % p != 0 else "unknown"
    return EulerFactors(
        p=p,
        sha_p_order=None if sha_order == "unknown" else sha_order,
        frak_F_count=count,
        pi_image_status=status,
        tamagawa_product=tamagawa_product_away_from(minimal, p),
        ordinary=True,
        analytic_rank_zero=True,
        torsion_free_at_p=True,
    ), rec


def mu_lambda_vanish(ef: EulerFactors) -> str:
    """'zero', 'nonzero', or 'unresolved': whether both invariants vanish.

    A known factor divisible by p settles the question regardless of the
    unknown ones; otherwise any unknown factor leaves it unresolved.
    """
    p = ef.p
    if ef.frak_F_count % p == 0 or ef.tamagawa_product % p == 0:
        return "nonzero"
    if ef.sha_p_order is not None and ef.sha_p_order > 1:
        return "nonzero"
    if ef.sha_p_order is None or ef.pi_image_status == "unknown":
        return "unresolved"
    return "zero"


def euler_factors_record(ef: EulerFactors) -> dict:
    """JSON-ready view of the factors with the vanishing verdict attached."""
    return {**_asdict(ef), "mu_lambda_vanish": mu_lambda_vanish(ef)}
