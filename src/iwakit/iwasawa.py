"""Characteristic series of torsion Iwasawa modules and their invariants.

A series carries its coefficients either exactly (constructed from known
integral data) or at a uniform p-adic precision p^N.  The two zero states are
kept apart: an exactly-zero constant term makes the Euler characteristic
undefined, while a constant term that merely vanishes at the tracked
precision raises PrecisionError instead of being misreported.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._poly import _mul
from .ntheory import check_odd_prime, padic_valuation

__all__ = [
    "CharSeries",
    "IwasawaInvariants",
    "PrecisionError",
    "EulerCharUndefinedError",
    "from_elementary",
    "iwasawa_invariants",
    "euler_char_defined",
    "euler_characteristic",
    "mu_lambda_zero",
    "multiply",
]

DEFAULT_PRECISION = 20


class PrecisionError(ValueError):
    """A quantity is indeterminate at the tracked p-adic precision."""


class EulerCharUndefinedError(ValueError):
    """The constant term is exactly zero, so no Euler characteristic exists."""


@dataclass(frozen=True)
class CharSeries:
    """f(T) = a0 + a1 T + ... + a_d T^d with p-adic integer coefficients.

    exact=True means the integers are the true coefficients; otherwise each
    is only known modulo p^precision.
    """

    p: int
    coeffs: tuple[int, ...]
    precision: int = DEFAULT_PRECISION
    exact: bool = True

    def __post_init__(self) -> None:
        check_odd_prime(self.p)
        if self.precision < 1:
            raise ValueError(f"precision must be >= 1, got {self.precision}")
        if not self.coeffs:
            raise ValueError("a characteristic series needs at least one coefficient")
        coeffs = tuple(int(c) for c in self.coeffs)
        if self.exact:
            while len(coeffs) > 1 and coeffs[-1] == 0:
                coeffs = coeffs[:-1]
            if coeffs == (0,):
                raise ValueError("the zero series has no Iwasawa invariants")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def modulus(self) -> int:
        return self.p**self.precision

    def coeff_is_zero_at_precision(self, i: int) -> bool:
        c = self.coeffs[i]
        if self.exact:
            return c == 0
        return c % self.modulus == 0

    def coeff_valuation(self, i: int) -> int | None:
        """v_p of the i-th coefficient, or None when indeterminate/infinite."""
        if self.coeff_is_zero_at_precision(i):
            return None
        c = self.coeffs[i] if self.exact else self.coeffs[i] % self.modulus
        return padic_valuation(c, self.p)


@dataclass(frozen=True)
class IwasawaInvariants:
    mu: int
    lambda_: int
    euler_char_defined: bool
    euler_char_valuation: int | None

    def __post_init__(self) -> None:
        if self.mu < 0 or self.lambda_ < 0:
            raise ValueError("mu and lambda are nonnegative")
        if self.euler_char_defined and (self.euler_char_valuation is None or self.euler_char_valuation < 0):
            raise ValueError("a defined Euler characteristic has a natural valuation")
        if not self.euler_char_defined and self.euler_char_valuation is not None:
            raise ValueError("undefined Euler characteristic cannot carry a valuation")


def from_elementary(
    p: int,
    p_powers: list[int],
    polys: list[tuple[list[int], int]],
) -> CharSeries:
    """Characteristic series prod_i p^{m_i} * prod_j f_j(T)^{n_j}.

    Each poly is (coefficients low to high, multiplicity) and must be
    distinguished: monic of degree >= 1 with all lower coefficients
    divisible by p.
    """
    if any(m < 0 for m in p_powers):
        raise ValueError("p-power exponents must be nonnegative")
    coeffs = [p ** sum(p_powers)]
    for poly, mult in polys:
        poly = [int(c) for c in poly]
        if len(poly) < 2 or poly[-1] != 1:
            raise ValueError(f"not a distinguished polynomial: {poly}")
        if any(c % p for c in poly[:-1]):
            raise ValueError(f"lower coefficients must be divisible by {p}: {poly}")
        if mult < 1:
            raise ValueError(f"multiplicity must be >= 1, got {mult}")
        for _ in range(mult):
            coeffs = _mul(coeffs, poly)
    return CharSeries(p=p, coeffs=tuple(coeffs), exact=True)


def multiply(f: CharSeries, g: CharSeries) -> CharSeries:
    if f.p != g.p:
        raise ValueError("cannot multiply series over different primes")
    return CharSeries(
        p=f.p,
        coeffs=tuple(_mul(list(f.coeffs), list(g.coeffs))),
        precision=min(f.precision, g.precision),
        exact=f.exact and g.exact,
    )


def euler_char_defined(f: CharSeries) -> bool:
    """Whether a0 != 0, i.e. the Euler characteristic exists."""
    if not f.coeff_is_zero_at_precision(0):
        return True
    if f.exact:
        return False
    raise PrecisionError(
        f"a0 vanishes modulo {f.p}^{f.precision}; exact vanishing is undecidable"
    )


def euler_characteristic(f: CharSeries) -> int:
    """p^{v_p(a0)}, the Euler characteristic as an exact p-power."""
    if not euler_char_defined(f):
        raise EulerCharUndefinedError("a0 = 0: no Euler characteristic")
    v = f.coeff_valuation(0)
    assert v is not None
    return f.p**v


def mu_lambda_zero(f: CharSeries) -> bool:
    """True iff p does not divide a0; equivalent to mu = lambda = 0 and chi = 1."""
    if not euler_char_defined(f):
        raise EulerCharUndefinedError("a0 = 0: hypothesis of the unit-term criterion fails")
    return f.coeff_valuation(0) == 0


def iwasawa_invariants(f: CharSeries) -> IwasawaInvariants:
    """mu = min v_p(a_i), lambda = Weierstrass degree of f / p^mu."""
    vals = [f.coeff_valuation(i) for i in range(len(f.coeffs))]
    known = [v for v in vals if v is not None]
    if not known:
        raise PrecisionError(
            f"all coefficients vanish modulo {f.p}^{f.precision}; invariants indeterminate"
        )
    mu = min(known)
    lam = next(i for i, v in enumerate(vals) if v == mu)
    if f.coeff_is_zero_at_precision(0):
        if f.exact:
            defined, ecv = False, None
        else:
            raise PrecisionError(
                f"a0 vanishes modulo {f.p}^{f.precision}; Euler characteristic indeterminate"
            )
    else:
        defined, ecv = True, vals[0]
    return IwasawaInvariants(mu=mu, lambda_=lam, euler_char_defined=defined,
                             euler_char_valuation=ecv)
