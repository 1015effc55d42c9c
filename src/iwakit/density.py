"""Chebotarev density of the distinguished prime set and growth diagnostics.

The density alpha = (p^2-p-1)/(p^3-p^2-p+1) counts Frobenius elements of
determinant 1 and trace != 2 in GL_2(F_p); a brute-force matrix enumeration
must reproduce it exactly.  The field-counting function g(X) then grows like
c * X * (log X)^{(p-1)alpha - 1}, and the module fits that log exponent from
exact tables as a diagnostic.  All densities are exact rationals; floats
appear only inside the least-squares fit.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

from ._record import _frozen
from .classify import _distinguished_primes
from .counting import GRID_BUDGET, TraceCache
from .elliptic import WeierstrassModel
from .fields import _m_totals, _product_totals_dfs
from .ntheory import check_odd_prime, iroot

__all__ = [
    "DensityReport",
    "FitUnavailableError",
    "alpha_brute_force",
    "alpha_closed_form",
    "asymptotic_report",
    "delange_exponents",
    "density_record",
    "empirical_density",
    "table_csv",
]

BRUTE_FORCE_BOUND = 31


class FitUnavailableError(ValueError):
    """The grid has too few usable points for a least-squares fit."""


def _sl2_trace_histogram(p: int) -> list[int]:
    """Matrices in SL_2(F_p) per trace t in 0..p-1, by exhaustive entry enumeration."""
    counts = [0] * p
    for a in range(p):
        for b in range(p):
            for c in range(p):
                for d in range(p):
                    if (a * d - b * c) % p == 1:
                        counts[(a + d) % p] += 1
    return counts


def alpha_closed_form(p: int) -> Fraction:
    """Density of primes with Frobenius trace != 2 and determinant 1."""
    check_odd_prime(p)
    return Fraction(p * p - p - 1, p**3 - p * p - p + 1)


def alpha_brute_force(p: int) -> Fraction:
    """The same density as #{A in SL_2 : trace != 2} / #GL_2, enumerated."""
    check_odd_prime(p)
    if p > BRUTE_FORCE_BOUND:
        raise ValueError(f"enumeration budget is p <= {BRUTE_FORCE_BOUND}, got {p}")
    counts = _sl2_trace_histogram(p)
    gl2 = (p * p - 1) * (p * p - p)
    return Fraction(sum(counts) - counts[2 % p], gl2)


def empirical_density(
    model: WeierstrassModel,
    p: int,
    bound: int,
    *,
    cache: TraceCache | None = None,
) -> Fraction:
    """Fraction of all primes <= bound that land in the distinguished set."""
    check_odd_prime(p)
    if bound < 2:
        return Fraction(0)
    primes, prime_count = _distinguished_primes(model, p, bound, cache)
    return Fraction(len(primes), prime_count)


def delange_exponents(p: int, alpha: Fraction) -> tuple[Fraction, Fraction]:
    """Pole location a = 1 and order b = (p-1)*alpha of the counting series.

    The counting function then grows like c * X^a * (log X)^(b-1).
    """
    check_odd_prime(p)
    return Fraction(1), (p - 1) * Fraction(alpha)


def beta_stated_form(p: int) -> Fraction:
    """The stated closed form for the log-exponent magnitude.

    Inconsistent with (p-1)*alpha - 1 (see DensityReport.note); kept so the
    discrepancy stays visible instead of being silently resolved.
    """
    check_odd_prime(p)
    return Fraction(p * p - p + 2, p**3 - p * p - p + 1)


@_frozen
class DensityReport:
    """Exact densities, count tables, and the fitted log exponent."""

    p: int
    alpha: Fraction
    alpha_brute: Fraction
    delange_pair: tuple[Fraction, Fraction]
    empirical_density: Fraction
    g_table: tuple[tuple[int, int], ...]
    M_table: tuple[tuple[int, int], ...]
    n_lower_table: tuple[tuple[int, int], ...]
    fitted_exponent: float
    predicted_exponent: Fraction
    beta_stated: Fraction
    beta_proof_consistent: Fraction
    note: str

    def __post_init__(self) -> None:
        check_odd_prime(self.p)
        if self.alpha != self.alpha_brute:
            raise ValueError("closed form and brute force must agree exactly")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if self.delange_pair != (1, (self.p - 1) * self.alpha):
            raise ValueError("Delange pair must be (1, (p-1)*alpha)")
        if self.predicted_exponent != (self.p - 1) * self.alpha - 1:
            raise ValueError("predicted exponent must be (p-1)*alpha - 1")
        if not -1 < self.predicted_exponent < 0:
            raise ValueError("predicted exponent must lie in (-1, 0)")
        if self.beta_proof_consistent != -self.predicted_exponent:
            raise ValueError("the proof-consistent beta is the negated exponent")
        for table in (self.g_table, self.M_table, self.n_lower_table):
            xs = [x for x, _ in table]
            vals = [v for _, v in table]
            if xs != sorted(set(xs)):
                raise ValueError("table abscissae must be strictly increasing")
            if vals != sorted(vals):
                raise ValueError("counting functions are nondecreasing")
        expected = tuple((x ** (self.p - 1), g) for x, g in self.g_table)
        if self.n_lower_table != expected:
            raise ValueError("lower-bound curve must be the g table at X^(p-1)")


def asymptotic_report(
    model: WeierstrassModel,
    p: int,
    grid,
    *,
    cache: TraceCache | None = None,
) -> DensityReport:
    """Exact g/M tables over the grid plus the fitted log exponent.

    One sieve up to the grid maximum gives the empirical density and the
    distinguished primes; a_ell is looked up (and stored in the cache) only at
    the good primes ell = 1 mod p.  g and M at every grid point are then
    counted off the products of those primes and of all primes = 1 mod p,
    with no table of conductors built.

    The final table doubles as a lower-bound curve: the count of fields with
    conductor <= X bounds the rank-growth count at discriminant X^(p-1) from
    below, and only ever appears as a bound here.
    """
    check_odd_prime(p)
    grid = tuple(int(x) for x in grid)
    if len(grid) < 4:
        raise FitUnavailableError(f"need at least 4 grid points, got {len(grid)}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    if grid[0] < 1:
        raise ValueError("grid points must be >= 1")
    if grid[-1] > GRID_BUDGET:
        raise ValueError(f"grid max {grid[-1]} exceeds the budget {GRID_BUDGET}")

    alpha = alpha_closed_form(p)
    primes, prime_count = _distinguished_primes(model, p, grid[-1], cache)
    density = Fraction(len(primes), prime_count)
    g_table = tuple(zip(grid, _product_totals_dfs(primes, p, grid)))
    m_table = tuple(zip(grid, _m_totals(p, [iroot(x, p - 1) for x in grid])))

    usable = [(x, g) for x, g in g_table if g > 0]
    if len(usable) < 2:
        raise FitUnavailableError("need at least 2 grid points with g > 0 to fit")
    xs = [math.log(math.log(x)) for x, _ in usable]
    ys = [math.log(g) - math.log(x) for x, g in usable]
    fitted = statistics.linear_regression(xs, ys).slope

    predicted = (p - 1) * alpha - 1
    return DensityReport(
        p=p,
        alpha=alpha,
        alpha_brute=alpha_brute_force(p),
        delange_pair=delange_exponents(p, alpha),
        empirical_density=density,
        g_table=g_table,
        M_table=m_table,
        n_lower_table=tuple((x ** (p - 1), g) for x, g in g_table),
        fitted_exponent=fitted,
        predicted_exponent=predicted,
        beta_stated=beta_stated_form(p),
        beta_proof_consistent=-predicted,
        note=(
            "log exponent taken as (p-1)*alpha - 1 = -p/(p^2-1); the alternative "
            f"closed form {beta_stated_form(p)} does not match {-predicted} and is "
            "carried as beta_stated without being used"
        ),
    )


def density_record(report: DensityReport) -> dict:
    """JSON-ready view with exact rationals rendered as fraction strings."""
    return {
        "p": report.p,
        "alpha": str(report.alpha),
        "alpha_brute": str(report.alpha_brute),
        "delange_pair": [str(v) for v in report.delange_pair],
        "empirical_density": str(report.empirical_density),
        "empirical_density_float": float(report.empirical_density),
        "g_table": [list(row) for row in report.g_table],
        "M_table": [list(row) for row in report.M_table],
        "n_lower_table": [list(row) for row in report.n_lower_table],
        "fitted_exponent": report.fitted_exponent,
        "predicted_exponent": str(report.predicted_exponent),
        "predicted_exponent_float": float(report.predicted_exponent),
        "beta_stated": str(report.beta_stated),
        "beta_proof_consistent": str(report.beta_proof_consistent),
        "note": report.note,
    }


def table_csv(table, value_name: str) -> str:
    """Two-column CSV for a (X, count) table."""
    lines = [f"X,{value_name}"]
    lines.extend(f"{x},{v}" for x, v in table)
    return "\n".join(lines) + "\n"
