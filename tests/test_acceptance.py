"""End-to-end acceptance sweep: ten numbered checks with stated tolerances.

Each test is one criterion; the -v report gives the per-criterion
pass/fail line.  Time limits are asserted where a criterion states one.
"""

import random
import time
from itertools import combinations

import pytest

from iwakit.classify import classify_prime
from iwakit.counting import (
    TraceCache,
    count_points,
    count_points_bsgs,
    count_points_naive,
    frobenius_data,
    order_over_extension,
)
from iwakit.density import (
    alpha_brute_force,
    alpha_closed_form,
    asymptotic_report,
    empirical_density,
    sl2_trace_count,
)
from iwakit.elliptic import SingularCurveError, WeierstrassModel, minimal_model, reduction_type
from iwakit.eulerchar import euler_char_factors, mu_lambda_vanish
from iwakit.fields import (
    CyclicExtension,
    count_extensions,
    discriminant,
    enumerate_extensions,
    g_steps,
    m_steps,
)
from iwakit.iwasawa import (
    CharSeries,
    euler_char_defined,
    euler_characteristic,
    from_elementary,
    iwasawa_invariants,
    mu_lambda_zero,
    multiply,
)
from iwakit.kida import lambda_transfer, rank_bound
from iwakit.ntheory import sieve_primes

from test_counting import ext_count

E99 = WeierstrassModel(0, 0, 1, -3, -5)
EXT7 = CyclicExtension(p=3, tame_ramified=(7,), wild_at_p=False, exponents=(1,))


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    return TraceCache(tmp_path_factory.mktemp("acceptance-traces"))


def _random_curves(rng: random.Random, count: int) -> list[WeierstrassModel]:
    out: list[WeierstrassModel] = []
    seen = set()
    while len(out) < count:
        coeffs = (rng.randint(0, 1), rng.choice((-1, 0, 1)), rng.randint(0, 1),
                  rng.randint(-15, 15), rng.randint(-15, 15))
        if coeffs in seen:
            continue
        seen.add(coeffs)
        try:
            out.append(WeierstrassModel(*coeffs))
        except SingularCurveError:
            continue
    return out


def test_acceptance_01_worked_example(shared_cache):
    start = time.perf_counter()
    minimal, _ = minimal_model(E99)
    assert reduction_type(minimal, 3).type == "additive"
    assert reduction_type(minimal, 11).type.endswith("multiplicative")
    assert count_points(E99, 7) == 10
    verdict = classify_prime(E99, 3, 7, cache=shared_cache)
    assert verdict.category == "Q3"
    assert verdict.in_script_q is True
    result = lambda_transfer(0, 3, EXT7, E99)
    assert result.lambda_L == 0
    assert rank_bound(result) == 0
    assert time.perf_counter() - start < 1.0


def test_acceptance_02_euler_characteristic_criterion():
    start = time.perf_counter()
    factors = euler_char_factors(E99, 3)
    assert mu_lambda_vanish(factors) == "zero"
    # the same verdict through the power-series criterion on a series whose
    # constant term realizes the product of the factors
    a0 = factors.sha_p_order * factors.frak_F_count * factors.tamagawa_product
    series = CharSeries(p=3, coeffs=(a0, 1))
    assert mu_lambda_zero(series) is True
    assert (mu_lambda_vanish(factors) == "zero") == mu_lambda_zero(series)
    assert time.perf_counter() - start < 1.0


def test_acceptance_03_density_closed_form_vs_brute_force():
    start = time.perf_counter()
    for p in (3, 5, 7, 11, 13):
        assert alpha_closed_form(p) == alpha_brute_force(p)
    assert alpha_closed_form(3) == pytest.approx(5 / 16)
    assert str(alpha_closed_form(3)) == "5/16"
    assert str(alpha_closed_form(5)) == "19/96"
    assert time.perf_counter() - start < 10.0


def test_acceptance_04_sl2_trace_identity():
    for p in (3, 5, 7, 11):
        count = sl2_trace_count(p, 2)
        assert count == (p - 1) ** 2 + (2 * p - 1)
        assert count == p * p


def test_acceptance_05_extension_counting():
    pools = {3: (7, 13, 19, 31), 5: (11, 31, 41, 61)}
    for p, pool in pools.items():
        for k in range(1, 5):
            for subset in combinations(pool, k):
                fields = enumerate_extensions(p, subset)
                assert len(fields) == (p - 1) ** (k - 1)
                assert len(fields) == count_extensions(p, subset)
    (cubic,) = enumerate_extensions(3, (7,))
    assert discriminant(cubic) == 49


def test_acceptance_06_dual_algorithm_counting(shared_cache):
    start = time.perf_counter()
    bound = 10**5
    g_dfs = g_steps(E99, 3, bound, cache=shared_cache, method="dfs")
    g_sieve = g_steps(E99, 3, bound, cache=shared_cache, method="sieve")
    assert g_dfs == g_sieve  # pins g_of_X for every X <= bound
    assert g_dfs[0] == (7, 1)
    m_dfs = m_steps(3, bound, method="dfs")
    m_sieve = m_steps(3, bound, method="sieve")
    assert m_dfs == m_sieve  # pins M_of_X for every X <= bound
    assert m_dfs[0] == (49, 1)
    assert time.perf_counter() - start < 60.0


def test_acceptance_07_point_counting_oracles():
    rng = random.Random(20260822)
    curves = _random_curves(rng, 20)
    primes = [q for q in sieve_primes(2000) if q > 457]
    for w in curves:
        for q in primes:
            if w.disc % q == 0:
                continue
            assert count_points_bsgs(w, q) == count_points_naive(w, q), (w, q)
    # extension orders against literal enumeration over F_{ell^n}
    for w in (E99, WeierstrassModel(1, 0, 0, 0, 1)):
        for ell in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            if w.disc % ell == 0:
                continue
            fd = frobenius_data(w, ell)
            n = 2
            while ell**n <= 2500:
                assert order_over_extension(fd, n) == ext_count(w, ell, n), (w, ell, n)
                n += 1


def test_acceptance_08_p2_reduction_property():
    rng = random.Random(8)
    curves = _random_curves(rng, 110)
    assert len(curves) >= 100
    primes = sieve_primes(199)
    for w in curves:
        minimal, _ = minimal_model(w)
        for ell in primes:
            if minimal.disc % ell == 0:
                continue
            fd = frobenius_data(minimal, ell)
            for p in (3, 5):
                for f in (1, p):
                    base = order_over_extension(fd, f) % p == 0
                    for n in (1, 2, 3):
                        grown = order_over_extension(fd, f * p**n) % p == 0
                        assert grown == base, (w, ell, p, f, n)


def test_acceptance_09_iwasawa_invariant_suite():
    rng = random.Random(9)

    def random_series(p):
        m = rng.randint(0, 2)
        lam = 0
        polys = []
        for _ in range(rng.randint(0, 2)):
            degree = rng.randint(1, 3)
            multiplicity = rng.randint(1, 2)
            coeffs = [p * rng.randint(0, p) for _ in range(degree)] + [1]
            polys.append((coeffs, multiplicity))
            lam += degree * multiplicity
        return m, lam, from_elementary(p, [m], polys)

    for _ in range(1000):
        p = rng.choice((3, 5, 7))
        m, lam, f = random_series(p)
        inv = iwasawa_invariants(f)
        assert inv.mu == m
        assert inv.lambda_ == lam
        # invariants add under multiplication
        m2, lam2, g = random_series(p)
        product = multiply(f, g)
        pinv = iwasawa_invariants(product)
        assert pinv.mu == m + m2
        assert pinv.lambda_ == lam + lam2
        # unit constant term, vanishing invariants, and trivial Euler
        # characteristic are one and the same condition
        a0 = product.coeffs[0]
        if a0 == 0:
            assert not euler_char_defined(product)
        else:
            unit = a0 % p != 0
            assert mu_lambda_zero(product) == unit
            assert (pinv.mu == 0 and pinv.lambda_ == 0) == unit
            assert (euler_characteristic(product) == 1) == unit


def test_acceptance_10_chebotarev_diagnostic(shared_cache):
    start = time.perf_counter()
    density = empirical_density(E99, 3, 10**5, cache=shared_cache)
    assert abs(float(density) - 5 / 16) < 0.05
    report = asymptotic_report(E99, 3, (10**3, 10**4, 10**5, 10**6), cache=shared_cache)
    assert abs(report.fitted_exponent - (-3 / 8)) < 0.15
    assert time.perf_counter() - start < 600.0
