"""Density constants, empirical diagnostics, and the asymptotic report."""

import bisect
import json
from fractions import Fraction

import pytest

from iwakit import counting, ntheory
from iwakit.classify import bulk_classify
from iwakit.counting import TraceCache
from iwakit.density import (
    DensityReport,
    FitUnavailableError,
    alpha_brute_force,
    alpha_closed_form,
    asymptotic_report,
    beta_stated_form,
    delange_exponents,
    density_record,
    empirical_density,
    table_csv,
    _sl2_trace_histogram,
)
from iwakit.elliptic import WeierstrassModel
from iwakit.fields import g_steps, m_steps, script_q_primes
from iwakit.ntheory import iroot, sieve_primes
from test_fields import m_totals_sieve, totals_sieve

E99 = WeierstrassModel(0, 0, 1, -3, -5)
E887 = WeierstrassModel(1, 0, 0, 887, -804)


def test_sl2_trace_two_is_p_squared():
    # the trace histogram that alpha_brute_force reads
    for p in (3, 5, 7, 11):
        assert _sl2_trace_histogram(p)[2] == (p - 1) ** 2 + (2 * p - 1) == p * p


def test_sl2_trace_counts_partition_the_group():
    for p in (3, 5):
        assert sum(_sl2_trace_histogram(p)) == p * (p * p - 1)


def test_sl2_rejects_bad_p():
    with pytest.raises(ValueError):
        alpha_brute_force(2)
    with pytest.raises(ValueError):
        alpha_brute_force(9)


def test_alpha_closed_form_values():
    assert alpha_closed_form(3) == Fraction(5, 16)
    assert alpha_closed_form(5) == Fraction(19, 96)
    assert alpha_closed_form(7) == Fraction(41, 288)


def test_alpha_brute_force_matches_exactly():
    for p in (3, 5, 7, 11, 13):
        assert alpha_brute_force(p) == alpha_closed_form(p)


def test_alpha_brute_force_budget():
    with pytest.raises(ValueError, match="budget"):
        alpha_brute_force(37)


def test_alpha_in_open_unit_interval():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        assert 0 < alpha_closed_form(p) < 1


def test_empirical_density_near_alpha():
    dens = empirical_density(E99, 3, 10**4)
    assert isinstance(dens, Fraction)
    assert abs(float(dens) - 5 / 16) < 0.05


def test_empirical_density_trivial_cases():
    assert empirical_density(E99, 3, 1) == 0
    assert empirical_density(E99, 3, 5) == 0  # first distinguished prime is 7
    assert empirical_density(E99, 3, 7) == Fraction(1, 4)  # {2,3,5,7}, hit at 7


def test_empirical_density_dual_route():
    # distinguished membership equals the trace-is-not-2 test on 1 mod p primes
    records = bulk_classify(E99, 3, 2000)
    hits = 0
    for r in records:
        if r.category != "Q1" and r.ell % 3 == 1:
            assert r.in_script_q == (r.a_ell % 3 != 2), r
        if r.in_script_q:
            hits += 1
    dens = empirical_density(E99, 3, 2000)
    total_primes = len(records) + 1  # records exclude p itself
    assert dens == Fraction(hits, total_primes)


def test_delange_exponents():
    assert delange_exponents(3, Fraction(5, 16)) == (1, Fraction(5, 8))
    assert delange_exponents(5, Fraction(19, 96)) == (1, Fraction(19, 24))
    for p in (3, 5, 7, 11, 13):
        _, b = delange_exponents(p, alpha_closed_form(p))
        assert b - 1 == Fraction(-p, p * p - 1)


def test_beta_discrepancy_is_surfaced():
    assert beta_stated_form(3) == Fraction(1, 2)
    # the proof-consistent magnitude is 3/8; the two genuinely differ
    assert beta_stated_form(3) != Fraction(3, 8)
    for p in (3, 5, 7):
        assert beta_stated_form(p) != Fraction(p, p * p - 1)


def test_asymptotic_report_small_grid():
    cache = TraceCache()
    rep = asymptotic_report(E99, 3, [7, 100, 1000, 10**4], cache=cache)
    assert rep.alpha == rep.alpha_brute == Fraction(5, 16)
    assert rep.g_table[0] == (7, 1)
    grid = [x for x, _ in rep.g_table]
    assert (rep.g_table, rep.M_table) == _sieve_tables(E99, 3, grid, cache)
    assert rep.n_lower_table == tuple((x * x, g) for x, g in rep.g_table)
    assert rep.predicted_exponent == Fraction(-3, 8)
    assert rep.beta_proof_consistent == Fraction(3, 8)
    assert rep.beta_stated == Fraction(1, 2)
    assert isinstance(rep.fitted_exponent, float)
    assert "beta_stated" in rep.note or "alternative" in rep.note
    assert rep.empirical_density == empirical_density(E99, 3, 10**4, cache=cache)


def _sieve_tables(model, p, grid, cache=None):
    """The g and M tables over the grid from the sieve-totals oracle."""
    g = totals_sieve(script_q_primes(model, p, grid[-1], cache=cache), p, grid)
    m = m_totals_sieve(p, [iroot(x, p - 1) for x in grid])
    return tuple(zip(grid, g)), tuple(zip(grid, m))


def _at(steps, x):
    """The running count of a step table at x."""
    k = bisect.bisect_right([s for s, _ in steps], x)
    return steps[k - 1][1] if k else 0


@pytest.mark.parametrize("method", ["dfs", "sieve"])
def test_asymptotic_report_tables_at_and_between_jumps(method):
    # 7 and 49 are jumps of g and M, 81 = 9^2 brings in the wild conductor 9;
    # the step tables of either weight builder pin g and M at every X
    grid = [1, 7, 48, 49, 80, 81, 700]
    cache = TraceCache()
    rep = asymptotic_report(E99, 3, grid, cache=cache)
    g = g_steps(E99, 3, grid[-1], cache=cache, method=method)
    m = m_steps(3, grid[-1], method=method)
    assert rep.g_table == tuple((x, _at(g, x)) for x in grid)
    assert rep.M_table == tuple((x, _at(m, x)) for x in grid)
    assert (rep.g_table, rep.M_table) == _sieve_tables(E99, 3, grid, cache)
    assert rep.empirical_density == empirical_density(E99, 3, 700, cache=cache)


@pytest.mark.parametrize("p, grid", [
    # g jumps at 7, 13 and 7 * 13; M at 7^2, at the wild 9^2, at (9 * 7)^2 and 91^2
    (3, [6, 7, 12, 13, 48, 49, 80, 81, 90, 91, 3968, 3969, 8280, 8281]),
    # g jumps at 41, 71 and 41 * 71; M at 11^4 and at the wild 25^4
    (5, [40, 41, 70, 71, 2910, 2911, 14640, 14641, 390624, 390625]),
    # g jumps at 29, 43 and 29 * 43; M has no field below 29^6, past the budget
    (7, [28, 29, 42, 43, 1246, 1247, 2000]),
], ids=["3", "5", "7"])
def test_report_tables_equal_the_sieve_totals_oracle(p, grid):
    cache = TraceCache(None)
    rep = asymptotic_report(E99, p, grid, cache=cache)
    assert (rep.g_table, rep.M_table) == _sieve_tables(E99, p, grid, cache)


@pytest.mark.parametrize("p", [3, 5])
def test_cold_report_counts_only_primes_one_mod_p(monkeypatch, p):
    counted = []
    count = counting._count_points

    def recording(model, ell):
        counted.append(ell)
        return count(model, ell)

    monkeypatch.setattr(counting, "_count_points", recording)
    grid = [100, 1000, 2000, 4000]
    report = asymptotic_report(E99, p, grid, cache=TraceCache(None))
    assert all(ell % p == 1 for ell in counted)
    assert len(counted) == len(set(counted))
    # at most every prime = 1 mod p, about 1/(p-1) of all primes
    assert 1 <= len(counted) <= sum(1 for ell in sieve_primes(grid[-1]) if ell % p == 1)
    assert report.empirical_density == empirical_density(E99, p, grid[-1])


def test_alternating_reports_sieve_once_per_key(monkeypatch):
    sieved = []
    odd_flags = ntheory._odd_flags

    def recording(bound):
        sieved.append(bound)
        return odd_flags(bound)

    monkeypatch.setattr(ntheory, "_odd_flags", recording)
    ntheory._primes_1_mod_2p.cache_clear()
    grid = [100, 1000, 2000, 4000]
    cache = TraceCache(None)
    for _ in range(3):
        for p in (3, 5):
            asymptotic_report(E99, p, grid, cache=cache)
    # the keys (4000, 3), (4000, 5) and the M tables' top conductors
    # (iroot(4000, 2), 3) = (63, 3) and (iroot(4000, 4), 5) = (7, 5)
    assert sorted(sieved) == [7, 63, 4000, 4000]


def test_reports_in_one_process_equal_reports_on_a_cleared_cache():
    # the kept primes = 1 mod p carry no curve's or p's answer into another report
    grid = [100, 1000, 2000, 4000]
    runs = [(model, p) for model in (E99, E887) for p in (3, 5)] * 2
    cache = TraceCache(None)
    shared = [asymptotic_report(model, p, grid, cache=cache) for model, p in runs]
    fresh = []
    for model, p in runs:
        ntheory._primes_1_mod_2p.cache_clear()
        fresh.append(asymptotic_report(model, p, grid, cache=TraceCache(None)))
    assert shared == fresh
    assert len({report.g_table for report in shared}) == 4
    for (model, p), report in zip(runs[:4], shared):
        assert (report.g_table, report.M_table) == _sieve_tables(model, p, grid, cache)


def test_asymptotic_report_grid_errors():
    with pytest.raises(FitUnavailableError):
        asymptotic_report(E99, 3, [10, 100, 1000])
    with pytest.raises(ValueError, match="increasing"):
        asymptotic_report(E99, 3, [10, 10, 100, 1000])
    with pytest.raises(ValueError, match="budget"):
        asymptotic_report(E99, 3, [10, 100, 1000, 10**8])
    with pytest.raises(ValueError, match="must be >= 1"):
        asymptotic_report(E99, 3, [0, 7, 48, 49])
    with pytest.raises(FitUnavailableError, match="g > 0"):
        asymptotic_report(E99, 3, [2, 3, 4, 5])


def _weights_from_steps(steps):
    weights = {}
    previous = 0
    for x, running in steps:
        weights[x] = running - previous
        previous = running
    return weights


def test_restricted_count_is_a_subcount():
    # every field counted by g appears among all fields at discriminant X^(p-1)
    grid = [7, 50, 100, 600]
    g = totals_sieve(script_q_primes(E99, 3, grid[-1]), 3, grid)
    m = m_totals_sieve(3, grid)  # conductor <= X, so discriminant <= X^2
    assert all(a <= b for a, b in zip(g, m)), (g, m)
    g_weights = _weights_from_steps(g_steps(E99, 3, 600))
    m_weights = _weights_from_steps(m_steps(3, 600 * 600))
    for conductor, gw in g_weights.items():
        disc = conductor * conductor
        assert disc in m_weights, conductor
        assert gw <= m_weights[disc]


def test_density_record_and_csv():
    rep = asymptotic_report(E99, 3, [7, 91, 700, 3000])
    rec = density_record(rep)
    blob = json.dumps(rec, sort_keys=True)
    parsed = json.loads(blob)
    assert parsed["alpha"] == "5/16"
    assert parsed["predicted_exponent"] == "-3/8"
    assert parsed["beta_stated"] == "1/2"
    assert parsed["g_table"][0] == [7, 1]
    csv = table_csv(rep.g_table, "g")
    lines = csv.strip().split("\n")
    assert lines[0] == "X,g"
    assert lines[1] == "7,1"


def test_density_report_validation():
    rep = asymptotic_report(E99, 3, [7, 91, 700, 3000])

    def changed(**fields):
        # a record's __dict__ holds its fields; the class checks them again
        return DensityReport(**{**vars(rep), **fields})

    assert changed() == rep
    with pytest.raises(ValueError):
        changed(alpha_brute=Fraction(1, 3))
    with pytest.raises(ValueError):
        changed(delange_pair=(Fraction(1), Fraction(1, 2)))
    with pytest.raises(ValueError):
        changed(predicted_exponent=Fraction(-1, 2))
    with pytest.raises(ValueError):
        changed(n_lower_table=((49, 1),))
    with pytest.raises(ValueError):
        changed(g_table=((700, 3), (7, 1), (91, 2), (3000, 4)))


def test_report_rejects_even_p():
    with pytest.raises(ValueError):
        asymptotic_report(E99, 2, [7, 91, 700, 3000])
