"""Twist pipeline, division polynomials, and the vanishing criterion."""

import json

import pytest

from iwakit.counting import _ec_mul, count_points_naive
from iwakit.elliptic import WeierstrassModel, minimal_model, quadratic_twist, reduction_type
from iwakit import eulerchar
from iwakit.eulerchar import (
    EulerFactors,
    HypothesisNotMetError,
    SupersingularTwistError,
    TwistNotGoodError,
    _division_poly_torsion,
    _twist_at_p,
    division_polynomial,
    euler_char_factors,
    euler_factors_record,
    good_ordinary_twist,
    has_rational_p_torsion,
    mu_lambda_vanish,
    tamagawa_product_away_from,
)
from iwakit.iwasawa import CharSeries, mu_lambda_zero

E99 = WeierstrassModel(0, 0, 1, -3, -5)
E11 = WeierstrassModel(0, -1, 1, -10, -20)
E37 = WeierstrassModel(0, 0, 1, -1, 0)
E389 = WeierstrassModel(0, 1, 1, -2, 0)
E27 = WeierstrassModel(0, 0, 1, 0, 0)
E32 = WeierstrassModel(0, 0, 0, -1, 0)


def test_division_polynomial_base_cases():
    m = WeierstrassModel(1, 2, 3, 4, 5)
    assert division_polynomial(m, 1) == [1]
    assert division_polynomial(m, 3) == [m.b8, 3 * m.b6, 3 * m.b4, m.b2, 3]


def test_division_polynomial_degree_and_lead():
    m = WeierstrassModel(0, 0, 0, -2, 3)
    for p in (3, 5, 7, 9, 11, 13, 15):
        psi = division_polynomial(m, p)
        assert len(psi) - 1 == (p * p - 1) // 2
        assert psi[-1] == p


def test_division_polynomial_rejects_even():
    m = WeierstrassModel(0, 0, 0, -1, 0)
    with pytest.raises(ValueError):
        division_polynomial(m, 2)
    with pytest.raises(ValueError):
        division_polynomial(m, 0)


def _pol_eval_mod(coeffs, x, q):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


def test_division_polynomial_vs_point_orders():
    # on a short model over F_q, psi_n(x(P)) = 0 exactly when n kills P
    curves = [(-1, 0), (-2, 3), (1, 1), (4, 4)]
    for a, b in curves:
        m = WeierstrassModel(0, 0, 0, a, b)
        for q in (5, 7, 11, 13, 17):
            if m.disc % q == 0:
                continue
            polys = {n: division_polynomial(m, n) for n in (3, 5, 7, 9)}
            for x in range(q):
                rhs = (x * x * x + a * x + b) % q
                ys = [y for y in range(q) if y * y % q == rhs]
                for y in ys:
                    for n, psi in polys.items():
                        killed = _ec_mul(n, (x, y), a % q, q) is None
                        assert (_pol_eval_mod(psi, x, q) == 0) == killed, (a, b, q, x, y, n)


def _torsion_xs(a, b, n, q):
    """x of the nonzero points P with nP = O on y^2 = x^3 + ax + b over F_q."""
    return {x for x in range(q) for y in range(q)
            if (y * y - x**3 - a * x - b) % q == 0 and _ec_mul(n, (x, y), a, q) is None}


@pytest.mark.parametrize("n", [9, 11, 13, 15])
def test_division_polynomial_roots_are_torsion_of_curve_and_twist(n):
    # over F_q the roots of psi_n are the x of the nonzero n-torsion of E and
    # of its quadratic twist; n = 13 and 15 reach g(8), the even-m branch of g
    for m in (E99, E11, E37, WeierstrassModel(1, 2, 3, 4, 5)):
        psi = division_polynomial(m, n)
        a, b = m.short  # X = 36x + 3 b2 on the short model Y^2 = X^3 + aX + b
        for q in (37, 41, 43, 47, 53, 59, 61, 67, 71, 73):
            if m.disc % q == 0 or n % q == 0:
                continue
            d = next(d for d in range(2, q) if pow(d, (q - 1) // 2, q) == q - 1)
            # the twist d Y^2 = X^3 + aX + b, as Y'^2 = X'^3 + d^2 a X' + d^3 b with X' = d X
            twist = {x * pow(d, -1, q) % q for x in _torsion_xs(d * d * a, d**3 * b, n, q)}
            roots = {(36 * x + 3 * m.b2) % q for x in range(q) if _pol_eval_mod(psi, x, q) == 0}
            assert roots == _torsion_xs(a, b, n, q) | twist, (m, n, q)


def test_division_polynomial_known_torsion():
    # 5-torsion x-coordinates 5 and 16 on the conductor-11 curve
    psi5 = division_polynomial(E11, 5)
    acc5 = sum(c * 5**i for i, c in enumerate(psi5))
    acc16 = sum(c * 16**i for i, c in enumerate(psi5))
    assert acc5 == 0 and acc16 == 0
    # 3-torsion at x = 0 on the conductor-27 curve
    psi3 = division_polynomial(E27, 3)
    assert psi3[0] == 0


def test_has_rational_p_torsion():
    assert has_rational_p_torsion(E11, 5) is True
    assert has_rational_p_torsion(E27, 3) is True
    assert has_rational_p_torsion(E99, 3) is False
    for p in (3, 5, 7):
        assert has_rational_p_torsion(E37, p) is False
    assert has_rational_p_torsion(E389, 3) is False


def test_division_poly_fallback_direct():
    # bypass the congruence fast path and decide from the polynomial alone
    assert _division_poly_torsion(E11, 5) is True
    assert _division_poly_torsion(E27, 3) is True
    assert _division_poly_torsion(E99, 3) is False
    assert _division_poly_torsion(E37, 5) is False


def test_good_ordinary_twist_example():
    tw = good_ordinary_twist(E99, 3)
    assert tw.d == -3
    assert tw.model == WeierstrassModel(0, -1, 1, 0, 0)
    assert tw.model.disc == -11
    assert tw.a_p == -1
    assert tw.residue_count == 5
    assert count_points_naive(tw.model, 3) == 5


def test_twist_decision_is_kept_per_p(monkeypatch):
    minimal, _ = minimal_model(WeierstrassModel(0, 0, 1, -3, -5))  # fresh: nothing kept yet
    first = _twist_at_p(minimal, 3)
    assert first[2] == -3 and first[3] is not None
    calls = []

    def counted(model, d):
        calls.append(d)
        return quadratic_twist(model, d)

    monkeypatch.setattr(eulerchar, "quadratic_twist", counted)
    assert _twist_at_p(minimal, 3) == first
    assert good_ordinary_twist(minimal, 3).model == first[3]
    euler_char_factors(minimal, 3)
    assert calls == []
    assert _twist_at_p(minimal, 5)[2] == 1  # good at 5: another p, its own decision


def test_good_ordinary_twist_sign_convention():
    # d is p itself when p = 1 mod 4
    m5 = minimal_model(quadratic_twist(WeierstrassModel(0, 1, 1, -2, 0), 5))[0]
    if reduction_type(m5, 5).is_additive:
        tw = good_ordinary_twist(m5, 5)
        assert tw.d == 5


def test_good_ordinary_twist_preconditions():
    with pytest.raises(ValueError):
        good_ordinary_twist(E11, 3)  # already good at 3
    pot_mult = minimal_model(quadratic_twist(E11, -11))[0]
    assert reduction_type(pot_mult, 11).is_additive
    with pytest.raises(ValueError):
        good_ordinary_twist(pot_mult, 11)  # potentially multiplicative


def test_good_ordinary_twist_needs_deeper_twist():
    # j = 0 examples: a quadratic twist can never reach good reduction
    with pytest.raises(TwistNotGoodError):
        good_ordinary_twist(WeierstrassModel(0, 0, 0, 0, 3), 3)
    with pytest.raises(TwistNotGoodError):
        good_ordinary_twist(E27, 3)


def test_good_ordinary_twist_supersingular():
    # the -3 twist of y^2 = x^3 - x is additive at 3; twisting back is
    # supersingular there (a_3 = 0)
    g = minimal_model(quadratic_twist(E32, -3))[0]
    assert reduction_type(g, 3).is_additive
    with pytest.raises(SupersingularTwistError):
        good_ordinary_twist(g, 3)


def test_euler_char_factors_reference_curve():
    ef = euler_char_factors(E99, 3)
    assert ef.sha_p_order == 1
    assert ef.frak_F_count == 5
    assert ef.pi_image_status == "prime_to_p_implied"
    assert ef.tamagawa_product == 1
    assert ef.ordinary and ef.analytic_rank_zero and ef.torsion_free_at_p
    assert mu_lambda_vanish(ef) == "zero"


def test_euler_char_factors_unknown_sha():
    g11 = minimal_model(quadratic_twist(E11, -3))[0]
    ef = euler_char_factors(g11, 3, analytic_rank_zero=True)
    assert ef.sha_p_order is None
    assert ef.frak_F_count == 5
    assert mu_lambda_vanish(ef) == "unresolved"


def test_euler_char_factors_hypothesis_errors():
    g11 = minimal_model(quadratic_twist(E11, -3))[0]
    with pytest.raises(HypothesisNotMetError, match="analytic rank"):
        euler_char_factors(g11, 3)
    with pytest.raises(HypothesisNotMetError, match="analytic rank"):
        euler_char_factors(g11, 3, analytic_rank_zero=False)
    torsion_curve = WeierstrassModel(3, 0, 28, 0, 0)
    with pytest.raises(HypothesisNotMetError, match="torsion|\\[3\\]"):
        euler_char_factors(torsion_curve, 3, analytic_rank_zero=True)


def test_euler_char_factors_without_records():
    # dataset=() holds no record, so the bundled one for E99 at 3 is not read
    with pytest.raises(HypothesisNotMetError, match="no reference record"):
        euler_char_factors(E99, 3, dataset=())
    ef = euler_char_factors(E99, 3, analytic_rank_zero=True, dataset=())
    assert ef.sha_p_order is None


def test_unknown_sha_order_overrides_the_record():
    # the bundled record gives 1; the record format's "unknown" keeps it unknown
    ef = euler_char_factors(E99, 3, sha_order="unknown")
    assert ef.sha_p_order is None
    assert ef.analytic_rank_zero is True
    assert mu_lambda_vanish(ef) == "unresolved"


def test_both_inputs_given_reads_no_record(monkeypatch):
    def no_lookup(*args, **kwargs):
        raise AssertionError("reference_record called")

    monkeypatch.setattr(eulerchar, "reference_record", no_lookup)
    ef = euler_char_factors(E99, 3, sha_order=3, analytic_rank_zero=True)
    assert ef.sha_p_order == 3
    assert mu_lambda_vanish(ef) == "nonzero"
    assert euler_char_factors(E99, 3, sha_order="unknown", analytic_rank_zero=True).sha_p_order is None


@pytest.mark.parametrize("sha_order", ["1", "abc", "", 1.0, True])
def test_sha_order_is_an_integer_or_unknown(sha_order):
    with pytest.raises(ValueError, match="integer or 'unknown'"):
        euler_char_factors(E99, 3, sha_order=sha_order)


def test_tamagawa_product():
    assert tamagawa_product_away_from(E99, 3) == 1  # c_11 = 1
    assert tamagawa_product_away_from(E11, 3) == 5  # c_11 = 5, p = 3 spectator
    assert tamagawa_product_away_from(E11, 11) == 1  # the only bad prime excluded


def test_mu_lambda_vanish_cases():
    base = dict(p=3, sha_p_order=1, frak_F_count=5, pi_image_status="prime_to_p_implied",
                tamagawa_product=1, ordinary=True, analytic_rank_zero=True,
                torsion_free_at_p=True)
    assert mu_lambda_vanish(EulerFactors(**base)) == "zero"
    assert mu_lambda_vanish(EulerFactors(**{**base, "tamagawa_product": 6})) == "nonzero"
    assert mu_lambda_vanish(EulerFactors(**{**base, "sha_p_order": 3})) == "nonzero"
    assert mu_lambda_vanish(EulerFactors(**{**base, "sha_p_order": None})) == "unresolved"
    divisible = {**base, "frak_F_count": 6, "pi_image_status": "unknown"}
    assert mu_lambda_vanish(EulerFactors(**divisible)) == "nonzero"
    # an unknown local-points factor with everything else a unit stays open
    open_pi = {**base, "pi_image_status": "unknown", "frak_F_count": 5}
    assert mu_lambda_vanish(EulerFactors(**open_pi)) == "unresolved"


def test_vanish_bridges_to_unit_term_criterion():
    # the criterion agrees with the constant-term test on any series whose
    # constant term realizes the product of known factors
    ef = euler_char_factors(E99, 3)
    a0 = ef.sha_p_order * ef.frak_F_count * ef.tamagawa_product
    series = CharSeries(p=3, coeffs=(a0, 1))
    assert (mu_lambda_vanish(ef) == "zero") == mu_lambda_zero(series)


def test_euler_factors_validation():
    with pytest.raises(ValueError):
        EulerFactors(p=3, sha_p_order=1, frak_F_count=99, pi_image_status="unknown",
                     tamagawa_product=1, ordinary=True, analytic_rank_zero=True,
                     torsion_free_at_p=True)
    with pytest.raises(ValueError):
        EulerFactors(p=3, sha_p_order=1, frak_F_count=6, pi_image_status="prime_to_p_implied",
                     tamagawa_product=1, ordinary=True, analytic_rank_zero=True,
                     torsion_free_at_p=True)
    with pytest.raises(ValueError):
        EulerFactors(p=3, sha_p_order=2, frak_F_count=5, pi_image_status="prime_to_p_implied",
                     tamagawa_product=1, ordinary=True, analytic_rank_zero=True,
                     torsion_free_at_p=True)


def test_euler_factors_record_is_json_ready():
    rec = euler_factors_record(euler_char_factors(E99, 3))
    assert rec["mu_lambda_vanish"] == "zero"
    assert rec["sha_p_order"] == 1
    assert rec["frak_F_count"] == 5
    assert rec["pi_image_status"] == "prime_to_p_implied"
    assert json.loads(json.dumps(rec)) == rec
