"""Hypothesis audit and the lambda-transfer formula."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwakit.classify import cyclotomic_split_count
from iwakit.elliptic import (
    WeierstrassModel,
    has_potential_good_reduction,
    minimal_model,
    quadratic_twist,
    reduction_type,
)
from iwakit.fields import CyclicExtension
from iwakit.kida import (
    HypothesisBlockedError,
    HypothesisReport,
    KidaResult,
    LocalTerm,
    check_hypotheses,
    hypothesis_record,
    kida_record,
    lambda_transfer,
    rank_bound,
    rank_claim,
    stable_extension_test,
    tower_transfer,
)
from iwakit.ntheory import is_squarefree

E99 = WeierstrassModel(0, 0, 1, -3, -5)
E11 = WeierstrassModel(0, -1, 1, -10, -20)
E37 = WeierstrassModel(0, 0, 1, -1, 0)
# -3 twist of the conductor-14 curve: additive at 3, split multiplicative at 2 and 7
E42 = WeierstrassModel(1, -1, 1, 40, 155)

EXT7 = CyclicExtension(p=3, tame_ramified=(7,), wild_at_p=False, exponents=(1,))
EXT13 = CyclicExtension(p=3, tame_ramified=(13,), wild_at_p=False, exponents=(1,))
EXT7_13 = CyclicExtension(p=3, tame_ramified=(7, 13), wild_at_p=False, exponents=(1, 2))


def test_check_hypotheses_additive_with_twist():
    rep = check_hypotheses(E99, 3, EXT7)
    assert rep.additive_at_p and rep.potentially_good_at_p
    d, model = rep.good_twist
    assert d == -3
    assert model == WeierstrassModel(0, -1, 1, 0, 0)
    assert model.disc == -11
    assert rep.prime_to_p_defect is True
    assert rep.additive_stability == "satisfied_by_unramified"
    assert rep.base_mu_lambda_zero is True


def test_check_hypotheses_good_at_p():
    rep = check_hypotheses(E11, 3, EXT7)
    assert rep.additive_at_p is False
    assert rep.good_twist == (1, E11)
    assert rep.prime_to_p_defect is True
    assert "Hachimori" in rep.note
    assert rep.base_mu_lambda_zero is None  # no twist pipeline for good reduction


def test_check_hypotheses_potentially_multiplicative():
    ext = CyclicExtension(p=11, tame_ramified=(23,), wild_at_p=False, exponents=(1,))
    rep = check_hypotheses(E11, 11, ext)
    assert rep.additive_at_p is False
    assert rep.potentially_good_at_p is False
    assert rep.good_twist is None
    assert rep.prime_to_p_defect is False
    assert rep.additive_stability == "satisfied_by_p_ge_5"
    with pytest.raises(HypothesisBlockedError):
        lambda_transfer(0, 11, ext, E11, report=rep)


def test_check_hypotheses_no_quadratic_twist():
    # j = 0, additive at 3, needs a sextic twist: unresolved defect
    cm = WeierstrassModel(0, 0, 0, 0, 3)
    rep = check_hypotheses(cm, 3, EXT7)
    assert rep.additive_at_p and rep.potentially_good_at_p
    assert rep.good_twist is None
    assert rep.prime_to_p_defect is None
    with pytest.raises(HypothesisBlockedError, match="twist"):
        lambda_transfer(0, 3, EXT7, cm, report=rep)


def _squarefree_twist_search(minimal: WeierstrassModel, p: int, bound: int = 163):
    """Oracle: the first good twist among p*, every squarefree 1 < |d| <= bound, then -1."""
    canonical = p if p % 4 == 1 else -p
    candidates = [canonical]
    for a in range(2, bound + 1):
        if is_squarefree(a):
            candidates.extend(d for d in (a, -a) if d != canonical)
    candidates.append(-1)
    for d in candidates:
        twisted = minimal_model(quadratic_twist(minimal, d))[0]
        if reduction_type(twisted, p).is_good:
            return d, twisted
    return None


@pytest.mark.parametrize(("p", "ell"), [(3, 7), (5, 11), (7, 29)])
def test_good_twist_matches_squarefree_search(p, ell):
    # random curves, their twists by p and their cusps mod p (a4, a6 times p):
    # additive curves with and without a good quadratic twist both occur
    rng = random.Random(p)
    ext = CyclicExtension(p=p, tame_ramified=(ell,), wild_at_p=False, exponents=(1,))
    outcomes = []
    while len(outcomes) < 30:
        a4, a6 = rng.randint(-200, 200), rng.randint(-200, 200)
        try:
            base = WeierstrassModel(rng.randint(0, 1), rng.randint(-1, 1), rng.randint(0, 1), a4, a6)
            cusp = WeierstrassModel(0, 0, 0, p * a4, p * a6)
        except ValueError:
            continue
        for w in (base, quadratic_twist(base, p), cusp):
            minimal = minimal_model(w)[0]
            local = reduction_type(minimal, p)
            if not (local.is_additive and has_potential_good_reduction(minimal, p)):
                continue
            expected = _squarefree_twist_search(minimal, p)
            assert check_hypotheses(w, p, ext).good_twist == expected
            outcomes.append(expected is None)
    assert set(outcomes) == {True, False}


def test_check_hypotheses_additive_at_ramified_prime():
    # the twist of E11 by 7 stays good at 3 but is additive at 7
    tw = quadratic_twist(E11, 7)
    assert reduction_type(minimal_model(tw)[0], 7).is_additive
    rep = check_hypotheses(tw, 3, EXT7)
    assert rep.additive_stability == "unresolved"
    assert check_hypotheses(tw, 3, EXT13).additive_stability == "satisfied_by_unramified"
    with pytest.raises(HypothesisBlockedError, match="additive reduction may degenerate"):
        lambda_transfer(0, 3, EXT7, tw, report=rep)


def test_check_hypotheses_external_base():
    rep = check_hypotheses(E42, 3, EXT7)
    assert rep.base_mu_lambda_zero is None  # curve has rational 3-torsion
    rep2 = check_hypotheses(E42, 3, EXT7, mu_lambda_zero_at_base=False)
    assert rep2.base_mu_lambda_zero is False
    rep3 = check_hypotheses(E42, 3, EXT7, mu_lambda_zero_at_base=True)
    assert rep3.base_mu_lambda_zero is True


def test_transfer_stable_extension():
    kr = lambda_transfer(0, 3, EXT7, E99)
    assert kr.lambda_L == 0 and kr.degree == 3
    assert kr.p1_term == 0 and kr.p2_term == 0
    (w,) = kr.witnesses
    assert w.ell == 7 and w.reduction == "good"
    assert w.p_torsion is False and w.bucket == "none" and w.contribution == 0
    assert rank_bound(kr) == 0
    assert rank_claim(kr) == "rank E(L) = 0"


def test_transfer_multi_prime_stable():
    kr = lambda_transfer(0, 3, EXT7_13, E99)
    assert kr.lambda_L == 0
    assert len(kr.witnesses) == 2
    assert all(w.bucket == "none" for w in kr.witnesses)


def test_transfer_split_multiplicative_prime():
    # one ramified split multiplicative prime with m = 0: 3*2 + 1*(3-1) = 8
    rep = check_hypotheses(E42, 3, EXT7, mu_lambda_zero_at_base=False)
    kr = lambda_transfer(2, 3, EXT7, E42, report=rep)
    assert kr.p1_term == 2 and kr.p2_term == 0
    assert kr.lambda_L == 8
    (w,) = kr.witnesses
    assert w.reduction == "split_multiplicative" and w.bucket == "P1"
    assert w.w_count == 1 and w.ramification == 3
    assert rank_claim(kr) == "rank E(L) <= 8"


def test_transfer_p2_prime():
    # every good ell for this curve at p = 5 sees the rational 5-torsion
    ext = CyclicExtension(p=5, tame_ramified=(31,), wild_at_p=False, exponents=(1,))
    kr = lambda_transfer(0, 5, ext, E11, override=True)
    assert kr.p1_term == 0
    assert kr.p2_term == 2 * 1 * 4 == 8
    assert kr.lambda_L == 8
    (w,) = kr.witnesses
    assert w.bucket == "P2" and w.p_torsion is True
    assert w.w_count == 5 ** cyclotomic_split_count(31, 5)


def test_transfer_blocked_without_base_invariants():
    with pytest.raises(HypothesisBlockedError, match="mu/lambda"):
        lambda_transfer(2, 3, EXT7, E42)
    kr = lambda_transfer(2, 3, EXT7, E42, override=True)
    assert kr.lambda_L == 8


def test_transfer_blocked_on_supersingular():
    # good at 3 but a_3 = -3: ordinarity fails
    with pytest.raises(HypothesisBlockedError, match="supersingular"):
        lambda_transfer(0, 3, EXT7, E37)
    # additive curve whose good twist is supersingular at 3
    g = minimal_model(quadratic_twist(WeierstrassModel(0, 0, 0, -1, 0), -3))[0]
    assert reduction_type(g, 3).is_additive
    with pytest.raises(HypothesisBlockedError, match="supersingular"):
        lambda_transfer(0, 3, EXT7, g)


def test_user_report_twist_gets_its_own_count():
    # a report built by hand is tested on its own good model: y^2 = x^3 - x
    # is good and supersingular at 3, while E99's own twist is ordinary there
    e32 = WeierstrassModel(0, 0, 0, -1, 0)
    report = HypothesisReport(p=3, additive_at_p=True, potentially_good_at_p=True,
                              good_twist=(-3, e32), prime_to_p_defect=True,
                              additive_stability="satisfied", base_mu_lambda_zero=True, note="")
    assert lambda_transfer(0, 3, EXT7, E99).lambda_L == 0
    with pytest.raises(HypothesisBlockedError, match=r"supersingular \(a_p = 0\)"):
        lambda_transfer(0, 3, EXT7, E99, report=report)


def test_transfer_wild_only_extension():
    ext = CyclicExtension(p=3, tame_ramified=(), wild_at_p=True, exponents=(), wild_exponent=1)
    kr = lambda_transfer(4, 3, ext, E99)
    assert kr.degree == 1 and kr.lambda_L == 4
    assert kr.witnesses == ()


def test_transfer_validates_inputs():
    with pytest.raises(ValueError):
        lambda_transfer(-1, 3, EXT7, E99)
    with pytest.raises(ValueError):
        lambda_transfer(0, 5, EXT7, E99)  # degree mismatch


def test_stable_extension_test():
    assert stable_extension_test(E99, 3, EXT7) is True
    assert stable_extension_test(E99, 3, EXT7_13) is True
    ext11 = CyclicExtension(p=5, tame_ramified=(11,), wild_at_p=False, exponents=(1,))
    assert stable_extension_test(E99, 5, ext11) is False  # 11 is a bad prime
    ext31 = CyclicExtension(p=5, tame_ramified=(31,), wild_at_p=False, exponents=(1,))
    assert stable_extension_test(E11, 5, ext31) is False  # 31 sees the 5-torsion
    wild = CyclicExtension(p=3, tame_ramified=(7,), wild_at_p=True,
                           exponents=(1,), wild_exponent=2)
    assert stable_extension_test(E99, 3, wild) is False


def test_stable_implies_zero_transfer():
    for ext in (EXT7, EXT13, EXT7_13):
        assert stable_extension_test(E99, 3, ext)
        assert lambda_transfer(0, 3, ext, E99).lambda_L == 0


def test_tower_coherence():
    one = lambda_transfer(1, 3, EXT7, E99)
    two = lambda_transfer(one.lambda_L, 3, EXT13, E99)
    tower = tower_transfer(1, 3, [EXT7, EXT13], E99)
    assert tower.degree == 9
    assert tower.lambda_L == two.lambda_L == 9
    assert tower.p1_term == 0 and tower.p2_term == 0
    assert len(tower.witnesses) == 2


def test_tower_rejects_unstable_step():
    with pytest.raises(ValueError, match="stable"):
        tower_transfer(0, 3, [EXT7], E42, override=True)


def split_multiplicative_over(model: WeierstrassModel, ell: int, f: int = 1) -> bool:
    """Split multiplicative reduction over the degree-f residue extension.

    Decided by the square class of -c6 in F_{ell^f}; for odd f this agrees
    with the class over F_ell.  An oracle for the split/nonsplit decision of
    reduction_type.
    """
    if f < 1:
        raise ValueError(f"residue degree must be >= 1, got {f}")
    minimal, _ = minimal_model(model)
    local = reduction_type(minimal, ell)
    if not local.is_multiplicative:
        raise ValueError(f"reduction at {ell} is {local.type}, not multiplicative")
    if ell == 2:
        raise ValueError("the square-class test needs an odd residue characteristic")
    x = (-minimal.c6) % ell
    return pow(x, (ell**f - 1) // 2, ell) == 1


def test_split_multiplicative_over():
    assert split_multiplicative_over(E11, 11) is True
    assert split_multiplicative_over(E42, 7) is True
    for f in (3, 9, 5, 25):
        assert split_multiplicative_over(E11, 11, f) is True
        assert split_multiplicative_over(E42, 7, f) is True
    with pytest.raises(ValueError):
        split_multiplicative_over(E99, 13)  # good reduction
    with pytest.raises(ValueError):
        split_multiplicative_over(E42, 2)  # even residue characteristic


def test_split_test_matches_reduction_type():
    curves = [E11, E42, E99, WeierstrassModel(1, 0, 1, 4, -6)]
    checked = 0
    for model in curves:
        minimal = minimal_model(model)[0]
        for ell in (3, 7, 11, 13, 37):
            local = reduction_type(minimal, ell)
            if not local.is_multiplicative:
                continue
            split = local.type == "split_multiplicative"
            assert split_multiplicative_over(minimal, ell) == split
            checked += 1
    assert checked >= 3


def test_square_class_stable_over_odd_degree():
    # the square class of any unit is unchanged in odd-degree extensions
    from iwakit.ntheory import sieve_primes

    for ell in sieve_primes(200):
        if ell == 2:
            continue
        for p in (3, 5):
            for f in (p, p * p):
                for x in range(1, ell):
                    base = pow(x, (ell - 1) // 2, ell)
                    up = pow(x, (ell**f - 1) // 2, ell)
                    assert base == up, (ell, p, f, x)


@settings(max_examples=60, deadline=None)
@given(
    lam=st.integers(min_value=0, max_value=10),
    primes=st.sets(st.sampled_from([7, 13, 19, 31]), min_size=1, max_size=3),
    data=st.data(),
)
def test_formula_consistency(lam, primes, data):
    tame = tuple(sorted(primes))
    exps = [1] + [data.draw(st.integers(min_value=1, max_value=2)) for _ in tame[1:]]
    ext = CyclicExtension(p=3, tame_ramified=tame, wild_at_p=False, exponents=tuple(exps))
    for model in (E99, E42):
        kr = lambda_transfer(lam, 3, ext, model, override=True)
        assert kr.lambda_L == kr.degree * lam + kr.p1_term + kr.p2_term
        assert kr.lambda_L >= kr.degree * lam
        assert kr.p1_term >= 0 and kr.p2_term >= 0
        for w in kr.witnesses:
            assert w.ramification == 3


def test_hypothesis_report_validation():
    with pytest.raises(ValueError):
        HypothesisReport(p=3, additive_at_p=True, potentially_good_at_p=False,
                         good_twist=(-3, WeierstrassModel(0, -1, 1, 0, 0)),
                         prime_to_p_defect=True, additive_stability="satisfied",
                         base_mu_lambda_zero=None, note="")
    with pytest.raises(ValueError):
        HypothesisReport(p=3, additive_at_p=True, potentially_good_at_p=True,
                         good_twist=None, prime_to_p_defect=True,
                         additive_stability="satisfied", base_mu_lambda_zero=None, note="")
    with pytest.raises(ValueError):
        HypothesisReport(p=3, additive_at_p=False, potentially_good_at_p=True,
                         good_twist=None, prime_to_p_defect=None,
                         additive_stability="satisfied_by_p_ge_5",
                         base_mu_lambda_zero=None, note="")


def test_kida_result_validation():
    with pytest.raises(ValueError):
        KidaResult(p=3, lambda_K=1, degree=3, p1_term=0, p2_term=0,
                   lambda_L=4, witnesses=())
    with pytest.raises(ValueError):
        KidaResult(p=3, lambda_K=0, degree=6, p1_term=0, p2_term=0,
                   lambda_L=0, witnesses=())
    with pytest.raises(ValueError):
        LocalTerm(ell=7, reduction="good", w_count=1, ramification=3,
                  p_torsion=False, bucket="P2", contribution=4)
    with pytest.raises(ValueError):
        LocalTerm(ell=7, reduction="additive", w_count=1, ramification=3,
                  p_torsion=None, bucket="none", contribution=2)


def test_records_round_trip_json():
    import json

    rep = check_hypotheses(E99, 3, EXT7)
    kr = lambda_transfer(0, 3, EXT7, E99)
    blob = json.dumps({"hypotheses": hypothesis_record(rep), "kida": kida_record(kr)},
                      sort_keys=True)
    parsed = json.loads(blob)
    assert parsed["kida"]["lambda_L"] == 0
    assert parsed["kida"]["rank_claim"] == "rank E(L) = 0"
    assert parsed["hypotheses"]["good_twist"] == {"d": -3, "model": "0,-1,1,0,0"}
