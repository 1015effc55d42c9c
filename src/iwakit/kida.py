"""Lambda transfer across cyclic p-extensions with local P1/P2 terms.

The transfer needs three things checked at the base: a good ordinary model
at p after a prime-to-p twist, persistence of additive reduction at the
ramified primes, and vanishing base invariants.  check_hypotheses gathers
those into a report; lambda_transfer evaluates the formula

    lambda_L = degree * lambda_K + p1_term + p2_term

where ramified split multiplicative primes feed p1_term and ramified good
primes with residue p-torsion feed p2_term, each weighted by the number of
places above them in the cyclotomic tower.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .classify import classify_prime, p2_membership
from .counting import TraceCache
from .elliptic import WeierstrassModel, format_model, minimal_model, reduction_type
from .eulerchar import _default_euler_factors, _ordinary_at, _twist_at_p, mu_lambda_vanish
from .fields import CyclicExtension, ramified_splitting
from .ntheory import check_odd_prime

__all__ = [
    "HypothesisBlockedError",
    "HypothesisReport",
    "KidaResult",
    "LocalTerm",
    "check_hypotheses",
    "hypothesis_record",
    "kida_record",
    "lambda_transfer",
    "rank_bound",
    "rank_claim",
    "stable_extension_test",
    "tower_transfer",
]

STABILITY_LABELS = (
    "satisfied",
    "satisfied_by_p_ge_5",
    "satisfied_by_unramified",
    "unresolved",
)


class HypothesisBlockedError(ValueError):
    """The transfer hypotheses are unresolved and no override was given."""


# base mu = lambda = 0 read off a mu_lambda_vanish verdict; any other verdict leaves it open
_BASE_FLAG = {"zero": True, "nonzero": False}


def _check_extension(p: int, ext: CyclicExtension) -> None:
    check_odd_prime(p)
    if ext.p != p:
        raise ValueError(f"extension degree {ext.p} does not match p = {p}")


@dataclass(frozen=True)
class HypothesisReport:
    """Hypothesis audit for one (curve, p, extension) triple.

    prime_to_p_defect is None when no quadratic twist restores good
    reduction at p and a deeper twist would be needed; base_mu_lambda_zero
    is None when the base invariants could not be settled here.
    """

    p: int
    additive_at_p: bool
    potentially_good_at_p: bool
    good_twist: tuple[int, WeierstrassModel] | None
    prime_to_p_defect: bool | None
    additive_stability: str
    base_mu_lambda_zero: bool | None
    note: str

    def __post_init__(self) -> None:
        check_odd_prime(self.p)
        if self.additive_stability not in STABILITY_LABELS:
            raise ValueError(f"unknown stability label {self.additive_stability!r}")
        if self.additive_stability == "satisfied_by_p_ge_5" and self.p < 5:
            raise ValueError("the p >= 5 stability shortcut needs p >= 5")
        if self.good_twist is not None:
            if not self.potentially_good_at_p:
                raise ValueError("a good twist forces potential good reduction at p")
            if not reduction_type(self.good_twist[1], self.p).is_good:
                raise ValueError("the recorded twist is not good at p")
        if (self.good_twist is not None) != (self.prime_to_p_defect is True):
            raise ValueError("prime-to-p defect holds exactly when a good twist is recorded")


@dataclass(frozen=True)
class LocalTerm:
    """Contribution of one ramified tame prime, for auditing the formula."""

    ell: int
    reduction: str
    w_count: int
    ramification: int
    p_torsion: bool | None
    bucket: str
    contribution: int

    def __post_init__(self) -> None:
        if self.bucket not in ("P1", "P2", "none"):
            raise ValueError(f"unknown bucket {self.bucket!r}")
        if (self.bucket == "none") != (self.contribution == 0):
            raise ValueError("exactly the discarded primes contribute zero")
        if self.bucket == "P1" and self.reduction != "split_multiplicative":
            raise ValueError("P1 holds the split multiplicative primes")
        if self.bucket == "P2" and (self.reduction != "good" or self.p_torsion is not True):
            raise ValueError("P2 holds the good primes with residue p-torsion")


@dataclass(frozen=True)
class KidaResult:
    """Evaluated transfer, with the per-prime breakdown that produced it."""

    p: int
    lambda_K: int
    degree: int
    p1_term: int
    p2_term: int
    lambda_L: int
    witnesses: tuple[LocalTerm, ...]

    def __post_init__(self) -> None:
        check_odd_prime(self.p)
        if self.lambda_K < 0 or self.p1_term < 0 or self.p2_term < 0:
            raise ValueError("lambda and the local terms are nonnegative")
        d = self.degree
        while d % self.p == 0:
            d //= self.p
        if d != 1:
            raise ValueError(f"degree must be a power of p, got {self.degree}")
        if self.lambda_L != self.degree * self.lambda_K + self.p1_term + self.p2_term:
            raise ValueError("lambda_L must equal degree*lambda_K + p1_term + p2_term")
        p1 = sum(w.contribution for w in self.witnesses if w.bucket == "P1")
        p2 = sum(w.contribution for w in self.witnesses if w.bucket == "P2")
        if (p1, p2) != (self.p1_term, self.p2_term):
            raise ValueError("terms must match the witness contributions")
        unit = self.p - 1
        for w in self.witnesses:
            if w.ramification != self.p:
                raise ValueError("tame ramified primes are totally ramified, e = p")
            expected = {"P1": w.w_count * unit, "P2": 2 * w.w_count * unit, "none": 0}
            if w.contribution != expected[w.bucket]:
                raise ValueError(f"contribution of {w.ell} does not match its bucket")


def _additive_stability(minimal: WeierstrassModel, p: int, ext: CyclicExtension) -> str:
    if p >= 5:
        return "satisfied_by_p_ge_5"
    # p = 3: additive reduction away from p survives only over extensions
    # unramified at the additive primes; tame primes are 1 mod p, never p
    if any(
        minimal.disc % ell == 0 and reduction_type(minimal, ell).is_additive
        for ell in ext.tame_ramified
    ):
        return "unresolved"
    return "satisfied_by_unramified"


def check_hypotheses(
    model: WeierstrassModel,
    p: int,
    ext: CyclicExtension,
    *,
    mu_lambda_zero_at_base: bool | None = None,
) -> HypothesisReport:
    """Audit the transfer hypotheses; unresolved flags never raise here."""
    _check_extension(p, ext)
    minimal, _ = minimal_model(model)
    local, potentially_good, d, good = _twist_at_p(minimal, p)
    if local.is_good:
        defect: bool | None = True
        note = "good reduction at p; the transfer runs in the Hachimori-Matsuno setting"
    elif not potentially_good:
        defect = False
        note = "potentially multiplicative at p; no extension restores good reduction"
    elif good is not None:
        defect = True
        note = f"additive at p with good quadratic twist d = {d}"
    else:
        defect = None
        note = "no quadratic twist reaches good reduction at p; deeper twists are unresolved"

    base = mu_lambda_zero_at_base
    if base is None:
        try:
            base = _BASE_FLAG.get(mu_lambda_vanish(_default_euler_factors(minimal, p)[0]))
        except ValueError:
            pass  # the Euler-characteristic audit does not apply: base stays open
    return HypothesisReport(
        p=p,
        additive_at_p=local.is_additive,
        potentially_good_at_p=potentially_good,
        good_twist=None if good is None else (d, good),
        prime_to_p_defect=defect,
        additive_stability=_additive_stability(minimal, p, ext),
        base_mu_lambda_zero=base,
        note=note,
    )


def _require_unblocked(report: HypothesisReport, p: int) -> None:
    reasons = []
    if report.prime_to_p_defect is None:
        reasons.append("no good quadratic twist at p and deeper twists are unresolved")
    elif report.prime_to_p_defect is False:
        reasons.append("no prime-to-p extension restores good reduction at p")
    else:
        a_p, ordinary = _ordinary_at(report.good_twist[1], p)
        if not ordinary:
            reasons.append(f"the good model at {p} is supersingular (a_p = {a_p})")
    if report.additive_stability == "unresolved":
        reasons.append("additive reduction may degenerate at a ramified prime")
    if report.base_mu_lambda_zero is None:
        reasons.append("base mu/lambda invariants are unresolved; supply them or override")
    if reasons:
        raise HypothesisBlockedError("; ".join(reasons))


def lambda_transfer(
    lambda_K: int,
    p: int,
    ext: CyclicExtension,
    model: WeierstrassModel,
    *,
    report: HypothesisReport | None = None,
    override: bool = False,
) -> KidaResult:
    """Evaluate the transfer for one cyclic degree-p step.

    Blocks on unresolved hypotheses unless override is set; pass a report
    built with external knowledge to resolve flags without overriding.
    """
    _check_extension(p, ext)
    if lambda_K < 0:
        raise ValueError(f"lambda_K must be >= 0, got {lambda_K}")
    if not override:
        _require_unblocked(report or check_hypotheses(model, p, ext), p)

    if not ext.tame_ramified:
        # wild-only field: it sits inside the cyclotomic tower, so the
        # cyclotomic lines coincide and nothing transfers
        return KidaResult(
            p=p, lambda_K=lambda_K, degree=1, p1_term=0, p2_term=0,
            lambda_L=lambda_K, witnesses=(),
        )

    minimal, _ = minimal_model(model)
    witnesses = []
    for ell in ext.tame_ramified:
        places = ramified_splitting(ext, ell)
        local = reduction_type(minimal, ell)
        torsion: bool | None = None
        bucket = "none"
        contribution = 0
        if local.type == "split_multiplicative":
            bucket = "P1"
            contribution = places.w_count * (p - 1)
        elif local.is_good:
            # residue p-torsion is stable along p-power residue extensions,
            # so membership is read off over F_ell itself
            torsion = p2_membership(minimal, p, ell, 1)
            if torsion:
                bucket = "P2"
                contribution = 2 * places.w_count * (p - 1)
        witnesses.append(LocalTerm(
            ell=ell, reduction=local.type, w_count=places.w_count, ramification=places.e,
            p_torsion=torsion, bucket=bucket, contribution=contribution,
        ))
    p1 = sum(w.contribution for w in witnesses if w.bucket == "P1")
    p2 = sum(w.contribution for w in witnesses if w.bucket == "P2")
    return KidaResult(
        p=p,
        lambda_K=lambda_K,
        degree=p,
        p1_term=p1,
        p2_term=p2,
        lambda_L=p * lambda_K + p1 + p2,
        witnesses=tuple(witnesses),
    )


def tower_transfer(
    lambda_K: int,
    p: int,
    exts: list[CyclicExtension],
    model: WeierstrassModel,
    *,
    override: bool = False,
) -> KidaResult:
    """Compose cyclic steps into one p-power transfer.

    Only towers whose steps all have vanishing local terms are supported:
    a nonzero term at an intermediate layer would need local data over that
    layer, which this module does not compute.
    """
    if not exts:
        raise ValueError("a tower needs at least one step")
    witnesses: list[LocalTerm] = []
    lam = lambda_K
    for ext in exts:
        step = lambda_transfer(lam, p, ext, model, override=override)
        if step.p1_term or step.p2_term:
            raise ValueError(
                f"step ramified at {ext.tame_ramified} has nonzero local terms; "
                "only stable towers compose"
            )
        witnesses.extend(step.witnesses)
        lam = step.lambda_L
    degree = p ** sum(1 for ext in exts if ext.tame_ramified)
    return KidaResult(
        p=p,
        lambda_K=lambda_K,
        degree=degree,
        p1_term=0,
        p2_term=0,
        lambda_L=lam,
        witnesses=tuple(witnesses),
    )


def rank_bound(kr: KidaResult) -> int:
    """Upper bound for the Mordell-Weil rank over L; exact when zero."""
    return kr.lambda_L


def rank_claim(kr: KidaResult) -> str:
    if kr.lambda_L == 0:
        return "rank E(L) = 0"
    return f"rank E(L) <= {kr.lambda_L}"


def stable_extension_test(
    model: WeierstrassModel,
    p: int,
    ext: CyclicExtension,
    *,
    cache: TraceCache | None = None,
) -> bool:
    """Whether every ramified prime of ext sits in Q3 for this curve.

    When true, the local terms vanish and lambda scales by the degree.
    A wild place at p is never in Q3, so wild extensions fail the test.
    """
    _check_extension(p, ext)
    if ext.wild_at_p:
        return False
    return all(
        classify_prime(model, p, ell, cache=cache).in_script_q
        for ell in ext.tame_ramified
    )


def hypothesis_record(report: HypothesisReport) -> dict:
    """JSON-ready view; unresolved flags become null."""
    twist = None
    if report.good_twist is not None:
        twist = {"d": report.good_twist[0], "model": format_model(report.good_twist[1])}
    return {**asdict(report), "good_twist": twist}


def kida_record(kr: KidaResult) -> dict:
    return {
        **asdict(kr),
        "rank_bound": rank_bound(kr),
        "rank_claim": rank_claim(kr),
        "witnesses": [asdict(w) for w in kr.witnesses],
    }
