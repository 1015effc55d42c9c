"""Weierstrass models over Q: invariants, minimal models, reduction data, twists.

Local reduction data (Kodaira symbol, Tamagawa number, conductor exponent) is
computed by Tate's algorithm in full generality, including the residue
characteristics 2 and 3.  Minimality uses Laska-Kraus-Connell reduction, so
every quantity attached to "the" curve refers to the global minimal model.
"""

from __future__ import annotations

import math
from functools import cached_property, partial

from ._poly import _gcd, _sub, _trim, _x_pow_mod
from ._record import _frozen
from .ntheory import (
    is_prime,
    is_squarefree,
    factorize,
    legendre,
    padic_valuation,
)

__all__ = [
    "WeierstrassModel",
    "LocalReductionData",
    "SingularCurveError",
    "NonMinimalModelError",
    "InvalidTwistError",
    "BadReductionError",
    "minimal_model",
    "reduction_type",
    "local_data",
    "quadratic_twist",
    "model_from_c4c6",
    "conductor",
    "has_potential_good_reduction",
    "parse_model",
    "format_model",
]


class SingularCurveError(ValueError):
    """The Weierstrass equation has discriminant zero."""


class NonMinimalModelError(ValueError):
    """Local data was requested at a prime where the model is not minimal."""


class InvalidTwistError(ValueError):
    """Twist parameter must be a squarefree nonzero integer."""


class BadReductionError(ValueError):
    """Point counts require good reduction at the given prime."""


@_frozen
class WeierstrassModel:
    """Integral model y^2 + a1*xy + a3*y = x^3 + a2*x^2 + a4*x + a6."""

    a1: int
    a2: int
    a3: int
    a4: int
    a6: int

    # written out, not _frozen's generic __init__: Tate's algorithm and the
    # twist search build a model per change of coordinates
    def __init__(self, a1: int, a2: int, a3: int, a4: int, a6: int) -> None:
        self.__dict__.update(a1=a1, a2=a2, a3=a3, a4=a4, a6=a6)
        if self.disc == 0:
            raise SingularCurveError(f"discriminant vanishes for {self.coefficients()}")

    def coefficients(self) -> tuple[int, int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    @property
    def b2(self) -> int:
        return self.a1 * self.a1 + 4 * self.a2

    @property
    def b4(self) -> int:
        return 2 * self.a4 + self.a1 * self.a3

    @property
    def b6(self) -> int:
        return self.a3 * self.a3 + 4 * self.a6

    @property
    def b8(self) -> int:
        a1, a2, a3, a4, a6 = self.coefficients()
        return a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4

    @property
    def c4(self) -> int:
        return self.b2 * self.b2 - 24 * self.b4

    @property
    def c6(self) -> int:
        return -self.b2**3 + 36 * self.b2 * self.b4 - 216 * self.b6

    @cached_property
    def short(self) -> tuple[int, int]:
        """(A, B) = (-27 c4, -54 c6): y^2 = x^3 + Ax + B is isomorphic to this
        model wherever 6 is a unit.  Computed once per model, like disc."""
        return -27 * self.c4, -54 * self.c6

    @cached_property
    def disc(self) -> int:
        # computed once per model, by the singularity check in __init__
        b2, b4, b6, b8 = self.b2, self.b4, self.b6, self.b8
        return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    def transform(self, r: int = 0, s: int = 0, t: int = 0) -> "WeierstrassModel":
        """Change of coordinates x = x' + r, y = y' + s x' + t."""
        a1, a2, a3, a4, a6 = self.coefficients()
        n1 = a1 + 2 * s
        n2 = a2 - s * a1 + 3 * r - s * s
        n3 = a3 + r * a1 + 2 * t
        n4 = a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t
        n6 = a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1
        return WeierstrassModel(n1, n2, n3, n4, n6)


def _kept(model: WeierstrassModel, key: str, build, *args):
    """build(*args), kept on model under key: each model builds it once.

    Every per-curve result is kept through here, under three rules:
    - it sits in the instance __dict__, like disc, outside the fields that ==
      and hash read;
    - a ValueError from build is kept as partial(its type, *its args) and
      raised anew on each read: the exception's traceback would hold the model;
    - no kept value refers to the model it is kept on, so reference counting
      alone frees a model and all it keeps.  A marker that the reader resolves
      stands in for the model itself, as minimal_model's () for (itself, 1).
    """
    kept = model.__dict__
    if key not in kept:
        try:
            kept[key] = build(*args)
        except ValueError as exc:
            kept[key] = partial(type(exc), *exc.args)
    if type(kept[key]) is partial:
        raise kept[key]()
    return kept[key]


def parse_model(text: str) -> WeierstrassModel:
    """Parse the curve format "a1,a2,a3,a4,a6"."""
    parts = text.split(",")
    if len(parts) != 5:
        raise ValueError(f"expected five comma-separated integers, got {text!r}")
    try:
        a = [int(p.strip()) for p in parts]
    except ValueError as exc:
        raise ValueError(f"bad curve coefficient in {text!r}") from exc
    return WeierstrassModel(*a)


def format_model(model: WeierstrassModel) -> str:
    return ",".join(str(c) for c in model.coefficients())


# ---------------------------------------------------------------------------
# minimal models (Laska-Kraus-Connell)
# ---------------------------------------------------------------------------


def _kraus_ok(c4: int, c6: int, q: int) -> bool:
    """Whether an integral model with invariants (c4, c6) exists locally at q.

    Only q = 2 and q = 3 impose conditions.
    """
    if q == 3:
        return c6 == 0 or padic_valuation(c6, 3) != 2
    if q == 2:
        if c6 % 4 == 3:
            return True
        v4 = padic_valuation(c4, 2) if c4 else 10**9
        return v4 >= 4 and c6 % 32 in (0, 8)
    return True


def model_from_c4c6(c4: int, c6: int) -> WeierstrassModel:
    """The canonical integral model with the given invariants.

    Raises ValueError when no integral model has them (Kraus obstruction
    at 2 or 3, or a divisibility failure).
    """
    num, rem = divmod(c4**3 - c6**2, 1728)
    if rem:
        raise ValueError("c4^3 - c6^2 must be divisible by 1728")
    if num == 0:
        raise SingularCurveError("invariants give discriminant zero")
    b2 = (-c6) % 12
    if b2 > 6:
        b2 -= 12
    num4, rem4 = divmod(b2 * b2 - c4, 24)
    if rem4:
        raise ValueError("no integral model with these invariants")
    b4 = num4
    num6, rem6 = divmod(-(b2**3) + 36 * b2 * b4 - c6, 216)
    if rem6:
        raise ValueError("no integral model with these invariants")
    b6 = num6
    a1 = b2 % 2
    a3 = b6 % 2
    if (b2 - a1) % 4 or (b4 - a1 * a3) % 2 or (b6 - a3) % 4:
        raise ValueError("no integral model with these invariants")
    model = WeierstrassModel(
        a1, (b2 - a1) // 4, a3, (b4 - a1 * a3) // 2, (b6 - a3) // 4
    )
    assert model.c4 == c4 and model.c6 == c6
    return model


def _minimality_exponent(c4: int, c6: int, disc: int, q: int) -> int:
    """Largest e such that (c4/q^4e, c6/q^6e) still belongs to an integral model."""
    e = padic_valuation(disc, q) // 12
    if c4 != 0:
        e = min(e, padic_valuation(c4, q) // 4)
    if c6 != 0:
        e = min(e, padic_valuation(c6, q) // 6)
    if q in (2, 3):
        while e > 0 and not _kraus_ok(c4 // q ** (4 * e), c6 // q ** (6 * e), q):
            e -= 1
    return e


def minimal_model(model: WeierstrassModel) -> tuple[WeierstrassModel, int]:
    """Global minimal model and the scaling u with c4 = u^4 c4', c6 = u^6 c6'.

    A prime q can be scaled away only when q^4 divides g = gcd(c4, c6)
    (Laska-Kraus-Connell), so the candidates are the primes that factorize
    finds in g with exponent >= 4; a g that it cannot factor raises its
    ValueError ("cannot factor").

    The answer is kept on the model, so each curve is minimized once; the
    minimal model keeps () for (itself, 1).
    """
    return _kept(model, "_minimal", _minimize, model) or (model, 1)


def _minimize(model: WeierstrassModel) -> tuple[WeierstrassModel, int]:
    c4, c6, disc = model.c4, model.c6, model.disc
    u = math.prod(q ** _minimality_exponent(c4, c6, disc, q)
                  for q, e in factorize(math.gcd(c4, c6)) if e >= 4)
    minimal = model_from_c4c6(c4 // u**4, c6 // u**6)
    _kept(minimal, "_minimal", tuple)
    return minimal, u


def local_data(model: WeierstrassModel) -> list[LocalReductionData]:
    """Tate's algorithm at each bad prime of the minimal model, in increasing order.

    Kept on the minimal model, so each curve's discriminant is factored once.
    """
    mm, _ = minimal_model(model)
    return list(_kept(mm, "_local_data", lambda: tuple(
        reduction_type(mm, q) for q, _ in factorize(mm.disc))))


def conductor(model: WeierstrassModel) -> int:
    """Product of q^f_q over the bad primes of the minimal model."""
    return math.prod(local.ell ** local.conductor_exponent for local in local_data(model))


def has_potential_good_reduction(model: WeierstrassModel, q: int) -> bool:
    """True when j = c4^3 / disc is q-integral."""
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    # the denominator of j in lowest terms, up to sign, is disc / gcd(c4^3, disc)
    disc = model.disc
    return (disc // math.gcd(model.c4**3, disc)) % q != 0


# ---------------------------------------------------------------------------
# quadratic twists
# ---------------------------------------------------------------------------


def quadratic_twist(model: WeierstrassModel, d: int) -> WeierstrassModel:
    """Integral model of the twist by d, with invariants (d^2 c4, d^3 c6)
    whenever that pair admits an integral model, otherwise the smallest
    rescaling by u in {2, 3, 6} that does.  Compose with minimal_model for
    the minimal twist."""
    if d == 0 or not is_squarefree(d):
        raise InvalidTwistError(f"twist parameter must be squarefree and nonzero, got {d}")
    tc4, tc6 = d * d * model.c4, d**3 * model.c6
    for u in (1, 2, 3, 6):
        uc4, uc6 = u**4 * tc4, u**6 * tc6
        if _kraus_ok(uc4, uc6, 2) and _kraus_ok(uc4, uc6, 3):
            return model_from_c4c6(uc4, uc6)
    raise AssertionError("u = 6 rescaling is always admissible")


# ---------------------------------------------------------------------------
# Tate's algorithm
# ---------------------------------------------------------------------------


def _cubic_structure(c2: int, c1: int, c0: int, q: int) -> tuple[int, int | None, int]:
    """Root structure of f = T^3 + c2 T^2 + c1 T + c0 over F_q.

    Returns (number of distinct roots in F_q, a most-repeated root or None,
    its multiplicity).  gcd(f, T^q - T) has one linear factor per distinct root
    in F_q, at every q.  With two roots r and s, the third, -c2 - (r + s), is
    the repeated one; with one root r, it is triple exactly when f = (T - r)^3.
    """
    f = [c0 % q, c1 % q, c2 % q, 1]
    g = _gcd(f, _trim(_sub(_x_pow_mod(q, f, q), [0, 1]), q), q)
    n = len(g) - 1
    if n == 2:  # g = g2 (T - r)(T - s), so r + s = -g1 / g2
        return (2, (g[1] * pow(g[2], -1, q) - c2) % q, 2)
    if n == 1:
        r = -g[0] * pow(g[1], -1, q) % q
        if (c2 + 3 * r) % q == (c1 - 3 * r * r) % q == 0:  # f(r) = 0 gives c0 = -r^3
            return (1, r, 3)
    return (n, None, 1)


def _quad_split(a: int, b: int, c: int, q: int) -> tuple[str, int | None]:
    """Root structure of a Y^2 + b Y + c over F_q with a invertible.

    Returns ("double", root), ("split", None) or ("nonsplit", None).
    """
    if q == 2:
        assert a % 2 == 1
        if b % 2 == 0:
            return ("double", c % 2)
        return ("split", None) if c % 2 == 0 else ("nonsplit", None)
    disc = (b * b - 4 * a * c) % q
    if disc == 0:
        return ("double", (-b) * pow(2 * a, -1, q) % q)
    return ("split", None) if legendre(disc, q) == 1 else ("nonsplit", None)


@_frozen
class LocalReductionData:
    """Reduction data of the minimal model at one prime.

    v_c4 is None when c4 = 0 (infinite valuation).
    """

    ell: int
    type: str
    kodaira: str
    tamagawa: int
    conductor_exponent: int
    v_disc: int
    v_c4: int | None

    def __post_init__(self) -> None:
        kinds = {"good", "split_multiplicative", "nonsplit_multiplicative", "additive"}
        if self.type not in kinds:
            raise ValueError(f"unknown reduction type {self.type!r}")
        if (self.type == "good") != (self.v_disc == 0):
            raise ValueError("good reduction iff v_disc = 0")
        if (self.type == "good") != (self.kodaira == "I0"):
            raise ValueError("good reduction iff Kodaira symbol I0")
        if self.is_multiplicative != (self.v_disc > 0 and self.v_c4 == 0):
            raise ValueError("multiplicative iff v_disc > 0 and v_c4 = 0")
        if self.type == "split_multiplicative" and self.tamagawa != self.v_disc:
            raise ValueError("split multiplicative Tamagawa number must equal v_disc")
        if self.type == "nonsplit_multiplicative" and self.tamagawa != math.gcd(2, self.v_disc):
            raise ValueError("nonsplit multiplicative Tamagawa number must be gcd(2, v_disc)")
        if self.type == "additive" and self.tamagawa not in (1, 2, 3, 4):
            raise ValueError("additive Tamagawa number must lie in 1..4")

    @property
    def is_good(self) -> bool:
        return self.type == "good"

    @property
    def is_multiplicative(self) -> bool:
        return self.type in ("split_multiplicative", "nonsplit_multiplicative")

    @property
    def is_additive(self) -> bool:
        return self.type == "additive"


def _singular_point(model: WeierstrassModel, q: int) -> tuple[int, int]:
    """The singular point of the reduction mod q, as residues; additive if q >= 5."""
    a1, a2, a3, a4, a6 = model.coefficients()
    if q <= 3:
        for x in range(q):
            for y in range(q):
                on = (y * y + a1 * x * y + a3 * y - (x**3 + a2 * x * x + a4 * x + a6)) % q
                fx = (a1 * y - (3 * x * x + 2 * a2 * x + a4)) % q
                fy = (2 * y + a1 * x + a3) % q
                if on == 0 and fx == 0 and fy == 0:
                    return (x, y)
        raise AssertionError("bad reduction with no singular point")
    # q >= 5, additive: q | c4 and q | disc, so q | c6 and
    # g(x) = 4x^3 + b2 x^2 + 2 b4 x + b6 = 4(x + b2/12)^3 mod q
    x0 = -model.b2 * pow(12, -1, q) % q
    y0 = -(a1 * x0 + a3) * pow(2, -1, q) % q
    return (x0, y0)


def _prepare_step6(model: WeierstrassModel, q: int, v_disc: int) -> WeierstrassModel:
    """Translate so that q | a1, a2; q^2 | a3, a4; q^3 | a6.

    Assumes the singular point sits at the origin and Kodaira types up to IV
    are already excluded.
    """
    if q >= 5:
        half = pow(2, -1, q ** (v_disc + 8))
        model = model.transform(s=(-model.a1 * half) % q ** (v_disc + 8))
        model = model.transform(t=(-model.a3 * half) % q ** (v_disc + 8))
    else:
        for s in range(q):
            cand = model.transform(s=s)
            if cand.a1 % q == 0 and cand.a2 % q == 0:
                model = cand
                break
        else:
            raise AssertionError("no s-translation fixes a1, a2")
        for t in range(q**3):
            cand = model.transform(t=t)
            if cand.a3 % q**2 == 0 and cand.a6 % q**3 == 0:
                model = cand
                break
        else:
            raise AssertionError("no t-translation fixes a3, a6")
    assert model.a1 % q == 0 and model.a2 % q == 0
    assert model.a3 % q**2 == 0 and model.a4 % q**2 == 0 and model.a6 % q**3 == 0
    return model


def reduction_type(model: WeierstrassModel, ell: int) -> LocalReductionData:
    """Tate's algorithm at ell.  The model must be minimal at ell."""
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    q = ell
    c4, c6, disc = model.c4, model.c6, model.disc
    if _minimality_exponent(c4, c6, disc, q):
        raise NonMinimalModelError(f"model is not minimal at {q}")
    v_disc = padic_valuation(disc, q) if disc % q == 0 else 0
    v_c4 = None if c4 == 0 else padic_valuation(c4, q) if c4 % q == 0 else 0

    def data(kind: str, kodaira: str, tamagawa: int, f: int) -> LocalReductionData:
        return LocalReductionData(
            ell=q, type=kind, kodaira=kodaira, tamagawa=tamagawa,
            conductor_exponent=f, v_disc=v_disc, v_c4=v_c4,
        )

    if v_disc == 0:
        return data("good", "I0", 1, 0)

    if v_c4 == 0:
        n = v_disc
        if q == 2:
            x0, y0 = _singular_point(model, 2)
            shifted = model.transform(r=x0, t=y0)
            split = shifted.a2 % 2 == 0
        else:
            split = legendre(-c6, q) == 1
        if split:
            return data("split_multiplicative", f"I{n}", n, 1)
        return data("nonsplit_multiplicative", f"I{n}", math.gcd(2, n), 1)

    # additive reduction
    x0, y0 = _singular_point(model, q)
    w = model.transform(r=x0, t=y0)
    assert w.a3 % q == 0 and w.a4 % q == 0 and w.a6 % q == 0

    if w.a6 % q**2:
        return data("additive", "II", 1, v_disc)
    if w.b8 % q**3:
        return data("additive", "III", 2, v_disc - 1)
    if w.b6 % q**3:
        kind, _ = _quad_split(1, w.a3 // q, -(w.a6 // q**2), q)
        assert kind != "double"
        return data("additive", "IV", 3 if kind == "split" else 1, v_disc - 2)

    w = _prepare_step6(w, q, v_disc)
    nroots, root, mult = _cubic_structure(w.a2 // q, w.a4 // q**2, w.a6 // q**3, q)

    if mult == 1:
        return data("additive", "I0*", 1 + nroots, v_disc - 4)

    if mult == 2:
        w = w.transform(r=q * root)
        m, ax, ay = 1, 2, 2
        while True:
            kind, y1 = _quad_split(1, w.a3 // q**ay, -(w.a6 // q ** (ax + ay)), q)
            if kind != "double":
                return data("additive", f"I{m}*", 4 if kind == "split" else 2, v_disc - m - 4)
            w = w.transform(t=q**ay * y1)
            ay += 1
            m += 1
            kind, x1 = _quad_split(w.a2 // q, w.a4 // q ** (ax + 1), w.a6 // q ** (ax + ay), q)
            if kind != "double":
                return data("additive", f"I{m}*", 4 if kind == "split" else 2, v_disc - m - 4)
            w = w.transform(r=q**ax * x1)
            ax += 1
            m += 1

    # triple root
    w = w.transform(r=q * root)
    kind, y1 = _quad_split(1, w.a3 // q**2, -(w.a6 // q**4), q)
    if kind != "double":
        return data("additive", "IV*", 3 if kind == "split" else 1, v_disc - 6)
    w = w.transform(t=q**2 * y1)
    if w.a4 % q**4:
        return data("additive", "III*", 2, v_disc - 7)
    if w.a6 % q**6:
        return data("additive", "II*", 1, v_disc - 8)
    raise NonMinimalModelError(f"model is not minimal at {q}")
