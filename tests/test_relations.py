"""Relations the mathematics guarantees between different curves, whatever
the implementation: a quadratic twist flips a_ell by (d/ell), and a change
of model changes no classification.  Seeded, so a failure replays."""

import random

import pytest

from iwakit.classify import _distinguished_primes, _verdicts
from iwakit.counting import TraceCache
from iwakit.elliptic import SingularCurveError, WeierstrassModel, minimal_model, quadratic_twist
from iwakit.ntheory import legendre, sieve_primes

E99 = WeierstrassModel(0, 0, 1, -3, -5)
BOUND = 3000


def _seeded_curves(rng, n):
    curves = []
    while len(curves) < n:
        try:
            curves.append(WeierstrassModel(rng.randint(0, 1), rng.randint(-1, 1), rng.randint(0, 1),
                                           rng.randint(-300, 300), rng.randint(-300, 300)))
        except SingularCurveError:
            pass
    return curves


def test_quadratic_twist_flips_a_ell_by_the_legendre_symbol():
    # a_ell(E^d) = (d/ell) a_ell(E) at every ell good for both that does not
    # divide 2d: 15 twists, three of each of five curves, below BOUND
    rng = random.Random(14)
    squarefree = [d for d in range(-30, 31)
                  if d not in (0, 1) and all(d % (q * q) for q in (2, 3, 5))]
    for model in [E99] + _seeded_curves(rng, 4):
        minimal = minimal_model(model)[0]
        for d in rng.sample(squarefree, 3):
            twist = minimal_model(quadratic_twist(minimal, d))[0]
            ells = [ell for ell in sieve_primes(BOUND)
                    if (2 * d * minimal.disc * twist.disc) % ell]
            base = TraceCache(None).traces(minimal, ells)
            twisted = TraceCache(None).traces(twist, ells)
            assert twisted == {ell: legendre(d, ell) * a for ell, a in base.items()}, (model, d)


# u = 2 and 31 add bad primes to the model but not to its minimal model; 31 =
# 1 mod 30 is distinguished for E99 at p = 3
@pytest.mark.parametrize("u", [1, 2, 31])
def test_a_change_of_model_changes_no_verdict(u):
    # a seeded (r, s, t), then every a_i scaled by u^i
    rng = random.Random(u)
    w = E99.transform(r=rng.randint(-9, 9), s=rng.randint(-9, 9), t=rng.randint(-9, 9))
    model = WeierstrassModel(u * w.a1, u**2 * w.a2, u**3 * w.a3, u**4 * w.a4, u**6 * w.a6)
    assert model != E99 and minimal_model(model)[0] == E99
    # each side on a fresh cache, so neither reads what the other stored
    assert (list(_verdicts(model, 3, BOUND, TraceCache(None)))
            == list(_verdicts(E99, 3, BOUND, TraceCache(None))))
    for p in (3, 5):
        assert (_distinguished_primes(model, p, BOUND, TraceCache(None))
                == _distinguished_primes(E99, p, BOUND, TraceCache(None)))
