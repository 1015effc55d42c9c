"""Seeded inputs of the benchmark workloads.

Each workload is a list of `iwakit` argv lists. The program sees only these
argv lists; the seed decides the curves and primes in them, the same seed
always gives the same lists. This module does not import iwakit, so the
inputs do not depend on the code under test.

Cache directories are placeholders, replaced by the runner: FRESH_CACHE by a
new empty directory on every call, WARM_CACHE by the directory that the
workload's set-up filled. Curves are passed as `--curve=a1,...` because a
model may start with a minus sign. Digests of outputs use the argv with the
placeholders, so they do not depend on where the benchmark runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

E99 = (0, 0, 1, -3, -5)  # the conductor-99 curve of the README example
DEFAULT_SEED = 0
FRESH_CACHE = "<fresh-cache-dir>"
WARM_CACHE = "<warm-cache-dir>"

CLASSIFY_BOUND = 100_000
DENSITY_GRID = "1e3,1e4,1e5,3e5"
DENSITY_FILL_BOUND = 300_000
PIPELINE_CURVES = 100
# |a4|, |a6| stay this small because larger heights reach discriminants that
# the trial-division factorizer cannot finish in bounded time.
PIPELINE_HEIGHT = 3000
# Tame ramified primes with l = 1 mod 15, so the same prime carries a cyclic
# cubic and a cyclic quintic field; all are <= 1000, where counting is naive.
PIPELINE_ELLS = (31, 61, 151, 181, 211, 241, 271, 331, 421, 541, 571, 601,
                 631, 661, 691, 751, 811, 881, 911, 941, 971)


@dataclass(frozen=True)
class Workload:
    """One workload: set-up calls, then one pass of timed calls, in order."""

    name: str
    item: str  # what `throughput` counts: "prime", "report" or "op"
    setup_ops: tuple[tuple[str, ...], ...]
    ops: tuple[tuple[str, ...], ...]
    deadline_s: float  # a call that takes longer counts as failed
    # set-ups per run, setup_s is their median; density_warm's set-up takes
    # ~18 s, so it runs once to keep a run's length within budget
    setup_reps: int


def _disc(a1: int, a2: int, a3: int, a4: int, a6: int) -> int:
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def random_curve(rng: random.Random) -> tuple[int, ...]:
    """A nonsingular model with a1, a3 in {0,1}, a2 in {-1,0,1}, small a4, a6."""
    h = PIPELINE_HEIGHT
    while True:
        coeffs = (rng.randint(0, 1), rng.randint(-1, 1), rng.randint(0, 1),
                  rng.randint(-h, h), rng.randint(-h, h))
        if _disc(*coeffs) != 0:
            return coeffs


def _rescale(coeffs: tuple[int, ...], u: int) -> tuple[int, ...]:
    # the model x = x'/u^2, y = y'/u^3 of the same curve: never minimal for u > 1
    return tuple(a * u**k for a, k in zip(coeffs, (1, 2, 3, 4, 6)))


def _change_of_variables(coeffs: tuple[int, ...], r: int, s: int, t: int) -> tuple[int, ...]:
    # x = x' + r, y = y' + s x' + t: an isomorphic model with the same discriminant
    a1, a2, a3, a4, a6 = coeffs
    return (
        a1 + 2 * s,
        a2 - s * a1 + 3 * r - s * s,
        a3 + r * a1 + 2 * t,
        a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
        a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1,
    )


def _fmt(coeffs: tuple[int, ...]) -> str:
    return ",".join(str(a) for a in coeffs)


def classify_cold(seed: int, bound: int = CLASSIFY_BOUND) -> Workload:
    # every good prime misses the trace cache, so point counting dominates
    rng = random.Random(f"classify_cold/{seed}")
    curves = ((E99, 3), (random_curve(rng), 5))
    ops = tuple(
        ("classify", f"--curve={_fmt(c)}", "--p", str(p), "--bound", str(bound),
         "--jobs", "1", "--cache-dir", FRESH_CACHE)
        for c, p in curves
    )
    return Workload("classify_cold", "prime", (), ops, deadline_s=120.0, setup_reps=5)


def density_warm(seed: int, grid: str = DENSITY_GRID,
                 fill_bound: int = DENSITY_FILL_BOUND) -> Workload:
    # E99 in seeded coordinates: the cache is keyed by the minimal model, so
    # every trace hits and the time goes to classification and the tables
    rng = random.Random(f"density_warm/{seed}")
    model = _fmt(_change_of_variables(E99, *(rng.randint(-3, 3) for _ in range(3))))
    fill = (("classify", f"--curve={model}", "--p", "3", "--bound", str(fill_bound),
             "--format", "csv", "--jobs", "1", "--cache-dir", WARM_CACHE),)
    ops = tuple(
        ("density", f"--curve={model}", "--p", p, "--grid", grid,
         "--jobs", "1", "--cache-dir", WARM_CACHE)
        for p in ("3", "5")
    )
    return Workload("density_warm", "report", fill, ops, deadline_s=120.0, setup_reps=1)


def curve_pipeline(seed: int, n_curves: int = PIPELINE_CURVES) -> Workload:
    # many small per-curve requests: local data, twists, division polynomials
    rng = random.Random(f"curve_pipeline/{seed}")
    curves = [E99]
    while len(curves) < n_curves:
        curves.append(_rescale(random_curve(rng), rng.choice((1, 1, 1, 2, 3))))
    ops = []
    for coeffs in curves:
        c, ell = f"--curve={_fmt(coeffs)}", str(rng.choice(PIPELINE_ELLS))
        ops.append(("report", c, "--p", "3", "--ramified", ell, "--jobs", "1"))
        for p in ("3", "5"):
            ops.append(("kida", c, "--p", p, "--ramified", ell,
                        "--mu-lambda-zero", "true", "--lambda-base", "0"))
        ops.append(("euler-char", c, "--p", "3"))
    return Workload("curve_pipeline", "op", (), tuple(ops), deadline_s=30.0, setup_reps=5)


WORKLOADS = {w.__name__: w for w in (classify_cold, density_warm, curve_pipeline)}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
