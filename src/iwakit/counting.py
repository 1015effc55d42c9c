"""Point counts of reduced curves over F_ell and its extensions, plus a
per-curve trace cache.

Counts always refer to the good reduction of the curve, i.e. the reduction of
a model minimal at ell.  Naive enumeration is O(ell); above a configurable
crossover a baby-step/giant-step order search inside the Hasse interval takes
over, with the quadratic-twist constraint N + N' = 2(ell+1) as a tiebreaker.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import tempfile
from dataclasses import dataclass, field
from multiprocessing import Pool
from pathlib import Path

from .elliptic import BadReductionError, WeierstrassModel, format_model, minimal_model
from .ntheory import factorize, is_prime, legendre, sqrt_mod

__all__ = [
    "CROSSOVER",
    "FrobeniusData",
    "count_points",
    "count_points_naive",
    "count_points_bsgs",
    "frobenius_data",
    "order_over_extension",
    "trace_of_frobenius",
    "TraceCache",
]

CROSSOVER = 457


def _good_model_at(model: WeierstrassModel, ell: int) -> WeierstrassModel:
    if model.disc % ell != 0:
        return model
    mm, _ = minimal_model(model)
    if mm.disc % ell != 0:
        return mm
    raise BadReductionError(f"bad reduction at {ell}")


def count_points_naive(model: WeierstrassModel, ell: int) -> int:
    """#E(F_ell) by direct enumeration, including the point at infinity."""
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    w = _good_model_at(model, ell)
    a1, a2, a3, a4, a6 = w.coefficients()
    if ell == 2:
        total = 1
        for x in (0, 1):
            for y in (0, 1):
                if (y * y + a1 * x * y + a3 * y - (x**3 + a2 * x * x + a4 * x + a6)) % 2 == 0:
                    total += 1
        return total
    # odd ell: y-solutions of the completed square eta^2 = 4x^3+b2x^2+2b4x+b6
    b2, b4, b6 = w.b2 % ell, w.b4 % ell, w.b6 % ell
    is_sq = bytearray(ell)
    for t in range((ell + 1) // 2):
        is_sq[t * t % ell] = 1
    total = 1
    for x in range(ell):
        g = (((4 * x + b2) * x + 2 * b4) * x + b6) % ell
        if g == 0:
            total += 1
        elif is_sq[g]:
            total += 2
    return total


# -- baby-step/giant-step ----------------------------------------------------


def _ec_neg(p, ell):
    return None if p is None else (p[0], (-p[1]) % ell)


def _ec_add(p, q, a, ell):
    if p is None:
        return q
    if q is None:
        return p
    x1, y1 = p
    x2, y2 = q
    if x1 == x2:
        if (y1 + y2) % ell == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, ell) % ell
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, ell) % ell
    x3 = (lam * lam - x1 - x2) % ell
    return (x3, (lam * (x1 - x3) - y1) % ell)


def _ec_mul(n, p, a, ell):
    if n < 0:
        return _ec_mul(-n, _ec_neg(p, ell), a, ell)
    acc = None
    while n:
        if n & 1:
            acc = _ec_add(acc, p, a, ell)
        p = _ec_add(p, p, a, ell)
        n >>= 1
    return acc


def _bsgs_annihilators(p, a, ell, lo, hi):
    """All n in [lo, hi] with n*P = O on y^2 = x^3 + ax + b."""
    if p is None:
        return list(range(lo, hi + 1))
    width = hi - lo + 1
    m = math.isqrt(width) + 1
    baby: dict[int, list[tuple[int, int]]] = {}
    q = None
    for j in range(m):
        if q is None:
            baby.setdefault(-1, []).append((j, 0))
        else:
            baby.setdefault(q[0], []).append((j, q[1]))
        q = _ec_add(q, p, a, ell)
    step = _ec_mul(m, p, a, ell)
    out = []
    giant = _ec_mul(lo, p, a, ell)
    for k in range(width // m + 2):
        base = lo + k * m
        if giant is None:
            matches = baby.get(-1, [])
            for j, _ in matches:
                for n in (base - j, base + j):
                    if lo <= n <= hi and _ec_mul(n, p, a, ell) is None:
                        out.append(n)
        else:
            for j, y in baby.get(giant[0], []):
                if giant[1] == y:
                    n = base - j
                else:
                    n = base + j
                if lo <= n <= hi and _ec_mul(n, p, a, ell) is None:
                    out.append(n)
        giant = _ec_add(giant, step, a, ell)
    return sorted(set(out))


def _point_order(p, a, ell, lo, hi):
    anns = _bsgs_annihilators(p, a, ell, lo, hi)
    if not anns:
        raise AssertionError("point order search missed the Hasse interval")
    d = anns[0]
    for q, _ in factorize(d):
        while d % q == 0 and _ec_mul(d // q, p, a, ell) is None:
            d //= q
    return d


def _random_point(rng, a, b, ell):
    while True:
        x = rng.randrange(ell)
        g = (x * x * x + a * x + b) % ell
        if g == 0:
            return (x, 0)
        if legendre(g, ell) == 1:
            return (x, sqrt_mod(g, ell))


def count_points_bsgs(model: WeierstrassModel, ell: int) -> int:
    """#E(F_ell) by point-order accumulation; requires ell > 3."""
    if not is_prime(ell) or ell <= 3:
        raise ValueError(f"count_points_bsgs needs a prime ell > 3, got {ell}")
    w = _good_model_at(model, ell)
    a = (-27 * w.c4) % ell
    b = (-54 * w.c6) % ell
    t = math.isqrt(4 * ell)
    lo, hi = ell + 1 - t, ell + 1 + t
    rng = random.Random(ell * 1_000_003 + a * 7 + b)
    g = 2
    while legendre(g, ell) != -1:
        g += 1
    at, bt = a * g * g % ell, b * g**3 % ell
    lcm_curve, lcm_twist = 1, 1
    for attempt in range(256):
        if attempt % 2 == 0:
            d = _point_order(_random_point(rng, a, b, ell), a, ell, lo, hi)
            lcm_curve = lcm_curve * d // math.gcd(lcm_curve, d)
        else:
            d = _point_order(_random_point(rng, at, bt, ell), at, ell, lo, hi)
            lcm_twist = lcm_twist * d // math.gcd(lcm_twist, d)
        first = lo + (-lo) % lcm_curve
        cands = [
            n for n in range(first, hi + 1, lcm_curve)
            if (2 * (ell + 1) - n) % lcm_twist == 0
        ]
        if len(cands) == 1:
            return cands[0]
    raise AssertionError(f"group order at {ell} not pinned down")


def count_points(model: WeierstrassModel, ell: int, *, crossover: int = CROSSOVER) -> int:
    """Dispatch between naive and BSGS counting."""
    if ell <= crossover or ell <= 3:
        return count_points_naive(model, ell)
    return count_points_bsgs(model, ell)


def trace_of_frobenius(model: WeierstrassModel, ell: int, *, crossover: int = CROSSOVER) -> int:
    return ell + 1 - count_points(model, ell, crossover=crossover)


# -- Frobenius data and extension fields -------------------------------------


@dataclass(frozen=True)
class FrobeniusData:
    """Trace of Frobenius at a good prime, with memoized extension counts."""

    ell: int
    a_ell: int
    counts: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.a_ell * self.a_ell > 4 * self.ell:
            raise ValueError(f"Hasse bound violated: a={self.a_ell} at ell={self.ell}")
        self.counts.setdefault(1, self.ell + 1 - self.a_ell)


def frobenius_data(model: WeierstrassModel, ell: int, *, crossover: int = CROSSOVER) -> FrobeniusData:
    n = count_points(model, ell, crossover=crossover)
    return FrobeniusData(ell=ell, a_ell=ell + 1 - n)


def order_over_extension(fd: FrobeniusData, n: int) -> int:
    """#E(F_{ell^n}) via the Frobenius trace recurrence."""
    if n < 1:
        raise ValueError(f"extension degree must be >= 1, got {n}")
    if n in fd.counts:
        return fd.counts[n]
    s_prev, s_cur = 2, fd.a_ell
    for _ in range(n - 1):
        s_prev, s_cur = s_cur, fd.a_ell * s_cur - fd.ell * s_prev
    value = fd.ell**n + 1 - s_cur
    fd.counts[n] = value
    return value


# -- trace cache -------------------------------------------------------------


def _trace_worker(args: tuple[tuple[int, int, int, int, int], int]) -> tuple[int, int]:
    coeffs, ell = args
    return ell, trace_of_frobenius(WeierstrassModel(*coeffs), ell)


class TraceCache:
    """a_ell values per curve, optionally persisted as "ell a_ell" lines.

    Files are keyed by a hash of the minimal model, so isomorphic models share
    an entry.  Stored values must be bit-identical to recomputation.  A line
    that is not two integers, or whose a_ell breaks the Hasse bound, is a
    miss: it is recomputed and rewritten.  Files are replaced whole, through
    a temporary file, so a reader never sees a partial write.
    """

    def __init__(self, directory: str | Path | None = None):
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._mem: dict[str, dict[int, int]] = {}

    def _key(self, model: WeierstrassModel) -> str:
        mm, _ = minimal_model(model)
        return hashlib.sha256(format_model(mm).encode("ascii")).hexdigest()[:24]

    def _path(self, key: str) -> Path | None:
        return None if self.directory is None else self.directory / f"{key}.traces"

    def _load(self, key: str) -> dict[int, int]:
        if key in self._mem:
            return self._mem[key]
        table: dict[int, int] = {}
        path = self._path(key)
        if path is not None and path.exists():
            for line in path.read_text("ascii", errors="replace").splitlines():
                try:
                    ell, a = map(int, line.split())
                except ValueError:
                    continue
                if a * a <= 4 * ell:
                    table[ell] = a
        self._mem[key] = table
        return table

    def _store(self, key: str) -> None:
        path = self._path(key)
        if path is None:
            return
        table = self._mem[key]
        text = "".join(f"{ell} {table[ell]}\n" for ell in sorted(table))
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="ascii") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    def trace(self, model: WeierstrassModel, ell: int) -> int:
        return self.traces(model, [ell])[ell]

    def traces(self, model: WeierstrassModel, ells, *, jobs: int = 1) -> dict[int, int]:
        """a_ell for each requested good prime, computing and caching misses."""
        key = self._key(model)
        table = self._load(key)
        wanted = sorted(set(ells))
        missing = [ell for ell in wanted if ell not in table]
        if missing:
            mm, _ = minimal_model(model)
            coeffs = mm.coefficients()
            tasks = [(coeffs, ell) for ell in missing]
            if jobs > 1:
                with Pool(jobs) as pool:
                    results = pool.map(_trace_worker, tasks, chunksize=64)
            else:
                results = [_trace_worker(t) for t in tasks]
            for ell, a in results:
                table[ell] = a
            self._store(key)
        return {ell: table[ell] for ell in wanted}
