#!/usr/bin/env python3
"""Time point counting by ell band and factoring of small discriminants.

Prints one JSON line:
- "count_us": microseconds per prime of count_points in each band (ell <= 229
  is naive counting, the rest BSGS), over --curves seeded random curves and
  --primes seeded good primes per band and curve;
- "psi3_us": microseconds per prime of the psi_3 kernel that decides whether
  3 divides #E(F_ell), which the p = 3 density scan runs in place of BSGS, in
  each band above 229, over the same curves and --primes seeded good primes
  ell = 1 mod 6 per band and curve;
- "factorize_us": microseconds per factorize call on the minimal
  discriminants of --discs seeded random curves with |a4|, |a6| <= 3000.
Each figure is the best of --repeats passes over the same inputs.  Every
count pass works on new copies of the curves, which keep nothing from an
earlier pass, so the ell <= 229 figure includes each model's one evaluation
of the cubic's integer values, and the BSGS bands each model's short model.

    PYTHONPATH=src python scripts/count_bands.py --curves 30 --primes 200
"""

import argparse
import json
import random
import time

from iwakit.counting import _three_divides, count_points
from iwakit.elliptic import SingularCurveError, WeierstrassModel, minimal_model
from iwakit.ntheory import factorize, sieve_primes

BANDS = ((2, 229), (229, 10**3), (10**3, 10**4), (10**4, 10**5))
HEIGHT = 3000  # as the curve_pipeline benchmark workload draws its curves


def random_minimal_curves(rng: random.Random, n: int) -> list[WeierstrassModel]:
    out = []
    while len(out) < n:
        coeffs = (rng.randint(0, 1), rng.randint(-1, 1), rng.randint(0, 1),
                  rng.randint(-HEIGHT, HEIGHT), rng.randint(-HEIGHT, HEIGHT))
        try:
            out.append(minimal_model(WeierstrassModel(*coeffs))[0])
        except SingularCurveError:
            pass
    return out


def best_us(make, calls: int, repeats: int) -> float:
    """Best time per call of make()(), with make() run untimed before each pass."""
    best = float("inf")
    for _ in range(repeats):
        fn = make()
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return round(1e6 * best / calls, 2)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--curves", type=int, default=30)
    parser.add_argument("--primes", type=int, default=200, help="primes per band and curve")
    parser.add_argument("--discs", type=int, default=200)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    rng = random.Random(0)
    curves = random_minimal_curves(rng, args.curves)
    primes = sieve_primes(BANDS[-1][1])
    count_us, psi3_us = {}, {}
    psi3_rng = random.Random(1)
    for lo, hi in BANDS:
        band = [q for q in primes if lo < q <= hi]
        work = [(i, ell) for i, w in enumerate(curves)
                for ell in rng.sample(band, min(args.primes, len(band))) if w.disc % ell]

        def fresh_pass():
            models = [WeierstrassModel(*w.coefficients()) for w in curves]
            return lambda: [count_points(models[i], ell) for i, ell in work]

        count_us[f"{lo}-{hi}"] = best_us(fresh_pass, len(work), args.repeats)
        if lo < 229:
            continue
        # its own draws, so count_us and factorize_us keep their inputs
        band = [q for q in band if q % 6 == 1]
        work = [(i, ell) for i, w in enumerate(curves)
                for ell in psi3_rng.sample(band, min(args.primes, len(band))) if w.disc % ell]

        def fresh_short():
            models = [WeierstrassModel(*w.coefficients()) for w in curves]
            return lambda: [_three_divides(*models[i].short, ell) for i, ell in work]

        psi3_us[f"{lo}-{hi}"] = best_us(fresh_short, len(work), args.repeats)
    discs = [w.disc for w in random_minimal_curves(rng, args.discs)]
    factorize_us = best_us(lambda: lambda: [factorize(d) for d in discs], len(discs),
                           args.repeats)
    print(json.dumps({"curves": args.curves, "primes": args.primes, "discs": args.discs,
                      "count_us": count_us, "psi3_us": psi3_us,
                      "factorize_us": factorize_us}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
