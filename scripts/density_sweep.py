#!/usr/bin/env python3
"""Compare empirical prime densities and field counts against closed forms.

Classifies primes up to a bound, reports the empirical density of the
distinguished set next to the exact alpha, then tabulates the counting
functions over a grid and prints the fitted log exponent.
"""

import argparse
import sys
from fractions import Fraction

from iwakit import (
    TraceCache,
    alpha_closed_form,
    asymptotic_report,
    bulk_classify,
    empirical_density,
    parse_model,
)
from iwakit.cli import _grid_arg, _jobs_arg


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--curve", default="0,0,1,-3,-5", help="a1,a2,a3,a4,a6")
    parser.add_argument("--p", type=int, default=3)
    parser.add_argument("--bound", type=int, default=10**5,
                        help="classification bound for the density estimate")
    parser.add_argument("--grid", type=_grid_arg, default=(10**3, 10**4, 10**5, 10**6),
                        help="X grid for the counting tables, e.g. 1e3,1e4,1e5,1e6")
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--jobs", type=_jobs_arg, default=1)
    args = parser.parse_args()

    model = parse_model(args.curve)
    p = args.p
    cache = TraceCache(args.cache_dir, jobs=args.jobs)

    records = bulk_classify(model, p, args.bound, cache=cache)
    members = sum(1 for r in records if r.in_script_q)
    print(f"{len(records)} primes <= {args.bound} classified; "
          f"{members} in the distinguished set")

    alpha = alpha_closed_form(p)
    density = empirical_density(model, p, args.bound, cache=cache)
    print(f"empirical density {density} = {float(density):.5f} "
          f"vs alpha = {alpha} = {float(alpha):.5f} "
          f"(gap {abs(float(density) - float(alpha)):.5f})")

    report = asymptotic_report(model, p, args.grid, cache=cache)
    print("X, g(X), M(X):")
    m_by_x = dict(report.M_table)
    for x, g in report.g_table:
        print(f"  {x:>9} {g:>8} {m_by_x[x]:>8}")
    predicted = Fraction(-p, p * p - 1)
    print(f"fitted log exponent {report.fitted_exponent:+.4f} "
          f"vs predicted {predicted} = {float(predicted):+.4f}")
    print(report.note)
    return 0


if __name__ == "__main__":
    sys.exit(main())
