#!/usr/bin/env python3
"""Walk one curve through the whole pipeline, printing each stage.

The defaults reproduce the package's headline computation: the conductor-99
curve at p = 3, transferred across the cubic field ramified at 7.
"""

import argparse
import sys

from iwakit import (
    CyclicExtension,
    check_hypotheses,
    classify_prime,
    conductor,
    count_points,
    euler_char_factors,
    lambda_transfer,
    local_data,
    minimal_model,
    mu_lambda_vanish,
    parse_model,
    rank_claim,
)
from iwakit.kida import HypothesisBlockedError


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--curve", default="0,0,1,-3,-5", help="a1,a2,a3,a4,a6")
    parser.add_argument("--p", type=int, default=3)
    parser.add_argument("--ell", type=int, default=7,
                        help="tame prime cutting out the degree-p field")
    args = parser.parse_args()

    model = parse_model(args.curve)
    p = args.p
    minimal, _ = minimal_model(model)
    print(f"curve {args.curve}, minimal model {minimal.coefficients()}")
    bad = local_data(minimal)
    print(f"conductor {conductor(minimal)}")

    for local in bad:
        print(f"  reduction at {local.ell}: {local.type} ({local.kodaira}), "
              f"Tamagawa {local.tamagawa}")

    verdict = classify_prime(model, p, args.ell)
    count = count_points(model, args.ell)
    print(f"#E(F_{args.ell}) = {count}, class {verdict.category}, "
          f"distinguished set member: {verdict.in_script_q}")

    try:
        factors = euler_char_factors(model, p)
        print(f"Euler factors: sha = {factors.sha_p_order}, "
              f"residue count = {factors.frak_F_count}, "
              f"Tamagawa product = {factors.tamagawa_product}")
        print(f"mu/lambda vanishing verdict: {mu_lambda_vanish(factors)}")
    except ValueError as exc:
        print(f"Euler-characteristic audit unavailable: {exc}")

    ext = CyclicExtension(p=p, tame_ramified=(args.ell,), wild_at_p=False,
                          exponents=(1,))
    report = check_hypotheses(model, p, ext)
    print(f"hypotheses: stability {report.additive_stability}, "
          f"base mu/lambda zero: {report.base_mu_lambda_zero}")
    if report.base_mu_lambda_zero is not True:
        print("base lambda unresolved; worked example assumes it is 0")
        return 1
    try:
        result = lambda_transfer(0, p, ext, model, report=report)
    except HypothesisBlockedError as exc:
        print(f"transfer blocked: {exc}")
        return 1
    print(f"lambda over the degree-{result.degree} field: {result.lambda_L} "
          f"(local terms {result.p1_term} + {result.p2_term})")
    print(rank_claim(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
