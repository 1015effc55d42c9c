"""Command-line front door tying the pipelines together.

Exit codes separate failure kinds: 0 success, 2 for usage errors (argparse's
own code), 3 when a computation is blocked on an unmet or unresolved
hypothesis, 1 for computational and I/O failures.  Every JSON payload
carries "schema": 1, sorted keys, and no timestamps, so identical inputs
and cache state give byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from collections.abc import Iterable, Iterator
from contextlib import nullcontext
from fractions import Fraction
from itertools import chain, islice
from pathlib import Path
from typing import TYPE_CHECKING

# every subcommand but classify imports what it runs inside its handler, so a
# call compiles only what it needs; the classify path loads with this module.
# No handler calls bulk_classify: it stays bound here because
# bench/test_bench.py::test_no_wrapper_is_left_installed asserts that the
# tracer wraps iwakit.cli.bulk_classify
from .classify import PrimeClass, _classified, _verdicts, bulk_classify, classification_rows
from .counting import GRID_BUDGET, TraceCache
from .elliptic import (
    WeierstrassModel,
    format_model,
    local_data,
    minimal_model,
    parse_model,
)
from .ntheory import check_odd_prime

if TYPE_CHECKING:
    from .fields import CyclicExtension

__all__ = ["main", "EXIT_OK", "EXIT_FAILURE", "EXIT_USAGE", "EXIT_BLOCKED"]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2  # argparse exits with this on its own
EXIT_BLOCKED = 3


_JSON = json.JSONEncoder(sort_keys=True, indent=2)
# classify records (JSON or CSV) written per slice
_RECORD_SLICE = 256


def _is_blocked(exc: Exception) -> bool:
    # the error classes are looked up only once an error has reached here,
    # so a call that succeeds loads neither kida nor eulerchar for them
    from .eulerchar import HypothesisNotMetError, SupersingularTwistError, TwistNotGoodError
    from .kida import HypothesisBlockedError

    return isinstance(exc, (HypothesisBlockedError, HypothesisNotMetError, TwistNotGoodError,
                            SupersingularTwistError))


# ---------------------------------------------------------------------------
# argument parsing helpers
# ---------------------------------------------------------------------------


def _curve_arg(text: str) -> WeierstrassModel:
    try:
        return parse_model(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _int_list_arg(text: str) -> tuple[int, ...]:
    # keeps the user's order so --exponents stays aligned prime by prime
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


_DECIMAL = re.compile(r"\s*[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE]([+-]?\d+))?\s*")
# bounds the digits of a parsed grid point: far past GRID_BUDGET, but never slow
_GRID_DIGITS = 1000


def _grid_arg(text: str) -> tuple[int, ...]:
    # exact decimals with scientific notation: "1e3,1e4" -> (1000, 10000), and
    # 2**53 + 1 stays itself; the grid budget is checked by the report
    out = []
    for part in text.split(","):
        match = _DECIMAL.fullmatch(part)
        if match is None:
            raise argparse.ArgumentTypeError(
                f"grid point {part!r} is not a finite decimal number")
        if len(part) > _GRID_DIGITS or abs(int(match[1] or 0)) > _GRID_DIGITS:
            raise argparse.ArgumentTypeError(
                f"grid point {part[:40]!r} is out of range: "
                f"length or exponent above {_GRID_DIGITS}")
        value = Fraction(part)
        if value.denominator != 1:
            raise argparse.ArgumentTypeError(f"grid point {part!r} is not an integer")
        out.append(int(value))
    return tuple(out)


def _jobs_arg(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from exc
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"--jobs must be >= 1, got {jobs}")
    return jobs


def _bool_arg(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")


def _cache_from(args: argparse.Namespace) -> TraceCache:
    # an empty IWAKIT_CACHE_DIR is unset, not the current directory: memory only
    directory = getattr(args, "cache_dir", None) or os.environ.get("IWAKIT_CACHE_DIR") or None
    return TraceCache(directory, jobs=args.jobs)


def _extension_from(args: argparse.Namespace) -> CyclicExtension:
    from .fields import CyclicExtension

    p = args.p
    check_odd_prime(p)  # the normalization below works mod p
    tame = args.ramified or ()
    exponents = args.exponents
    if exponents is None:
        exponents = (1,) * len(tame)
    if len(exponents) != len(tame):
        raise ValueError(
            f"{len(tame)} ramified primes but {len(exponents)} exponents"
        )
    pairs = sorted(zip(tame, exponents))
    wild_exponent = getattr(args, "wild_exponent", None)
    wild = bool(getattr(args, "wild", False)) or wild_exponent is not None
    if wild and wild_exponent is None:
        wild_exponent = 1
    # a character and its powers cut out the same field, so reduce mod p and
    # rescale the whole vector to the normalized representative
    vector = [e for _, e in pairs] + ([wild_exponent] if wild else [])
    if not vector:
        raise ValueError("a nontrivial extension of Q ramifies somewhere")
    if any(e % p == 0 for e in vector):
        raise ValueError(f"an exponent divisible by {p} cuts out no degree-{p} character")
    inverse = pow(vector[0], -1, p)
    vector = [(e * inverse) % p for e in vector]
    return CyclicExtension(
        p=p,
        tame_ramified=tuple(ell for ell, _ in pairs),
        wild_at_p=wild,
        exponents=tuple(vector[: len(pairs)]),
        wild_exponent=vector[-1] if wild else None,
    )


def _write_slices(pieces: Iterator[str], size: int, out: str | None) -> None:
    # joined and written size pieces at a time, so no whole-output string is built
    opened = open(out, "w", encoding="utf-8") if out is not None else nullcontext(sys.stdout)
    with opened as fh:
        while piece := "".join(islice(pieces, size)):
            fh.write(piece)


def _emit(payload: dict, out: str | None) -> None:
    # the text of json.dumps(payload, sort_keys=True, indent=2) plus a newline,
    # 4096 encoder pieces at a time; with indent the encoder runs in pure
    # Python, so classify writes its records by a template instead
    _write_slices(chain(_JSON.iterencode({"schema": 1, **payload}), ("\n",)), 4096, out)


def _curve_keys(model: WeierstrassModel, minimal: WeierstrassModel) -> dict:
    return {"curve": format_model(model), "minimal_model": format_model(minimal)}


def _failure(exc: ValueError) -> dict:
    return {"blocked" if _is_blocked(exc) else "error": str(exc)}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _class_counts(verdicts: Iterable[tuple[str, bool]]) -> dict:
    counts = {"Q1": 0, "Q2": 0, "Q3": 0, "script_Q": 0}
    for category, distinguished in verdicts:
        counts[category] += 1
        counts["script_Q"] += distinguished
    return counts


# the most fields enumerate-fields lists, (p - 1)^(k - 1) over k ramified
# places with the wild one: 2^17 fields, p = 3 at 18 places, took 5.9-6.8 s,
# 146 MB of RSS and printed 79 MB on a 2-core box, and twice the fields doubles
# all three
FIELD_BUDGET = 2**17


def _check_bound(bound: int) -> None:
    # the same budget as a density grid: classification sieves to the bound
    if bound > GRID_BUDGET:
        raise ValueError(f"bound {bound} exceeds the budget {GRID_BUDGET}")


def _primes_json(records: Iterable[PrimeClass]) -> Iterator[str]:
    # the "primes" list as _JSON writes it at depth 1, one piece per record:
    # keys sorted, each record's dict at depth 2, None and bools spelled as JSON
    sep = "["
    for r in records:
        a_ell = "null" if r.a_ell is None else r.a_ell
        flag = "true" if r.in_script_q else "false"
        yield (f'{sep}\n    {{\n      "a_ell": {a_ell},\n      "class": "{r.category}",'
               f'\n      "ell": {r.ell},\n      "in_script_Q": {flag}\n    }}')
        sep = ","
    # an empty list is "[]"; records are only known to be none once they run out
    yield "[]" if sep == "[" else "\n  ]"


def _cmd_classify(args: argparse.Namespace) -> int:
    _check_bound(args.bound)
    # each record is made as it is written, so no list of them is held; the
    # trace cache is not kept, so its table is freed before the output
    verdicts, records = _classified(args.curve, args.p, args.bound, _cache_from(args))
    if args.format == "csv":
        _write_slices(classification_rows(records), _RECORD_SLICE, args.out)
        return EXIT_OK
    payload = {
        "schema": 1,
        "subcommand": "classify",
        **_curve_keys(args.curve, minimal_model(args.curve)[0]),
        "p": args.p,
        "bound": args.bound,
        "counts": _class_counts(verdicts),
        "primes": [],
    }
    # the records go in at the one "primes": [] slot of the rest of the payload
    head, _, tail = _JSON.encode(payload).partition('"primes": []')
    pieces = chain((head, '"primes": '), _primes_json(records), (tail, "\n"))
    _write_slices(pieces, _RECORD_SLICE, args.out)
    return EXIT_OK


def _resolve_lambda_base(args: argparse.Namespace, report) -> int:
    from .kida import HypothesisBlockedError

    if args.lambda_base is not None:
        if report.base_mu_lambda_zero is True and args.lambda_base != 0:
            raise ValueError(
                "base mu and lambda vanish, so --lambda-base must be 0"
            )
        return args.lambda_base
    if report.base_mu_lambda_zero is True:
        return 0
    raise HypothesisBlockedError(
        "lambda over the base field is not determined; pass --lambda-base"
    )


def _kida_records(
    args: argparse.Namespace,
    ext: CyclicExtension,
    minimal: WeierstrassModel,
    mu_lambda_zero: bool | None,
) -> dict:
    """The extension, hypothesis audit and transfer records of kida and report."""
    from .fields import extension_record
    from .kida import check_hypotheses, hypothesis_record, kida_record, lambda_transfer

    report = check_hypotheses(minimal, args.p, ext, mu_lambda_zero_at_base=mu_lambda_zero)
    lambda_base = _resolve_lambda_base(args, report)
    override = getattr(args, "override", False)  # report has no --override
    result = lambda_transfer(lambda_base, args.p, ext, minimal, report=report, override=override)
    return {
        "extension": extension_record(ext),
        "hypotheses": hypothesis_record(report),
        "transfer": kida_record(result),
    }


def _cmd_kida(args: argparse.Namespace) -> int:
    ext = _extension_from(args)
    minimal, _ = minimal_model(args.curve)
    payload = {
        "subcommand": "kida",
        **_curve_keys(args.curve, minimal),
        # the transfer depends only on the ramification data, so every
        # normalized character with the same tame set and wild flag shares it
        "fields_sharing_result": _sharing_count(ext),
        **_kida_records(args, ext, minimal, args.mu_lambda_zero),
    }
    _emit(payload, args.out)
    return EXIT_OK


def _sharing_count(ext: CyclicExtension) -> int:
    slots = len(ext.tame_ramified) + (1 if ext.wild_at_p else 0)
    return (ext.p - 1) ** (slots - 1)


def _cmd_euler_char(args: argparse.Namespace) -> int:
    from .eulerchar import _euler_factors, euler_factors_record
    from .refdata import ingest_reference

    dataset = ingest_reference(args.reference) if args.reference else None
    minimal, _ = minimal_model(args.curve)
    sha_order = args.sha if args.sha in (None, "unknown") else int(args.sha)
    check_odd_prime(args.p)
    factors, record = _euler_factors(
        minimal, args.p, sha_order, args.analytic_rank_zero, dataset)
    payload = {
        "subcommand": "euler-char",
        **_curve_keys(args.curve, minimal),
        "p": args.p,
        "factors": euler_factors_record(factors),
        "external": {
            "analytic_rank_zero": factors.analytic_rank_zero,
            "sha_p_order": factors.sha_p_order,
            "source_note": None if record is None else record["source_note"],
        },
    }
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_enumerate_fields(args: argparse.Namespace) -> int:
    from .fields import count_extensions, enumerate_extensions, extension_record

    primes = args.ramified or ()
    tame_count = count_extensions(args.p, primes) if primes else 0  # checks p and the primes
    places = len(primes) + args.wild
    if places and (args.p - 1) ** (places - 1) > FIELD_BUDGET:
        raise ValueError(f"({args.p} - 1)^{places - 1} fields exceed the budget {FIELD_BUDGET}")
    fields = enumerate_extensions(args.p, primes, wild_at_p=args.wild)
    payload = {
        "subcommand": "enumerate-fields",
        "p": args.p,
        "ramified": list(primes),
        "wild_at_p": args.wild,
        "count": len(fields),
        "tame_count_formula": tame_count,
        "fields": [extension_record(ext) for ext in fields],
    }
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_density(args: argparse.Namespace) -> int:
    from .density import asymptotic_report, density_record, table_csv

    cache = _cache_from(args)
    report = asymptotic_report(args.curve, args.p, args.grid, cache=cache)
    if args.g_csv:
        Path(args.g_csv).write_text(table_csv(report.g_table, "g"), encoding="utf-8")
    if args.m_csv:
        Path(args.m_csv).write_text(table_csv(report.M_table, "M"), encoding="utf-8")
    payload = {
        "subcommand": "density",
        **_curve_keys(args.curve, minimal_model(args.curve)[0]),
        **density_record(report),
    }
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    from .density import alpha_closed_form, beta_stated_form, delange_exponents
    from .eulerchar import euler_char_factors, euler_factors_record

    _check_bound(args.bound)
    cache = _cache_from(args)
    model = args.curve
    p = args.p
    minimal, _ = minimal_model(model)
    bad = local_data(minimal)
    reduction = [
        {
            "ell": local.ell,
            "type": local.type,
            "kodaira": local.kodaira,
            "tamagawa": local.tamagawa,
            "conductor_exponent": local.conductor_exponent,
        }
        for local in bad
    ]
    # the class counts need the verdicts alone, so no record is built
    counts = _class_counts(_verdicts(model, p, args.bound, cache))
    try:
        euler: dict = euler_factors_record(euler_char_factors(minimal, p))
    except ValueError as exc:
        euler = _failure(exc)
    payload = {
        "subcommand": "report",
        **_curve_keys(model, minimal),
        "p": p,
        "conductor": math.prod(local.ell ** local.conductor_exponent for local in bad),
        "reduction": reduction,
        "classification": {"bound": args.bound, "counts": counts},
        "euler": euler,
        "density_constants": {
            "alpha": str(alpha_closed_form(p)),
            "delange_pair": [str(v) for v in delange_exponents(p, alpha_closed_form(p))],
            "beta_stated": str(beta_stated_form(p)),
        },
    }
    if args.ramified:
        try:
            ext = _extension_from(args)
            # None: the audit reads the base invariants off the Euler audit above,
            # which the minimal model keeps
            payload["kida"] = _kida_records(args, ext, minimal, None)
        except ValueError as exc:
            payload["kida"] = _failure(exc)
    _emit(payload, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, *, curve: bool = True) -> None:
    if curve:
        sub.add_argument("--curve", type=_curve_arg, required=True,
                         help="coefficients a1,a2,a3,a4,a6")
    sub.add_argument("--p", type=int, required=True, help="odd prime")
    sub.add_argument("--out", default=None, help="write output here instead of stdout")


def _add_cache(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--cache-dir", default=None,
                     help="trace cache directory (or IWAKIT_CACHE_DIR)")
    sub.add_argument("--jobs", type=_jobs_arg, default=1,
                     help="worker count, at most the CPU count")


def _add_extension(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--ramified", type=_int_list_arg, default=(),
                     help="tame ramified primes, comma separated")
    sub.add_argument("--exponents", type=_int_list_arg, default=None,
                     help="character exponents per tame prime (default all 1)")
    sub.add_argument("--wild", action="store_true", help="also ramify at p")
    sub.add_argument("--wild-exponent", type=int, default=None,
                     help="wild character exponent (implies --wild)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iwakit",
        description="Iwasawa-theoretic invariants of elliptic curves over cyclic fields",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    classify = sub.add_parser("classify", help="classify primes up to a bound")
    _add_common(classify)
    _add_cache(classify)
    classify.add_argument("--bound", type=int, required=True)
    classify.add_argument("--format", choices=("json", "csv"), default="json")
    classify.set_defaults(func=_cmd_classify)

    kida = sub.add_parser("kida", help="transfer lambda across a cyclic extension")
    _add_common(kida)
    _add_extension(kida)
    kida.add_argument("--lambda-base", type=int, default=None,
                      help="lambda over the base field (external input)")
    kida.add_argument("--mu-lambda-zero", type=_bool_arg, default=None,
                      help="assert base mu = lambda = 0 from external knowledge")
    kida.add_argument("--override", action="store_true",
                      help="proceed past unresolved hypotheses")
    kida.set_defaults(func=_cmd_kida)

    euler = sub.add_parser("euler-char", help="Euler characteristic factor audit")
    _add_common(euler)
    euler.add_argument("--sha", default=None,
                       help="p-part of the Tate-Shafarevich order, or 'unknown'")
    euler.add_argument("--analytic-rank-zero", type=_bool_arg, default=None)
    euler.add_argument("--reference", default=None,
                       help="JSON reference dataset replacing the bundled one")
    euler.set_defaults(func=_cmd_euler_char)

    fields = sub.add_parser(
        "enumerate-fields", help="cyclic degree-p fields by ramification",
        description=f"List the (p - 1)^(k - 1) cyclic degree-p fields ramified exactly at "
                    f"k places, the wild one counted; more than {FIELD_BUDGET} exits 1.")
    _add_common(fields, curve=False)
    _add_extension(fields)
    fields.set_defaults(func=_cmd_enumerate_fields)

    density = sub.add_parser("density", help="density constants and asymptotic fit")
    _add_common(density)
    _add_cache(density)
    density.add_argument("--grid", type=_grid_arg, required=True,
                         help="increasing X grid, e.g. 1e3,1e4,1e5,1e6")
    density.add_argument("--method", choices=("dfs", "sieve"), default="dfs",
                         help="kept for old command lines: both count by the DFS "
                              "walk and print the same output")
    density.add_argument("--g-csv", default=None, help="write the g table as CSV here")
    density.add_argument("--m-csv", default=None, help="write the M table as CSV here")
    density.set_defaults(func=_cmd_density)

    report = sub.add_parser("report", help="composite summary for one curve and p")
    _add_common(report)
    _add_cache(report)
    _add_extension(report)
    report.add_argument("--bound", type=int, default=1000,
                        help="classification bound for the summary counts")
    report.add_argument("--lambda-base", type=int, default=None)
    report.set_defaults(func=_cmd_report)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parsing keeps no state in the parser, and every
    # default is immutable
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        if _is_blocked(exc):
            print(f"blocked: {exc}", file=sys.stderr)
            return EXIT_BLOCKED
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
