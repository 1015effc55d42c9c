"""iwakit: Iwasawa invariants of elliptic curves over cyclic p-extensions.

The pieces compose in pipeline order: local reduction data and point
counts feed the prime classification, which feeds field enumeration and
the counting functions; the Euler-characteristic audit settles the base
invariants that the lambda transfer consumes; the density module compares
all of it against closed-form predictions.
"""

import importlib

__version__ = "0.1.0"

# each submodule and the public names it defines, in the order of __all__;
# a submodule is imported when one of its names is first used (PEP 562)
_EXPORTS = {
    "elliptic": (  # curves and local data
        "WeierstrassModel", "LocalReductionData", "SingularCurveError",
        "parse_model", "format_model", "minimal_model", "quadratic_twist",
        "reduction_type", "local_data", "conductor"),
    "counting": (  # point counting
        "FrobeniusData", "TraceCache", "count_points", "trace_of_frobenius",
        "frobenius_data", "order_over_extension"),
    "iwasawa": (  # characteristic series
        "CharSeries", "IwasawaInvariants", "PrecisionError",
        "EulerCharUndefinedError", "from_elementary", "iwasawa_invariants",
        "euler_characteristic", "mu_lambda_zero"),
    "classify": (  # prime classification
        "PrimeClass", "classify_prime", "bulk_classify", "p2_membership"),
    "fields": (  # cyclic fields and counting functions
        "CyclicExtension", "count_extensions", "enumerate_extensions",
        "discriminant", "splitting", "script_q_primes", "g_of_X", "M_of_X"),
    "eulerchar": (  # Euler characteristic audit
        "EulerFactors", "TwistNotGoodError", "SupersingularTwistError",
        "HypothesisNotMetError", "good_ordinary_twist", "euler_char_factors",
        "mu_lambda_vanish"),
    "kida": (  # lambda transfer
        "HypothesisReport", "KidaResult", "HypothesisBlockedError",
        "check_hypotheses", "lambda_transfer", "tower_transfer", "rank_bound",
        "rank_claim", "stable_extension_test"),
    "density": (  # density
        "DensityReport", "alpha_closed_form", "alpha_brute_force",
        "delange_exponents", "sl2_trace_count", "empirical_density",
        "asymptotic_report"),
    "refdata": (  # external reference data
        "ingest_reference", "load_reference", "reference_record"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_ORIGIN]


def __getattr__(name: str):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
