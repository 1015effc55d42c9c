"""iwakit: Iwasawa invariants of elliptic curves over cyclic p-extensions.

The pieces compose in pipeline order: local reduction data and point
counts feed the prime classification, which feeds field enumeration and
the counting functions; the Euler-characteristic audit settles the base
invariants that the lambda transfer consumes; the density module compares
all of it against closed-form predictions.
"""

from .classify import PrimeClass, bulk_classify, classify_prime, p2_membership
from .counting import (
    FrobeniusData,
    TraceCache,
    count_points,
    frobenius_data,
    order_over_extension,
    trace_of_frobenius,
)
from .density import (
    DensityReport,
    alpha_brute_force,
    alpha_closed_form,
    asymptotic_report,
    delange_exponents,
    empirical_density,
    sl2_trace_count,
)
from .elliptic import (
    LocalReductionData,
    SingularCurveError,
    WeierstrassModel,
    conductor,
    format_model,
    local_data,
    minimal_model,
    parse_model,
    quadratic_twist,
    reduction_type,
)
from .eulerchar import (
    EulerFactors,
    HypothesisNotMetError,
    SupersingularTwistError,
    TwistNotGoodError,
    euler_char_factors,
    good_ordinary_twist,
    mu_lambda_vanish,
)
from .fields import (
    CyclicExtension,
    M_of_X,
    count_extensions,
    discriminant,
    enumerate_extensions,
    g_of_X,
    script_q_primes,
    splitting,
)
from .iwasawa import (
    CharSeries,
    EulerCharUndefinedError,
    IwasawaInvariants,
    PrecisionError,
    euler_characteristic,
    from_elementary,
    iwasawa_invariants,
    mu_lambda_zero,
)
from .kida import (
    HypothesisBlockedError,
    HypothesisReport,
    KidaResult,
    check_hypotheses,
    lambda_transfer,
    rank_bound,
    rank_claim,
    stable_extension_test,
    tower_transfer,
)
from .refdata import ingest_reference, load_reference, reference_record

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # curves and local data
    "WeierstrassModel", "LocalReductionData", "SingularCurveError",
    "parse_model", "format_model", "minimal_model", "quadratic_twist",
    "reduction_type", "local_data", "conductor",
    # point counting
    "FrobeniusData", "TraceCache", "count_points", "trace_of_frobenius",
    "frobenius_data", "order_over_extension",
    # characteristic series
    "CharSeries", "IwasawaInvariants", "PrecisionError",
    "EulerCharUndefinedError", "from_elementary", "iwasawa_invariants",
    "euler_characteristic", "mu_lambda_zero",
    # prime classification
    "PrimeClass", "classify_prime", "bulk_classify", "p2_membership",
    # cyclic fields and counting functions
    "CyclicExtension", "count_extensions", "enumerate_extensions",
    "discriminant", "splitting", "script_q_primes", "g_of_X", "M_of_X",
    # Euler characteristic audit
    "EulerFactors", "TwistNotGoodError", "SupersingularTwistError",
    "HypothesisNotMetError", "good_ordinary_twist", "euler_char_factors",
    "mu_lambda_vanish",
    # lambda transfer
    "HypothesisReport", "KidaResult", "HypothesisBlockedError",
    "check_hypotheses", "lambda_transfer", "tower_transfer", "rank_bound",
    "rank_claim", "stable_extension_test",
    # density
    "DensityReport", "alpha_closed_form", "alpha_brute_force",
    "delange_exponents", "sl2_trace_count", "empirical_density",
    "asymptotic_report",
    # external reference data
    "ingest_reference", "load_reference", "reference_record",
]
