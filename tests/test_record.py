"""The frozen records: what each record class keeps of a frozen dataclass."""

import functools
import pickle
from fractions import Fraction

import pytest

from iwakit._record import _asdict, _frozen
from iwakit.classify import PrimeClass, classify_prime
from iwakit.counting import FrobeniusData
from iwakit.density import DensityReport, asymptotic_report
from iwakit.elliptic import LocalReductionData, SingularCurveError, WeierstrassModel, local_data
from iwakit.eulerchar import EulerFactors, OrdinaryTwist, euler_char_factors, good_ordinary_twist
from iwakit.fields import CyclicExtension, SplittingRecord, ramified_splitting
from iwakit.iwasawa import DEFAULT_PRECISION, CharSeries, IwasawaInvariants, iwasawa_invariants
from iwakit.kida import (
    HypothesisReport,
    KidaResult,
    LocalTerm,
    check_hypotheses,
    kida_record,
    lambda_transfer,
)

E99 = WeierstrassModel(0, 0, 1, -3, -5)
EXT7 = CyclicExtension(3, (7,), False, (1,))
TWIST = "WeierstrassModel(a1=0, a2=-1, a3=1, a4=0, a6=0)"
WITNESS = ("LocalTerm(ell=7, reduction='good', w_count=1, ramification=3, p_torsion=False, "
           "bucket='none', contribution=0)")

# each record class, and the repr of its sample below as the dataclass gave it
REPRS = {
    WeierstrassModel: "WeierstrassModel(a1=0, a2=0, a3=1, a4=-3, a6=-5)",
    LocalReductionData: "LocalReductionData(ell=3, type='additive', kodaira='I0*', tamagawa=1, "
                        "conductor_exponent=2, v_disc=6, v_c4=2)",
    PrimeClass: "PrimeClass(ell=7, category='Q3', a_ell=-2, in_script_q=True)",
    FrobeniusData: "FrobeniusData(ell=7, a_ell=-2)",
    CyclicExtension: "CyclicExtension(p=3, tame_ramified=(7,), wild_at_p=False, exponents=(1,), "
                     "wild_exponent=None)",
    SplittingRecord: "SplittingRecord(ell=7, e=3, f=1, g=1, e_cyc=3, w_count=1)",
    HypothesisReport: f"HypothesisReport(p=3, additive_at_p=True, potentially_good_at_p=True, "
                      f"good_twist=(-3, {TWIST}), prime_to_p_defect=True, "
                      f"additive_stability='satisfied_by_unramified', base_mu_lambda_zero=True, "
                      f"note='additive at p with good quadratic twist d = -3')",
    LocalTerm: WITNESS,
    KidaResult: f"KidaResult(p=3, lambda_K=0, degree=3, p1_term=0, p2_term=0, lambda_L=0, "
                f"witnesses=({WITNESS},))",
    OrdinaryTwist: f"OrdinaryTwist(p=3, d=-3, model={TWIST}, a_p=-1)",
    EulerFactors: "EulerFactors(p=3, sha_p_order=1, frak_F_count=5, "
                  "pi_image_status='prime_to_p_implied', tamagawa_product=1, ordinary=True, "
                  "analytic_rank_zero=True, torsion_free_at_p=True)",
    DensityReport: "DensityReport(p=3, alpha=Fraction(5, 16), alpha_brute=Fraction(5, 16), "
                   "delange_pair=(Fraction(1, 1), Fraction(5, 8)), "
                   "empirical_density=Fraction(64, 215), "
                   "g_table=((7, 1), (91, 10), (700, 60), (3000, 250)), "
                   "M_table=((7, 0), (91, 2), (700, 4), (3000, 7)), "
                   "n_lower_table=((49, 1), (8281, 10), (490000, 60), (9000000, 250)), "
                   "fitted_exponent=-0.3966312509657791, predicted_exponent=Fraction(-3, 8), "
                   "beta_stated=Fraction(1, 2), beta_proof_consistent=Fraction(3, 8), "
                   "note='log exponent taken as (p-1)*alpha - 1 = -p/(p^2-1); the alternative "
                   "closed form 1/2 does not match 3/8 and is carried as beta_stated without "
                   "being used')",
    CharSeries: "CharSeries(p=3, coeffs=(3, 1), precision=20, exact=True)",
    IwasawaInvariants: "IwasawaInvariants(mu=0, lambda_=1, euler_char_defined=True, "
                       "euler_char_valuation=1)",
}


@functools.cache
def _samples() -> dict:
    transfer = lambda_transfer(0, 3, EXT7, E99)
    return {
        WeierstrassModel: E99,
        LocalReductionData: local_data(E99)[0],
        PrimeClass: classify_prime(E99, 3, 7),
        FrobeniusData: FrobeniusData(7, -2),
        CyclicExtension: EXT7,
        SplittingRecord: ramified_splitting(EXT7, 7),
        HypothesisReport: check_hypotheses(E99, 3, EXT7),
        LocalTerm: transfer.witnesses[0],
        KidaResult: transfer,
        OrdinaryTwist: good_ordinary_twist(E99, 3),
        EulerFactors: euler_char_factors(E99, 3),
        DensityReport: asymptotic_report(E99, 3, [7, 91, 700, 3000]),
        CharSeries: CharSeries(3, (3, 1, 0)),  # the exact trailing zero is dropped
        IwasawaInvariants: iwasawa_invariants(CharSeries(3, (3, 1))),
    }


def _values(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record)._fields)


def _twin(cls):
    """A record class of another name with the same fields and no checks."""
    return _frozen(type("Twin", (), {"__annotations__": dict(cls.__annotations__)}))


RECORDS = pytest.mark.parametrize("cls", list(REPRS), ids=lambda cls: cls.__name__)


@RECORDS
def test_equality_and_hash_by_field_values(cls):
    record = _samples()[cls]
    values = _values(record)
    assert type(record)._fields == tuple(cls.__annotations__)
    again = cls(*values)
    assert again is not record and again == record and not again != record
    assert hash(again) == hash(record) == hash(values)
    twin = _twin(cls)
    assert twin(*values) != record and record != twin(*values)
    assert twin(*values) == twin(*values)
    # the same values but the last differ
    assert twin(*values) != twin(*values[:-1], object())


@RECORDS
def test_repr_is_the_dataclass_repr(cls):
    assert repr(_samples()[cls]) == REPRS[cls]


@RECORDS
def test_fields_can_be_neither_assigned_nor_deleted(cls):
    record = _samples()[cls]
    name = cls._fields[0]
    before = getattr(record, name)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(record, name, before)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert getattr(record, name) is before


def test_defaults_and_keyword_construction():
    ext = CyclicExtension(exponents=(1,), wild_at_p=False, tame_ramified=(7,), p=3)
    assert ext == EXT7 and ext.wild_exponent is None
    assert CyclicExtension(3, (), True, (), wild_exponent=1).wild_exponent == 1
    series = CharSeries(3, (3, 1))
    assert (series.precision, series.exact) == (DEFAULT_PRECISION, True)
    assert CharSeries(3, (3, 1), exact=False, precision=4) == CharSeries(3, (3, 1), 4, False)
    assert CharSeries(3, coeffs=(3, 1, 0)).coeffs == (3, 1)
    # PrimeClass and WeierstrassModel write their own __init__, FrobeniusData takes _frozen's
    assert PrimeClass(ell=7, category="Q3", a_ell=-2, in_script_q=True) == _samples()[PrimeClass]
    assert FrobeniusData(ell=7, a_ell=-2) == FrobeniusData(7, -2)
    assert WeierstrassModel(a6=-5, a4=-3, a3=1, a2=0, a1=0) == E99
    for call in (lambda: CharSeries(3), lambda: CharSeries(3, (1,), 20, True, 0),
                 lambda: CharSeries(3, (1,), p=3), lambda: CharSeries(3, (1,), q=3),
                 lambda: FrobeniusData(7)):
        with pytest.raises(TypeError):
            call()


def test_an_own_init_must_take_the_fields_in_order():
    class Swapped:
        a: int
        b: int

        def __init__(self, b, a):
            self.__dict__.update(a=a, b=b)

    with pytest.raises(TypeError, match=r"must take the fields \('a', 'b'\)"):
        _frozen(Swapped)


# one invalid construction per record class, and its message at the dataclass
INVALID = [
    (lambda: WeierstrassModel(0, 0, 0, 0, 0), "discriminant vanishes for (0, 0, 0, 0, 0)"),
    (lambda: LocalReductionData(3, "bogus", "I0", 1, 0, 0, None),
     "unknown reduction type 'bogus'"),
    (lambda: LocalReductionData(3, "split_multiplicative", "I2", 1, 1, 2, 0),
     "split multiplicative Tamagawa number must equal v_disc"),
    (lambda: PrimeClass(7, "Q4", 1, False), "unknown class 'Q4'"),
    (lambda: PrimeClass(7, "Q1", 1, False), "a_ell is recorded exactly for good-reduction primes"),
    (lambda: PrimeClass(7, "Q2", 1, True), "the distinguished set is contained in Q3"),
    (lambda: FrobeniusData(7, 6), "Hasse bound violated: a=6 at ell=7"),
    (lambda: CyclicExtension(3, (), False, ()), "a nontrivial extension of Q ramifies somewhere"),
    (lambda: CyclicExtension(3, (11,), False, (1,)),
     "no cyclic degree-3 field is tamely ramified at 11: tame primes must be 1 mod 3"),
    (lambda: CyclicExtension(3, (7,), True, (1,)),
     "wild exponent present exactly when wild_at_p"),
    (lambda: SplittingRecord(7, 3, 1, 1, 1, 1), "tame ramification is unchanged up the tower"),
    (lambda: HypothesisReport(3, True, True, None, None, "bogus", None, ""),
     "unknown stability label 'bogus'"),
    (lambda: LocalTerm(7, "good", 1, 3, True, "P3", 0), "unknown bucket 'P3'"),
    (lambda: LocalTerm(7, "good", 1, 3, False, "P2", 2),
     "P2 holds the good primes with residue p-torsion"),
    (lambda: KidaResult(3, 0, 2, 0, 0, 0, ()), "degree must be a power of p, got 2"),
    (lambda: OrdinaryTwist(3, -3, E99, 3), "ordinary twist requires a_p prime to p"),
    (lambda: EulerFactors(3, 1, 5, "prime_to_p_implied", 0, True, True, True),
     "Tamagawa product is a positive integer"),
    (lambda: EulerFactors(3, 2, 5, "prime_to_p_implied", 1, True, True, True),
     "sha order must be a power of 3, got 2"),
    (lambda: CharSeries(3, ()), "a characteristic series needs at least one coefficient"),
    (lambda: CharSeries(3, (0, 0)), "the zero series has no Iwasawa invariants"),
    (lambda: IwasawaInvariants(-1, 0, False, None), "mu and lambda are nonnegative"),
    (lambda: IwasawaInvariants(0, 0, False, 1),
     "undefined Euler characteristic cannot carry a valuation"),
]


@pytest.mark.parametrize(("build", "message"), INVALID, ids=[m for _, m in INVALID])
def test_validation_messages_are_unchanged(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_singular_model_is_a_singular_curve_error():
    with pytest.raises(SingularCurveError):
        WeierstrassModel(0, 0, 0, 0, 0)


def test_model_pickles_with_its_kept_values():
    model = WeierstrassModel(1, -1, 1, 40, 155)
    disc, short = model.disc, model.short
    copy = pickle.loads(pickle.dumps(model))
    assert copy == model and hash(copy) == hash(model)
    # the cached values travel in __dict__, as for the worker processes of --jobs 2
    assert vars(copy)["disc"] == disc and vars(copy)["short"] == short
    with pytest.raises(AttributeError):
        copy.a1 = 0


def test_asdict_turns_nested_records_into_dicts():
    samples = _samples()
    transfer = samples[KidaResult]
    witness = {"ell": 7, "reduction": "good", "w_count": 1, "ramification": 3,
               "p_torsion": False, "bucket": "none", "contribution": 0}
    assert _asdict(transfer) == {"p": 3, "lambda_K": 0, "degree": 3, "p1_term": 0,
                                 "p2_term": 0, "lambda_L": 0, "witnesses": (witness,)}
    assert list(_asdict(transfer)) == list(KidaResult._fields)
    assert kida_record(transfer)["witnesses"] == [witness]
    twist = _asdict(samples[HypothesisReport])["good_twist"]
    assert twist == (-3, {"a1": 0, "a2": -1, "a3": 1, "a4": 0, "a6": 0})
    report = _asdict(samples[DensityReport])
    assert report["alpha"] == Fraction(5, 16) and report["g_table"][0] == (7, 1)
