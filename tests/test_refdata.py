"""Reference dataset loading, validation, and minimal-model lookup."""

import json
import zipfile

import pytest

import iwakit.refdata as refdata
from iwakit.cli import main
from iwakit.elliptic import WeierstrassModel
from iwakit.eulerchar import euler_char_factors, mu_lambda_vanish
from iwakit.refdata import ingest_reference, load_reference, reference_record

E99 = WeierstrassModel(0, 0, 1, -3, -5)
E11 = WeierstrassModel(0, -1, 1, -10, -20)
E37 = WeierstrassModel(0, 0, 1, -1, 0)


def _record(**overrides) -> dict:
    rec = {
        "curve": "0,0,1,-3,-5",
        "p": 3,
        "analytic_rank": 0,
        "sha_p_order": 1,
        "lambda_base": 0,
        "mu_base": 0,
        "source_note": "test fixture",
    }
    rec.update(overrides)
    return rec


def _write(tmp_path, payload) -> str:
    path = tmp_path / "refs.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_bundled_dataset_loads_and_validates():
    records = load_reference()
    assert len(records) == 1
    (rec,) = records
    assert rec["curve"] == "0,0,1,-3,-5"
    assert rec["p"] == 3
    assert rec["analytic_rank"] == 0
    assert rec["sha_p_order"] == 1
    assert rec["lambda_base"] == 0
    assert rec["mu_base"] == 0
    assert "LMFDB" in rec["source_note"]


def test_lookup_matches_any_integral_model(tmp_path, capsys):
    direct = reference_record(E99, 3)
    assert direct is not None and direct["curve"] == "0,0,1,-3,-5"
    # same curve scaled by u = 2: a_i -> u^i a_i
    scaled = WeierstrassModel(0, 0, 8, -48, -320)
    assert reference_record(scaled, 3) == direct
    assert reference_record(E99, 5) is None
    assert reference_record(E37, 3) is None
    # a record is keyed by its curve's minimal model, not by its text: E99
    # written scaled by u = 2, translated by x -> x + 1, and with spaces
    for curve in ("0,0,8,-48,-320", "0,3,1,0,-7", " 0, 0, 1, -3, -5"):
        path = _write(tmp_path, [_record(curve=curve)])
        dataset = ingest_reference(path)
        assert reference_record(E99, 3, dataset=dataset) == dataset[0]
        assert reference_record(scaled, 3, dataset=dataset) == dataset[0]
        assert reference_record(E37, 3, dataset=dataset) is None
        assert main(["euler-char", "--curve", "0,0,1,-3,-5", "--p", "3", "--reference", path]) == 0
        assert json.loads(capsys.readouterr().out)["external"]["source_note"] == "test fixture"


def test_record_that_cannot_be_minimized_is_an_ingest_error(tmp_path, capsys):
    # gcd(c4, c6) has two 20-digit prime factors, so no minimal model is found
    a6 = 10000000000000000051 * 30000000000000000041
    path = _write(tmp_path, [_record(curve=f"0,0,0,{a6},{a6}")])
    with pytest.raises(ValueError, match="cannot factor"):
        ingest_reference(path)
    assert main(["euler-char", "--curve", "0,0,1,-3,-5", "--p", "3", "--reference", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot factor")


def test_two_records_for_one_curve_and_p_are_an_ingest_error(tmp_path, capsys):
    # E99 and its u = 2 model are one curve: which record a lookup used would
    # depend on their order in the file
    path = _write(tmp_path, [
        _record(source_note="a"),
        _record(curve="0,0,8,-48,-320", analytic_rank=1, sha_p_order=3, source_note="b"),
    ])
    with pytest.raises(ValueError, match="two reference records for curve 0,0,1,-3,-5 at p = 3"):
        ingest_reference(path)
    assert main(["euler-char", "--curve", "0,0,8,-48,-320", "--p", "3", "--reference", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: two reference records")
    # one curve at two primes is two records
    assert len(ingest_reference(_write(tmp_path, [_record(), _record(p=5)]))) == 2


def test_ingest_reads_a_dataset_inside_a_zip(tmp_path):
    # importlib.resources hands the bundled file over as a Traversable, which
    # is no filesystem path when the package is imported from a zip
    archive = tmp_path / "refs.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        zf.writestr("refs.json", json.dumps([_record()]))
    (rec,) = ingest_reference(zipfile.Path(archive, "refs.json"))
    assert reference_record(E99, 3, dataset=(rec,)) == rec


def test_ingest_and_dataset_lookup(tmp_path):
    path = _write(tmp_path, [_record()])
    dataset = ingest_reference(path)
    assert len(dataset) == 1
    found = reference_record(E99, 3, dataset=dataset)
    assert found is not None and found["source_note"] == "test fixture"
    # an explicit dataset replaces the bundled one entirely
    assert reference_record(E11, 3, dataset=dataset) is None
    assert reference_record(E11, 3, dataset=()) is None


def test_unknown_sha_is_a_valid_value(tmp_path):
    path = _write(tmp_path, [_record(sha_p_order="unknown")])
    (rec,) = ingest_reference(path)
    assert rec["sha_p_order"] == "unknown"


def test_missing_field_is_named(tmp_path):
    rec = _record()
    del rec["lambda_base"]
    path = _write(tmp_path, [rec])
    with pytest.raises(ValueError, match="lambda_base"):
        ingest_reference(path)


def test_sha_order_must_be_a_p_power(tmp_path):
    path = _write(tmp_path, [_record(sha_p_order=6)])
    with pytest.raises(ValueError, match="power of 3"):
        ingest_reference(path)
    path = _write(tmp_path, [_record(sha_p_order=0)])
    with pytest.raises(ValueError, match="positive"):
        ingest_reference(path)


def test_p_must_be_an_odd_prime(tmp_path):
    for bad in (2, 9, "3"):
        path = _write(tmp_path, [_record(p=bad)])
        with pytest.raises(ValueError, match="odd prime"):
            ingest_reference(path)


def test_singular_curve_rejected(tmp_path):
    path = _write(tmp_path, [_record(curve="0,0,0,0,0")])
    with pytest.raises(ValueError):
        ingest_reference(path)


def test_malformed_inputs(tmp_path):
    path = _write(tmp_path, {"not": "an array"})
    with pytest.raises(ValueError, match="array"):
        ingest_reference(path)
    with pytest.raises(OSError):
        ingest_reference(tmp_path / "does_not_exist.json")
    path = _write(tmp_path, [_record(analytic_rank=-1)])
    with pytest.raises(ValueError, match="analytic_rank"):
        ingest_reference(path)
    path = _write(tmp_path, [_record(source_note="")])
    with pytest.raises(ValueError, match="source_note"):
        ingest_reference(path)


@pytest.mark.parametrize(("payload", "match"), [
    ([1], "must be a JSON object"),
    (["0,0,1,-3,-5"], "must be a JSON object"),
    ([_record(curve=5)], "'curve' must be a string"),
    ([_record(curve=[0, 0, 1, -3, -5])], "'curve' must be a string"),
])
def test_record_not_an_object_or_curve_not_a_string(tmp_path, capsys, payload, match):
    path = _write(tmp_path, payload)
    with pytest.raises(ValueError, match=match):
        ingest_reference(path)
    # the CLI reports it as an input error, not a traceback
    assert main(["euler-char", "--curve", "0,0,1,-3,-5", "--p", "3", "--reference", path]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_unknown_sha_reference_leaves_vanishing_unresolved(monkeypatch):
    monkeypatch.setattr(refdata, "load_reference", lambda: (_record(sha_p_order="unknown"),))
    # a fresh model: the outcome of a default audit is kept on its minimal model
    ef = euler_char_factors(WeierstrassModel(0, 0, 1, -3, -5), 3)
    assert ef.sha_p_order is None
    assert ef.analytic_rank_zero is True
    assert mu_lambda_vanish(ef) == "unresolved"


@pytest.mark.parametrize(("field", "match"), [
    ("p", "odd prime"),
    ("analytic_rank", "nonnegative integer"),
    ("lambda_base", "nonnegative integer"),
    ("mu_base", "nonnegative integer"),
    ("sha_p_order", "positive integer"),
])
@pytest.mark.parametrize("value", [True, False])
def test_json_booleans_are_not_integers(tmp_path, field, match, value):
    # json.loads gives bool, and isinstance(True, int) holds
    path = _write(tmp_path, [_record(**{field: value})])
    with pytest.raises(ValueError, match=match):
        ingest_reference(path)


def test_boolean_record_exits_1_through_the_cli(tmp_path, capsys):
    path = _write(tmp_path, [_record(analytic_rank=False, sha_p_order=True,
                                     lambda_base=False, mu_base=False)])
    assert main(["euler-char", "--curve", "0,0,1,-3,-5", "--p", "3", "--reference", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
