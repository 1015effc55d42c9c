"""Exit codes, JSON payloads, determinism, and cache coherence of the CLI."""

import csv
import functools
import gc
import io
import json
import os
import shutil
import subprocess
import sys
import time
import weakref
from collections import Counter
from pathlib import Path

import pytest

import iwakit
from iwakit import classify, cli, elliptic, eulerchar, fields, kida, refdata
from iwakit.classify import PrimeClass, bulk_classify
from iwakit.cli import EXIT_BLOCKED, EXIT_FAILURE, EXIT_OK, EXIT_USAGE, build_parser, main

E99 = "0,0,1,-3,-5"
# stdout, stderr and exit code of kida, report and euler-char on E99, its u = 2
# rescaling, E11 and the j = 0 curve 0,0,1,0,0 (exit 3), recorded before the
# per-curve audit was merged into one pass; then euler-char's --sha,
# --analytic-rank-zero and --reference flags, recorded before the CLI's copy
# of the reference-data rule left it. A --reference path is relative to tests/
TESTS = Path(__file__).parent
GOLDEN = json.loads((TESTS / "cli_golden.json").read_text(encoding="utf-8"))


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _run_json(capsys, argv):
    code, out = _run(capsys, argv)
    return code, json.loads(out)


def test_kida_worked_example(capsys):
    code, payload = _run_json(capsys, ["kida", "--curve", E99, "--p", "3", "--ramified", "7"])
    assert code == EXIT_OK
    assert payload["schema"] == 1
    assert payload["transfer"]["lambda_L"] == 0
    assert payload["transfer"]["rank_bound"] == 0
    assert payload["transfer"]["rank_claim"] == "rank E(L) = 0"
    assert payload["extension"]["discriminant"] == 49
    assert payload["fields_sharing_result"] == 1
    assert payload["hypotheses"]["base_mu_lambda_zero"] is True
    assert payload["hypotheses"]["good_twist"] == {"d": -3, "model": "0,-1,1,0,0"}


def test_kida_nonzero_transfer(capsys):
    code, payload = _run_json(capsys, [
        "kida", "--curve", "1,-1,1,40,155", "--p", "3", "--ramified", "7",
        "--mu-lambda-zero", "false", "--lambda-base", "2",
    ])
    assert code == EXIT_OK
    assert payload["transfer"]["lambda_K"] == 2
    assert payload["transfer"]["lambda_L"] == 8
    (witness,) = payload["transfer"]["witnesses"]
    assert witness["ell"] == 7 and witness["bucket"] == "P1"


def test_kida_blocked_without_lambda_base(capsys):
    code = main(["kida", "--curve", "1,-1,1,40,155", "--p", "3", "--ramified", "7",
                 "--mu-lambda-zero", "false"])
    assert code == EXIT_BLOCKED
    assert "--lambda-base" in capsys.readouterr().err


def test_kida_rejects_contradictory_lambda(capsys):
    code = main(["kida", "--curve", E99, "--p", "3", "--ramified", "7",
                 "--lambda-base", "2"])
    assert code == EXIT_FAILURE
    assert "must be 0" in capsys.readouterr().err


def test_exponent_alignment_survives_prime_reordering(capsys):
    # 13 carries exponent 1 and 7 carries exponent 2, given in either order;
    # the vector is then rescaled to the normalized leading-1 representative
    _, a = _run_json(capsys, ["kida", "--curve", E99, "--p", "3",
                              "--ramified", "13,7", "--exponents", "1,2"])
    _, b = _run_json(capsys, ["kida", "--curve", E99, "--p", "3",
                              "--ramified", "7,13", "--exponents", "2,1"])
    assert a["extension"] == b["extension"]
    assert a["extension"]["tame_ramified"] == [7, 13]
    assert a["extension"]["exponents"] == [1, 2]
    assert a["fields_sharing_result"] == 2


def test_classify_json_counts(capsys):
    code, payload = _run_json(capsys, ["classify", "--curve", E99, "--p", "3",
                                       "--bound", "60"])
    assert code == EXIT_OK
    counts = payload["counts"]
    assert counts["Q1"] == 1  # only 11; the prime 3 itself is excluded
    assert counts["Q1"] + counts["Q2"] + counts["Q3"] == len(payload["primes"])
    seven = next(rec for rec in payload["primes"] if rec["ell"] == 7)
    assert seven == {"ell": 7, "class": "Q3", "a_ell": -2, "in_script_Q": True}


def test_classify_json_is_one_shot_text(capsys, monkeypatch, tmp_path):
    # the records are written by a fixed template in slices of 256 (two slices
    # at 3000), spliced into the encoder's text of the rest of the payload
    monkeypatch.delenv("IWAKIT_CACHE_DIR", raising=False)
    for bound, records in ((3000, 429), (100000, 9591)):
        argv = ["classify", "--curve", E99, "--p", "3", "--bound", str(bound), "--jobs", "1"]
        code, out = _run(capsys, argv)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload["primes"]) == records
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
        path = tmp_path / "classify.json"
        assert _run(capsys, [*argv, "--out", str(path)]) == (EXIT_OK, "")
        assert path.read_bytes() == out.encode("utf-8")


def _record(obj: object) -> dict:
    if not isinstance(obj, PrimeClass):
        raise TypeError(f"{type(obj).__name__} is not JSON serializable")
    return {"ell": obj.ell, "class": obj.category, "a_ell": obj.a_ell,
            "in_script_Q": obj.in_script_q}


# the encoder that wrote classify's JSON before its records had a template
_ORACLE_JSON = json.JSONEncoder(sort_keys=True, indent=2, default=_record)
# bad at 2, 3, 5 and 7: Q1 records with a null a_ell at either p
MANY_BAD = "1,0,0,-1070,7812"


def _classify_oracle(curve: str, p: int, bound: int) -> tuple[str, str]:
    """classify's JSON and CSV text, from the records and the stdlib writers alone."""
    model = elliptic.parse_model(curve)
    records = bulk_classify(model, p, bound)
    counts = Counter(rec.category for rec in records)
    payload = {
        "schema": 1,
        "subcommand": "classify",
        "curve": elliptic.format_model(model),
        "minimal_model": elliptic.format_model(elliptic.minimal_model(model)[0]),
        "p": p,
        "bound": bound,
        "counts": {"Q1": counts["Q1"], "Q2": counts["Q2"], "Q3": counts["Q3"],
                   "script_Q": sum(rec.in_script_q for rec in records)},
        "primes": records,
    }
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["ell", "class", "a_ell", "in_script_Q"])
    for rec in records:
        writer.writerow([rec.ell, rec.category, "" if rec.a_ell is None else rec.a_ell,
                         "true" if rec.in_script_q else "false"])
    return _ORACLE_JSON.encode(payload) + "\n", buf.getvalue()


@pytest.mark.parametrize("curve", [E99, MANY_BAD])
@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("bound", [1, 2, 3, 60, 3000])
def test_classify_output_matches_stdlib_writers(capsys, tmp_path, curve, p, bound):
    # bound 1 has no record and 2 has one; 3000 spans two slices of records
    expected = dict(zip(("json", "csv"), _classify_oracle(curve, p, bound)))
    if bound >= 60:
        assert '"a_ell": null' in expected["json"] and ",Q1,," in expected["csv"]
    argv = ["classify", f"--curve={curve}", "--p", str(p), "--bound", str(bound)]
    for fmt, text in expected.items():
        assert _run(capsys, [*argv, "--format", fmt]) == (EXIT_OK, text)
        out = tmp_path / f"classify.{fmt}"
        assert _run(capsys, [*argv, "--format", fmt, "--out", str(out)]) == (EXIT_OK, "")
        assert out.read_bytes() == text.encode("utf-8")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_classify_holds_no_record_list(capsys, monkeypatch, fmt):
    # each record is written as it is made: the live records never outnumber
    # one slice, where a list of them would reach all 429 primes below 3000
    live: weakref.WeakSet = weakref.WeakSet()
    made = []
    most = 0
    prime_class = classify._prime_class

    def tracked(*args):
        nonlocal most
        record = prime_class(*args)
        live.add(record)
        made.append(record.ell)
        most = max(most, len(live))
        return record

    monkeypatch.setattr(classify, "_prime_class", tracked)
    argv = ["classify", "--curve", E99, "--p", "3", "--bound", "3000", "--format", fmt]
    code, out = _run(capsys, argv)
    assert code == EXIT_OK
    assert len(made) == 429 and str(made[-1]) in out
    assert most <= cli._RECORD_SLICE + 4


def test_report_builds_no_record(capsys, monkeypatch):
    # report takes its class counts from the verdicts alone
    records = bulk_classify(elliptic.parse_model(E99), 3, 1000)
    counts = Counter(rec.category for rec in records)
    expected = {"Q1": counts["Q1"], "Q2": counts["Q2"], "Q3": counts["Q3"],
                "script_Q": sum(rec.in_script_q for rec in records)}

    def fail(*args, **kwargs):
        raise AssertionError("report built a PrimeClass")

    monkeypatch.setattr(classify, "PrimeClass", fail)
    code, payload = _run_json(capsys, ["report", "--curve", E99, "--p", "3", "--bound", "1000",
                                       "--jobs", "1"])
    assert code == EXIT_OK
    assert payload["classification"] == {"bound": 1000, "counts": expected}


@pytest.mark.parametrize("bound", [1000, 100000])
@pytest.mark.parametrize("curve", [E99, "1,0,0,887,-804"])
def test_report_counts_at_p3_match_classify_records(capsys, tmp_path, curve, bound):
    # report reads whether 3 | #E(F_ell) above 229, classify reads a_ell
    records = bulk_classify(elliptic.parse_model(curve), 3, bound)
    counts = Counter(rec.category for rec in records)
    expected = {"Q1": counts["Q1"], "Q2": counts["Q2"], "Q3": counts["Q3"],
                "script_Q": sum(rec.in_script_q for rec in records)}
    for cache in ([], ["--cache-dir", str(tmp_path)], ["--cache-dir", str(tmp_path)]):
        code, payload = _run_json(capsys, ["report", "--curve", curve, "--p", "3",
                                           "--bound", str(bound), "--jobs", "1", *cache])
        assert code == EXIT_OK
        assert payload["classification"] == {"bound": bound, "counts": expected}


def test_empty_cache_dir_env_var_is_memory_only(capsys, tmp_path, monkeypatch):
    # an empty IWAKIT_CACHE_DIR is unset, not the working directory
    monkeypatch.setenv("IWAKIT_CACHE_DIR", "")
    monkeypatch.chdir(tmp_path)
    code, out = _run(capsys, ["classify", "--curve", E99, "--p", "3", "--bound", "100"])
    assert code == EXIT_OK and json.loads(out)["counts"]["Q3"] > 0
    assert list(tmp_path.iterdir()) == []


def test_classify_csv_rows(capsys):
    code, out = _run(capsys, ["classify", "--curve", E99, "--p", "3",
                              "--bound", "20", "--format", "csv"])
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "ell,class,a_ell,in_script_Q"
    assert "7,Q3,-2,true" in lines
    assert "11,Q1,,false" in lines


def test_euler_char_zero_verdict(capsys):
    code, payload = _run_json(capsys, ["euler-char", "--curve", E99, "--p", "3"])
    assert code == EXIT_OK
    assert payload["factors"]["mu_lambda_vanish"] == "zero"
    assert payload["external"]["sha_p_order"] == 1
    assert "LMFDB" in payload["external"]["source_note"]


def test_euler_char_explicit_unknown_sha(capsys):
    code, payload = _run_json(capsys, ["euler-char", "--curve", E99, "--p", "3",
                                       "--sha", "unknown"])
    assert code == EXIT_OK
    assert payload["factors"]["sha_p_order"] is None
    assert payload["factors"]["mu_lambda_vanish"] == "unresolved"


def test_euler_char_custom_reference(capsys, tmp_path):
    path = tmp_path / "refs.json"
    path.write_text(json.dumps([{
        "curve": E99, "p": 3, "analytic_rank": 0, "sha_p_order": 9,
        "lambda_base": 0, "mu_base": 0, "source_note": "private table",
    }]), encoding="utf-8")
    code, payload = _run_json(capsys, ["euler-char", "--curve", E99, "--p", "3",
                                       "--reference", str(path)])
    assert code == EXIT_OK
    assert payload["factors"]["sha_p_order"] == 9
    assert payload["factors"]["mu_lambda_vanish"] == "nonzero"
    assert payload["external"]["source_note"] == "private table"


def test_euler_char_blocked_exit(capsys):
    # j = 0 curve: no quadratic twist is good at 3
    code = main(["euler-char", "--curve", "0,0,1,0,0", "--p", "3"])
    assert code == EXIT_BLOCKED
    assert "blocked" in capsys.readouterr().err


def test_enumerate_fields_count(capsys):
    code, payload = _run_json(capsys, ["enumerate-fields", "--p", "3",
                                       "--ramified", "7,13"])
    assert code == EXIT_OK
    assert payload["count"] == 2
    assert payload["tame_count_formula"] == 2
    assert all(f["discriminant"] == 91 ** 2 for f in payload["fields"])


# 20 tame primes = 1 mod 3 and the wild place: (3 - 1)^20 fields, past the budget
TWENTY_PRIMES = "7,13,19,31,37,43,61,67,73,79,97,103,109,127,139,151,157,163,181,193"


def test_enumerate_fields_budget_counts_the_wild_place(capsys, monkeypatch):
    # (p - 1)^(k - 1) over k places, the wild one counted, checked before any field is built
    monkeypatch.setattr(cli, "FIELD_BUDGET", 4)
    code, payload = _run_json(capsys, ["enumerate-fields", "--p", "3", "--ramified", "7,13",
                                       "--wild"])
    assert (code, payload["count"]) == (EXIT_OK, 4)

    def build(*args, **kwargs):
        raise AssertionError("fields built past the budget")

    monkeypatch.setattr(fields, "enumerate_extensions", build)
    assert main(["enumerate-fields", "--p", "3", "--ramified", "7,13,19", "--wild"]) == EXIT_FAILURE
    assert capsys.readouterr().err == "error: (3 - 1)^3 fields exceed the budget 4\n"
    # an argument error is reported as before, whatever the count
    assert main(["enumerate-fields", "--p", "3", "--ramified", "7,13,19,4", "--wild"]) == EXIT_FAILURE
    assert "fields exceed" not in capsys.readouterr().err


def test_enumerate_fields_help_states_the_budget(capsys):
    # a parser of its own: main's is built once per process, maybe under a patched budget
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["enumerate-fields", "--help"])
    assert exc.value.code == EXIT_OK
    assert f"more than {cli.FIELD_BUDGET} exits 1" in " ".join(capsys.readouterr().out.split())


def test_enumerate_fields_wild_only(capsys):
    # one normalized character: the wild slot leads the vector, pinned to 1
    code, payload = _run_json(capsys, ["enumerate-fields", "--p", "3", "--wild"])
    assert code == EXIT_OK
    assert payload["count"] == 1
    assert all(f["wild_at_p"] for f in payload["fields"])


def test_density_with_csv_outputs(capsys, tmp_path):
    g_csv = tmp_path / "g.csv"
    m_csv = tmp_path / "m.csv"
    code, payload = _run_json(capsys, [
        "density", "--curve", E99, "--p", "3", "--grid", "1e2,1e3,2e3,4e3",
        "--g-csv", str(g_csv), "--m-csv", str(m_csv),
    ])
    assert code == EXIT_OK
    assert payload["alpha"] == "5/16"
    assert payload["g_table"][0] == [100, 10]
    g_lines = g_csv.read_text(encoding="utf-8").strip().split("\n")
    assert g_lines[0] == "X,g" and g_lines[1] == "100,10"
    assert m_csv.read_text(encoding="utf-8").startswith("X,M\n")


@pytest.mark.parametrize("p", ["3", "5"])
def test_density_method_choices_print_the_same_bytes(capsys, monkeypatch, p):
    # --method stays accepted for old command lines; both count by the DFS walk
    monkeypatch.delenv("IWAKIT_CACHE_DIR", raising=False)
    argv = ["density", "--curve", E99, "--p", p, "--grid", "1e2,1e3,2e3,4e3", "--jobs", "1"]
    default = _run(capsys, argv)
    assert default[0] == EXIT_OK
    for method in ("dfs", "sieve"):
        assert _run(capsys, [*argv, "--method", method]) == default, method
    assert capsys.readouterr().err == ""


def test_density_grid_too_small_fails(capsys):
    code = main(["density", "--curve", E99, "--p", "3", "--grid", "1e2,1e3"])
    assert code == EXIT_FAILURE


@pytest.mark.parametrize("point", ["inf", "-inf", "nan", "1e3.5", "1/2", "", "0x10",
                                   "2.5", "1e-1", "1e1001", "1e-999999999",
                                   pytest.param("1" * 1001, id="1001-digits")])
def test_density_grid_rejects_non_integer_points(capsys, point):
    with pytest.raises(SystemExit) as exc:
        main(["density", "--curve", E99, "--p", "3", "--grid", f"1e2,1e3,1e4,{point}"])
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(("point", "shown"), [
    ("1e400", str(10**400)),
    ("9007199254740993", "9007199254740993"),  # 2**53 + 1, which a float rounds down
    (" +1.0e8 ", "100000000"),
])
def test_density_grid_points_are_exact(capsys, point, shown):
    code = main(["density", "--curve", E99, "--p", "3", "--grid", f"1e2,1e3,1e4,{point}"])
    assert code == EXIT_FAILURE
    assert capsys.readouterr().err == f"error: grid max {shown} exceeds the budget 10000000\n"


@pytest.mark.parametrize("sub", ["classify", "report"])
@pytest.mark.parametrize("bound", ["10000001", "1000000000000"])
def test_bound_above_budget_exits_one_at_once(capsys, tmp_path, sub, bound):
    start = time.perf_counter()
    code = main([sub, "--curve", E99, "--p", "3", "--bound", bound,
                 "--cache-dir", str(tmp_path)])
    assert time.perf_counter() - start < 5.0
    assert code == EXIT_FAILURE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bound {bound} exceeds the budget 10000000\n"
    assert "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []  # nothing was counted


@pytest.mark.parametrize("jobs", ["0", "-1", "two"])
def test_jobs_below_one_is_usage_error(capsys, jobs):
    for sub in (["classify", "--bound", "10"], ["density", "--grid", "1e1,1e2,1e3,1e4"],
                ["report"]):
        with pytest.raises(SystemExit) as exc:
            main([sub[0], "--curve", E99, "--p", "3", *sub[1:], "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize(("cpus", "pools"), [(2, [2]), (1, []), (None, [])])
def test_jobs_capped_at_cpu_count(capsys, monkeypatch, pool_sizes, cpus, pools):
    monkeypatch.delenv("IWAKIT_CACHE_DIR", raising=False)  # every trace is a miss
    argv = ["classify", "--curve", E99, "--p", "3", "--bound", "2000"]
    serial = _run(capsys, argv)
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    assert _run(capsys, [*argv, "--jobs", "100000"]) == serial
    assert pool_sizes == pools


def test_report_composite(capsys):
    code, payload = _run_json(capsys, ["report", "--curve", E99, "--p", "3",
                                       "--bound", "100", "--ramified", "7"])
    assert code == EXIT_OK
    assert payload["conductor"] == 99
    by_ell = {entry["ell"]: entry for entry in payload["reduction"]}
    assert by_ell[3]["type"] == "additive"
    assert "multiplicative" in by_ell[11]["type"]
    assert payload["euler"]["mu_lambda_vanish"] == "zero"
    assert payload["kida"]["transfer"]["lambda_L"] == 0
    assert payload["density_constants"]["alpha"] == "5/16"


def test_report_embeds_blocked_reason_without_failing(capsys):
    # multiplicative at p: both pipelines are out of scope; the report renders
    # anyway, tagging a domain error vs a failed hypothesis audit distinctly
    code, payload = _run_json(capsys, ["report", "--curve", "0,-1,1,-10,-20",
                                       "--p", "11", "--bound", "50",
                                       "--ramified", "23", "--lambda-base", "0"])
    assert code == EXIT_OK
    assert "multiplicative" in payload["euler"]["error"]
    assert "blocked" in payload["kida"]


def test_report_two_large_prime_factors(capsys):
    # the discriminant has two prime factors beyond the reach of trial division
    code, payload = _run_json(capsys, ["report", "--curve", "0,0,1,-7,1234567891011",
                                       "--p", "3"])
    assert code == EXIT_OK
    assert payload["conductor"] == 91026379747 * 7233465781205009


def test_report_unfactorable_discriminant(capsys):
    # two 20-digit prime factors: factoring gives up instead of hanging
    a6 = 10000000000000000051 * 30000000000000000041
    code = main(["report", "--curve", f"1,0,0,0,{a6}", "--p", "3"])
    captured = capsys.readouterr()
    assert code == EXIT_FAILURE
    assert captured.out == ""
    assert captured.err.startswith("error: cannot factor")


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_golden_output(capsys, monkeypatch, case):
    monkeypatch.delenv("IWAKIT_CACHE_DIR", raising=False)
    argv = case["argv"]
    code = main([str(TESTS / arg) if flag == "--reference" else arg
                 for flag, arg in zip([None, *argv], argv)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["code"], case["stdout"], case["stderr"])


def test_interleaved_calls_share_one_parser(capsys, monkeypatch, tmp_path):
    # main() reuses one parser per process: a rejected argv or another
    # subcommand in between leaves no state behind in it
    monkeypatch.delenv("IWAKIT_CACHE_DIR", raising=False)
    built = []

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    first, blocked = GOLDEN[0], GOLDEN[10]
    assert first["argv"][0] == blocked["argv"][0] == "kida" and blocked["code"] == EXIT_BLOCKED
    density = ["density", "--curve", E99, "--p", "3", "--grid", "1e2,1e3,2e3,4e3", "--jobs", "1",
               "--cache-dir", str(tmp_path)]

    def golden(case):
        code = main(case["argv"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (case["code"], case["stdout"], case["stderr"])

    golden(first)
    with pytest.raises(SystemExit) as exc:
        main(["kida", "--p", "3", "--ramified", "7"])  # no --curve
    assert exc.value.code == EXIT_USAGE
    assert "--curve" in capsys.readouterr().err
    code, out = _run(capsys, density)
    assert code == EXIT_OK
    golden(first)
    golden(blocked)
    assert built == [1]
    # the same density call on a parser built for it alone
    cli._parser.cache_clear()
    assert _run(capsys, density) == (EXIT_OK, out)
    cli._parser.cache_clear()


def _count_calls(monkeypatch, functions) -> Counter:
    """Wrap each function in every iwakit namespace that binds it."""
    counts: Counter = Counter()
    for fn in functions:
        @functools.wraps(fn)
        def counted(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("iwakit") and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted)
    return counts


@pytest.mark.parametrize(("argv", "bounds"), [
    (["kida", "--curve", E99, "--p", "3", "--ramified", "7"],
     {"quadratic_twist": 1, "minimal_model": 7, "reduction_type": 6,
      "check_hypotheses": 1, "lambda_transfer": 1}),
    (["report", "--curve", E99, "--p", "3", "--ramified", "31", "--jobs", "1"],
     {"euler_char_factors": 1, "local_data": 2, "quadratic_twist": 1, "reduction_type": 6}),
    # additive at 3 with a good ordinary twist but no reference record: the
    # Euler audit fails, and the hypothesis audit reads that failure again
    (["report", "--curve", "0,0,1,-93,625", "--p", "3", "--ramified", "31", "--jobs", "1",
      "--bound", "50"],
     {"euler_char_factors": 1, "reference_record": 1}),
    # one read of the record gives the audit its inputs and the handler its note
    (["euler-char", "--curve", E99, "--p", "3"],
     {"_euler_factors": 1, "reference_record": 1}),
])
def test_one_audit_per_call(capsys, monkeypatch, argv, bounds):
    # one twist decision and one Euler-characteristic audit per call
    counts = _count_calls(monkeypatch, [
        elliptic.minimal_model, elliptic.reduction_type, elliptic.quadratic_twist,
        elliptic.local_data, eulerchar.euler_char_factors, eulerchar._euler_factors,
        refdata.reference_record,
        kida.check_hypotheses, kida.lambda_transfer,
    ])
    assert _run(capsys, argv)[0] == EXIT_OK
    for name, bound in bounds.items():
        assert 1 <= counts[name] <= bound, (name, counts[name])


@pytest.mark.parametrize(("argv", "bound"), [
    (["kida", "--curve", E99, "--p", "3", "--ramified", "7"], 3),
    (["report", "--curve", E99, "--p", "3", "--ramified", "31", "--jobs", "1"], 3),
    (["density", "--curve", E99, "--p", "3", "--grid", "1e2,1e3,2e3,4e3", "--jobs", "1"], 1),
])
def test_each_curve_minimized_once(capsys, monkeypatch, argv, bound):
    # every minimal model and every twist is built by model_from_c4c6; kida
    # builds three: the curve's minimal model, the p* twist and its minimal model
    counts = _count_calls(monkeypatch, [elliptic.model_from_c4c6])
    assert _run(capsys, argv)[0] == EXIT_OK
    assert 1 <= counts["model_from_c4c6"] <= bound, counts["model_from_c4c6"]


@pytest.mark.parametrize("argv", [
    ["report", "--curve", E99, "--p", "5", "--bound", "100", "--ramified", "11", "--jobs", "1"],
    ["kida", "--curve", E99, "--p", "5", "--ramified", "11"],
    ["report", "--curve", E99, "--p", "3", "--bound", "100", "--ramified", "7", "--jobs", "1"],
    ["kida", "--curve", E99, "--p", "3", "--ramified", "7"],
])
def test_kept_results_leave_no_reference_cycle(capsys, argv):
    # what a curve keeps never refers back to it, so reference counting alone
    # frees the curve and its minimal model once a call is done, at a p where
    # E99 is good (5) as at one where it is additive (3)
    args = build_parser().parse_args(argv)
    gc.disable()
    try:
        try:
            args.func(args)
        except ValueError:
            pass  # kida at 5 is blocked; the handled error holds no frame
        refs = [weakref.ref(args.curve), weakref.ref(elliptic.minimal_model(args.curve)[0])]
        del args
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
    capsys.readouterr()


# the classify path loads with the CLI: bench/test_bench.py expects
# iwakit.cli.bulk_classify to be bound
_CLI_MODULES = {"cli", "classify", "counting", "elliptic", "ntheory", "_poly", "_record"}
# stdlib modules that no call needs at start-up: dataclasses (which loads
# inspect) is not used at all, and the rest load where a call uses them:
# hashlib for a cache directory, fractions with decimal for a grid or a
# density report, statistics for the density fit
_STDLIB_WATCHED = {"dataclasses", "inspect", "hashlib", "fractions", "decimal", "statistics"}
_DENSITY_STDLIB = {"fractions", "decimal", "statistics"}


def _fresh_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports this iwakit, with no cache dir."""
    env = {k: v for k, v in os.environ.items() if k != "IWAKIT_CACHE_DIR"}
    src = str(Path(iwakit.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def _loaded(args: list[str]) -> set[str]:
    """The modules that a fresh interpreter imports to run args."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], env=_fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


@functools.cache
def _loaded_at_startup() -> frozenset[str]:
    """What the interpreter loads before any code runs (site and its .pth files)."""
    return frozenset(_loaded(["-c", "pass"]))


def _imported(args: list[str]) -> tuple[set[str], set[str]]:
    """The iwakit submodules that a fresh interpreter imports to run args, and
    the watched stdlib modules that it loads beyond start-up."""
    names = _loaded(args)
    return ({name.removeprefix("iwakit.") for name in names if name.startswith("iwakit.")},
            (names & _STDLIB_WATCHED) - _loaded_at_startup())


@pytest.mark.parametrize(("args", "expected", "stdlib"), [
    (["-c", "import iwakit"], set(), set()),
    (["-c", "import iwakit.cli"], _CLI_MODULES, set()),
    (["-m", "iwakit", "classify", "--curve", E99, "--p", "3", "--bound", "100"], _CLI_MODULES,
     set()),
    (["-m", "iwakit", "density", "--curve", E99, "--p", "3", "--grid", "1e2,1e3,2e3,4e3",
      "--jobs", "1"], _CLI_MODULES | {"density", "fields"}, _DENSITY_STDLIB),
    (["-m", "iwakit", "enumerate-fields", "--p", "3", "--ramified", "7"],
     _CLI_MODULES | {"fields"}, set()),
    (["-m", "iwakit", "euler-char", "--curve", E99, "--p", "3"],
     _CLI_MODULES | {"eulerchar", "refdata"}, set()),
    (["-m", "iwakit", "kida", "--curve", E99, "--p", "3", "--ramified", "7"],
     _CLI_MODULES | {"eulerchar", "fields", "kida", "refdata"}, set()),
    (["-m", "iwakit", "report", "--curve", E99, "--p", "3", "--ramified", "7", "--bound", "100",
      "--jobs", "1"], _CLI_MODULES | {"density", "eulerchar", "fields", "kida", "refdata"},
     _DENSITY_STDLIB),
    (["-m", "iwakit", "report", "--curve", E99, "--p", "3", "--bound", "100", "--jobs", "1"],
     _CLI_MODULES | {"density", "eulerchar", "fields", "refdata"}, _DENSITY_STDLIB),
    # the Euler audit fails at p = 5 (good reduction); _failure looks up the
    # blocked-error classes, which loads kida
    (["-m", "iwakit", "report", "--curve", E99, "--p", "5", "--bound", "100", "--jobs", "1"],
     _CLI_MODULES | {"density", "eulerchar", "fields", "kida", "refdata"}, _DENSITY_STDLIB),
    # a cache directory is what loads hashlib
    (["-m", "iwakit", "classify", "--curve", E99, "--p", "3", "--bound", "100",
      "--cache-dir", "{tmp}"], _CLI_MODULES, {"hashlib"}),
], ids=["import-iwakit", "import-cli", "classify", "density", "enumerate-fields", "euler-char",
        "kida", "report", "report-unramified", "report-euler-error", "classify-cache-dir"])
def test_each_call_imports_only_what_it_runs(args, expected, stdlib, tmp_path):
    # no case loads iwasawa
    assert _imported([arg.format(tmp=tmp_path) for arg in args]) == (expected, stdlib)


# a 30-digit prime = 1 mod 6: BSGS at it took O(ell^(1/4)) steps and memory,
# and these argv ran past a 60 s timeout
RAMIFIED_30_DIGITS = "838885184712050487827701509121"


def test_thirty_digit_ramified_prime_at_p3_ends_in_a_fresh_process():
    witnesses = []
    for argv in (["kida", "--curve", E99, "--p", "3", "--ramified", RAMIFIED_30_DIGITS],
                 ["report", "--curve", E99, "--p", "3", "--ramified", RAMIFIED_30_DIGITS,
                  "--bound", "50", "--jobs", "1"]):
        # each call takes well under a second; the deadline leaves room for a slow runner
        proc = subprocess.run([sys.executable, "-m", "iwakit", *argv], env=_fresh_env(),
                              capture_output=True, text=True, timeout=20)
        assert proc.returncode == EXIT_OK, proc.stderr[-2000:]
        payload = json.loads(proc.stdout)
        witnesses.append(payload.get("kida", payload)["transfer"]["witnesses"])
    (witness,), other = witnesses
    assert other == [witness]
    assert witness["ell"] == int(RAMIFIED_30_DIGITS) and witness["reduction"] == "good"
    # the kernel's answer, which test_classify checks against point counts up to 15 digits
    assert witness["p_torsion"] is True and witness["bucket"] == "P2"


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["bogus-subcommand"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--curve", "1,2", "--p", "3", "--bound", "10"])
    assert exc.value.code == 2


@pytest.mark.parametrize(("argv", "code", "err"), [
    (["euler-char", "--curve", E99, "--p", "3", "--sha", "2"], EXIT_FAILURE,
     "error: sha order must be a power of 3, got 2\n"),
    (["kida", "--curve", E99, "--p", "3", "--ramified", "7,13", "--exponents", "1"],
     EXIT_FAILURE, "error: 2 ramified primes but 1 exponents\n"),
    (["kida", "--curve", E99, "--p", "3", "--ramified", "7", "--exponents", "3"],
     EXIT_FAILURE, "error: an exponent divisible by 3 cuts out no degree-3 character\n"),
    (["kida", "--curve", E99, "--p", "3", "--ramified", "7,x"], EXIT_USAGE,
     "iwakit kida: error: argument --ramified: expected comma-separated integers, got '7,x'\n"),
    (["kida", "--curve", E99, "--p", "3", "--ramified", "7", "--mu-lambda-zero", "maybe"],
     EXIT_USAGE,
     "iwakit kida: error: argument --mu-lambda-zero: expected true or false, got 'maybe'\n"),
    # no --ramified and no --wild: no extension to normalize
    (["kida", "--curve", E99, "--p", "3"], EXIT_FAILURE,
     "error: a nontrivial extension of Q ramifies somewhere\n"),
    # p is checked before any arithmetic mod p
    (["kida", "--curve", E99, "--p", "0", "--ramified", "7"], EXIT_FAILURE,
     "error: p must be an odd prime, got 0\n"),
    (["kida", "--curve", E99, "--p", "1", "--ramified", "7"], EXIT_FAILURE,
     "error: p must be an odd prime, got 1\n"),
    # psi_12, the least composite that passes Miller-Rabin to all 12 prime bases
    (["enumerate-fields", "--p", "3", "--ramified", "318665857834031151167461"], EXIT_FAILURE,
     "error: ramified primes must be prime, got 318665857834031151167461\n"),
    (["report", "--curve", E99, "--p", "318665857834031151167461", "--bound", "50"], EXIT_FAILURE,
     "error: p must be an odd prime, got 318665857834031151167461\n"),
    # past the field budget: exit 1 before any field is built, where the list grew without bound
    (["enumerate-fields", "--p", "3", "--ramified", TWENTY_PRIMES, "--wild"], EXIT_FAILURE,
     "error: (3 - 1)^20 fields exceed the budget 131072\n"),
    (["enumerate-fields", "--p", "7", "--ramified", "29,43,71,113,127,197,211,239,281", "--wild"],
     EXIT_FAILURE, "error: (7 - 1)^9 fields exceed the budget 131072\n"),
])
def test_rejected_arguments(capsys, argv, code, err):
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    captured = capsys.readouterr()
    assert got == code
    assert captured.out == "" and captured.err.endswith(err)


def test_explicit_sha_and_default_wild_exponent(capsys):
    code, payload = _run_json(capsys, ["euler-char", "--curve", E99, "--p", "3", "--sha", "1"])
    assert code == EXIT_OK
    assert payload["factors"]["sha_p_order"] == payload["external"]["sha_p_order"] == 1
    code, payload = _run_json(capsys, ["kida", "--curve", E99, "--p", "3", "--ramified", "7",
                                       "--wild"])
    assert code == EXIT_OK
    assert payload["extension"]["wild_at_p"] is True
    assert payload["extension"]["exponents"] == [1, 1]  # the wild exponent defaults to 1


def test_singular_curve_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--curve", "0,0,0,0,0", "--p", "3", "--bound", "10"])
    assert exc.value.code == 2


def test_output_is_deterministic(capsys):
    argv = ["kida", "--curve", E99, "--p", "3", "--ramified", "7,13"]
    _, first = _run(capsys, argv)
    _, second = _run(capsys, argv)
    assert first == second


def test_out_flag_writes_file(capsys, tmp_path):
    out = tmp_path / "payload.json"
    code = main(["classify", "--curve", E99, "--p", "3", "--bound", "30",
                 "--out", str(out)])
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["schema"] == 1


def test_cache_roundtrip_and_coherence(capsys, tmp_path):
    cache_dir = tmp_path / "traces"
    argv = ["classify", "--curve", E99, "--p", "3", "--bound", "300",
            "--cache-dir", str(cache_dir)]
    _, cold = _run(capsys, argv)
    assert any(cache_dir.glob("*.traces"))
    _, warm = _run(capsys, argv)
    shutil.rmtree(cache_dir)
    _, rebuilt = _run(capsys, argv)
    assert cold == warm == rebuilt


def test_cache_dir_env_var(capsys, tmp_path, monkeypatch):
    cache_dir = tmp_path / "envcache"
    monkeypatch.setenv("IWAKIT_CACHE_DIR", str(cache_dir))
    code, _ = _run(capsys, ["classify", "--curve", E99, "--p", "3", "--bound", "100"])
    assert code == EXIT_OK
    assert any(cache_dir.glob("*.traces"))
