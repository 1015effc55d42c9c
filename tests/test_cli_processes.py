"""Exit codes, stderr and stdout of the CLI and the scripts, each call in a
fresh process.

The point of each check is what a shell sees: the exit status, the first
bytes of stderr and no traceback, from `python -m iwakit` with this
package on PYTHONPATH, and stdout bytes that a cache left by earlier
processes does not change.
"""

import array
import csv
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import iwakit
from iwakit.cli import EXIT_BLOCKED, EXIT_FAILURE, EXIT_OK
from iwakit.counting import BSGS_BUDGET
from test_cli import RAMIFIED_30_DIGITS, _fresh_env

E99 = "0,0,1,-3,-5"
# 10^40 + 121
BIG = "10000000000000000000000000000000000000121"


def _iwakit(*argv, timeout=120):
    return subprocess.run([sys.executable, "-m", "iwakit", *argv], env=_fresh_env(),
                          capture_output=True, text=True, timeout=timeout)


def test_huge_coefficients_end_in_bounded_time():
    curve = ["--p", "3", "--curve", f"0,0,0,{BIG},{BIG}"]
    assert _iwakit("classify", "--bound", "100", *curve, timeout=30).returncode == EXIT_OK
    assert _iwakit("report", *curve, timeout=30).returncode == EXIT_FAILURE


# records for --reference that the loader must reject: not a record, a curve
# that is not text, and JSON booleans, though isinstance(True, int) holds
BAD_REFERENCES = {
    "not-a-record": "[1]",
    "curve-not-text": '[{"curve": 5, "p": 3, "analytic_rank": 0, "sha_p_order": 1, '
                      '"lambda_base": 0, "mu_base": 0, "source_note": "x"}]',
    "booleans": '[{"curve": "0,0,1,-3,-5", "p": 3, "analytic_rank": false, "sha_p_order": true, '
                '"lambda_base": false, "mu_base": false, "source_note": "x"}]',
}


@pytest.mark.parametrize("argv", [
    ["kida", "--p", "3"],
    ["kida", "--p", "0", "--ramified", "7"],
    ["kida", "--p", "1", "--ramified", "7"],
    ["euler-char", "--p", "3", "--sha", "abc"],
    ["density", "--p", "37", "--grid", "1e2,1e3,2e3,4e3"],
    ["classify", "--p", "0", "--bound", "10"],
    ["report", "--p", "2"],
    # psi_12 passes Miller-Rabin to all 12 prime bases; the strong Lucas test rejects it
    ["report", "--p", "318665857834031151167461", "--bound", "50"],
    # at p = 5 the P2 witness counts #E(F_ell) by BSGS, which refuses an ell past its budget
    ["kida", "--p", "5", "--ramified", RAMIFIED_30_DIGITS, "--override", "--lambda-base", "0"],
    *(["euler-char", "--p", "3", "--reference", name] for name in BAD_REFERENCES),
], ids=" ".join)
def test_input_errors_exit_one_with_an_error_line(tmp_path, argv):
    if argv[-1] in BAD_REFERENCES:
        ref = tmp_path / "reference.json"
        ref.write_text(BAD_REFERENCES[argv[-1]], encoding="utf-8")
        argv = [*argv[:-1], str(ref)]
    proc = _iwakit(*argv, "--curve", E99)
    assert proc.returncode == EXIT_FAILURE, proc.stderr
    assert proc.stderr.startswith("error: "), proc.stderr
    assert "Traceback" not in proc.stderr


def test_ramified_prime_past_the_bsgs_budget_exits_one_at_once():
    # this argv ran past a 10 s timeout while BSGS counted at the 30-digit prime
    start = time.perf_counter()
    proc = _iwakit("kida", "--curve", E99, "--p", "5", "--ramified", RAMIFIED_30_DIGITS,
                   "--override", "--lambda-base", "0", timeout=30)
    elapsed = time.perf_counter() - start
    assert proc.returncode == EXIT_FAILURE
    assert proc.stderr == f"error: ell {RAMIFIED_30_DIGITS} exceeds the BSGS budget {BSGS_BUDGET}\n"
    assert elapsed < 5, elapsed


def test_a_curve_with_small_torsion_counts_as_fast_as_another():
    # at x = 0, y^2 + y = x^3 draws a point of order 3 at every ell, whose
    # annihilators were listed: about 1e7 ints at this 15-digit prime, and
    # 2.2 s against 0.26 s for E99
    def seconds(curve):
        start = time.perf_counter()
        proc = _iwakit("kida", "--curve", curve, "--p", "5", "--ramified", "100000000000031",
                       "--override", "--lambda-base", "0", timeout=60)
        assert proc.returncode == EXIT_OK, proc.stderr
        return time.perf_counter() - start

    times: dict = {"0,0,1,0,0": [], E99: []}
    for _ in range(2):  # alternating, the best of two each
        for curve, runs in times.items():
            runs.append(seconds(curve))
    torsion, other = (min(runs) for runs in times.values())
    assert torsion <= 2 * other, times


@pytest.mark.parametrize("argv", [
    ["kida", "--curve", E99, "--p", "5", "--ramified", "11"],
    # euler-char has not loaded kida when its error is raised
    ["euler-char", "--curve", "0,0,1,0,0", "--p", "3"],
])
def test_blocked_calls_exit_three_with_a_blocked_line(argv):
    proc = _iwakit(*argv)
    assert proc.returncode == EXIT_BLOCKED, proc.stderr
    assert proc.stderr.startswith("blocked: "), proc.stderr
    assert "Traceback" not in proc.stderr


def test_help_exits_zero_and_lists_each_subcommand():
    proc = _iwakit("--help")
    assert proc.returncode == EXIT_OK
    for sub in ("classify", "kida", "euler-char", "enumerate-fields", "density", "report"):
        # a subcommand line: four spaces, the name, spaces, then its help text
        assert re.search(rf"^    {sub} +[a-zA-Z]", proc.stdout, re.M), sub


def test_density_csv_tables_equal_the_json_tables(tmp_path):
    g_csv, m_csv, out = tmp_path / "g.csv", tmp_path / "m.csv", tmp_path / "density.json"
    proc = _iwakit("density", "--curve", E99, "--p", "3", "--grid", "1e2,1e3,2e3,4e3",
                   "--jobs", "1", "--g-csv", str(g_csv), "--m-csv", str(m_csv), "--out", str(out))
    assert proc.returncode == EXIT_OK, proc.stderr
    payload = json.loads(out.read_text(encoding="utf-8"))
    for path, column, key in ((g_csv, "g", "g_table"), (m_csv, "M", "M_table")):
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["X", column], rows[0]
        assert [[int(v) for v in row] for row in rows[1:]] == payload[key], path.name


def test_enumerate_fields_and_euler_char_with_a_sha_order_run():
    proc = _iwakit("enumerate-fields", "--p", "3", "--ramified", "7,13", "--wild")
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["count"] == 4
    proc = _iwakit("euler-char", "--curve", E99, "--p", "3", "--sha", "1")
    assert proc.returncode == EXIT_OK, proc.stderr


def _stdout(*argv) -> bytes:
    """The stdout bytes of a call that exits 0."""
    proc = subprocess.run([sys.executable, "-m", "iwakit", *argv], env=_fresh_env(),
                          capture_output=True, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    return proc.stdout


def _codes(cache: Path) -> int:
    """How many slots of the trace file in cache hold whether 3 | #E(F_ell), as
    -32767 (it does) or -32766 (it does not), in place of a_ell; the file ends
    in its 32-byte digest."""
    (path,) = cache.glob("*.traces")
    slots = array.array("h", path.read_bytes()[:-32])
    return sum(v in (-32767, -32766) for v in slots)


def test_density_stdout_is_the_same_cold_warm_and_after_the_cache_file_is_cut(tmp_path):
    argv = ["density", "--curve", E99, "--p", "3", "--grid", "1e2,1e3,2e3,4e3", "--jobs", "1",
            "--cache-dir", str(tmp_path)]
    cold = _stdout(*argv)
    assert _stdout(*argv) == cold
    (path,) = tmp_path.glob("*.traces")
    os.truncate(path, path.stat().st_size - 5)
    assert _stdout(*argv) == cold


def test_density_stdout_is_the_same_on_a_cache_that_classify_also_filled(tmp_path):
    def run(sub, cache, *argv):
        return _stdout(sub, "--curve", E99, "--jobs", "1", "--cache-dir", str(tmp_path / cache),
                       *argv)

    p3 = ("--p", "3", "--grid", "1e2,1e3,2e3,4e3")
    before = run("density", "shared", *p3)
    run("classify", "shared", "--p", "3", "--bound", "4000")
    assert run("density", "shared", *p3) == before
    p5 = ("--p", "5", "--grid", "1e2,1e3,2e3,6e3")
    assert run("density", "shared", *p5) == run("density", "fresh", *p5)
    # p = 3 to 1e5: the scan stores whether 3 | #E(F_ell) as a code above 229,
    # a second report reads the codes, and classify stores a_ell over them
    to_1e5 = ("--p", "3", "--grid", "1e2,1e3,1e4,1e5")
    cold = run("density", "codes", *to_1e5)
    assert _codes(tmp_path / "codes") > 0
    assert run("density", "codes", *to_1e5) == cold
    assert run("density", "jobs2", *to_1e5, "--jobs", "2") == cold
    run("classify", "codes", "--p", "3", "--bound", "100000")
    assert _codes(tmp_path / "codes") == 0
    assert run("density", "codes", *to_1e5) == cold


def test_report_stdout_is_the_same_on_caches_that_classify_and_report_filled(tmp_path):
    def run(sub, *argv):
        return _stdout(sub, "--curve", E99, "--p", "3", *argv)

    report = ("--ramified", "7", "--jobs", "1")
    nocache = run("report", *report)
    filled = ("--cache-dir", str(tmp_path / "filled"))
    run("classify", "--bound", "1000", "--jobs", "2", *filled)
    assert run("report", *report, *filled) == nocache
    # the reverse order: report stores whether 3 | #E(F_ell) as a code at each
    # good ell > 229, in both classes mod 3, and classify stores a_ell over them
    codes = ("--cache-dir", str(tmp_path / "codes"))
    assert run("report", *report, *codes) == nocache
    assert _codes(tmp_path / "codes") > 0
    assert run("report", *report, *codes) == nocache
    run("classify", "--bound", "1000", "--jobs", "1", *codes)
    assert _codes(tmp_path / "codes") == 0
    assert run("report", *report, *codes) == nocache


def test_scripts_run_and_print_their_figures():
    scripts = Path(__file__).parents[1] / "scripts"

    def script(name, *argv) -> str:
        proc = subprocess.run([sys.executable, str(scripts / name), *argv], env=_fresh_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_OK, proc.stderr
        return proc.stdout

    lines = script("worked_example.py").splitlines()
    for line in ("conductor 99", "#E(F_7) = 10, class Q3, distinguished set member: True",
                 "mu/lambda vanishing verdict: zero", "rank E(L) = 0"):
        assert line in lines, line
    (line,) = script("count_bands.py", "--curves", "2", "--primes", "5", "--discs", "5",
                     "--repeats", "1").splitlines()
    assert {"count_us", "psi3_us", "factorize_us"} <= json.loads(line).keys()


def test_euler_char_reads_the_bundled_records_and_a_scaled_model_alike(tmp_path):
    def euler_char(*argv) -> bytes:
        return _stdout("euler-char", "--curve", E99, "--p", "3", *argv)

    default = euler_char()
    bundled = Path(iwakit.__file__).parent / "data" / "reference_curves.json"
    assert euler_char("--reference", str(bundled)) == default
    # records are matched by the minimal model of their curve, not by its text
    u2 = tmp_path / "u2.ref"
    u2.write_text('[{"curve": "0,0,8,-48,-320", "p": 3, "analytic_rank": 0, "sha_p_order": 1, '
                  '"lambda_base": 0, "mu_base": 0, "source_note": "E99 scaled by u = 2"}]',
                  encoding="utf-8")
    scaled = json.loads(euler_char("--reference", str(u2)))
    assert scaled["factors"] == json.loads(default)["factors"]
