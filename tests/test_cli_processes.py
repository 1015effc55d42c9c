"""Exit codes and stderr of the CLI, each call in a fresh process.

The point of each check is what a shell sees: the exit status, the first
bytes of stderr and no traceback, from `python -m iwakit` with this
package on PYTHONPATH.
"""

import re
import subprocess
import sys
import time

import pytest

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
