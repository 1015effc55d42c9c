"""Output checks of the benchmark, run after the timed region.

A call fails when it raised outside the CLI's exit-code mapping, passed the
workload's deadline, or fails a check here:

- its exit code is 0, 1 or 3, and on exit 0 its output is schema-1 JSON;
- its output digest equals that of the same call in the first pass, so
  repeated, traced and untraced passes print the same bytes;
- on the default seed, its digest equals the one recorded in digests.json;
- its output agrees with a second path of the package used as an oracle
  (naive point counts and the Hasse bound for `classify`, the sieve step
  tables for `density`).
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

DIGESTS = Path(__file__).resolve().with_name("digests.json")
OK_CODES = (0, 1, 3)
NAIVE_SAMPLE = 12  # classify primes re-counted naively per output


@dataclass
class Call:
    """One CLI call: its pass-relative index, argv as generated, and outcome."""

    index: int
    argv: tuple[str, ...]
    code: int | None
    stdout: str
    seconds: float
    error: str = ""
    scaled: float = 0.0  # seconds at the reference speed (see speed.py)

    @property
    def digest(self) -> str:
        head = json.dumps([list(self.argv), self.code]).encode()
        return hashlib.sha256(head + b"\0" + self.stdout.encode()).hexdigest()[:32]


def recorded_digests(workload: str) -> list[str] | None:
    return json.loads(DIGESTS.read_text()).get(workload)


def call_failures(call: Call, deadline_s: float, first_digest: str,
                  recorded: list[str] | None) -> list[str]:
    """Reasons this call failed the generic checks; empty when it passed."""
    why = []
    if call.error:
        why.append(f"raised {call.error}")
    if call.code not in OK_CODES:
        why.append(f"exit code {call.code}")
    elif call.code == 0:
        try:
            if json.loads(call.stdout).get("schema") != 1:
                why.append("payload schema is not 1")
        except ValueError:
            why.append("output is not JSON")
    if call.seconds > deadline_s:
        why.append(f"took {call.seconds:.1f} s, deadline {deadline_s:.0f} s")
    if call.digest != first_digest:
        why.append("output differs from the first pass")
    if recorded is not None and (call.index >= len(recorded)
                                 or call.digest != recorded[call.index]):
        why.append("output differs from the recorded digest")
    return why


def _arg(argv, flag: str) -> str:
    for i, a in enumerate(argv):
        if a == flag:
            return argv[i + 1]
        if a.startswith(flag + "="):
            return a[len(flag) + 1:]
    raise KeyError(flag)


def check_classify(call: Call, seed: int) -> list[str]:
    """Hasse bound on every a_ell, naive re-count of a seeded sample."""
    from iwakit.counting import count_points_naive
    from iwakit.elliptic import parse_model

    payload = json.loads(call.stdout)
    model = parse_model(_arg(call.argv, "--curve"))
    good = [r for r in payload["primes"] if r["a_ell"] is not None]
    why = [f"Hasse bound fails at {r['ell']}" for r in good
           if r["a_ell"] ** 2 > 4 * r["ell"]]
    counts = payload["counts"]
    if counts["Q1"] + counts["Q2"] + counts["Q3"] != len(payload["primes"]):
        why.append("class counts do not add up")
    rng = random.Random(f"naive/{seed}/{call.index}")
    for r in rng.sample(good, min(NAIVE_SAMPLE, len(good))):
        if r["ell"] + 1 - count_points_naive(model, r["ell"]) != r["a_ell"]:
            why.append(f"a_ell at {r['ell']} differs from the naive count")
    return why


def check_density(call: Call, warm_dir: str) -> list[str]:
    """The g and M tables against the sieve-method step tables."""
    from iwakit.counting import TraceCache
    from iwakit.elliptic import parse_model
    from iwakit.fields import g_steps, m_steps

    payload = json.loads(call.stdout)
    model = parse_model(_arg(call.argv, "--curve"))
    p = int(_arg(call.argv, "--p"))
    grid = [x for x, _ in payload["g_table"]]
    cache = TraceCache(warm_dir)

    def at(steps, x):
        k = bisect.bisect_right([s for s, _ in steps], x)
        return steps[k - 1][1] if k else 0

    g = g_steps(model, p, grid[-1], cache=cache, method="sieve")
    m = m_steps(p, grid[-1], method="sieve")
    why = []
    if payload["g_table"] != [[x, at(g, x)] for x in grid]:
        why.append("g_table differs from the sieve step table")
    if payload["M_table"] != [[x, at(m, x)] for x in grid]:
        why.append("M_table differs from the sieve step table")
    return why
