#!/usr/bin/env python3
"""Record a change against its parent checkout in BENCH_<pr>.json.

Runs, in this order:
- bench/run.py in both checkouts, in pairs per workload; the side that runs
  first alternates from pair to pair, since the first run of a back-to-back
  pair reads faster on classify_cold;
- fresh-process cold starts of each of the six subcommands, interleaved
  between the checkouts, compiling src/ in every process as the benchmark
  does, and again on both sides with a warm bytecode cache;
- cold p = 3 density reports and p = 3 `report` calls on an empty
  --cache-dir, alternating between the checkouts: three per side of each
  density grid (to 1e6 and to 1e7) and of each report bound (1e5 and 1e6),
  each with its wall time, the peak RSS of its process and whether its
  stdout is the same as every run of the other side's;
- the peak RSS of a process that drives bench/run.py's Runner of the
  checkout through a fixed number of classify_cold or density_warm calls
  after its set-up, keeping every call's outcome as the harness does, at
  the median call count of each side's bench runs of that workload, the
  first side alternating per run: a bench run's peak_rss_mb grows with the
  number of calls it makes in its --seconds, so a faster change reads a
  higher figure there; at an equal call count it reads the program's
  memory;
- the peak RSS of a process that reads one trace file of the size a warm
  1e7 grid leaves with the checkout's TraceCache._read, alternating;
- the time per count in each ell band, on scripts/count_bands.py's inputs
  counted by both checkouts in one process, alternating pass by pass: the
  speed of a shared CPU drifts between processes, so count_bands.py run as
  one process per side cannot resolve a 10 % change;
- the tier-1 suite once in each checkout, for its wall time.

Each side's runs are then read back from its .bench_out/results.jsonl with
bench/compare.py, which must hold only this recording's runs: the script
refuses to start if either file exists. It writes, per workload and
end-to-end metric, both sides' quartiles, the change, compare's verdict and
the pairs the change won, with the environment and the order of the runs.
The parent commit is read from the base checkout, which must be a git
checkout; every bench run uses seed 0, whose digests bench/run.py checks.

    python3 scripts/bench_record.py ../parent --pr 25 \\
        --pairs classify_cold=10 --pairs density_warm=6 --pairs curve_pipeline=6
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from compare import load, quartiles, verdict  # noqa: E402
from speed import timed  # noqa: E402

E99 = "0,0,1,-3,-5"
SEED = 0  # the seed of bench/digests.json, so that every run is checked
COLD_REPS = 15  # fresh processes per subcommand and side
COLD_ARGV = {
    "classify": ("classify", "--curve", E99, "--p", "3", "--bound", "1000"),
    "kida": ("kida", "--curve", E99, "--p", "3", "--ramified", "7"),  # the bench's COLD_ARGV
    "euler-char": ("euler-char", "--curve", E99, "--p", "3"),
    "enumerate-fields": ("enumerate-fields", "--p", "3", "--ramified", "7,13", "--wild"),
    "density": ("density", "--curve", E99, "--p", "3", "--grid", "1e2,1e3,2e3,4e3",
                "--jobs", "1"),
    "report": ("report", "--curve", E99, "--p", "3", "--ramified", "7", "--jobs", "1"),
}

DENSITY_ARGV = ("density", "--curve", E99, "--p", "3", "--jobs", "1")
# grid, runs per side: one 1e7 run per side read 17.3 s against 21.0 s, and
# three alternating pairs right after it 11.0 s against 10.9 s
COLD_DENSITY = (("1e3,1e4,1e5,1e6", 3), ("1e4,1e5,1e6,1e7", 3))
REPORT_ARGV = ("report", "--curve", E99, "--p", "3", "--jobs", "1")
COLD_REPORT = (("100000", 3), ("1000000", 3))  # bound, runs per side
# the workloads whose calls the harness keeps most of: classify_cold keeps
# about 0.93 MB of stdout per call, density_warm makes the most calls
RSS_WORKLOADS = ("classify_cold", "density_warm")
RSS_REPS = 3  # fixed-call-count processes per call count and side
READ_SLOTS = 5 * 10**6  # int16 slots of the trace file of a warm 1e7 grid
READ_REPS = 5  # trace-file reads per side
BANDS_PASSES = 20  # passes per side and band of the interleaved count_bands inputs

# Run in a fresh process with the checkout's bench/ and src/ first on the path:
# bench/run.py's own set-up, then the workload's calls in pass order, each
# outcome kept, as Runner.passes keeps them; prints the process's peak RSS.
_RSS_CHILD = """
import gc, json, os, resource, sys, tempfile
from pathlib import Path
checkout, workload, calls, seed = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
sys.path[:0] = [os.path.join(checkout, "bench"), os.path.join(checkout, "src")]
import run
os.environ.pop("IWAKIT_CACHE_DIR", None)
with tempfile.TemporaryDirectory() as work:
    runner = run._setup(workload, seed, Path(work))
    gc.collect()
    ops = runner.workload.ops
    kept = [runner.call(i % len(ops), ops[i % len(ops)]) for i in range(calls)]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
codes = {}
for c in kept:
    key = c.error.split(":")[0] if c.error else str(c.code)
    codes[key] = codes.get(key, 0) + 1
print(json.dumps({"peak_rss_mb": peak, "outcomes": codes}))
"""

# Run in a fresh process with the checkout's src/ on the path: the RSS
# before, and the peak RSS after, one TraceCache._read of the file named in
# argv; the peak of compiling src/ can hide part of the read, so the RSS
# before is the resident size of the moment, from /proc/self/statm.  hashlib,
# which _read loads for the digest, is imported before it, so that the growth
# counts the read and not OpenSSL.
_READ_CHILD = """
import gc, hashlib, json, os, resource, sys
from pathlib import Path
from iwakit.counting import TraceCache
gc.collect()
with open("/proc/self/statm") as fh:
    before = int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
slots = len(TraceCache._read(Path(sys.argv[1])))
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"slots": slots, "before_mb": before, "peak_rss_mb": peak}))
"""


# Run in a fresh process: count_bands.py's count_us and psi3_us inputs,
# counted by both checkouts in one process, each checkout's src/ imported as a
# package of its own name, with the side that runs first alternating pass by
# pass, so that both sides meet the same CPU speed; prints, per figure and
# band, each side's best pass in microseconds per prime and the quartiles of
# base/change over the pairs of adjacent passes.  psi3_us times the same
# kernel on both sides, so its ratios show the method's own spread.
_BANDS_CHILD = """
import importlib, importlib.util, json, random, sys, time
scripts, base_src, change_src, passes = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
sys.path[:0] = [scripts, change_src]
import count_bands
from iwakit.ntheory import sieve_primes

def side(name, src):
    spec = importlib.util.spec_from_file_location(
        name, f"{src}/iwakit/__init__.py", submodule_search_locations=[f"{src}/iwakit"])
    sys.modules[name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    counting = importlib.import_module(f"{name}.counting")
    model = importlib.import_module(f"{name}.elliptic").WeierstrassModel
    return {"count_us": lambda w, ell: counting.count_points(w, ell),
            "psi3_us": lambda w, ell: counting._three_divides(*w.short, ell)}, model

sides = {"base": side("iwakit_base", base_src), "change": side("iwakit_change", change_src)}
# count_bands.py's draws at its defaults: 30 curves, 200 primes per band and curve
rng, psi3_rng = random.Random(0), random.Random(1)
curves = count_bands.random_minimal_curves(rng, 30)
primes = sieve_primes(count_bands.BANDS[-1][1])
out = {"count_us": {}, "psi3_us": {}}
for lo, hi in count_bands.BANDS:
    band = [q for q in primes if lo < q <= hi]
    draws = {"count_us": [(i, ell) for i, w in enumerate(curves)
                          for ell in rng.sample(band, min(200, len(band))) if w.disc % ell]}
    if lo >= 229:
        band = [q for q in band if q % 6 == 1]
        draws["psi3_us"] = [(i, ell) for i, w in enumerate(curves)
                            for ell in psi3_rng.sample(band, min(200, len(band))) if w.disc % ell]
    for figure, work in draws.items():
        times = {"base": [], "change": []}
        for k in range(passes):
            for name in ("base", "change") if k % 2 == 0 else ("change", "base"):
                fns, model = sides[name]
                fn, models = fns[figure], [model(*w.coefficients()) for w in curves]
                start = time.perf_counter()
                for i, ell in work:
                    fn(models[i], ell)
                times[name].append(time.perf_counter() - start)
        ratios = sorted(b / c for b, c in zip(times["base"], times["change"]))
        n = len(ratios)
        out[figure][f"{lo}-{hi}"] = {
            **{f"{name}_us": round(1e6 * min(t) / len(work), 2) for name, t in times.items()},
            "base_over_change": {"q1": ratios[n // 4], "median": ratios[n // 2],
                                 "q3": ratios[(3 * n) // 4]},
            "pairs_won": f"{sum(r > 1 for r in ratios)}/{n}"}
print(json.dumps(out))
"""


def _env(checkout: Path, **extra: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "IWAKIT_CACHE_DIR"}
    env["PYTHONPATH"] = str(checkout / "src")
    env.update(extra)
    return env


def _bench(checkout: Path, workload: str, seconds: float) -> None:
    subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
                    "--seconds", str(seconds)], cwd=checkout, check=True,
                   env=_env(checkout, PYTHONDONTWRITEBYTECODE="1"), stdout=subprocess.DEVNULL)


def _cold_ms(checkout: Path, argv: tuple[str, ...], env: dict[str, str]) -> float:
    # scaled to the bench's reference speed, as its cold_start_ms is
    _, _, scaled = timed(lambda: subprocess.run(
        [sys.executable, "-m", "iwakit", *argv], cwd=checkout, env=env, check=True,
        stdout=subprocess.DEVNULL))
    return 1e3 * scaled


def _cold_run(checkout: Path, argv: tuple[str, ...]) -> dict:
    """One cold call on an empty --cache-dir: wall time, the peak RSS of its
    process (from the rusage os.wait4 returns for it), exit code and stdout."""
    with tempfile.TemporaryDirectory() as cache, tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "iwakit", *argv, "--cache-dir", cache],
                                cwd=checkout, stdout=out,
                                env=_env(checkout, PYTHONDONTWRITEBYTECODE="1"))
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
    # ru_maxrss is in KiB on Linux
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024, "exit_code": proc.returncode,
            "stdout": stdout}


def cold_calls(base: Path, change: Path, argv: tuple[str, ...], flag: str,
               values: tuple[tuple[str, int], ...]) -> dict:
    """Cold calls of argv per value of flag (a density grid, a report bound),
    the first side alternating per run."""
    out = {}
    for value, reps in values:
        runs: dict[str, list[dict]] = {"base": [], "change": []}
        sides = [("base", base), ("change", change)]
        for rep in range(reps):
            for name, checkout in sides if rep % 2 == 0 else sides[::-1]:
                runs[name].append(_cold_run(checkout, (*argv, flag, value)))
        for name, other in (("base", "change"), ("change", "base")):
            for run in runs[name]:
                run["stdout_matches"] = all(run["stdout"] == o["stdout"] for o in runs[other])
        for run in runs["base"] + runs["change"]:
            run["stdout_sha256"] = hashlib.sha256(run.pop("stdout")).hexdigest()
        b = quartiles([r["wall_s"] for r in runs["base"]])[1]
        c = quartiles([r["wall_s"] for r in runs["change"]])[1]
        out[value] = {**runs, "base_over_change": b / c}
    return out


def _summary(values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def cold_starts(base: Path, change: Path) -> dict:
    """Quartiles of each subcommand's time as a fresh process, in scaled ms."""
    with tempfile.TemporaryDirectory() as base_cache, tempfile.TemporaryDirectory() as change_cache:
        sides = [("base", base, _env(base, PYTHONDONTWRITEBYTECODE="1")),
                 ("change", change, _env(change, PYTHONDONTWRITEBYTECODE="1"))]
        for name, checkout, cache in (("base", base, base_cache), ("change", change, change_cache)):
            env = {k: v for k, v in _env(checkout, PYTHONPYCACHEPREFIX=cache).items()
                   if k != "PYTHONDONTWRITEBYTECODE"}
            sides.append((f"{name}_bytecode_cached", checkout, env))
            for argv in COLD_ARGV.values():
                _cold_ms(checkout, argv, env)  # fills the bytecode cache
        times: dict[str, dict[str, list[float]]] = {
            sub: {name: [] for name, _, _ in sides} for sub in COLD_ARGV}
        for rep in range(COLD_REPS):
            for sub, argv in COLD_ARGV.items():
                for name, checkout, env in sides if rep % 2 == 0 else sides[::-1]:
                    times[sub][name].append(_cold_ms(checkout, argv, env))
    out = {}
    for sub, per_side in times.items():
        out[sub] = {name: _summary(values) for name, values in per_side.items()}
        for suffix in ("", "_bytecode_cached"):
            b, c = out[sub][f"base{suffix}"]["median"], out[sub][f"change{suffix}"]["median"]
            out[sub][f"change{suffix}_pct"] = 100 * (c - b) / b
    return out


def _rss_run(checkout: Path, workload: str, calls: int) -> dict:
    proc = subprocess.run([sys.executable, "-c", _RSS_CHILD, str(checkout), workload, str(calls),
                           str(SEED)], cwd=checkout, check=True, capture_output=True, text=True,
                          env=_env(checkout, PYTHONDONTWRITEBYTECODE="1"))
    return json.loads(proc.stdout.splitlines()[-1])


def fixed_call_rss(base: Path, change: Path, files: dict[Path, Path]) -> dict:
    """Peak RSS per side after the same number of calls of each RSS_WORKLOADS
    workload, at the median call count of each side's bench runs of it."""
    out = {}
    for workload in RSS_WORKLOADS:
        counts = set()
        for path in files.values():
            calls = [rec["detail"]["calls"] for rec in map(json.loads, path.read_text(
                encoding="utf-8").splitlines()) if rec["workload"] == workload]
            if calls:
                counts.add(round(quartiles(calls)[1]))
        for calls in sorted(counts):
            runs: dict[str, list[dict]] = {"base": [], "change": []}
            sides = [("base", base), ("change", change)]
            for rep in range(RSS_REPS):
                for name, checkout in sides if rep % 2 == 0 else sides[::-1]:
                    runs[name].append(_rss_run(checkout, workload, calls))
            # each run's exit codes, or the exception a call raised, by count
            row = {name: {**_summary([r["peak_rss_mb"] for r in side]),
                          "outcomes": [r["outcomes"] for r in side]}
                   for name, side in runs.items()}
            b, c = row["base"]["median"], row["change"]["median"]
            out[f"{workload}={calls}"] = {**row, "change_pct": 100 * (c - b) / b}
    return out


def trace_read_rss(base: Path, change: Path) -> dict:
    """Peak RSS per side of a process that reads one READ_SLOTS trace file."""
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "trace.bin"
        body = bytes(2 * READ_SLOTS)
        path.write_bytes(body + hashlib.sha256(body).digest())
        size = path.stat().st_size
        runs: dict[str, list[dict]] = {"base": [], "change": []}
        sides = [("base", base), ("change", change)]
        for rep in range(READ_REPS):
            for name, checkout in sides if rep % 2 == 0 else sides[::-1]:
                proc = subprocess.run([sys.executable, "-c", _READ_CHILD, str(path)],
                                      cwd=checkout, check=True, capture_output=True, text=True,
                                      env=_env(checkout, PYTHONDONTWRITEBYTECODE="1"))
                runs[name].append(json.loads(proc.stdout))
    out = {}
    for name, side in runs.items():
        if any(r["slots"] != READ_SLOTS for r in side):
            raise RuntimeError(f"{name} read a trace file as a miss: {side}")
        out[name] = {**_summary([r["peak_rss_mb"] for r in side]),
                     "growth_mb": _summary([r["peak_rss_mb"] - r["before_mb"] for r in side])}
    b, c = out["base"]["median"], out["change"]["median"]
    return {"file_bytes": size, **out, "change_pct": 100 * (c - b) / b}


def count_bands(base: Path, change: Path) -> dict:
    """count_bands.py's inputs counted by both checkouts in one process, pass
    by pass: per figure and band, each side's best pass and the quartiles of
    base/change."""
    proc = subprocess.run([sys.executable, "-c", _BANDS_CHILD, str(ROOT / "scripts"),
                           str(base / "src"), str(change / "src"), str(BANDS_PASSES)],
                          cwd=change, check=True, capture_output=True, text=True,
                          env=_env(change, PYTHONDONTWRITEBYTECODE="1"))
    return {"passes": BANDS_PASSES, **json.loads(proc.stdout)}


def tier1(checkout: Path) -> dict:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"], cwd=checkout,
                          env=_env(checkout), capture_output=True, text=True)
    wall = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {"wall_s": wall, "summary": re.sub(r"=+", "", summary).strip(),
            "exit_code": proc.returncode}


def compare_sides(base_file: Path, change_file: Path, spec: dict) -> dict:
    """Per workload and end-to-end metric: quartiles, change, verdict, pairs won;
    and each side's highest fail_ratio over its runs."""
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    base, change = load(base_file), load(change_file)
    out: dict = {}
    for workload, trace in sorted(set(base) | set(change)):
        rows = out.setdefault(workload, {})
        for name, m in e2e.items():
            b, c = base[(workload, trace)].get(name), change[(workload, trace)].get(name)
            if not b or not c:
                continue
            bm, cm = quartiles(b)[1], quartiles(c)[1]
            sign = 1 if m["better"] == "higher" else -1
            # the files hold one run per side per pair, in pair order
            won = sum(sign * (y - x) > 0 for x, y in zip(b, c))
            rows[name] = {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"],
                "base": _summary(b), "change": _summary(c),
                "change_pct": 100 * (cm - bm) / bm,
                "verdict": verdict(b, c, m["better"], m["bound"]),
                "pairs_won": f"{won}/{min(len(b), len(c))}",
                "base_iqr": quartiles(b)[2] - quartiles(b)[0],
            }
    for side, path in (("base", base_file), ("change", change_file)):
        for line in path.read_text(encoding="utf-8").splitlines():
            rec = json.loads(line)
            worst = out[rec["workload"]].setdefault("max_fail_ratio", {})
            worst[side] = max(worst.get(side, 0.0), rec["fail_ratio"])
    return out


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path, help="checkout of the parent commit")
    parser.add_argument("--pr", type=int, required=True, help="number in BENCH_<pr>.json")
    parser.add_argument("--pairs", action="append", default=[], metavar="WORKLOAD=N",
                        help="run N alternating pairs of this workload")
    args = parser.parse_args(argv)
    base, change = args.base.resolve(), ROOT
    base_rev = subprocess.run(["git", "-C", str(base), "rev-parse", "--short", "HEAD"],
                              check=True, capture_output=True, text=True).stdout.strip()
    files = {side: side / ".bench_out" / "results.jsonl" for side in (base, change)}
    for path in files.values():
        if path.exists():
            parser.error(f"{path} exists; move it away so that it holds only this recording")
    pairs = [(w, int(n)) for w, _, n in (p.partition("=") for p in args.pairs)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]

    started = time.time()
    load_start = os.getloadavg()
    order = []
    for workload, n in pairs:
        for i in range(n):
            sides = [("base", base), ("change", change)]
            for name, checkout in sides if i % 2 == 0 else sides[::-1]:
                order.append(f"{workload}:{i}:{name}")
                _bench(checkout, workload, seconds)
    cold = cold_starts(base, change)
    density = cold_calls(base, change, DENSITY_ARGV, "--grid", COLD_DENSITY)
    report = cold_calls(base, change, REPORT_ARGV, "--bound", COLD_REPORT)
    rss = fixed_call_rss(base, change, files)
    read = trace_read_rss(base, change)
    bands = count_bands(base, change)
    tests = {"base": tier1(base), "change": tier1(change)}

    record = {
        "pr": args.pr,
        "base_rev": base_rev,
        "environment": {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
            "cpu_model": _cpu_model(),
            "loadavg_start": list(load_start),
            "loadavg_end": list(os.getloadavg()),
            # set for the bench runs and the uncached cold starts, so those
            # processes compile src/ as the benchmark's processes do
            "PYTHONDONTWRITEBYTECODE": "1",
            "wall_minutes": (time.time() - started) / 60,
        },
        "bench": {"seconds": seconds, "seed": SEED, "order": order,
                  "workloads": compare_sides(files[base], files[change], spec)},
        "cold_start_ms": {"reps": COLD_REPS, "argv": {k: " ".join(v) for k, v in
                                                           COLD_ARGV.items()},
                          "subcommands": cold},
        "cold_density": {"argv": " ".join(DENSITY_ARGV) + " --grid GRID --cache-dir EMPTY",
                         "grids": density},
        "cold_report": {"argv": " ".join(REPORT_ARGV) + " --bound BOUND --cache-dir EMPTY",
                        "bounds": report},
        "fixed_call_rss": {"reps": RSS_REPS, "seed": SEED, "workloads": rss},
        "trace_read_rss": {"reps": READ_REPS, **read},
        "count_bands": bands,
        "tier1": tests,
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
