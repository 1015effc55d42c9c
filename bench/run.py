"""iwakit benchmark: drive `iwakit.cli.main` in-process, closed loop, one client.

    python3 bench/run.py --workload classify_cold --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --compare base.jsonl change.jsonl

Run from anywhere inside a source checkout: the package is imported from the
checkout's `src/`. One run sets the workload up (several times, setup_s is
the median), then issues the workload's calls one after the other, each
starting when the previous one returns, until --seconds have passed. With
--trace 1 it first times one untraced pass, then traces whole passes and
reports per-layer metrics instead of end-to-end ones. End-to-end times are
scaled to a reference speed of the box (see speed.py). Outputs are checked
after the timed region (see checks.py). The last line of stdout is the JSON
result; the full record, with the environment, is appended to
.bench_out/results.jsonl, and a traced run's spans go to .bench_out/spans/.

See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import checks
import compare
import speed
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# the README example, timed as a fresh process
COLD_ARGV = ("kida", "--curve", "0,0,1,-3,-5", "--p", "3", "--ramified", "7")
COLD_REPS = 21
TAIL_BEYOND = 10  # the tail percentile keeps this many samples beyond it
E2E_UNITS = {
    "throughput": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "cold_start_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _import_cli():
    """A fresh import of the package from the checkout's src/."""
    for name in [n for n in sys.modules if n == "iwakit" or n.startswith("iwakit.")]:
        del sys.modules[name]
    cli = importlib.import_module("iwakit.cli")
    if Path(cli.__file__).resolve().parents[1] != SRC:
        raise RuntimeError(f"imported iwakit from {cli.__file__}, not from {SRC}")
    return cli


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir()) if path.is_dir() else 0


class Runner:
    """Issues one workload's calls and keeps every outcome."""

    def __init__(self, cli, workload: workloads.Workload, workdir: Path, warm_dir: Path):
        self.cli = cli
        self.workload = workload
        self.workdir = workdir
        self.warm_dir = warm_dir
        self.fresh = 0
        self.bytes_written = 0

    def call(self, index: int, argv: tuple[str, ...]) -> checks.Call:
        cache = None
        if workloads.FRESH_CACHE in argv:
            self.fresh += 1
            cache = self.workdir / f"fresh{self.fresh}"
        elif workloads.WARM_CACHE in argv:
            cache = self.warm_dir
        real = [str(cache) if a in (workloads.FRESH_CACHE, workloads.WARM_CACHE) else a
                for a in argv]
        before = _dir_bytes(cache) if cache else 0
        out, err, code, error = io.StringIO(), io.StringIO(), None, ""
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(real)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - any escape is a failed call
            error = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
        if cache:
            self.bytes_written += _dir_bytes(cache) - before
        return checks.Call(index, argv, code, out.getvalue(), seconds, error)

    def passes(self, seconds: float, *, whole: bool,
               between=lambda busy: None) -> tuple[list[checks.Call], float, list[float]]:
        """Calls in pass order until they have taken `seconds` in all.

        With `whole` the loop ends on a pass boundary. `between(busy)` runs
        after each call that does not end the loop, outside the timed calls.
        A calibration point is taken every speed.EVERY seconds of call time,
        and each call is scaled by the two points around it. Returns the
        calls, their summed raw duration and the calibration points.
        """
        ops, done, busy = self.workload.ops, [], 0.0
        points, unscaled = [speed.calibrate()], 0
        while True:
            index = len(done) % len(ops)
            done.append(self.call(index, ops[index]))
            busy += done[-1].seconds
            last = busy >= seconds and (not whole or len(done) % len(ops) == 0)
            if last or busy >= len(points) * speed.EVERY:
                points.append(speed.calibrate())
                for c in done[unscaled:]:
                    c.scaled = speed.scale(c.seconds, points[-2], points[-1])
                unscaled = len(done)
            if last:
                return done, busy, points
            between(busy)


def _setup(name: str, seed: int, workdir: Path):
    """Import, generate the inputs and run the set-up calls; returns the state."""
    cli = _import_cli()
    workload = workloads.build(name, seed)
    warm_dir = workdir / f"warm{time.monotonic_ns()}"
    runner = Runner(cli, workload, workdir, warm_dir)
    for argv in workload.setup_ops:
        call = runner.call(-1, argv)
        if call.code != 0 or call.error:
            raise RuntimeError(f"set-up call {argv} failed: {call.code} {call.error}")
    return runner


def _cold_start() -> checks.Call:
    env = {k: v for k, v in os.environ.items() if k != "IWAKIT_CACHE_DIR"}
    env["PYTHONPATH"] = str(SRC)
    proc, seconds, scaled = speed.timed(lambda: subprocess.run(
        [sys.executable, "-m", "iwakit", *COLD_ARGV], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=60))
    return checks.Call(0, COLD_ARGV, proc.returncode, proc.stdout, seconds, scaled=scaled)


def _timed(runner: Runner, seconds: float):
    """The timed loop, with the cold-start processes spread evenly through it.

    The shared box drifts between speed states over ~10 s, so cold starts
    launched in one burst would sample one state; spread out, they sample
    the same mix as the calls.
    """
    cold: list[checks.Call] = []

    def cold_when_due(busy: float) -> None:
        while len(cold) < COLD_REPS and busy >= len(cold) * seconds / COLD_REPS:
            cold.append(_cold_start())

    calls, _, points = runner.passes(seconds, whole=False, between=cold_when_due)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(cold) < COLD_REPS:
        cold.append(_cold_start())
    return calls, cold, peak_rss_mb, points


def _traced(runner: Runner, seconds: float):
    """One untraced pass, then whole traced passes; the tracer holds the spans."""
    plain, _, _ = runner.passes(0, whole=True)
    spans = tracing.Tracer()
    runner.bytes_written = 0
    spans.install()
    try:
        traced, traced_s, _ = runner.passes(seconds, whole=True)
    finally:
        spans.remove()
    left = tracing.installed_wrappers()
    if left:
        raise RuntimeError(f"tracing wrappers left installed: {left}")
    return plain, traced, traced_s, spans


def _items(workload: workloads.Workload, calls: list[checks.Call],
           first: dict[int, checks.Call]) -> int:
    if workload.item != "prime":
        return len(calls)
    per_index = {i: len(json.loads(c.stdout)["primes"]) if c.code == 0 else 0
                 for i, c in first.items()}
    return sum(per_index[c.index] for c in calls)


def _per_request(calls: list[checks.Call], attr: str = "scaled") -> list[float]:
    """Each distinct call's latency: the median over its repeats in the run.

    Passes repeat the same calls, so a request's repeats differ only by the
    box's speed at the time; the tail is then taken over distinct requests.
    """
    repeats: dict[int, list[float]] = {}
    for c in calls:
        repeats.setdefault(c.index, []).append(getattr(c, attr))
    return [statistics.median(v) for v in repeats.values()]


def _tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _environment() -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_1m_start": os.getloadavg()[0],
    }


def _check(workload, calls, cold, seed, warm_dir) -> tuple[list[list[str]], dict]:
    """Failure reasons per call (the cold starts last), and the first pass by index."""
    first: dict[int, checks.Call] = {}
    for c in calls:
        first.setdefault(c.index, c)
    # an unrecorded workload fails every call on the default seed
    recorded = (checks.recorded_digests(workload.name) or []
                if seed == workloads.DEFAULT_SEED else None)
    oracle: dict[int, list[str]] = {}
    for index, c in first.items():
        if c.code != 0:
            continue
        if c.argv[0] == "classify":
            oracle[index] = checks.check_classify(c, seed)
        elif c.argv[0] == "density":
            oracle[index] = checks.check_density(c, str(warm_dir))
    reasons = [
        checks.call_failures(c, workload.deadline_s, first[c.index].digest, recorded)
        + oracle.get(c.index, [])
        for c in calls
    ]
    cold_digest = (checks.recorded_digests("cold_start") or [""])[0]
    reasons += [checks.call_failures(c, workload.deadline_s, cold_digest, None) for c in cold]
    return reasons, first


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    env = _environment()
    os.environ.pop("IWAKIT_CACHE_DIR", None)
    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setup_raw, setup_times, runner = [], [], None
        for _ in range(workloads.build(name, seed).setup_reps):
            if runner is not None:
                shutil.rmtree(runner.warm_dir, ignore_errors=True)
            runner, raw, scaled = speed.timed(lambda: _setup(name, seed, workdir))
            setup_raw.append(raw)
            setup_times.append(scaled)
        gc.collect()
        workload = runner.workload
        detail: dict = {"setup_s_samples": setup_times}
        if not trace:
            timed, cold, peak_rss_mb, points = _timed(runner, seconds)
            reasons, first = _check(workload, timed, cold, seed, runner.warm_dir)
            items = _items(workload, timed, first)
            elapsed = sum(c.seconds for c in timed)
            latencies = _per_request(timed)
            tail, tail_pct = _tail(latencies)
            metrics = {
                "throughput": items / sum(c.scaled for c in timed),
                "op_p50_ms": 1e3 * statistics.median(latencies),
                "op_tail_ms": 1e3 * tail,
                "cold_start_ms": 1e3 * statistics.median(c.scaled for c in cold),
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": peak_rss_mb,
            }
            units = E2E_UNITS
            raw_latencies = _per_request(timed, "seconds")
            detail.update(
                op_tail_percentile=tail_pct, op_count=len(latencies), calls=len(timed),
                cold_start_digest=cold[0].digest,
                calibration_s={"min": min(points), "median": statistics.median(points),
                               "max": max(points), "n": len(points)},
                raw={"throughput": items / elapsed,
                     "op_p50_ms": 1e3 * statistics.median(raw_latencies),
                     "op_tail_ms": 1e3 * _tail(raw_latencies)[0],
                     "cold_start_ms": 1e3 * statistics.median(c.seconds for c in cold),
                     "setup_s": statistics.median(setup_raw)})
        else:
            plain, timed, elapsed, spans = _traced(runner, seconds)
            reasons, first = _check(workload, plain + timed, [], seed, runner.warm_dir)
            items = _items(workload, timed, first)
            untraced = _items(workload, plain, first) / sum(c.scaled for c in plain)
            traced = items / sum(c.scaled for c in timed)
            passes = len(timed) // len(workload.ops)
            metrics = tracing.layer_metrics(
                spans, items=items, passes=passes, wall_s=elapsed,
                bytes_written=runner.bytes_written, overhead=untraced / traced)
            units = {m: u for m, u, _ in tracing.LAYER_METRICS}
            (OUT / "spans").mkdir(exist_ok=True)
            spans.write(OUT / "spans" / f"{name}-seed{seed}-{os.getpid()}.json.gz")
            detail.update(passes=passes, spans=len(spans.start), untraced_throughput=untraced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = [r for r in reasons if r]
    env["loadavg_1m_end"] = os.getloadavg()[0]
    detail.update(items=items, elapsed_s=elapsed,
                  failure_reasons=sorted({w for r in failures for w in r})[:20])
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env,
        "correct": not failures, "attempted": len(reasons), "failed": len(failures),
        "fail_ratio": len(failures) / len(reasons),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
        "detail": detail,
        "digests": [first[i].digest for i in sorted(first)],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                        help="compare two results.jsonl files instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(*args.compare, bench_file=ROOT / "BENCHMARK.json")
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    if not (SRC / "iwakit" / "cli.py").is_file():
        print(f"error: no iwakit source at {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(result, sort_keys=True) + "\n")
    d, e = result["detail"], result["environment"]
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"items={d['items']} elapsed={d['elapsed_s']:.2f}s "
          f"fail_ratio={result['fail_ratio']:.4f} load={e['loadavg_1m_start']:.2f}"
          f"->{e['loadavg_1m_end']:.2f} nproc={e['nproc']} python={e['python']}")
    if "op_tail_percentile" in d:
        print(f"# op_tail_ms is p{d['op_tail_percentile']:.2f} of {d['op_count']} distinct"
              f" calls, each the median of its repeats among {d['calls']} calls")
    for reason in d["failure_reasons"]:
        print(f"# failure: {reason}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
