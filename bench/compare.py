"""Compare two sets of benchmark runs (results.jsonl files), workload by workload.

End-to-end metrics print each side's median and quartiles and the change, and
are flagged with the bounds in BENCHMARK.json: WORSE when the change's median
is worse than the base's by more than the bound, UNRESOLVED when either
side's quartile spread is wider than the bound. Per-layer metrics print the
ratio change/base with both medians.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def load(path: str | Path) -> dict[tuple[str, int], dict[str, list[float]]]:
    """{(workload, trace): {metric: [value per run]}}."""
    runs: dict[tuple[str, int], dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            rec = json.loads(line)
            for name, m in rec["metrics"].items():
                runs[(rec["workload"], rec["trace"])][name].append(m["value"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    b, c = quartiles(base)[1], quartiles(change)[1]
    worse = (c - b) / b if better == "lower" else (b - c) / b
    if worse > bound:
        return "WORSE"
    if max(spread(base), spread(change)) > bound:
        return "UNRESOLVED"
    return "ok"


def _fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def main(base_path: str, change_path: str, *, bench_file: Path) -> int:
    spec = json.loads(Path(bench_file).read_text(encoding="utf-8"))
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    base, change = load(base_path), load(change_path)
    flagged = 0
    for key in sorted(set(base) | set(change)):
        workload, trace = key
        print(f"== {workload} ({'traced, per layer' if trace else 'end to end'})")
        for name in sorted(set(base[key]) | set(change[key])):
            b, c = base[key].get(name), change[key].get(name)
            if not b or not c:
                print(f"  {name:48s} only in {'base' if b else 'change'}")
                continue
            bm, cm = quartiles(b)[1], quartiles(c)[1]
            if trace:
                ratio = f"{cm / bm:.4f}" if bm else "n/a"
                print(f"  {name:48s} ratio {ratio:>8s}  base {bm:.6g}  change {cm:.6g}")
                continue
            m = e2e.get(name)
            flag = verdict(b, c, m["better"], m["bound"]) if m else "no bound"
            flagged += flag == "WORSE"
            print(f"  {name:16s} base {_fmt(b):40s} change {_fmt(c):40s} "
                  f"{100 * (cm - bm) / bm:+7.2f}%  {flag}")
    return 1 if flagged else 0
