"""Tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import compare
import run
import tracer
import workloads

sys.path.insert(0, str(run.SRC))

# the same layers on inputs small enough for a unit test
SMALL = {
    "classify_cold": lambda seed: workloads.classify_cold(seed, bound=3000),
    "density_warm": lambda seed: workloads.density_warm(
        seed, grid="1e2,3e2,1e3,3e3", fill_bound=3000),
    "curve_pipeline": lambda seed: workloads.curve_pipeline(seed, n_curves=4),
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_repeats_for_a_seed_and_varies_across_seeds(name):
    assert workloads.build(name, 7) == workloads.build(name, 7)
    assert workloads.build(name, 7).ops != workloads.build(name, 8).ops


def test_pipeline_curves_are_nonsingular_and_some_are_rescaled():
    ops = workloads.curve_pipeline(3).ops
    curves = [tuple(int(a) for a in op[1].split("=")[1].split(",")) for op in ops[::4]]
    assert curves[0] == workloads.E99
    assert all(workloads._disc(*c) != 0 for c in curves)
    assert any(c[4] % 64 == 0 and c[4] for c in curves)  # some u = 2 rescaling


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_and_untraced_passes_print_the_same_bytes(name, tmp_path):
    cli = run._import_cli()
    workload = SMALL[name](1)
    runner = run.Runner(cli, workload, tmp_path, tmp_path / "warm")
    for argv in workload.setup_ops:
        assert runner.call(-1, argv).code == 0
    plain, _, _ = runner.passes(0, whole=True)
    spans = tracer.Tracer()
    spans.install()
    try:
        traced, _, _ = runner.passes(0, whole=True)
    finally:
        spans.remove()
    assert tracer.installed_wrappers() == []
    assert [c.digest for c in plain] == [c.digest for c in traced]
    assert all(c.code in (0, 1, 3) and not c.error for c in plain)
    assert len(spans.start) > 0 and spans.counts["ntheory.is_prime"] > 0
    metrics = tracer.layer_metrics(spans, items=len(traced), passes=1, wall_s=1.0,
                                   bytes_written=0, overhead=1.0)
    assert list(metrics) == [m for m, _, _ in tracer.LAYER_METRICS]
    assert metrics["cli.self_s"] > 0


def test_no_wrapper_is_left_installed(tmp_path):
    run._import_cli()
    from iwakit import classify, counting, ntheory

    originals = (ntheory.is_prime, classify.is_prime, counting.TraceCache.traces,
                 classify.bulk_classify)
    spans = tracer.Tracer()
    spans.install()
    try:
        left = tracer.installed_wrappers()
        assert "iwakit.classify.is_prime" in left
        assert "iwakit.counting.TraceCache.traces" in left
        assert "iwakit.cli.bulk_classify" in left
    finally:
        spans.remove()
    assert tracer.installed_wrappers() == []
    assert (ntheory.is_prime, classify.is_prime, counting.TraceCache.traces,
            classify.bulk_classify) == originals


def test_self_time_subtracts_the_union_of_children():
    # root [0,10] has children a [1,4] and b [3,6], which overlap, and c
    # [8,12], which ends after it; a has child d [2,3].
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    got = tracer.self_times(start, end, parent)
    assert list(got) == pytest.approx([10 - 5 - 2, 3 - 1, 3, 4, 1])


def test_tail_keeps_ten_samples_beyond_it():
    latencies = [float(i) for i in range(1, 101)]
    assert run._tail(latencies) == (90.0, 90.0)
    assert run._tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_benchmark_file_lists_the_metrics_the_runs_print():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracer.LAYER_METRICS]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_compare_flags_a_regression_beyond_the_bound():
    assert compare.verdict([10.0, 10.0, 10.0], [13.0, 13.0, 13.0], "lower", 0.2) == "WORSE"
    assert compare.verdict([10.0, 10.0, 10.0], [11.0, 11.0, 11.0], "lower", 0.2) == "ok"
    assert compare.verdict([10.0, 10.0, 10.0], [7.0, 7.0, 7.0], "higher", 0.2) == "WORSE"
    assert compare.verdict([5.0, 10.0, 15.0], [10.0, 10.0, 10.0], "lower", 0.2) == "UNRESOLVED"


def test_digests_are_recorded_for_every_workload():
    recorded = json.loads(Path(run.checks.DIGESTS).read_text())
    assert set(recorded) == set(workloads.WORKLOADS) | {"cold_start"}
    for name in workloads.WORKLOADS:
        assert len(recorded[name]) == len(workloads.build(name, workloads.DEFAULT_SEED).ops)
