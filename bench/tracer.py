"""Span tracing of the iwakit package, installed from outside the package.

`Tracer.install` wraps every public function of every loaded `iwakit` module,
in each module namespace that binds it, plus the public methods of
`TraceCache`. A wrapped call records a span (name, start, end, parent) in
flat in-memory arrays; hot leaf functions only count their calls. `remove`
puts the original functions back. Nothing in `src/` knows about tracing.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

PACKAGE = "iwakit"
# Leaf functions called up to ~1e5 times per item: a span each would cost
# about as much as the call itself and would outnumber all other spans, so
# they are only counted, and their time is their caller's.
COUNT_ONLY = frozenset({"ntheory.is_prime", "ntheory.legendre", "ntheory.padic_valuation"})
METHODS = {"counting": {"TraceCache": ("trace", "traces")}}
# Span names whose calls record one integer: the ell of a BSGS count, or the
# number of entries a call returns.
AUX = {
    "counting.count_points_bsgs": lambda args, kwargs, result: args[1],
    "counting.TraceCache.traces": lambda args, kwargs, result: len(result),
    "classify.bulk_classify": lambda args, kwargs, result: len(result),
}
MARK = "__bench_traced__"

# name, unit, better: what the traced run reports. Counts are per item (per
# prime, report or CLI op); times are seconds per pass over the workload.
LAYER_METRICS = (
    ("ntheory.is_prime.calls_per_item", "count", "lower"),
    ("ntheory.legendre.calls_per_item", "count", "lower"),
    ("ntheory.factorize.self_s", "s", "lower"),
    ("ntheory.sieve_primes.calls_per_item", "count", "lower"),
    ("elliptic.minimal_model.calls_per_item", "count", "lower"),
    ("elliptic.reduction_type.calls_per_item", "count", "lower"),
    ("elliptic.reduction_type.self_s", "s", "lower"),
    ("elliptic.conductor.self_s", "s", "lower"),
    ("elliptic.quadratic_twist.calls_per_item", "count", "lower"),
    ("elliptic.quadratic_twist.useful_ratio", "ratio", "higher"),
    ("counting.count_points_naive.calls", "count", "lower"),
    ("counting.count_points_naive.us_per_call", "us", "lower"),
    ("counting.count_points_bsgs.calls", "count", "lower"),
    ("counting.count_points_bsgs.us_per_call.lt_1e4", "us", "lower"),
    ("counting.count_points_bsgs.us_per_call.1e4_5e4", "us", "lower"),
    ("counting.count_points_bsgs.us_per_call.ge_5e4", "us", "lower"),
    ("counting.bsgs_share", "ratio", "lower"),
    ("counting.trace_cache.hits", "count", "higher"),
    ("counting.trace_cache.misses", "count", "lower"),
    ("counting.trace_cache.hit_ratio", "ratio", "higher"),
    ("counting.trace_cache.io_s", "s", "lower"),
    ("counting.trace_cache.bytes_written", "B", "lower"),
    ("classify.bulk_classify.calls_per_item", "count", "lower"),
    ("classify.bulk_classify.self_s", "s", "lower"),
    ("classify.bulk_classify.records_per_item", "count", "lower"),
    ("fields.g_of_X.self_s", "s", "lower"),
    ("fields.M_of_X.self_s", "s", "lower"),
    ("fields.ramified_splitting.self_s", "s", "lower"),
    ("density.asymptotic_report.self_s", "s", "lower"),
    ("density.empirical_density.self_s", "s", "lower"),
    ("eulerchar.euler_char_factors.self_s", "s", "lower"),
    ("eulerchar.good_ordinary_twist.self_s", "s", "lower"),
    ("eulerchar.division_polynomial.self_s", "s", "lower"),
    ("kida.check_hypotheses.self_s", "s", "lower"),
    ("kida.lambda_transfer.self_s", "s", "lower"),
    ("refdata.reference_record.calls_per_item", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


def _package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def _short(module) -> str:
    return module.__name__.rpartition(".")[2]


class Tracer:
    """Spans and counts of one traced run, kept in memory until written."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.aux = array("q")
        self.counts: dict[str, int] = defaultdict(int)
        self.current = -1
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        if name in COUNT_ONLY:
            counts = self.counts

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            setattr(counted, MARK, True)
            return counted

        tracer, name_id, aux_fn = self, self._id(name), AUX.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            parent = tracer.current
            sid = len(tracer.start)
            tracer.name.append(name_id)
            tracer.parent.append(parent)
            tracer.end.append(0.0)
            tracer.aux.append(0)
            tracer.current = sid
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[sid] = perf_counter()
                tracer.current = parent
            if aux_fn is not None:
                tracer.aux[sid] = aux_fn(args, kwargs, result)
            return result

        setattr(spanned, MARK, True)
        return spanned

    def install(self) -> None:
        """Wrap the public functions of every loaded iwakit module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        wrappers: dict[int, tuple[object, object]] = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(obj, f"{_short(mod)}.{attr}"))
        # a function imported into other modules is bound there too, under
        # any name, and each binding is looked up at call time
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for mod in modules:
            for cls_name, methods in METHODS.get(_short(mod), {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    original = cls.__dict__[meth]
                    self._patches.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(original, f"{_short(mod)}.{cls_name}.{meth}"))

    def remove(self) -> None:
        """Put every original function back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write spans and counts as gzipped JSON of parallel arrays."""
        data = {
            "names": self.names,
            "counts": dict(self.counts),
            "spans": {"name": self.name.tolist(), "parent": self.parent.tolist(),
                      "start": self.start.tolist(), "end": self.end.tolist(),
                      "aux": self.aux.tolist()},
        }
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))


def installed_wrappers() -> list[str]:
    """Names still bound to a tracing wrapper in any loaded iwakit module."""
    left = []
    for mod in _package_modules():
        for attr, obj in vars(mod).items():
            if getattr(obj, MARK, False):
                left.append(f"{mod.__name__}.{attr}")
            if isinstance(obj, type) and getattr(obj, "__module__", None) == mod.__name__:
                left.extend(f"{mod.__name__}.{attr}.{m}" for m, v in vars(obj).items()
                            if getattr(v, MARK, False))
    return left


def self_times(start, end, parent) -> array:
    """Each span's duration minus the union of its children's intervals.

    A parent's children must come in order of start time, as they do when
    recorded; each is clipped to its parent.
    """
    n = len(start)
    covered = array("d", bytes(8 * n))
    reach = array("d", start)  # how far each span is covered so far
    for i in range(n):
        p = parent[i]
        if p >= 0:
            lo, hi = max(start[i], reach[p]), min(end[i], end[p])
            if hi > lo:
                covered[p] += hi - lo
                reach[p] = hi
    return array("d", (max(end[i] - start[i] - covered[i], 0.0) for i in range(n)))


def _band(ell: int) -> str:
    return "lt_1e4" if ell < 10_000 else "1e4_5e4" if ell < 50_000 else "ge_5e4"


def layer_metrics(tracer: Tracer, *, items: int, passes: int, wall_s: float,
                  bytes_written: int, overhead: float) -> dict[str, float]:
    """The LAYER_METRICS values of a traced run over whole passes."""
    names = tracer.names
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    calls: dict[str, int] = defaultdict(int, tracer.counts)
    self_s: dict[str, float] = defaultdict(float)
    bsgs: dict[str, list[float]] = defaultdict(list)
    naive_s = 0.0
    requested = misses = 0
    traces_id = tracer._ids.get("counting.TraceCache.traces", -2)
    for i, nid in enumerate(tracer.name):
        name = names[nid]
        calls[name] += 1
        self_s[name] += selfs[i]
        if name == "counting.count_points_bsgs":
            bsgs[_band(tracer.aux[i])].append(tracer.end[i] - tracer.start[i])
        elif name == "counting.count_points_naive":
            naive_s += tracer.end[i] - tracer.start[i]
        elif name == "counting.TraceCache.traces":
            requested += tracer.aux[i]
        elif name == "counting.count_points":
            p = tracer.parent[i]
            while p >= 0 and tracer.name[p] != traces_id:
                p = tracer.parent[p]
            misses += p >= 0

    def per_item(n: float) -> float:
        return n / items

    def per_pass(seconds: float) -> float:
        return seconds / passes

    def mean_us(values: list[float]) -> float:
        return 1e6 * sum(values) / len(values) if values else 0.0

    twists = calls["elliptic.quadratic_twist"]
    hits = requested - misses
    out = {
        "counting.count_points_naive.calls": per_item(calls["counting.count_points_naive"]),
        "counting.count_points_naive.us_per_call": (
            1e6 * naive_s / calls["counting.count_points_naive"]
            if calls["counting.count_points_naive"] else 0.0),
        "counting.count_points_bsgs.calls": per_item(calls["counting.count_points_bsgs"]),
        "counting.bsgs_share": self_s["counting.count_points_bsgs"] / wall_s,
        "counting.trace_cache.hits": per_item(hits),
        "counting.trace_cache.misses": per_item(misses),
        "counting.trace_cache.hit_ratio": hits / requested if requested else 0.0,
        "counting.trace_cache.io_s": per_pass(self_s["counting.TraceCache.traces"]),
        "counting.trace_cache.bytes_written": per_item(bytes_written),
        "classify.bulk_classify.records_per_item": per_item(sum(
            tracer.aux[i] for i, nid in enumerate(tracer.name)
            if names[nid] == "classify.bulk_classify")),
        "elliptic.quadratic_twist.useful_ratio": (
            calls["kida.check_hypotheses"] / twists if twists else 0.0),
        "cli.self_s": per_pass(sum(v for k, v in self_s.items() if k.startswith("cli."))),
        "trace.overhead": overhead,
    }
    for band in ("lt_1e4", "1e4_5e4", "ge_5e4"):
        out[f"counting.count_points_bsgs.us_per_call.{band}"] = mean_us(bsgs[band])
    for metric, _, _ in LAYER_METRICS:
        if metric in out:
            continue
        span, _, kind = metric.rpartition(".")
        if kind == "calls_per_item":
            out[metric] = per_item(calls[span])
        elif kind == "self_s":
            out[metric] = per_pass(self_s[span])
        else:
            raise KeyError(metric)
    return {metric: out[metric] for metric, _, _ in LAYER_METRICS}
