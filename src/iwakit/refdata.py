"""Bundled per-curve analytic inputs that cannot be computed locally.

Each record carries the analytic rank, the p-part of the Tate-Shafarevich
order, and the base cyclotomic mu/lambda for one (curve, p) pair, together
with a source note; values are looked up by the minimal model so any
integral model of the same curve matches.  External values are data, never
computed, and whoever consumes them should echo the source note.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .elliptic import WeierstrassModel, format_model, minimal_model, parse_model
from .ntheory import _is_p_power, is_prime

__all__ = ["ingest_reference", "load_reference", "reference_record"]

RECORD_FIELDS = (
    "curve",
    "p",
    "analytic_rank",
    "sha_p_order",
    "lambda_base",
    "mu_base",
    "source_note",
)


def _validate_record(rec: dict) -> None:
    if not isinstance(rec, dict):
        raise ValueError(f"reference record must be a JSON object, got {repr(rec)[:40]}")
    for key in RECORD_FIELDS:
        if key not in rec:
            raise ValueError(f"reference record missing {key!r}: {rec}")
    if not isinstance(rec["curve"], str):
        raise ValueError(f"field 'curve' must be a string, got {repr(rec['curve'])[:40]}")
    parse_model(rec["curve"])  # must be well-formed and nonsingular
    # JSON true and false load as bool, a subclass of int: type() keeps them out
    p = rec["p"]
    if type(p) is not int or not is_prime(p) or p == 2:
        raise ValueError(f"field 'p' must be an odd prime, got {p!r}")
    for key in ("analytic_rank", "lambda_base", "mu_base"):
        value = rec[key]
        if type(value) is not int or value < 0:
            raise ValueError(f"field {key!r} must be a nonnegative integer, got {value!r}")
    sha = rec["sha_p_order"]
    if sha != "unknown":
        if type(sha) is not int or sha < 1:
            raise ValueError(f"field 'sha_p_order' must be 'unknown' or a positive integer")
        if not _is_p_power(sha, p):
            raise ValueError(f"field 'sha_p_order' must be a power of {p}, got {sha}")
    if not isinstance(rec["source_note"], str) or not rec["source_note"]:
        raise ValueError("field 'source_note' must be a nonempty string")


def ingest_reference(path: str | Path) -> tuple[dict, ...]:
    """Load and validate an external reference dataset."""
    records = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(records, list):
        raise ValueError("reference dataset must be a JSON array of records")
    for rec in records:
        _validate_record(rec)
    return tuple(records)


@lru_cache(maxsize=1)
def load_reference() -> tuple[dict, ...]:
    path = resources.files("iwakit").joinpath("data/reference_curves.json")
    records = json.loads(path.read_text(encoding="utf-8"))
    for rec in records:
        _validate_record(rec)
    return tuple(records)


def reference_record(
    model: WeierstrassModel, p: int, *, dataset: tuple[dict, ...] | None = None
) -> dict | None:
    """The record for this curve and p, or None; bundled data by default."""
    minimal, _ = minimal_model(model)
    key = format_model(minimal)
    for rec in dataset if dataset is not None else load_reference():
        if rec["curve"] == key and rec["p"] == p:
            return rec
    return None
