"""Bundled per-curve analytic inputs that cannot be computed locally.

Each record carries the analytic rank, the p-part of the Tate-Shafarevich
order, and the base cyclotomic mu/lambda for one (curve, p) pair, together
with a source note.  A record is keyed by its curve's minimal model, so any
integral model of a curve matches.  External values are data, never
computed, and whoever consumes them should echo the source note.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

from .elliptic import WeierstrassModel, format_model, minimal_model, parse_model
from .ntheory import _is_p_power, is_prime

if TYPE_CHECKING:
    from importlib.abc import Traversable

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

_KEYS: dict[str, str] = {}  # curve text -> its minimal model's text, which is its own key


def _curve_key(curve: str) -> str:
    """The minimal model of a record's curve, formatted: what a lookup matches.
    Raises ValueError if the curve is malformed, singular or cannot be minimized."""
    if curve not in _KEYS:
        _KEYS[curve] = format_model(minimal_model(parse_model(curve))[0])
    return _KEYS[curve]


def _validate_record(rec: dict) -> None:
    if not isinstance(rec, dict):
        raise ValueError(f"reference record must be a JSON object, got {repr(rec)[:40]}")
    for key in RECORD_FIELDS:
        if key not in rec:
            raise ValueError(f"reference record missing {key!r}: {rec}")
    if not isinstance(rec["curve"], str):
        raise ValueError(f"field 'curve' must be a string, got {repr(rec['curve'])[:40]}")
    _curve_key(rec["curve"])  # well-formed, nonsingular and minimizable; kept for lookups
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


def ingest_reference(path: str | Path | Traversable) -> tuple[dict, ...]:
    """Load and validate a reference dataset, a JSON array of records with at
    most one record per curve and p."""
    source = Path(path) if isinstance(path, str) else path
    records = json.loads(source.read_text(encoding="utf-8"))
    if not isinstance(records, list):
        raise ValueError("reference dataset must be a JSON array of records")
    seen = set()
    for rec in records:
        _validate_record(rec)
        if (pair := (_curve_key(rec["curve"]), rec["p"])) in seen:
            raise ValueError(f"two reference records for curve {pair[0]} at p = {pair[1]}")
        seen.add(pair)
    return tuple(records)


@lru_cache(maxsize=1)
def load_reference() -> tuple[dict, ...]:
    """The bundled dataset, ingested once per process."""
    return ingest_reference(resources.files("iwakit").joinpath("data/reference_curves.json"))


def reference_record(
    model: WeierstrassModel, p: int, *, dataset: tuple[dict, ...] | None = None
) -> dict | None:
    """The record for this curve and p, or None: the bundled records when
    dataset is None, no record when it is ()."""
    key = format_model(minimal_model(model)[0])
    _KEYS[key] = key  # so a record written as this minimal model is not minimized again
    for rec in load_reference() if dataset is None else dataset:
        if rec["p"] == p and _curve_key(rec["curve"]) == key:
            return rec
    return None
