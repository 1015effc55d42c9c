"""Scaling of measured times to a reference speed of the box.

A shared VM drifts between speed states up to ~2x apart, over seconds to
minutes, and the drift slows pure Python in CPU time as much as in wall
time. A run of 20 s cannot average it out, so every timed interval is also
scaled: a fixed pure-Python loop (the calibration point) is timed next to
it, and the interval is multiplied by REFERENCE / (the calibration time
around it). Program changes do not touch the loop, so scaled times still
compare one commit with another; raw times are kept in each result record.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# seconds one calibration point takes on the box the bounds were set on
# (a 2-core VM, Python 3.11); it only fixes the unit of scaled times
REFERENCE = 0.003
EVERY = 0.25  # seconds of call time between calibration points in a loop


def _loop() -> float:
    start = perf_counter()
    x = 0
    for i in range(30_000):
        x = (x * 31 + i) % 1_000_003
    return perf_counter() - start


def calibrate() -> float:
    """One calibration point: the median time of three runs of the loop."""
    return statistics.median(_loop() for _ in range(3))


def scale(seconds: float, before: float, after: float) -> float:
    """`seconds` at the reference speed, given calibration points around it."""
    return seconds * 2 * REFERENCE / (before + after)


def timed(fn):
    """Run fn() between two calibration points; (result, raw s, scaled s)."""
    before = calibrate()
    start = perf_counter()
    result = fn()
    seconds = perf_counter() - start
    return result, seconds, scale(seconds, before, calibrate())
