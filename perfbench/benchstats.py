"""Arithmetic the benchmark reports with.

Kept apart from the workloads so that it can be tested on its own: the
percentile rule, the run-to-run spread, span self time and the failure share.
"""

from __future__ import annotations

import statistics

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """The q-th percentile (0 < q < 100), interpolating linearly between ranks.

    Refuses with ValueError when fewer than MIN_BEYOND samples are expected
    beyond it, so p90 needs at least 100 samples and p50 at least 20.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"q must lie strictly between 0 and 100, got {q}")
    xs = sorted(float(v) for v in values)
    n = len(xs)
    if n * (100.0 - q) / 100.0 < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} needs {MIN_BEYOND} samples beyond it; {n} samples give "
            f"{n * (100.0 - q) / 100.0:g}"
        )
    pos = (n - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile (``statistics.quantiles``, n=4)."""
    xs = [float(v) for v in values]
    if len(xs) < 2:
        raise ValueError("quartiles need at least two samples")
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, mid, q3 = quartiles(values)
    if mid == 0:
        raise ValueError("spread of samples whose median is 0")
    return (q3 - q1) / abs(mid)


def covered(intervals, start: float, end: float) -> float:
    """Length of [start, end] that the union of the given intervals covers."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start: float, end: float, child_intervals) -> float:
    """A span's duration minus the part of it that its child spans cover."""
    if end < start:
        raise ValueError("span ends before it starts")
    return (end - start) - covered(child_intervals, start, end)


def failure_share(failed: int, attempted: int) -> float:
    """Failed operations divided by attempted ones."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed must lie in 0..{attempted}, got {failed}")
    return failed / attempted
