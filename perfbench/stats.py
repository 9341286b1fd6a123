"""Reporting rules of the benchmark: medians, the tail rule and the shape
of the result line. Kept free of I/O so test_stats.py can pin them."""

import math
import statistics

MIN_BEYOND = 10
"""A tail percentile needs at least this many samples beyond it."""


def nearest_rank(sorted_values, p):
    """The p-th percentile (0 < p <= 100) by the nearest-rank rule."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def median(values):
    return statistics.median(values)


def tail(values, min_beyond=MIN_BEYOND):
    """The highest percentile with at least `min_beyond` samples beyond it.

    Returns (value, percentile, samples). The sample at rank n - min_beyond
    has min_beyond samples above it; its percentile is 100 * rank / n,
    rounded down to a tenth so that the nearest-rank rule maps it back to
    the same sample. A run with too few samples for that rank to lie above
    the middle reports the median instead, labelled p50, so the tail never
    rests on fewer than `min_beyond` samples and never reads below the
    median.
    """
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = n - min_beyond
    if rank <= n / 2:
        return median(ordered), 50.0, n
    return ordered[rank - 1], math.floor(1000.0 * rank / n) / 10.0, n


RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def result_line(correct, attempted, failed, metrics):
    """The last stdout line: exactly RESULT_KEYS, every metric a
    {"value", "unit"} pair."""
    if attempted < 1:
        raise ValueError("attempted must be at least 1")
    out = {}
    for name, (value, unit) in metrics.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"metric {name} is not a number")
        out[name] = {"value": value, "unit": unit}
    return {"correct": bool(correct), "attempted": int(attempted),
            "failed": int(failed), "metrics": out}


def check_result_line(obj, names):
    """Raise ValueError unless obj is a result line carrying exactly the
    metric names given."""
    if not isinstance(obj, dict) or tuple(sorted(obj)) != tuple(sorted(RESULT_KEYS)):
        raise ValueError("result keys must be exactly " + ", ".join(RESULT_KEYS))
    if not isinstance(obj["correct"], bool):
        raise ValueError("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(obj[key], int) or isinstance(obj[key], bool):
            raise ValueError(key + " must be a whole number")
    if obj["attempted"] < 1:
        raise ValueError("attempted must be at least 1")
    if set(obj["metrics"]) != set(names):
        missing = set(names) - set(obj["metrics"])
        extra = set(obj["metrics"]) - set(names)
        raise ValueError(f"metrics mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
    for name, m in obj["metrics"].items():
        if set(m) != {"value", "unit"}:
            raise ValueError(f"metric {name} must have exactly value and unit")
        if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            raise ValueError(f"metric {name} value is not a number")
