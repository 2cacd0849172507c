"""Order statistics and the parent-vs-change verdict of the ladder."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``p``
    per cent of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median, quartiles (``statistics.quantiles(n=4)``, as the driver
    takes them), sample count and the raw values of one metric."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "values": values,
    }


def spread(summary: Dict[str, object]) -> float:
    """Distance between the quartiles as a share of the median."""
    iqr = summary["q3"] - summary["q1"]
    if iqr == 0:
        return 0.0
    return abs(iqr / summary["median"]) if summary["median"] else math.inf


def verdict(
    parent: Dict[str, object],
    change: Dict[str, object],
    bound: float,
    better: str = "lower",
    floor: float = 0.0,
) -> str:
    """``better`` / ``worse`` / ``unchanged`` / ``unresolved``.

    ``worse`` when the change's median is worse than the parent's by
    more than ``max(bound * |parent median|, floor)``.  Otherwise, where
    either side's quartile spread exceeds the bound the medians cannot
    tell the two apart: ``unresolved``, unless every run of the change
    reads better than every run of the parent.
    """
    sign = 1.0 if better == "lower" else -1.0
    # positive = the change is worse
    delta = sign * (change["median"] - parent["median"])
    threshold = max(bound * abs(parent["median"]), floor)
    if delta > threshold:
        return "worse"
    if max(spread(parent), spread(change)) > bound:
        a: List[float] = [sign * v for v in parent["values"]]
        b: List[float] = [sign * v for v in change["values"]]
        return "better" if max(b) < min(a) else "unresolved"
    if delta < -threshold:
        return "better"
    return "unchanged"
