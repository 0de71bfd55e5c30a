"""Order statistics and the parent-versus-change verdict.

Timings are reported as a median plus the highest percentile that has at
least ten samples beyond it.  A comparison of two sets of runs follows
the rule of the benchmark's design notes: a change is *better* only when
it wins at least nine tenths of the alternating pairs and the medians
differ by more than the parent's own quartile spread; it is *worse* when
its median is worse than the parent's by more than the metric's bound;
a metric whose run-to-run spread exceeds its bound is *unresolved*
unless every change run beats every parent run.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence, Tuple

#: samples that must lie beyond a reported upper percentile
TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the ``q``-th percentile."""
    return n - 1 - math.floor((n - 1) * q / 100.0)


def tail_percentile(n: int, wanted: float = 90.0) -> Optional[float]:
    """The highest percentile <= ``wanted`` with :data:`TAIL_SAMPLES` beyond.

    Percentiles are tried in whole steps down from ``wanted``; None when
    even the median lacks ten samples beyond it.
    """
    q = wanted
    while q >= 50.0:
        if beyond(n, q) >= TAIL_SAMPLES:
            return q
        q -= 1.0
    return None


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile (``statistics`` method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> Dict:
    """Compare paired runs of one metric (``parent[i]`` pairs ``change[i]``)."""
    if len(parent) != len(change) or not parent:
        raise ValueError("verdict needs equally many parent and change runs")
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    gain = sign * (cmed - pmed)
    all_better = (max(change) < min(parent)) if better == "lower" \
        else (min(change) > max(parent))
    parent_spread = (p3 - p1) / pmed if pmed else float("inf")
    if wins >= 0.9 * len(parent) and gain > p3 - p1:
        word = "better"
    elif parent_spread > bound and not all_better:
        word = "unresolved"
    elif -gain > bound * abs(pmed):
        word = "worse"
    else:
        word = "unchanged"
    return {
        "parent": {"q1": p1, "median": pmed, "q3": p3},
        "change": {"q1": c1, "median": cmed, "q3": c3},
        "pairs": len(parent),
        "win_share": wins / len(parent),
        "loss_share": losses / len(parent),
        "parent_spread": parent_spread,
        "verdict": word,
    }
