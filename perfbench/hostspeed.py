"""Host-speed calibration: wall seconds to reference seconds.

The CPU speed of a small shared host drifts by 20-25% over a few
seconds, and up to twofold between its busy and quiet spells: a fixed
pure-Python loop, timed back to back for a minute on a two-CPU host,
took anything from 97 to 165 ms, with CPU time equal to wall time
throughout (the host was slower, not the process descheduled).  That
drift, not the program, set the run-to-run spread of every timing.

So the untraced run brackets every timed phase of the program with a
short *probe* of two fixed kernels of this file's own, whose cost does
not depend on the program: heap, dict and small-object work like the
simulator's event loop, and random lookups in a table of a few
megabytes.  A probe reads the host's *slowness*: the geometric mean of
each kernel's time over its time on the reference host, so 1.0 there.
A phase that took ``raw`` wall seconds between probes reading ``a`` and
``b`` is reported as ``raw / ((a + b) / 2) ** SENSITIVITY[workload]``
*reference seconds*, an estimate of what it would have taken on the
reference host.  A change to the program moves reference seconds by the
same share as wall seconds, while a change of host speed mostly cancels.  Over short spells the
event-loop kernel over-corrects and the lookup kernel under-corrects the
simulator's drift; their geometric mean tracks it best (paper_grid
passes on a 2-vCPU Xeon VM: 14% coefficient of variation in wall
seconds, 2-4% in reference seconds).  The raw wall seconds are printed
next to them.
"""

from __future__ import annotations

import gc
import heapq
import math
import random
import statistics
import time
from typing import Dict, List, Optional

#: each kernel's time on the reference host (a 2-vCPU Xeon VM at its
#: usual speed); a probe reads the host's time relative to these
REF_EVENTS_S = 0.0028
REF_LOOKUPS_S = 0.00045
#: how strongly each workload's time follows the probe's: the slope of
#: log wall time against log probe reading over runs in a busy and a
#: quiet spell of the reference host, between which the probes read about
#: 2.2 times faster.  paper_grid, the scale_20k build and rollout ran
#: about 1.8 times faster (slope 0.8); serve, whose latency is partly
#: process start-up, polling and inter-process hand-offs, about 1.3 times
#: (0.3).  A phase is divided by the probe reading to this power.
SENSITIVITY = {"paper_grid": 0.8, "scale_20k": 0.8, "rollout": 0.8, "serve": 0.3}
#: each probe times each kernel this many times and keeps the fastest,
#: so one interrupt does not read as a slow host
PROBE_REPEATS = 3
#: a probe (about 13 ms) samples a host whose speed also wanders from one
#: tenth of a second to the next, so a long phase is followed by one probe
#: per SAMPLE_EVERY_S of it, up to MAX_SAMPLES, and their median is used
SAMPLE_EVERY_S = 0.2
MAX_SAMPLES = 16

_EVENTS = 2_000
_TABLE_SIZE = 100_000
_LOOKUPS = 4_000
_clock = time.perf_counter
_table: Optional[Dict[int, int]] = None
_keys: List[int] = []


class _Event:
    __slots__ = ("t", "node", "size")

    def __init__(self, t: int, node: int, size: int) -> None:
        self.t = t
        self.node = node
        self.size = size


def _events() -> int:
    heap: list = []
    load: Dict[int, int] = {}
    for i in range(_EVENTS):
        ev = _Event(i * 7919 % 1009, i & 255, i)
        heapq.heappush(heap, (ev.t, i, ev))
        load[ev.node] = load.get(ev.node, 0) + ev.size
        if len(heap) > 128:
            _, _, old = heapq.heappop(heap)
            load[old.node] -= old.size
    return len(load)


def _lookups() -> int:
    table, total = _table, 0
    for key in _keys:
        total += table[key]
    return total


def _fastest(kernel) -> float:
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        t0 = _clock()
        kernel()
        best = min(best, _clock() - t0)
    return best


def samples_after(phase_s: float) -> int:
    """How many probes to take after a phase of ``phase_s`` seconds."""
    return max(1, min(MAX_SAMPLES, round(phase_s / SAMPLE_EVERY_S)))


def probe(samples: int = 1) -> float:
    """The host's slowness now, relative to the reference host: the median
    of ``samples`` probes, gc paused."""
    if samples > 1:
        return statistics.median(probe() for _ in range(samples))
    global _table, _keys
    if _table is None:
        _table = {i: i + 1000 for i in range(_TABLE_SIZE)}
        rng = random.Random(1)
        _keys = [rng.randrange(_TABLE_SIZE) for _ in range(_LOOKUPS)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        events = _fastest(_events) / REF_EVENTS_S
        lookups = _fastest(_lookups) / REF_LOOKUPS_S
    finally:
        if enabled:
            gc.enable()
    return math.sqrt(events * lookups)


def to_reference(raw_s: float, before: float, after: float, sensitivity: float) -> float:
    """``raw_s`` wall seconds timed between two probes, in reference seconds."""
    return raw_s / ((before + after) / 2.0) ** sensitivity


class Calibrator:
    """Probes the host between consecutive timed phases of one workload.

    ``sensitivity`` is how strongly the workload's time follows the
    probe's (see :data:`SENSITIVITY`); :meth:`phase` is called right after
    each phase, with no untimed work in between.
    """

    def __init__(self, sensitivity: float) -> None:
        self.sensitivity = sensitivity
        self.last = probe(MAX_SAMPLES)

    def phase(self, raw_s: float) -> float:
        """Probe after a phase that took ``raw_s``; the phase in reference seconds."""
        now = probe(samples_after(raw_s))
        ref = to_reference(raw_s, self.last, now, self.sensitivity)
        self.last = now
        return ref
