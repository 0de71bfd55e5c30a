"""In-memory span recorder and the wrappers that feed it.

A span is one call into a layer: its name (``layer.entry``), start, end,
the span that was open when it started (its parent) and the run id.
Spans are kept in flat typed arrays so a traced pass of a few million
calls stays within tens of megabytes, and are written out once, at the
end of the benchmark.

A layer's *self time* is the time its spans were open minus the part of
that time their child spans cover; summed over all layers plus the
benchmark's own ``bench`` spans it equals the traced wall time.

:class:`Patcher` installs the wrappers.  It replaces a name where the
caller looks it up (a module global such as
``repro.experiments.runner.Cluster``, or a method on the class that
defines it) and puts every original back on :meth:`Patcher.restore`.
"""

from __future__ import annotations

import functools
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

_clock = time.perf_counter


class SpanRecorder:
    """Append-only span store with a stack of open spans."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_idx = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: List[int] = []
        #: event counts made at the span boundaries (hits, bytes, ...)
        self.counters: Dict[str, float] = {}

    def name_id(self, name: str) -> int:
        """Intern ``name``; spans store the integer."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        """Start a span named by ``nid`` under the innermost open span."""
        stack = self._stack
        idx = len(self.start)
        self.name_idx.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(_clock())
        return idx

    def close(self, idx: int) -> None:
        """End span ``idx`` (and any child left open by an exception)."""
        now = _clock()
        stack = self._stack
        while stack:
            top = stack.pop()
            self.end[top] = now
            if top == idx:
                break

    def span(self, name: str) -> "_Span":
        """Context manager recording one span named ``name``."""
        return _Span(self, self.name_id(name))

    def count(self, key: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``key``."""
        self.counters[key] = self.counters.get(key, 0.0) + value

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> Dict[str, np.ndarray]:
        """The spans as numpy columns (a copy)."""
        return {
            "name_idx": np.frombuffer(self.name_idx, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
        }

    def save(self, path: str) -> None:
        """Write every span (and the name table) to an ``.npz`` file."""
        np.savez(
            path,
            names=np.asarray(self.names, dtype=object).astype(str),
            run_id=np.asarray(self.run_id),
            **self.arrays(),
        )


class _Span:
    __slots__ = ("recorder", "nid", "idx")

    def __init__(self, recorder: SpanRecorder, nid: int) -> None:
        self.recorder = recorder
        self.nid = nid
        self.idx = -1

    def __enter__(self) -> "_Span":
        self.idx = self.recorder.open(self.nid)
        return self

    def __exit__(self, *exc) -> None:
        self.recorder.close(self.idx)


class SpanStats:
    """Per-name totals of a set of spans: calls, inclusive and self time."""

    def __init__(self, calls: Dict[str, int], total_s: Dict[str, float],
                 self_s: Dict[str, float], top_level_s: float) -> None:
        self.calls = calls
        self.total_s = total_s
        self.self_s = self_s
        #: summed duration of the spans without a parent
        self.top_level_s = top_level_s

    def layer_self_s(self) -> Dict[str, float]:
        """Self time summed by layer (the span-name prefix before ``.``)."""
        out: Dict[str, float] = {}
        for name, value in self.self_s.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + value
        return out


def span_stats(names: List[str], name_idx: np.ndarray, start: np.ndarray,
               end: np.ndarray, parent: np.ndarray) -> SpanStats:
    """Aggregate spans into per-name call counts, total and self time.

    Self time of a span is its duration minus the summed duration of its
    direct children; children never overlap in a single-threaded caller,
    so this is the part of the interval no child covers.
    """
    n = len(start)
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    own = dur - child[:n]
    width = len(names)
    calls = np.bincount(name_idx, minlength=width)
    total = np.bincount(name_idx, weights=dur, minlength=width)
    self_t = np.bincount(name_idx, weights=own, minlength=width)
    used = [i for i in range(width) if calls[i]]
    return SpanStats(
        calls={names[i]: int(calls[i]) for i in used},
        total_s={names[i]: float(total[i]) for i in used},
        self_s={names[i]: float(self_t[i]) for i in used},
        top_level_s=float(dur[~has_parent].sum()),
    )


def recorder_stats(recorder: SpanRecorder) -> SpanStats:
    """:func:`span_stats` over everything ``recorder`` holds."""
    cols = recorder.arrays()
    return span_stats(recorder.names, cols["name_idx"], cols["start"],
                      cols["end"], cols["parent"])


#: called with (result, args) after a wrapped call returns
ResultHook = Callable[[SpanRecorder, object, tuple], None]


def wrap(recorder: SpanRecorder, name: str, fn: Callable,
         on_result: Optional[ResultHook] = None) -> Callable:
    """``fn`` wrapped in a span named ``name``."""
    nid = recorder.name_id(name)
    open_, close = recorder.open, recorder.close

    if on_result is None:
        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)
    else:
        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            on_result(recorder, result, args)
            return result

    wrapper.__perfbench_wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


def is_wrapper(obj: object) -> bool:
    """True for a function installed by :func:`wrap`."""
    return hasattr(obj, "__perfbench_wrapped__")


class Patcher:
    """Installs span wrappers on named attributes and restores them.

    A target is ``(owner, attribute, span_name, on_result)`` where the
    owner is a module (patch the name its callers look up) or a class
    (patch the method it defines).
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[object, str, object]] = []

    def patch(self, owner: object, attr: str, span_name: str,
              on_result: Optional[ResultHook] = None) -> None:
        """Wrap ``owner.attr`` in a span named ``span_name``."""
        original = owner.__dict__[attr]
        if is_wrapper(original):
            raise RuntimeError(f"{owner!r}.{attr} is already wrapped")
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrap(self.recorder, span_name, original, on_result))

    def restore(self) -> None:
        """Put every original back, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
