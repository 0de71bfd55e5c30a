"""Deterministic snapshot/restore/fork of a live :class:`Simulation`.

A snapshot pickles the entire simulator object graph mid-run — engine
clock and event heap (every event action is a typed intent: a
``functools.partial`` over a bound method or a ``__slots__`` callable,
never a closure), NameNode/DataNode block maps and budgets,
JobTracker/TaskTracker slots and in-flight attempts, policy state
(greedy LRU order, ElephantTrap clock hand and counts, Scarlett epoch
accounting), and every RNG stream.  Pickle memoization preserves the
aliasing the simulator relies on (heap entries are the same ``Event``
objects the running attempts hold; tasks back-reference their jobs), so
a restored run continues exactly where the original paused.

Two objects are *excluded* from the payload and re-wired on restore:

* the shared :class:`Tracer` (it holds an open file handle); every
  component's reference is replaced by a persistent-id token and resolved
  to a fresh bus on load, and
* the sampling profiler (wall-clock state, meaningless after restore).

Determinism contract: a restored (or forked) run produces a JSONL trace
byte-identical to the cold run from the same seed.  The snapshot embeds
the flushed trace-prefix bytes of the source run's sink, restore writes
them to the new trace path, and the resumed run appends — so the file is
indistinguishable from one written in a single pass.
"""

from __future__ import annotations

import io
import pickle
from dataclasses import asdict, dataclass
from typing import Dict, Optional

from repro.experiments.runner import Simulation
from repro.experiments.serialize import config_to_dict
from repro.observability.profiling import CallbackProfiler
from repro.observability.trace import NULL_TRACER, JsonlSink, Tracer

#: bump when the pickled payload layout changes shape
SNAPSHOT_FORMAT = 2

_TOKEN_TRACER = "tracer"
_TOKEN_NULL_TRACER = "null-tracer"
_TOKEN_PROFILER = "profiler"


class _SimulationPickler(pickle.Pickler):
    """Pickler that tokens out the shared tracer and the profiler.

    ``static_ids`` (used by the incremental-snapshot layer) additionally
    tokens out objects pickled in an earlier *static* payload: it maps
    ``id(obj)`` to that payload's pickle-memo index, and any object found
    in it is emitted as a bare-``int`` persistent id instead of being
    re-pickled.  The lookups below are ordered hottest-first — this
    method runs once per object in the graph.
    """

    def __init__(
        self,
        buffer: io.BytesIO,
        static_ids: Optional[Dict[int, int]] = None,
    ) -> None:
        super().__init__(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        self._static_ids = static_ids if static_ids is not None else {}

    def persistent_id(self, obj: object):
        token = self._static_ids.get(id(obj))
        if token is not None:
            return token
        if obj is NULL_TRACER:
            return _TOKEN_NULL_TRACER
        if isinstance(obj, Tracer):
            return _TOKEN_TRACER
        if isinstance(obj, CallbackProfiler):
            return _TOKEN_PROFILER
        return None


class _SimulationUnpickler(pickle.Unpickler):
    """Unpickler that resolves tracer tokens to the restore-time bus.

    ``static_map`` resolves the ``int`` persistent ids written by a
    delta-snapshot pickler: it maps static-payload memo indices to the
    already-unpickled static objects (see
    :mod:`repro.checkpoint.incremental`).
    """

    def __init__(
        self,
        buffer: io.BytesIO,
        tracer: Tracer,
        static_map: Optional[Dict[int, object]] = None,
    ) -> None:
        super().__init__(buffer)
        self._tracer = tracer
        self._static_map = static_map if static_map is not None else {}

    def persistent_load(self, pid) -> object:
        if type(pid) is int:
            try:
                return self._static_map[pid]
            except KeyError:
                raise pickle.UnpicklingError(
                    f"unknown static object token {pid!r}"
                ) from None
        if pid == _TOKEN_TRACER:
            return self._tracer
        if pid == _TOKEN_NULL_TRACER:
            return NULL_TRACER
        if pid == _TOKEN_PROFILER:
            return None
        raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")


@dataclass
class Snapshot:
    """A paused simulation, frozen as bytes plus restart metadata."""

    format: int
    #: simulation time the snapshot was taken at
    time: float
    #: engine callbacks fired before the snapshot
    events_processed: int
    #: the cell's full config (serialize.config_to_dict), for inspection
    config: Dict
    #: the source tracer's firehose flag, reproduced on restore
    engine_events: bool
    #: whether the source run had an enabled tracer
    traced: bool
    #: the pickled Simulation object graph
    payload: bytes
    #: flushed JSONL bytes of the source run's trace file, if it had one
    trace_prefix: Optional[bytes]

    # -- restore / fork ------------------------------------------------------

    def restore(
        self, trace_path: str = "", tracer: Optional[Tracer] = None
    ) -> Simulation:
        """Materialize an independent live Simulation from the snapshot.

        Each call unpickles a fresh copy, so calling repeatedly *forks*:
        the copies share nothing and can be run (and patched) separately.

        ``trace_path`` continues the source run's trace there: the
        embedded prefix is written first and the resumed run appends,
        yielding a file byte-identical to a cold run's.  Requires the
        source run to have traced to a file.  Without ``trace_path`` the
        run is restored with an enabled (but sinkless) bus when the
        source was traced, else with the null tracer.  An explicit
        ``tracer`` overrides all of that.
        """
        if tracer is None:
            if trace_path:
                if self.trace_prefix is None:
                    raise ValueError(
                        "snapshot has no trace prefix (the source run did not "
                        "trace to a file); restore without trace_path instead"
                    )
                with open(trace_path, "wb") as fh:
                    fh.write(self.trace_prefix)
                tracer = Tracer(engine_events=self.engine_events)
                tracer.add_sink(JsonlSink(trace_path, append=True))
            elif self.traced:
                tracer = Tracer(engine_events=self.engine_events)
            else:
                tracer = NULL_TRACER
        sim = _SimulationUnpickler(io.BytesIO(self.payload), tracer).load()
        if sim.checker is not None and tracer.enabled:
            # the invariant checker's ring sink and record subscription
            # lived on the old bus; re-attach them to the new one
            sim.checker.attach(tracer)
        return sim

    #: forking is restoring — every call yields an independent copy
    fork = restore

    # -- disk round-trip -----------------------------------------------------

    def save(self, path: str) -> None:
        """Write the snapshot to ``path`` (see :meth:`load`)."""
        with open(path, "wb") as fh:
            pickle.dump(asdict(self), fh, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def load(cls, path: str) -> "Snapshot":
        """Read a snapshot written by :meth:`save`.

        Raises ``ValueError`` on anything that is not a current-format
        checkpoint file, ``OSError`` on an unreadable path.
        """
        with open(path, "rb") as fh:
            try:
                doc = pickle.load(fh)
            except Exception as exc:
                raise ValueError(f"not a checkpoint file: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("format") != SNAPSHOT_FORMAT:
            raise ValueError(
                "unsupported snapshot format "
                f"{doc.get('format') if isinstance(doc, dict) else type(doc).__name__!r}"
            )
        return cls(**doc)


def snapshot(sim: Simulation) -> Snapshot:
    """Freeze a (typically paused) simulation into a :class:`Snapshot`.

    Safe to call between :meth:`Simulation.run` invocations — i.e. never
    from inside an event callback.  The source simulation is left fully
    usable; its trace sink is flushed so the embedded prefix covers every
    record emitted so far.
    """
    tracer = sim.tracer
    prefix: Optional[bytes] = None
    if tracer.enabled:
        for sink in tracer._sinks:
            if isinstance(sink, JsonlSink):
                sink.flush()
                with open(sink.path, "rb") as fh:
                    prefix = fh.read()
                break
    buffer = io.BytesIO()
    _SimulationPickler(buffer).dump(sim)
    return Snapshot(
        format=SNAPSHOT_FORMAT,
        time=sim.engine.now,
        events_processed=sim.engine.events_processed,
        config=config_to_dict(sim.config),
        engine_events=tracer.engine_events,
        traced=tracer.enabled,
        payload=buffer.getvalue(),
        trace_prefix=prefix,
    )
