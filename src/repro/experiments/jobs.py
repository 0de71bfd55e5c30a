"""The job manager: the one scheduler every grid runs through.

The HTTP server (:mod:`repro.server`), ``repro sweep --serve`` and
``run_cells(jobs > 1)`` all submit grids here.  The manager turns each
into a :class:`Job` — a list of content-addressed
:class:`~repro.experiments.sweep.SweepCell` s, the tasks of the job —
and enqueues the cells onto a single shared
:class:`~repro.experiments.service.WorkQueue`, whose attempts, backoff,
quarantine and straggler stealing are the one retry policy:

* **Cells deduplicate across jobs.**  Two clients submitting overlapping
  grids share the overlapping cells' single execution (the queue is
  keyed by :func:`~repro.experiments.sweep.cache_key`), and every
  completion fans out to every job that contains the cell (and its
  trace to every same-key cell that asked for a trace file).
* **Cache pre-resolution.**  Submission resolves every cell it can from
  the :class:`~repro.experiments.sweep.ResultCache` before any executor
  touches it — a warm grid completes at submit time with zero
  ``run_experiment`` calls.
* **Idempotent submissions.**  A job's identity is a digest of its
  cells' cache keys (or an explicit client ``idempotency_key``);
  re-submitting an in-flight or finished grid returns the existing job
  instead of queueing a duplicate.
* **One lease protocol, two kinds of executor.**  :meth:`JobManager.lease`,
  :meth:`~JobManager.renew`, :meth:`~JobManager.complete` and
  :meth:`~JobManager.fail` are the only way a cell moves through the
  queue.  The manager's own executor threads call them in-process and
  run each cell in a child process (``isolation='process'``, bounded by
  ``cell_timeout_s``) or in-thread (``isolation='thread'``, used by
  tests and by trace-streaming jobs, whose tracer records fan out to
  the job's :class:`~repro.observability.stream.RecordStream`).  Remote workers
  (:func:`~repro.experiments.service.run_worker`) call the same methods
  through the server's ``POST /api/queue/*`` routes, so validating a
  result, storing it in the cache, publishing its ``cell`` event and
  settling jobs happen in one place for both.
* **Bounded backlog.**  At most ``max_queued_jobs`` jobs may be active;
  beyond that submissions are rejected with a 503-shaped
  :class:`JobRejected` so the API edge can push back instead of queueing
  unboundedly.

Every job carries a bounded :class:`RecordStream` of progress ticks,
per-cell outcomes, and (for streaming jobs) trace-bus records — the
substrate the server's SSE endpoint and ``run_cells``' progress read.
Restart journaling lives in :mod:`repro.server.jobstore`; the manager
only exposes :meth:`adopt` for replaying journaled submissions into a
fresh queue, where the result cache makes re-enqueued warm cells
resolve instantly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import shutil
import threading
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.experiments.runner import ExperimentResult
from repro.experiments.serialize import canonical_json, result_from_dict, result_to_dict
from repro.experiments.service import (
    DONE,
    PENDING,
    QUARANTINED,
    WorkQueue,
    cell_from_doc,
    cell_to_doc,
)
from repro.experiments.sweep import (
    CellOutcome,
    ResultCache,
    SweepCell,
    WorkloadSpec,
    build_grid,
    cache_key,
    last_line,
    outcomes_to_doc,
    run_in_process,
    run_isolated,
)
from repro.observability.stream import RecordStream
from repro.observability.trace import Tracer

#: job lifecycle states
RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"

#: fields a submission document may carry
_SPEC_FIELDS = frozenset(
    {"grid", "n_jobs", "seed", "cells", "check_invariants", "stream",
     "idempotency_key"}
)


class JobRejected(Exception):
    """A submission the API edge must refuse, with its HTTP status."""

    def __init__(self, status: int, message: str, retry_after_s: float = 0.0) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after_s = retry_after_s


def parse_job_spec(doc: object) -> Tuple[List[SweepCell], Dict]:
    """Validate one submission document into (cells, normalized spec).

    Accepts either a named grid (``{"grid": "smoke", "n_jobs": 8}``) or
    explicit cells (``{"cells": [...]}`` in ``cell_to_doc`` form).
    Raises :class:`JobRejected` (400-shaped) on anything malformed —
    unknown fields are rejected outright so typos fail loudly.
    """
    if not isinstance(doc, dict):
        raise JobRejected(400, "request body must be a JSON object")
    unknown = sorted(set(doc) - _SPEC_FIELDS)
    if unknown:
        raise JobRejected(400, f"unknown field(s): {', '.join(unknown)}")
    spec: Dict = {
        "grid": doc.get("grid", "smoke"),
        "n_jobs": doc.get("n_jobs", 200),
        "seed": doc.get("seed", 20110926),
        "check_invariants": bool(doc.get("check_invariants", False)),
        "stream": bool(doc.get("stream", False)),
    }
    if "cells" in doc:
        if not isinstance(doc["cells"], list) or not doc["cells"]:
            raise JobRejected(400, "'cells' must be a non-empty list")
        spec["grid"] = "custom"
        try:
            cells = [cell_from_doc(d) for d in doc["cells"]]
        except Exception:
            raise JobRejected(
                400,
                "malformed cell document: "
                + traceback.format_exc(limit=0).strip().splitlines()[-1],
            )
    else:
        if not isinstance(spec["grid"], str):
            raise JobRejected(400, "'grid' must be a string")
        if not isinstance(spec["n_jobs"], int) or isinstance(spec["n_jobs"], bool) \
                or not 1 <= spec["n_jobs"] <= 100_000:
            raise JobRejected(400, "'n_jobs' must be an integer in [1, 100000]")
        if not isinstance(spec["seed"], int) or isinstance(spec["seed"], bool):
            raise JobRejected(400, "'seed' must be an integer")
        try:
            cells = build_grid(spec["grid"], n_jobs=spec["n_jobs"], seed=spec["seed"])
        except ValueError as exc:
            raise JobRejected(400, str(exc))
    if spec["check_invariants"]:
        cells = [
            c._replace(config=dataclasses.replace(c.config, check_invariants=True))
            for c in cells
        ]
    return cells, spec


@dataclass
class Job:
    """One client submission: a list of cells tracked through the queue."""

    id: str
    idempotency_key: str
    spec: Dict
    cells: List[SweepCell]
    keys: List[str]
    state: str = RUNNING
    error: str = ""
    created: float = 0.0
    finished: float = 0.0
    #: bounded event ring the SSE layer reads (progress/cell/trace/done)
    stream: RecordStream = field(default_factory=RecordStream, repr=False)

    def __post_init__(self) -> None:
        self.key_set = frozenset(self.keys)

    @property
    def active(self) -> bool:
        """True while the job still has cells in flight."""
        return self.state == RUNNING

    def to_doc(self) -> Dict:
        """The journal-safe submission record (no runtime state)."""
        return {
            "id": self.id,
            "idempotency_key": self.idempotency_key,
            "spec": self.spec,
            "cells": [cell_to_doc(c) for c in self.cells],
            "keys": self.keys,
            "created": self.created,
        }

    @classmethod
    def from_doc(cls, doc: Dict) -> "Job":
        return cls(
            id=doc["id"],
            idempotency_key=doc["idempotency_key"],
            spec=doc["spec"],
            cells=[cell_from_doc(d) for d in doc["cells"]],
            keys=list(doc["keys"]),
            created=doc.get("created", 0.0),
        )


def _publish_trace(streams: List[RecordStream], record) -> None:
    """Tracer subscriber: fan one trace record out to the job streams."""
    doc = {"type": record.type, "t": record.time, "data": dict(record.data)}
    for stream in streams:
        stream.publish("trace", doc)


def job_identity(keys: List[str], spec: Dict) -> str:
    """The default idempotency key: a digest of the cells + options."""
    doc = {"keys": sorted(keys), "stream": bool(spec.get("stream", False))}
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


class JobManager:
    """Executes submitted jobs over one shared WorkQueue + ResultCache."""

    def __init__(
        self,
        cache: Union[ResultCache, str, Path, None] = None,
        workers: int = 2,
        isolation: str = "process",
        max_queued_jobs: int = 16,
        max_cells_per_job: int = 512,
        cell_timeout_s: Optional[float] = None,
        lease_s: float = 3600.0,
        max_attempts: int = 2,
        steal_after_s: Optional[float] = None,
        stream_capacity: int = 4096,
        journal: Optional[object] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if isolation not in ("process", "thread"):
            raise ValueError(f"unknown isolation {isolation!r}")
        if cell_timeout_s is not None and isolation == "thread":
            raise ValueError("cell_timeout_s needs isolation='process' "
                             "(a cell running in a thread cannot be stopped)")
        if isinstance(cache, (str, Path)):
            cache = ResultCache(cache)
        self.cache = cache
        self.isolation = isolation
        self.workers = workers
        self.max_queued_jobs = max_queued_jobs
        self.max_cells_per_job = max_cells_per_job
        self.cell_timeout_s = cell_timeout_s
        self.stream_capacity = stream_capacity
        self.journal = journal  # anything with .append(doc); see server.jobstore
        self._clock = clock
        self._lock = threading.RLock()
        self.queue = WorkQueue(
            lease_s=lease_s,
            max_attempts=max_attempts,
            backoff_s=0.2,
            backoff_cap_s=5.0,
            steal_after_s=steal_after_s,
            clock=clock,
        )
        self.jobs: Dict[str, Job] = {}
        self.order: List[str] = []
        self._by_identity: Dict[str, str] = {}
        self.draining = False
        self.started = clock()
        #: cells this manager actually executed (0 for a fully warm grid)
        self.cells_executed = 0
        self._seq = 0
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._current: Dict[str, Optional[Dict]] = {}

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "JobManager":
        """Spawn the executor threads."""
        for n in range(self.workers):
            name = f"exec-{n}"
            self._current[name] = None
            thread = threading.Thread(
                target=self._executor_loop, args=(name,), name=name, daemon=True
            )
            self._threads.append(thread)
            thread.start()
        return self

    def drain(self) -> None:
        """Refuse new submissions and leases; in-flight cells still land."""
        with self._lock:
            self.draining = True
            self.queue.drain()

    def stop(self, timeout: Optional[float] = 30.0) -> None:
        """Drain, stop the executors, and wait for in-flight cells."""
        self.drain()
        self._stop.set()
        self._wake.set()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []

    # -- submission ------------------------------------------------------------

    def submit(self, doc: object) -> Tuple[Job, bool]:
        """Accept one submission; returns ``(job, created)``.

        ``created=False`` means the idempotency key matched an existing
        job (the caller should answer 200, not 202).  Raises
        :class:`JobRejected` for malformed specs (400), oversized grids
        (413), a draining server or a full backlog (503).
        """
        cells, spec = parse_job_spec(doc)
        if len(cells) > self.max_cells_per_job:
            raise JobRejected(
                413,
                f"grid has {len(cells)} cells; this server accepts at most "
                f"{self.max_cells_per_job} per job",
            )
        keys = [cache_key(c.config, c.workload) for c in cells]
        identity = ""
        if isinstance(doc, dict) and doc.get("idempotency_key"):
            identity = str(doc["idempotency_key"])
        if not identity:
            identity = job_identity(keys, spec)
        with self._lock:
            if self.draining:
                raise JobRejected(503, "server is draining", retry_after_s=30.0)
            existing_id = self._by_identity.get(identity)
            if existing_id is not None:
                existing = self.jobs[existing_id]
                if existing.state != JOB_FAILED:
                    return existing, False
                self._reset_failed(existing)
                return existing, False
            active = sum(1 for j in self.jobs.values() if j.active)
            if active >= self.max_queued_jobs:
                raise JobRejected(
                    503,
                    f"job backlog is full ({active} active jobs)",
                    retry_after_s=5.0,
                )
            self._seq += 1
            job = Job(
                id=f"j{self._seq:04d}-{identity[:12]}",
                idempotency_key=identity,
                spec=spec,
                cells=cells,
                keys=keys,
                created=self._clock(),
                stream=RecordStream(self.stream_capacity),
            )
            self._register(job)
            if self.journal is not None:
                self.journal.append({"event": "submit", "job": job.to_doc()})
            self._enqueue(job)
        self._wake.set()
        return job, True

    def adopt(self, job: Job, state: str) -> None:
        """Re-create a journaled job after a restart (before serving).

        Finished jobs keep their terminal state — their result documents
        rebuild from the cache on demand.  Unfinished jobs re-enqueue;
        cache pre-resolution makes the already-computed prefix instant.
        """
        with self._lock:
            job.stream = RecordStream(self.stream_capacity)
            self._seq = max(self._seq, int(job.id[1:].partition("-")[0]))
            self._register(job)
            if state in (JOB_DONE, JOB_FAILED):
                job.state = state
                job.stream.close()
                return
            self._enqueue(job)
        self._wake.set()

    def _register(self, job: Job) -> None:
        self.jobs[job.id] = job
        self.order.append(job.id)
        self._by_identity[job.idempotency_key] = job.id

    def _enqueue(self, job: Job) -> None:
        """Add the job's cells to the queue and pre-resolve cache hits."""
        job.state = RUNNING
        job.error = ""
        self.queue.add_cells(job.cells)
        if self.cache is not None:
            for key in job.keys:
                entry = self.queue.entries[key]
                if entry.state != PENDING:
                    continue
                if entry.cell["config"].get("trace_path"):
                    continue  # must really run so the trace gets written
                hit = self.cache.load(key)
                if hit is not None:
                    self.queue.mark_cached(key, result_to_dict(hit))
        job.stream.publish("job", {"id": job.id, "state": job.state})
        self._refresh_job(job)

    def _reset_failed(self, job: Job) -> None:
        """Re-arm a failed job's quarantined cells for a retry submission."""
        now = self._clock()
        for key in job.keys:
            entry = self.queue.entries.get(key)
            if entry is not None and entry.state == QUARANTINED:
                entry.state = PENDING
                entry.attempts = 0
                entry.error = ""
                entry.not_before = now
        job.stream = RecordStream(self.stream_capacity)
        self._enqueue(job)
        self._wake.set()

    # -- the lease protocol ------------------------------------------------------

    def lease(self, worker: str) -> Dict:
        """Grant ``worker`` one cell (the ``POST /api/queue/lease`` reply).

        Expired leases are reclaimed first, so a dead remote worker's
        cell returns to the queue (and a job whose last cell that
        quarantined settles) even while nobody else completes anything.
        """
        with self._lock:
            self.expire()
            reply = self.queue.lease(worker)
            if "key" in reply:
                key = reply["key"]
                for job in self.jobs.values():
                    if job.active and key in job.key_set:
                        job.stream.publish("cell", {
                            "phase": "started", "key": key,
                            "tag": reply["cell"]["tag"], "worker": worker,
                        })
        return reply

    def renew(self, key: str, lease_id: str) -> Dict:
        """Extend a live lease; ``ok`` is false once it was lost."""
        with self._lock:
            return {"ok": self.queue.renew(key, lease_id)}

    def complete(
        self,
        key: str,
        lease_id: str,
        result: ExperimentResult,
        worker: str = "",
        cached: bool = False,
        duration_s: float = 0.0,
    ) -> Dict:
        """Record a finished cell: first completion wins.

        A result whose config does not hash to the leased cell's key is
        refused (``ok: false``) and nothing is stored; otherwise it goes
        into the result cache before the queue marks the cell done.
        """
        with self._lock:
            entry = self.queue.entries.get(key)
        if entry is None:
            return {"ok": False, "error": f"unknown cell key {key!r}"}
        got = cache_key(result.config, WorkloadSpec(*entry.cell["workload"]))
        if got != key:
            return {"ok": False,
                    "error": f"result is for cell {got[:12]}, not {key[:12]}"}
        doc = result_to_dict(result)
        if self.cache is not None:
            self.cache.store(key, doc)
        with self._lock:
            reply = self.queue.complete(key, lease_id, doc, worker=worker,
                                        cached=cached)
            if reply.get("accepted"):
                self._copy_trace(key)
                self._cell_finished(key, True, cached, duration_s, "")
        return reply

    def _copy_trace(self, key: str) -> None:
        """Copy the executed cell's trace to every same-key job cell that
        asked for a trace file of its own.  The queue runs a key once, and
        same-key traces are byte-identical (the header drops ``trace_path``).
        """
        source = self.queue.entries[key].cell["config"]["trace_path"]
        if not source:
            return
        targets = {
            cell.config.trace_path
            for job in self.jobs.values() if job.active and key in job.key_set
            for cell, cell_key in zip(job.cells, job.keys) if cell_key == key
        }
        for target in sorted(targets - {"", source}):
            try:
                shutil.copyfile(source, target)
            except OSError:
                pass  # a remote worker wrote the source on its own host

    def fail(
        self,
        key: str,
        lease_id: str,
        error: str,
        requeue: bool = False,
        duration_s: float = 0.0,
    ) -> Dict:
        """Record a failed attempt, or a voluntary release (``requeue``)."""
        with self._lock:
            reply = self.queue.fail(key, lease_id, error, requeue=requeue)
            if reply.get("accepted"):
                self._cell_finished(key, False, False, duration_s, error)
        return reply

    def expire(self) -> int:
        """Reclaim expired leases; settle jobs a quarantine finished."""
        with self._lock:
            expired = self.queue.expire()
            if expired:
                for job in list(self.jobs.values()):
                    if job.active:
                        self._refresh_job(job)
            return expired

    def _cell_finished(
        self, key: str, ok: bool, from_cache: bool, duration_s: float, error: str
    ) -> None:
        entry = self.queue.entries[key]
        for job in list(self.jobs.values()):
            if not job.active or key not in job.key_set:
                continue
            job.stream.publish("cell", {
                "phase": "finished", "key": key, "tag": entry.cell["tag"],
                "ok": ok, "state": entry.state, "from_cache": from_cache,
                "duration_s": round(duration_s, 6), "error": last_line(error),
            })
            self._refresh_job(job)

    # -- execution -------------------------------------------------------------

    def _executor_loop(self, name: str) -> None:
        while not self._stop.is_set():
            reply = self.lease(name)
            if "key" not in reply:
                # idle: wait for a submission (or backoff expiry) to wake us
                retry = min(0.2, float(reply.get("retry_s", 0.2)) or 0.2)
                self._wake.wait(retry)
                self._wake.clear()
                continue
            key = reply["key"]
            cell = cell_from_doc(reply["cell"])
            with self._lock:
                streams = [
                    job.stream
                    for job in self.jobs.values()
                    if job.active and key in job.key_set and job.spec.get("stream")
                ]
                self._current[name] = {"key": key, "tag": cell.tag}
            try:
                outcome = self._execute(cell, key, streams)
            except Exception:  # e.g. no child process could be started
                outcome = CellOutcome(cell, None, error=traceback.format_exc(), key=key)
            finally:
                self._current[name] = None
            if outcome.ok:
                self.complete(key, reply["lease_id"], outcome.result, worker=name,
                              duration_s=outcome.duration_s)
            else:
                self.fail(key, reply["lease_id"], outcome.error,
                          duration_s=outcome.duration_s)

    def _execute(self, cell: SweepCell, key: str, streams: List[RecordStream]):
        """Run one cell; trace-streaming cells run in-process with a tracer."""
        self.cells_executed += 1
        if streams:
            tracer = Tracer(engine_events=False)
            tracer.subscribe(partial(_publish_trace, streams))
            return run_in_process(cell, key, tracer=tracer)
        if self.isolation == "thread":
            return run_in_process(cell, key)
        return run_isolated(cell, key, self.cell_timeout_s)

    # -- job state -------------------------------------------------------------

    def _progress(self, job: Job) -> Dict[str, int]:
        done = cached = quarantined = 0
        for key in job.keys:
            entry = self.queue.entries.get(key)
            if entry is None:
                done += 1  # adopted-finished job; queue was rebuilt
                continue
            if entry.state == DONE:
                done += 1
                if entry.from_cache:
                    cached += 1
            elif entry.state == QUARANTINED:
                quarantined += 1
        return {
            "total": len(job.keys),
            "done": done,
            "cached": cached,
            "failed": quarantined,
        }

    def _refresh_job(self, job: Job) -> None:
        """Publish progress; settle the job if every cell is terminal."""
        progress = self._progress(job)
        job.stream.publish("progress", progress)
        if progress["done"] + progress["failed"] < progress["total"]:
            return
        if progress["failed"]:
            job.state = JOB_FAILED
            lines = []
            for key in job.keys:
                entry = self.queue.entries.get(key)
                if entry is not None and entry.state == QUARANTINED:
                    lines.append(f"{entry.cell['tag'] or key[:12]}: "
                                 f"{last_line(entry.error)}")
            job.error = "; ".join(lines)
        else:
            job.state = JOB_DONE
        job.finished = self._clock()
        if self.journal is not None:
            self.journal.append({
                "event": "state", "id": job.id,
                "state": job.state, "error": job.error,
            })
        job.stream.publish("job", {"id": job.id, "state": job.state,
                                   "error": job.error})
        job.stream.publish("done", {"id": job.id, "state": job.state})
        job.stream.close()

    # -- documents -------------------------------------------------------------

    def job_status_doc(self, job: Job) -> Dict:
        """The ``GET /api/jobs/{id}`` body: state, progress, per-cell view."""
        with self._lock:
            cells = []
            for cell, key in zip(job.cells, job.keys):
                entry = self.queue.entries.get(key)
                if entry is None:
                    state = DONE if job.state == JOB_DONE else "unknown"
                    cells.append({"tag": cell.tag, "x": cell.x, "key": key,
                                  "state": state, "from_cache": True,
                                  "attempts": 0, "error": ""})
                    continue
                cells.append({
                    "tag": cell.tag, "x": cell.x, "key": key,
                    "state": entry.state, "from_cache": entry.from_cache,
                    "attempts": entry.attempts,
                    "error": last_line(entry.error),
                })
            return {
                "id": job.id,
                "state": job.state,
                "error": job.error,
                "created": job.created,
                "spec": dict(job.spec),
                "idempotency_key": job.idempotency_key,
                "progress": self._progress(job),
                "events": job.stream.last_seq,
                "cells": cells,
            }

    def cell_outcome(self, cell: SweepCell, key: str) -> CellOutcome:
        """One job cell's outcome, read back from the result cache if the
        queue no longer holds it (a job restored from the journal as
        finished).  The result carries ``cell``'s own config: a same-key
        cell that ran in its place may differ in ``trace_path``."""
        with self._lock:
            entry = self.queue.entries.get(key)
            if entry is None or (entry.result is None and not entry.error):
                hit = None if self.cache is None else self.cache.load(key)
                outcome = CellOutcome(cell, hit, from_cache=True, key=key)
            else:
                result = None if entry.result is None else result_from_dict(entry.result)
                outcome = CellOutcome(cell, result, error=entry.error,
                                      from_cache=entry.from_cache, key=key)
        if outcome.ok and outcome.result.config != cell.config:
            outcome.result = dataclasses.replace(outcome.result, config=cell.config)
        return outcome

    def job_outcomes(self, job: Job) -> List[CellOutcome]:
        """One :class:`CellOutcome` per job cell, in job order."""
        with self._lock:
            return [self.cell_outcome(c, k) for c, k in zip(job.cells, job.keys)]

    def job_result_doc(self, job: Job) -> Optional[Dict]:
        """The finished job's outcome document (``--out`` shape, no
        provenance) — byte-identical to the serial ``run_cells`` path for
        the same cells.  None while the job is still running."""
        if job.active:
            return None
        return outcomes_to_doc(
            self.job_outcomes(job),
            grid=job.spec.get("grid", ""),
            n_jobs=job.spec.get("n_jobs", 0),
            seed=job.spec.get("seed", 0),
            provenance=False,
        )

    def cluster_doc(self) -> Dict:
        """The ``GET /api/cluster`` body: queue/worker/job/cache state."""
        with self._lock:
            states = {RUNNING: 0, JOB_DONE: 0, JOB_FAILED: 0}
            for job in self.jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            doc = {
                "draining": self.draining,
                "uptime_s": round(max(0.0, self._clock() - self.started), 3),
                "cells_executed": self.cells_executed,
                "queue": self.queue.status_doc(),
                "workers": [
                    {"id": name, "busy": current is not None, "cell": current}
                    for name, current in sorted(self._current.items())
                ],
                "jobs": {
                    "total": len(self.jobs),
                    "running": states[RUNNING],
                    "done": states[JOB_DONE],
                    "failed": states[JOB_FAILED],
                },
            }
            if self.cache is not None:
                doc["cache"] = {
                    "hits": self.cache.hits,
                    "misses": self.cache.misses,
                    "corrupt": self.cache.corrupt,
                }
            return doc

    def jobs_doc(self) -> List[Dict]:
        """The ``GET /api/jobs`` body: one summary row per job."""
        with self._lock:
            return [
                {
                    "id": job.id,
                    "state": job.state,
                    "grid": job.spec.get("grid", ""),
                    "created": job.created,
                    "progress": self._progress(job),
                }
                for job in (self.jobs[jid] for jid in self.order)
            ]

