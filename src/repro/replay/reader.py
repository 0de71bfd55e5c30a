"""Stream, validate, and index JSONL trace files.

The on-disk format is one JSON object per line: ``{"type": ..., "t": ...,
...fields}`` (see ``docs/OBSERVABILITY.md``).  :func:`read_trace` inverts
:meth:`repro.observability.trace.TraceRecord.to_json` exactly — including
the ``data.``-namespacing of payload keys that collide with the envelope —
and enforces the format guarantees replay relies on:

* every ``type`` is a known :data:`~repro.observability.trace.RECORD_TYPES`
  member and carries that type's required fields (and no unknown ones);
* timestamps are finite numbers and nondecreasing (records are emitted
  from inside the event loop in fire order);
* a ``run.config`` record, when present, is the first record; a
  ``run.summary``, when present, is the last.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro.observability.trace import (
    BLOCK_EVICTED,
    BLOCK_REPLICATED,
    BUDGET_CHARGE,
    BUDGET_REFUND,
    DATA_KEY_PREFIX,
    ENGINE_EVENT,
    FAILURE_DETECTED,
    FAILURE_INJECTED,
    HDFS_HEARTBEAT,
    HEARTBEAT,
    RECORD_TYPES,
    REPLICATION_ABANDONED,
    ROLLOUT_DECISION,
    RUN_CONFIG,
    RUN_SUMMARY,
    SCARLETT_EPOCH,
    TASK_FINISHED,
    TASK_SCHEDULED,
    TraceRecord,
)


class TraceFormatError(ValueError):
    """A trace line violates the published record schema."""

    def __init__(self, message: str, line_no: Optional[int] = None) -> None:
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


#: required data fields per record type
REQUIRED_FIELDS: Dict[str, FrozenSet[str]] = {
    BLOCK_REPLICATED: frozenset({"node", "block", "file", "bytes"}),
    BLOCK_EVICTED: frozenset({"node", "block", "file", "bytes"}),
    BUDGET_CHARGE: frozenset({"node", "block", "bytes", "used", "capacity"}),
    BUDGET_REFUND: frozenset({"node", "block", "bytes", "used", "capacity"}),
    REPLICATION_ABANDONED: frozenset({"node", "block", "file"}),
    TASK_SCHEDULED: frozenset({"node", "job", "task", "kind"}),
    TASK_FINISHED: frozenset({"node", "job", "task", "kind"}),
    HEARTBEAT: frozenset({"node", "free_map_slots", "free_reduce_slots"}),
    HDFS_HEARTBEAT: frozenset({"node", "commands"}),
    FAILURE_INJECTED: frozenset({"node", "requeued"}),
    FAILURE_DETECTED: frozenset({"node", "blocks_lost", "data_loss"}),
    ENGINE_EVENT: frozenset({"label", "seq"}),
    SCARLETT_EPOCH: frozenset(
        {"epoch", "files_hot", "extra_replicas", "budget_bytes", "spent_bytes"}
    ),
    ROLLOUT_DECISION: frozenset(
        {"epoch", "candidates", "applied", "score", "baseline"}
    ),
    RUN_CONFIG: frozenset({"workload", "scheduler", "policy", "seed"}),
    RUN_SUMMARY: frozenset(
        {
            "n_jobs",
            "blocks_created",
            "blocks_evicted",
            "locality_node",
            "locality_rack",
            "locality_remote",
            "job_locality",
            "nodes",
        }
    ),
}

#: additional fields a record type may carry
OPTIONAL_FIELDS: Dict[str, FrozenSet[str]] = {
    TASK_SCHEDULED: frozenset({"locality", "data_local", "block", "speculative"}),
    # block/node are null on a no-op decision, so they skip the int check;
    # only cells with learned candidate pruning carry "pruned"
    ROLLOUT_DECISION: frozenset({"block", "node", "pruned"}),
    TASK_FINISHED: frozenset({"locality", "speculative"}),
    SCARLETT_EPOCH: frozenset(
        {"replicas_created", "replicas_removed", "queued", "slack_bytes"}
    ),
    RUN_CONFIG: frozenset(
        {
            "jobs",
            "cluster",
            "budget",
            "replication",
            "engine_events",
            "scarlett",
            "cdrm",
            "failures",
            "speculative",
            # lossless ExperimentConfig payload (serialize.config_to_dict),
            # the input to `replay whatif` state reconstruction
            "config",
        }
    ),
    RUN_SUMMARY: frozenset(
        {
            "replication_disk_writes",
            "tasks_requeued",
            "speculative_launched",
            "scarlett_replicas_created",
            "job_locality_counts",
            "makespan_s",
        }
    ),
}

#: fields a map-kind task record must additionally carry
_MAP_SCHEDULED_FIELDS = frozenset({"locality", "data_local", "block"})


def parse_line(line: str, line_no: Optional[int] = None) -> TraceRecord:
    """Parse one JSONL line back into a :class:`TraceRecord`.

    Inverts ``TraceRecord.to_json``: envelope keys come off the top, and a
    single leading ``data.`` prefix is stripped from namespaced payload
    keys.
    """
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"not valid JSON: {exc}", line_no) from None
    if not isinstance(obj, dict):
        raise TraceFormatError("record is not a JSON object", line_no)
    try:
        rtype = obj.pop("type")
        time = obj.pop("t")
    except KeyError as exc:
        raise TraceFormatError(f"missing envelope key {exc}", line_no) from None
    data = {}
    for key, value in obj.items():
        if key.startswith(DATA_KEY_PREFIX):
            key = key[len(DATA_KEY_PREFIX):]
        data[key] = value
    return TraceRecord(rtype, time, data)


def validate_record(record: TraceRecord, line_no: Optional[int] = None) -> None:
    """Check one record against the per-type field schema."""
    if record.type not in RECORD_TYPES:
        raise TraceFormatError(f"unknown record type {record.type!r}", line_no)
    if not isinstance(record.time, (int, float)) or isinstance(record.time, bool) \
            or not math.isfinite(record.time) or record.time < 0:
        raise TraceFormatError(
            f"{record.type}: bad timestamp {record.time!r}", line_no
        )
    required = REQUIRED_FIELDS[record.type]
    optional = OPTIONAL_FIELDS.get(record.type, frozenset())
    keys = set(record.data)
    missing = required - keys
    if missing:
        raise TraceFormatError(
            f"{record.type}: missing fields {sorted(missing)}", line_no
        )
    unknown = keys - required - optional
    if unknown:
        raise TraceFormatError(
            f"{record.type}: unknown fields {sorted(unknown)}", line_no
        )
    if record.type == TASK_SCHEDULED and record.data.get("kind") == "map":
        map_missing = _MAP_SCHEDULED_FIELDS - keys
        if map_missing:
            raise TraceFormatError(
                f"{record.type}: map task missing fields {sorted(map_missing)}",
                line_no,
            )
    node = record.data.get("node")
    if "node" in required and (isinstance(node, bool) or not isinstance(node, int)):
        raise TraceFormatError(f"{record.type}: node {node!r} is not an int", line_no)


def read_trace(path: str, validate: bool = True) -> Iterator[TraceRecord]:
    """Stream records from a JSONL trace file, validating as they go."""
    last_t = -math.inf
    seen_summary_at: Optional[int] = None
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            record = parse_line(line, line_no)
            if validate:
                validate_record(record, line_no)
                if record.time < last_t:
                    raise TraceFormatError(
                        f"{record.type}: time {record.time} goes backwards "
                        f"(previous record at t={last_t})",
                        line_no,
                    )
                if record.type == RUN_CONFIG and line_no != 1:
                    raise TraceFormatError(
                        "run.config must be the first record", line_no
                    )
                if seen_summary_at is not None:
                    raise TraceFormatError(
                        f"record after the run.summary footer "
                        f"(summary at line {seen_summary_at})",
                        line_no,
                    )
                if record.type == RUN_SUMMARY:
                    seen_summary_at = line_no
                last_t = record.time
            yield record


class TraceIndex:
    """An in-memory trace with by-time / by-type / by-node lookup."""

    def __init__(self, records: Iterable[TraceRecord], path: str = "") -> None:
        self.path = path
        self.records: List[TraceRecord] = list(records)
        self._times: List[float] = [r.time for r in self.records]
        self.by_type: Dict[str, List[int]] = {}
        self.by_node: Dict[int, List[int]] = {}
        for i, rec in enumerate(self.records):
            self.by_type.setdefault(rec.type, []).append(i)
            node = rec.data.get("node")
            if isinstance(node, int) and not isinstance(node, bool):
                self.by_node.setdefault(node, []).append(i)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    # -- lookups -----------------------------------------------------------

    def of_type(self, rtype: str) -> List[TraceRecord]:
        """All records of one type, in trace order."""
        return [self.records[i] for i in self.by_type.get(rtype, [])]

    def on_node(self, node_id: int) -> List[TraceRecord]:
        """All records naming ``node_id``, in trace order."""
        return [self.records[i] for i in self.by_node.get(node_id, [])]

    def count(self, rtype: str) -> int:
        """Number of records of one type."""
        return len(self.by_type.get(rtype, []))

    def until(self, t: float) -> List[TraceRecord]:
        """The prefix of records with ``time <= t``."""
        return self.records[: bisect_right(self._times, t)]

    @property
    def config(self) -> Optional[TraceRecord]:
        """The ``run.config`` header, if the trace has one."""
        idxs = self.by_type.get(RUN_CONFIG)
        return self.records[idxs[0]] if idxs else None

    @property
    def summary(self) -> Optional[TraceRecord]:
        """The ``run.summary`` footer, if the run completed."""
        idxs = self.by_type.get(RUN_SUMMARY)
        return self.records[idxs[-1]] if idxs else None

    @property
    def span(self) -> Tuple[float, float]:
        """(first, last) record times; ``(0.0, 0.0)`` for an empty trace."""
        if not self.records:
            return (0.0, 0.0)
        return (self._times[0], self._times[-1])

    def snapshot(self, t: float) -> "ShadowState":
        """Reconstruct the shadow control-plane state as of time ``t``."""
        from repro.replay.shadow import reconstruct

        return reconstruct(self.until(t))


def load_trace(path: str, validate: bool = True) -> TraceIndex:
    """Read and index a whole trace file."""
    return TraceIndex(read_trace(path, validate=validate), path=path)
