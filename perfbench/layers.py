"""Where the traced run cuts the program into layers, and what it reports.

:func:`install` wraps the public entry points of each ``repro`` layer in
spans (see :mod:`perfbench.spans`); :data:`CATALOG` lists every metric
the benchmark prints, with its unit, direction, layer, the end-to-end
metric it should move and the workloads it applies to.
``BENCHMARK.json`` carries the end-to-end metrics and the per-layer
metrics every workload reports; the rest are printed in the per-layer
table of the workloads they apply to.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

from perfbench.spans import Patcher, SpanRecorder

#: the workloads, in BENCHMARK.json order
ALL = ("paper_grid", "scale_20k", "rollout", "serve")


class Metric(NamedTuple):
    """One metric the benchmark can print."""

    name: str
    unit: str
    better: str            # 'lower' | 'higher'
    layer: str             # a module of src/repro, or 'end_to_end' / 'trace'
    moves: str             # the end-to-end metric it should move
    workloads: Tuple[str, ...]
    universal: bool = False  # reported by every workload's traced run


def _m(name, unit, better, layer, moves, workloads, universal=False) -> Metric:
    return Metric(name, unit, better, layer, moves, workloads, universal)


#: every metric, end to end first
CATALOG: Tuple[Metric, ...] = (
    # -- end to end (tracing off) --------------------------------------------
    # setup_s and wall_s are in reference seconds (perfbench.hostspeed);
    # the *_raw_s pair are the same medians in wall seconds
    _m("setup_s", "s", "lower", "end_to_end", "-", ALL, True),
    _m("wall_s", "s", "lower", "end_to_end", "-", ALL, True),
    _m("setup_raw_s", "s", "lower", "end_to_end", "-", ALL),
    _m("wall_raw_s", "s", "lower", "end_to_end", "-", ALL),
    _m("peak_rss_mb", "MB", "lower", "end_to_end", "-", ALL, True),
    _m("error_rate", "ratio", "lower", "end_to_end", "-", ALL),
    _m("job_locality", "ratio", "higher", "end_to_end", "-", ALL),
    _m("gmtt_s", "s", "lower", "end_to_end", "-", ALL),
    _m("rollout_overhead_x", "x", "lower", "end_to_end", "-", ("rollout",)),
    _m("job_latency_p50_s", "s", "lower", "end_to_end", "-", ("serve",)),
    _m("job_latency_p90_s", "s", "lower", "end_to_end", "-", ("serve",)),
    _m("jobs_per_s", "1/s", "higher", "end_to_end", "-", ("serve",)),
    # -- build ------------------------------------------------------------------
    _m("cluster.build_s", "s", "lower", "cluster", "setup_s", ALL, True),
    _m("hdfs.create_file_s", "s", "lower", "hdfs", "setup_s", ALL, True),
    _m("hdfs.create_file_calls", "count", "lower", "hdfs", "setup_s", ALL, True),
    _m("core.dare_build_s", "s", "lower", "core", "setup_s", ALL, True),
    _m("experiments.build_s", "s", "lower", "experiments", "setup_s", ALL, True),
    # -- event loop --------------------------------------------------------------
    _m("simulation.run_s", "s", "lower", "simulation", "wall_s", ALL, True),
    _m("simulation.events", "count", "lower", "simulation", "wall_s", ALL, True),
    _m("simulation.events_per_s", "1/s", "higher", "simulation", "wall_s", ALL, True),
    _m("mapreduce.heartbeat_s", "s", "lower", "mapreduce", "wall_s", ALL, True),
    _m("mapreduce.heartbeat_calls", "count", "lower", "mapreduce", "wall_s", ALL, True),
    _m("mapreduce.pending_work_units_s", "s", "lower", "mapreduce", "wall_s",
       ("scale_20k",)),
    _m("mapreduce.hub_tick_s", "s", "lower", "mapreduce", "wall_s", ("scale_20k",)),
    _m("scheduling.pick_map_s", "s", "lower", "scheduling", "wall_s", ALL, True),
    _m("scheduling.pick_map_calls", "count", "lower", "scheduling", "wall_s", ALL, True),
    _m("scheduling.pick_map_hit_ratio", "ratio", "higher", "scheduling", "wall_s",
       ALL, True),
    _m("scheduling.pick_reduce_s", "s", "lower", "scheduling", "wall_s", ALL, True),
    _m("hdfs.process_heartbeat_s", "s", "lower", "hdfs", "wall_s", ALL, True),
    _m("hdfs.process_heartbeat_calls", "count", "lower", "hdfs", "wall_s", ALL, True),
    # -- finalize ----------------------------------------------------------------
    _m("metrics.finalize_s", "s", "lower", "metrics", "wall_s", ALL, True),
    _m("metrics.mean_slowdown_s", "s", "lower", "metrics", "wall_s", ALL, True),
    _m("metrics.popularity_indices_s", "s", "lower", "metrics", "wall_s", ALL, True),
    _m("hdfs.check_integrity_s", "s", "lower", "hdfs", "wall_s", ALL, True),
    # -- DARE --------------------------------------------------------------------
    _m("core.on_map_task_s", "s", "lower", "core", "wall_s, job_locality", ALL, True),
    _m("core.on_map_task_calls", "count", "lower", "core", "wall_s, job_locality",
       ALL, True),
    _m("core.blocks_created", "count", "lower", "core", "job_locality", ALL, True),
    _m("core.blocks_evicted", "count", "lower", "core", "job_locality", ALL),
    _m("core.replicate_ratio", "ratio", "lower", "core", "job_locality", ALL, True),
    _m("core.per_node_budget_blocks", "blocks", "higher", "core", "job_locality",
       ALL, True),
    # -- rollout -----------------------------------------------------------------
    _m("checkpoint.snapshot_s", "s", "lower", "checkpoint", "wall_s, rollout_overhead_x",
       ("rollout",)),
    _m("checkpoint.snapshot_calls", "count", "lower", "checkpoint",
       "wall_s, rollout_overhead_x", ("rollout",)),
    _m("checkpoint.snapshot_bytes", "bytes", "lower", "checkpoint",
       "wall_s, rollout_overhead_x", ("rollout",)),
    _m("policies.score_epoch_s", "s", "lower", "policies", "wall_s, rollout_overhead_x",
       ("rollout",)),
    _m("policies.epochs", "count", "lower", "policies", "wall_s, rollout_overhead_x",
       ("rollout",)),
    _m("policies.applied_ratio", "ratio", "higher", "policies", "job_locality",
       ("rollout",)),
    _m("policies.host_run_s", "s", "lower", "policies", "wall_s, rollout_overhead_x",
       ("rollout",)),
    # -- serving -----------------------------------------------------------------
    _m("server.submit_s_p50", "s", "lower", "server", "job_latency_p50_s", ("serve",)),
    _m("server.result_s_p50", "s", "lower", "server", "job_latency_p50_s", ("serve",)),
    _m("server.http_errors", "count", "lower", "server", "error_rate", ("serve",)),
    _m("experiments.queue_wait_s_p50", "s", "lower", "experiments",
       "job_latency_p50_s, job_latency_p90_s", ("serve",)),
    _m("experiments.cell_exec_s_p50", "s", "lower", "experiments",
       "job_latency_p50_s, jobs_per_s", ("serve",)),
    _m("experiments.cache_hit_ratio", "ratio", "higher", "experiments", "jobs_per_s",
       ("serve",)),
    _m("experiments.cells_executed", "count", "lower", "experiments", "jobs_per_s",
       ("serve",)),
    # -- cost of the measurement itself --------------------------------------------
    _m("workloads.generate_s", "s", "lower", "workloads", "none", ALL, True),
    _m("trace.overhead_x", "x", "lower", "trace", "none", ALL, True),
) + tuple(
    _m(f"self_s.{layer}", "s", "lower", layer, "wall_s", ALL, True)
    for layer in ("workloads", "cluster", "hdfs", "core", "mapreduce", "scheduling",
                  "simulation", "metrics", "experiments", "bench")
) + tuple(
    _m(f"self_s.{layer}", "s", "lower", layer, "wall_s, rollout_overhead_x", ("rollout",))
    for layer in ("checkpoint", "policies")
)

BY_NAME: Dict[str, Metric] = {m.name: m for m in CATALOG}

#: end-to-end metrics every workload reports with tracing off
END_TO_END: Tuple[str, ...] = tuple(
    m.name for m in CATALOG if m.layer == "end_to_end" and m.universal
)
#: per-layer metrics every workload reports with tracing on
PER_LAYER: Tuple[str, ...] = tuple(
    m.name for m in CATALOG if m.layer != "end_to_end" and m.universal
)


# -- the wrappers ---------------------------------------------------------------


def _pick_hit(rec: SpanRecorder, result, args) -> None:
    if result is not None:
        rec.count("scheduling.pick_map_hits")


def _map_task(rec: SpanRecorder, replicated, args) -> None:
    # on_map_task(self, node_id, block, data_local, now)
    if not args[3]:
        rec.count("core.remote_reads")
    if replicated:
        rec.count("core.replications")


def _dare_built(rec: SpanRecorder, service, args) -> None:
    from repro.hdfs.block import DEFAULT_BLOCK_SIZE

    if service.config.enabled:
        rec.count("core.dare_services")
        rec.count("core.budget_blocks", service.per_node_budget_bytes / DEFAULT_BLOCK_SIZE)


def _applied(rec: SpanRecorder, applied, args) -> None:
    if applied:
        rec.count("policies.applied")


def _snapshot_bytes(rec: SpanRecorder, snap, args) -> None:
    rec.count("checkpoint.snapshot_bytes", len(snap.payload))


def install(patcher: Patcher) -> None:
    """Wrap every layer's public entry points, where callers look them up."""
    from repro.checkpoint.incremental import SnapshotSession
    from repro.core.manager import DareReplicationService
    from repro.experiments import runner
    from repro.experiments.sweep import WorkloadSpec
    from repro.hdfs.namenode import NameNode
    from repro.mapreduce.heartbeat_hub import HeartbeatHub
    from repro.mapreduce.jobtracker import JobTracker
    from repro.policies import rollout
    from repro.policies.parallel import ForkScorer
    from repro.scheduling.fair import FairScheduler, SkipCountFairScheduler
    from repro.scheduling.fifo import FifoScheduler

    p = patcher.patch
    # build: names the runner binds at import time
    p(runner, "Cluster", "cluster.build")
    p(runner, "DareReplicationService", "core.dare_build", _dare_built)
    p(runner.Simulation, "__init__", "experiments.build")
    p(NameNode, "create_file", "hdfs.create_file")
    p(WorkloadSpec, "materialize", "workloads.generate")
    # event loop
    p(runner.Simulation, "run", "simulation.run")
    p(JobTracker, "heartbeat", "mapreduce.heartbeat")
    p(JobTracker, "pending_work_units", "mapreduce.pending_work_units")
    p(HeartbeatHub, "_tick", "mapreduce.hub_tick")
    p(NameNode, "process_heartbeat", "hdfs.process_heartbeat")
    for cls in (FifoScheduler, FairScheduler, SkipCountFairScheduler):
        if "pick_map" in cls.__dict__:
            p(cls, "pick_map", "scheduling.pick_map", _pick_hit)
        if "pick_reduce" in cls.__dict__:
            p(cls, "pick_reduce", "scheduling.pick_reduce")
    p(DareReplicationService, "on_map_task", "core.on_map_task", _map_task)
    # finalize
    p(runner.Simulation, "finalize", "metrics.finalize")
    p(runner, "mean_slowdown", "metrics.mean_slowdown")
    p(runner, "popularity_indices", "metrics.popularity_indices")
    p(NameNode, "check_integrity", "hdfs.check_integrity")
    # rollout
    p(SnapshotSession, "snapshot", "checkpoint.snapshot", _snapshot_bytes)
    p(ForkScorer, "score_epoch", "policies.score_epoch")
    p(rollout, "apply_action", "policies.apply_action", _applied)


def patched_names() -> List[Tuple[object, str]]:
    """Every (owner, attribute) :func:`install` patches, all left restored."""
    recorder = SpanRecorder("probe")
    patcher = Patcher(recorder)
    install(patcher)
    names = [(owner, attr) for owner, attr, _ in patcher._saved]
    patcher.restore()
    return names
