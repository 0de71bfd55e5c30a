"""The fork-and-score rollout engine (rollout-greedy policy).

At every decision epoch the driver pauses the live
:class:`~repro.experiments.runner.Simulation` and forks it
(:func:`os.fork`, see :mod:`repro.policies.parallel`) into one branch
per candidate action plus the no-op branch.  Candidates are the hottest
remotely-read blocks since the last epoch, paired with their hottest
remote reader — observed through a trace-bus subscriber
(:class:`FeatureTap`), so the engine needs an enabled tracer but zero
hooks inside the simulator.  Each fork applies its action through
``DareReplicationService.force_replicate`` (a proactive replication,
charged to the traffic meter as ``rollout`` bytes), runs ahead, and is
scored by downstream data-locality and makespan.  The winning action is
applied to the live run **only when it strictly beats the no-op
branch**, which (with the default run-to-completion horizon) makes the
rollout run's final mean locality provably no worse than its host
policy's — the property the CI ``policy-bench`` job gates.

Everything is derived from the deterministic simulation plus sorted
tie-breaks, so the same (config, workload) always yields the same
decisions; ``rollout.decision`` trace records document each one.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

from repro.observability.trace import (
    ROLLOUT_DECISION,
    TASK_SCHEDULED,
    JsonlSink,
    TraceRecord,
    Tracer,
)

if TYPE_CHECKING:
    from repro.experiments.runner import (
        ExperimentConfig,
        ExperimentResult,
        Simulation,
    )
    from repro.metrics.collector import MetricsCollector
    from repro.workloads.swim import Workload


class RolloutConfig(NamedTuple):
    """Rollout-engine knobs, carried on ``ExperimentConfig.rollout``.

    ``horizon_s=0`` (the default) runs every fork to completion and
    scores it by final mean job locality, breaking ties toward shorter
    makespan and then toward the no-op; a positive horizon scores a
    cheaper truncated lookahead by map-level locality instead.

    ``jobs`` is purely an execution knob — how many candidate branches
    run at once next to the no-op branch.  Decisions, traces, and
    results are byte-identical at every value (the scores are reduced
    in candidate order), so it is *not* serialized with the cell.
    ``prune`` *does* change decisions (fewer branches are forked) and
    therefore is.
    """

    #: simulation seconds between decision epochs
    epoch_s: float = 120.0
    #: candidate actions evaluated per epoch (the no-op fork is implicit)
    branches: int = 3
    #: fork lookahead in simulation seconds; 0 = run forks to completion
    horizon_s: float = 0.0
    #: stop forking after this many epochs (the run itself continues)
    max_epochs: int = 16
    #: candidate branches forked at once (byte-identical at any value)
    jobs: int = 1
    #: fork only the top-k candidates by learned pre-score; 0 = fork all
    prune: int = 0

    def validate(self) -> "RolloutConfig":
        """Raise ``ValueError`` on out-of-range parameters; return self."""
        if self.epoch_s <= 0:
            raise ValueError(f"epoch_s must be > 0, got {self.epoch_s}")
        if self.branches < 1:
            raise ValueError(f"branches must be >= 1, got {self.branches}")
        if self.horizon_s < 0:
            raise ValueError(f"horizon_s must be >= 0, got {self.horizon_s}")
        if self.max_epochs < 0:
            raise ValueError(f"max_epochs must be >= 0, got {self.max_epochs}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.prune < 0:
            raise ValueError(f"prune must be >= 0, got {self.prune}")
        return self


class Action(NamedTuple):
    """One candidate decision: replicate ``block_id`` onto ``node_id``."""

    block_id: int
    node_id: int


class FeatureTap:
    """Trace-bus subscriber: remote map reads since the last epoch.

    When given an :class:`~repro.policies.learned.AccessStats` it also
    feeds *every* scheduled map read (local and remote) into it, so the
    learned pruning pre-scorer sees the same feature distribution the
    learned policy trains on.  The stats accumulate across epochs —
    :meth:`reset` clears only the per-epoch candidate counters.
    """

    def __init__(self, stats=None) -> None:
        #: block_id -> remote map reads
        self.by_block: Dict[int, int] = {}
        #: node_id -> remote map reads executed on that node
        self.by_node: Dict[int, int] = {}
        #: optional run-long AccessStats for learned candidate pruning
        self.stats = stats

    def __call__(self, record: TraceRecord) -> None:
        if record.type != TASK_SCHEDULED:
            return
        data = record.data
        if data.get("kind") != "map":
            return
        local = bool(data.get("data_local"))
        if self.stats is not None:
            self.stats.observe(data["node"], data["block"], local, record.time)
        if local:
            return
        block, node = data["block"], data["node"]
        self.by_block[block] = self.by_block.get(block, 0) + 1
        self.by_node[node] = self.by_node.get(node, 0) + 1

    def reset(self) -> None:
        """Forget this epoch's counts (the pruning stats accumulate)."""
        self.by_block.clear()
        self.by_node.clear()

    def candidates(self, sim: "Simulation", limit: int) -> List[Action]:
        """Up to ``limit`` applicable actions with deterministic tie-breaks.

        Pairs the hottest remotely-read blocks with the busiest
        remote-reading nodes that do *not* yet hold them — the nodes most
        likely to pull another task for the block remotely.  (The node
        that just read the block is useless as a target: under a greedy
        host it already piggybacked a replica, and under any host the
        fetch is already paid for.)
        """
        out: List[Action] = []
        hot = sorted(self.by_block.items(), key=lambda kv: (-kv[1], kv[0]))
        nodes = sorted(self.by_node.items(), key=lambda kv: (-kv[1], kv[0]))
        for block_id, _count in hot:
            if len(out) >= limit:
                break
            block = sim.namenode.blocks.get(block_id)
            if block is None:
                continue
            for node_id, _n in nodes:
                if node_id not in sim.dare.states:
                    continue
                dn = sim.namenode.datanode(node_id)
                if dn.has_block(block_id):
                    continue
                if block.size_bytes > dn.dynamic_capacity_bytes:
                    continue
                out.append(Action(block_id, node_id))
                break
        return out


def apply_action(sim: "Simulation", action: Action) -> bool:
    """Force-replicate one candidate on a live (or forked) simulation."""
    block = sim.namenode.block(action.block_id)
    if not sim.dare.force_replicate(action.node_id, block, sim.now):
        return False
    # unlike DARE's piggybacked replicas this one moves bytes on purpose
    sim.jobtracker.traffic.record("rollout", block.size_bytes)
    return True


def _prune_candidates(
    sim: "Simulation",
    stats,
    candidates: List[Action],
    keep: int,
    weights: Tuple[float, ...],
) -> List[Action]:
    """Keep the ``keep`` most promising candidates by learned pre-score.

    Scores each (node, block) pair with the logistic model of
    :mod:`repro.policies.learned` over the tap's accumulated
    :class:`AccessStats`; ties break toward the earlier candidate (the
    hotter block), and survivors keep their original order so the
    driver's reduction is unaffected.  Pruning trades branches for wall
    time — the strict-improvement guarantee is untouched because the
    no-op branch is never pruned.
    """
    from repro.policies.learned import feature_vector, score

    scored = []
    for idx, action in enumerate(candidates):
        dn = sim.namenode.datanode(action.node_id)
        cap = dn.dynamic_capacity_bytes
        features = feature_vector(
            stats,
            action.node_id,
            action.block_id,
            sim.namenode.replica_count(action.block_id),
            (dn.dynamic_bytes_used / cap) if cap else 1.0,
            sim.now,
        )
        scored.append((-score(weights, features), idx))
    survivors = sorted(idx for _, idx in sorted(scored)[:keep])
    return [candidates[idx] for idx in survivors]


def _unclamp(sim: "Simulation") -> None:
    """Undo ``Engine.run``'s advance-to-horizon on a drained epoch run.

    When the simulation finishes *inside* an epoch, the engine's SimPy
    semantics advance the clock to the epoch horizon; rewinding to the
    recorded drain time makes the paused run report the same makespan an
    unpaused run would.
    """
    drained = sim.engine.drained_at
    if drained is not None:
        sim.engine.now = drained


def run_rollout_experiment(
    config: "ExperimentConfig",
    workload: "Workload",
    collector: Optional["MetricsCollector"] = None,
    tracer: Optional[Tracer] = None,
) -> "ExperimentResult":
    """Drive one cell through the epoch fork-score-apply loop.

    The host simulation runs ``config`` with ``rollout`` stripped (its
    trace header is the host cell's, so an all-no-op rollout trace is
    byte-identical to the plain host run); the rollout layer adds only
    forced replications and ``rollout.decision`` records on top.

    Branch scoring goes through a
    :class:`~repro.policies.parallel.ForkScorer`, which forks the paused
    host once per branch, ``rollout.jobs`` candidate branches at a time;
    every decision, trace record and result field is the same at any
    ``jobs``.
    """
    from repro.experiments.runner import Simulation
    from repro.policies.parallel import ForkScorer

    rcfg = (config.rollout or RolloutConfig()).validate()
    host = dataclasses.replace(config, rollout=None)
    if tracer is None:
        # the feature tap listens on the trace bus, so rollout always
        # runs with an enabled tracer (sinkless unless a path was given)
        tracer = Tracer(engine_events=host.trace_engine_events)
        if host.trace_path:
            tracer.add_sink(JsonlSink(host.trace_path))
    elif not tracer.enabled:
        raise ValueError("the rollout engine requires an enabled tracer")
    try:
        sim = Simulation(host, workload, collector, tracer)
        stats = None
        weights: Tuple[float, ...] = ()
        if rcfg.prune > 0:
            from repro.policies.learned import DEFAULT_WEIGHTS, AccessStats

            stats = AccessStats()
            weights = host.dare.model or DEFAULT_WEIGHTS
        tap = FeatureTap(stats)
        tracer.subscribe(tap)
        scorer = ForkScorer(rcfg.jobs)
        for epoch in range(1, rcfg.max_epochs + 1):
            sim.run(until=epoch * rcfg.epoch_s)
            if sim.finished:
                break
            candidates = tap.candidates(sim, rcfg.branches)
            tap.reset()
            if not candidates:
                continue
            generated = len(candidates)
            if stats is not None and generated > rcfg.prune:
                candidates = _prune_candidates(
                    sim, stats, candidates, rcfg.prune, weights
                )
            base, scores = scorer.score_epoch(sim, candidates, rcfg)
            best_action: Optional[Action] = None
            best = base
            for action, s in zip(candidates, scores):
                if s > best:
                    best_action, best = action, s
            applied = best_action is not None and apply_action(sim, best_action)
            decision = dict(
                epoch=epoch,
                candidates=len(candidates),
                block=best_action.block_id if best_action else None,
                node=best_action.node_id if best_action else None,
                applied=bool(applied),
                score=list(best),
                baseline=list(base),
            )
            if rcfg.prune > 0:
                # only pruned cells carry the extra key, so prune=0
                # traces stay byte-identical to the pre-pruning engine
                decision["pruned"] = generated - len(candidates)
            tracer.emit(ROLLOUT_DECISION, sim.now, **decision)
        # the tap's job is done — stop it counting the trailing events
        tracer.unsubscribe(tap)
        if sim.engine.drained_at is not None:
            # the queue emptied inside the last epoch: rewind the
            # horizon-clamped clock before reading the makespan
            _unclamp(sim)
        else:
            # trailing events (or the remaining epochs, if max_epochs ran
            # out first) run unpaused to the true end of the simulation
            sim.run()
        # the result identifies the *cell* that was run — rollout included
        # — even though the trace header carries the stripped host config
        return dataclasses.replace(sim.finalize(), config=config)
    finally:
        tracer.close()
