"""Fork-per-branch scoring for the rollout engine.

At every decision epoch :class:`ForkScorer` scores the no-op branch plus
one branch per candidate action of the paused live
:class:`~repro.experiments.runner.Simulation`.  Each branch is an
:func:`os.fork` child of the host: it applies its action to its
copy-on-write image of the live run, runs to the horizon, writes its
score tuple to a pipe and leaves through :func:`os._exit`.  Nothing is
pickled but the reply, and the host runs no branch itself.

The host flushes its file sinks before each fork, and a child drops
every trace sink and subscriber except the invariant checker's, so no
branch record reaches the host's trace file, a job's record stream or
its stdout.  Pipes are created and forked, and the host's write end
closed, under :data:`repro.experiments.sweep.start_lock`, so no other
child inherits a branch's write end; replies are length-framed, so the
host never waits for more than the reply.  On a failure the remaining
children are killed and reaped before the error is raised.

A branch's score is a pure function of (paused host, action, rollout
config), and scores come back in candidate order, so decisions, traces
and results are byte-identical at every ``jobs``; the CI
``policy-bench`` job ``cmp``-gates that.  Where :func:`os.fork` does not
exist, every branch is restored from one full
:func:`repro.checkpoint.snapshot` and scored in-process — the reference
the tests hold the fork path to.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
import traceback
from collections import deque
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.metrics.locality import mean_job_locality
from repro.policies.rollout import Action, RolloutConfig, _unclamp, apply_action

if TYPE_CHECKING:
    from repro.experiments.runner import Simulation

#: reply header: the byte length of the pickled reply that follows
_FRAME = struct.Struct("!I")


def score_fork(fork: "Simulation", action: Optional[Action], rcfg: RolloutConfig) -> Tuple:
    """Apply ``action`` to a branch copy, run it ahead, reduce it to a score.

    ``fork`` is a forked child's image of the host or a copy restored
    from a snapshot, never the live run.  Higher is better; ties prefer
    the no-op (the driver only replaces its baseline on a strict
    improvement).  Value-identical to scoring via
    ``Simulation.finalize()`` — ``job_locality`` is
    ``mean_job_locality(collector.job_records)`` and ``makespan_s`` is
    ``engine.now`` — but skips the heartbeat settling and the metrics
    the score never reads.
    """
    if action is not None:
        apply_action(fork, action)
    if rcfg.horizon_s > 0:
        fork.run(until=fork.now + rcfg.horizon_s)
        _unclamp(fork)  # a fork that finished early scores its true end
        maps = fork.collector.map_records
        local = sum(1 for rec in maps if rec.locality == 0)
        locality = local / len(maps) if maps else 0.0
        return (locality, len(fork.collector.job_records), -fork.now)
    fork.run()
    return (mean_job_locality(fork.collector.job_records), 0, -fork.engine.now)


def _branch_main(sim: "Simulation", action: Optional[Action], rcfg: RolloutConfig,
                 wfd: int) -> None:
    """A forked child: cut the branch off the host's observers, score it,
    send one framed reply."""
    try:
        sim.profiler = sim.engine.profiler = None  # as a restore drops it
        tracer = sim.tracer
        if tracer.enabled:  # these lists are the child's own copies
            tracer._sinks, tracer._subscribers = [], []
            if sim.checker is not None:
                sim.checker.attach(tracer)
        reply = ("ok", score_fork(sim, action, rcfg))
    except Exception:
        reply = ("err", traceback.format_exc())
    data = pickle.dumps(reply)
    with os.fdopen(wfd, "wb") as pipe:
        pipe.write(_FRAME.pack(len(data)) + data)


def _fork_branch(sim: "Simulation", action: Optional[Action],
                 rcfg: RolloutConfig) -> Tuple[int, int]:
    """Fork one branch child of the paused host; return ``(pid, read fd)``."""
    from repro.experiments.sweep import start_lock

    for sink in sim.tracer._sinks:
        flush = getattr(sink, "flush", None)
        if flush is not None:
            flush()  # a child must not inherit buffered host records
    with start_lock:
        rfd, wfd = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            os.close(rfd)
            os.close(wfd)
            raise
        if pid == 0:  # the child leaves only through os._exit
            try:
                os.close(rfd)
                _branch_main(sim, action, rcfg, wfd)
                os._exit(0)
            finally:
                os._exit(1)
        os.close(wfd)
    return pid, rfd


def _reply(pid: int, rfd: int) -> Tuple:
    """Read one child's framed reply, reap the child, return its score."""
    try:
        with os.fdopen(rfd, "rb") as pipe:
            head = pipe.read(_FRAME.size)
            size = _FRAME.unpack(head)[0] if len(head) == _FRAME.size else -1
            body = pipe.read(size) if size >= 0 else b""
    finally:
        status = os.waitpid(pid, 0)[1]
    if len(body) != size:
        code = os.waitstatus_to_exitcode(status)
        how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
        raise RuntimeError(f"rollout branch pid={pid} died without replying ({how})")
    kind, payload = pickle.loads(body)
    if kind != "ok":
        raise RuntimeError(f"rollout branch pid={pid} failed:\n{payload}")
    return payload


def _score_forked(sim: "Simulation", branches: Sequence[Optional[Action]],
                  rcfg: RolloutConfig, jobs: int) -> List[Tuple]:
    """Score each branch in its own child, at most ``jobs + 1`` at once."""
    running: deque = deque()  # (pid, read fd), in branch order
    scores: List[Tuple] = []
    try:
        for action in branches:
            if len(running) > jobs:
                scores.append(_reply(*running.popleft()))
            running.append(_fork_branch(sim, action, rcfg))
        while running:
            scores.append(_reply(*running.popleft()))
    finally:
        for pid, rfd in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(rfd)
    return scores


def _score_restored(sim: "Simulation", branches: Sequence[Optional[Action]],
                    rcfg: RolloutConfig) -> List[Tuple]:
    """Score each branch in-process on a copy restored from one snapshot."""
    from repro.checkpoint.snapshot import snapshot

    snap = snapshot(sim)
    return [score_fork(snap.restore(), action, rcfg) for action in branches]


class ForkScorer:
    """Scores one decision epoch's branches, forking the no-op branch
    plus up to ``jobs`` candidate branches at once."""

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = max(1, int(jobs))

    def score_epoch(
        self,
        sim: "Simulation",
        candidates: List[Action],
        rcfg: RolloutConfig,
    ) -> Tuple[Tuple, List[Tuple]]:
        """Score the no-op branch plus every candidate branch of ``sim``.

        ``sim`` must be paused between ``run()`` calls and is left
        untouched.  Returns ``(base_score, candidate_scores)`` with
        ``candidate_scores`` in candidate order.
        """
        branches: List[Optional[Action]] = [None, *candidates]
        if hasattr(os, "fork"):
            scores = _score_forked(sim, branches, rcfg, self.jobs)
        else:
            scores = _score_restored(sim, branches, rcfg)
        return scores[0], scores[1:]
