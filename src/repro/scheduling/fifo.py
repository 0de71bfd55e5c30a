"""Hadoop's default FIFO scheduler (JobQueueTaskScheduler).

Strict submission order: the earliest-submitted job with pending work gets
the slot.  Within that job the scheduler prefers a node-local task, then a
rack-local one, then any — but it never *withholds* a slot waiting for
locality, which is exactly why small jobs achieve poor locality under FIFO
(Section V-B: ~7x headroom for DARE).
"""

from __future__ import annotations

from typing import Optional

from repro.mapreduce.task import Locality
from repro.scheduling.base import MapPick, ReducePick, Scheduler


class FifoScheduler(Scheduler):
    """First-in, first-out job scheduling with best-effort locality."""

    def pick_map(self, node_id: int, now: float) -> Optional[MapPick]:
        """Head-of-line job's best task for this node, if any."""
        if not self.map_ready:
            return None
        job = self.map_ready[0]
        # at REMOTE level a job with pending maps always yields a task
        found = job.find_pending_map(node_id, self.namenode, Locality.REMOTE)
        if found is None:
            return None
        task, locality = found
        return job, task, locality

    def pick_reduce(self, node_id: int, now: float) -> Optional[ReducePick]:
        """Head-of-line job with schedulable reduces."""
        if not self.reduce_ready:
            return None
        job = self.reduce_ready[0]
        task = job.next_pending_reduce()
        return None if task is None else (job, task)
