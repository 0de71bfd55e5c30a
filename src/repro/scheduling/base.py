"""Scheduler interface."""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.mapreduce.job import Job
from repro.mapreduce.task import Locality, MapTask, ReduceTask

if TYPE_CHECKING:  # pragma: no cover
    from repro.hdfs.namenode import NameNode
    from repro.mapreduce.jobtracker import JobTracker

#: what pick_map returns: the job, the chosen task, and the locality level
#: the scheduler *believes* the placement has (per the NameNode view)
MapPick = Tuple[Job, MapTask, Locality]
ReducePick = Tuple[Job, ReduceTask]


_SEQ = attrgetter("seq")


def _refile(ready: List[Job], job: Job, wanted: bool) -> None:
    """Put ``job`` in or out of ``ready``, a list sorted by ``Job.seq``."""
    i = bisect_left(ready, job.seq, key=_SEQ)
    present = i < len(ready) and ready[i] is job
    if wanted and not present:
        ready.insert(i, job)
    elif present and not wanted:
        del ready[i]


class Scheduler:
    """Base class: tracks the active job set, defines the picking API.

    The JobTracker calls :meth:`pick_map` / :meth:`pick_reduce` repeatedly
    during a heartbeat while the offering node has free slots; returning
    ``None`` ends the assignment round for that slot type.

    Besides the active jobs, the scheduler keeps two ready sets current at
    every job transition (``Job.on_change``), so a pick never rescans jobs
    with nothing to offer: :attr:`map_ready` holds the active jobs with
    unassigned maps, :attr:`reduce_ready` those with a schedulable reduce.
    Both are lists in submission order (``Job.seq``), never hash order, so
    every pick made from them, and every snapshot that pickles them, is
    deterministic.
    """

    def __init__(self) -> None:
        self.jobtracker: Optional["JobTracker"] = None
        self.active_jobs: List[Job] = []
        self.map_ready: List[Job] = []
        self.reduce_ready: List[Job] = []
        self._submitted = 0

    def bind(self, jobtracker: "JobTracker") -> None:
        """Attach to a JobTracker (called once by its constructor)."""
        self.jobtracker = jobtracker

    @property
    def namenode(self) -> "NameNode":
        """The NameNode whose replica view drives locality decisions."""
        assert self.jobtracker is not None
        return self.jobtracker.namenode

    # -- job lifecycle ------------------------------------------------------

    def job_added(self, job: Job) -> None:
        """A job was submitted: number it, hook it, file it."""
        job.seq = self._submitted
        self._submitted += 1
        job.on_change = self.job_changed
        self.active_jobs.append(job)
        self.job_changed(job)

    def job_changed(self, job: Job) -> None:
        """Re-file ``job`` in the ready sets after one of its transitions."""
        _refile(self.map_ready, job, bool(job.pending_maps))
        _refile(self.reduce_ready, job, job.reduces_schedulable)

    def job_finished(self, job: Job) -> None:
        """A job completed; drop it from consideration."""
        job.on_change = None
        _refile(self.map_ready, job, False)
        _refile(self.reduce_ready, job, False)
        try:
            self.active_jobs.remove(job)
        except ValueError:  # pragma: no cover - defensive
            pass

    # -- picking ---------------------------------------------------------------

    def pick_map(self, node_id: int, now: float) -> Optional[MapPick]:
        """Choose a map task for a free map slot on ``node_id``."""
        raise NotImplementedError

    def pick_reduce(self, node_id: int, now: float) -> Optional[ReducePick]:
        """Choose a reduce task for a free reduce slot on ``node_id``."""
        raise NotImplementedError
