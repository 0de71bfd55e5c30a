"""Unit tests: the scheduler's ready sets follow every job transition.

The JobTracker here gets hand-driven TaskTrackers (``managed=True``: no
heartbeat events of their own), so the engine only carries task
completions and each test decides exactly when a node asks for work.  An
InvariantChecker sweeps at every task record, so the ready sets are also
audited against a recomputation after every launch and completion.
"""

import pytest

from repro.core.config import DareConfig
from repro.core.manager import DareReplicationService
from repro.mapreduce.job import JobSpec
from repro.mapreduce.jobtracker import JobTracker
from repro.mapreduce.runtime import TaskTimeModel
from repro.mapreduce.speculation import SpeculationPolicy
from repro.mapreduce.task import TaskState
from repro.mapreduce.tasktracker import TaskTracker
from repro.observability.invariants import InvariantChecker
from repro.observability.trace import Tracer
from repro.scheduling.fair import FairScheduler, SkipCountFairScheduler
from repro.scheduling.fifo import FifoScheduler
from repro.simulation.engine import Engine
from repro.simulation.rng import RandomStreams


def make_jt(cluster, namenode, scheduler=None, speculation=None):
    streams = RandomStreams(17)
    tracer = Tracer()
    dare = DareReplicationService(DareConfig.off(), namenode, streams)
    tm = TaskTimeModel(cluster, namenode, streams.python("tm"))
    jt = JobTracker(
        cluster,
        namenode,
        Engine(),
        scheduler or FifoScheduler(),
        tm,
        dare,
        speculation=speculation,
        tracer=tracer,
    )
    for node in cluster.slaves:
        jt.tasktrackers[node.node_id] = TaskTracker(
            node, jt, jt.engine, cluster.spec.heartbeat_s, managed=True
        )
        jt._running_by_node[node.node_id] = {}
    InvariantChecker(namenode, jobtracker=jt, full_sweep_every=1).attach(tracer)
    return jt


@pytest.fixture
def jt(small_cluster, loaded_namenode):
    return make_jt(small_cluster, loaded_namenode)


def ready(jt, job):
    """Which ready sets hold ``job``: (in map_ready, in reduce_ready)."""
    return job in jt.scheduler.map_ready, job in jt.scheduler.reduce_ready


def beat(jt, node_id):
    jt.tasktrackers[node_id].beat()


class TestSubmissionOrder:
    def test_sets_list_jobs_in_submission_order_whatever_the_filing_order(
        self, jt
    ):
        jobs = [jt.submit(JobSpec(i, float(i), "hot")) for i in range(4)]
        assert jt.scheduler.map_ready == jobs
        for job in (jobs[2], jobs[0], jobs[3], jobs[1]):
            for task in list(job.pending_maps):
                job.take_map(task)
                job.finish_map()
            assert job not in jt.scheduler.map_ready
        assert jt.scheduler.map_ready == []
        assert jt.scheduler.reduce_ready == jobs


class TestMembership:
    def test_submission_files_the_job_as_map_ready(self, jt):
        job = jt.submit(JobSpec(0, 0.0, "hot"))
        assert ready(jt, job) == (True, False)
        assert job.on_change is not None

    def test_map_requeue_returns_the_job_to_map_ready(self, jt):
        job = jt.submit(JobSpec(0, 0.0, "hot"))  # 3 maps, 2 slots a node
        beat(jt, 1)
        beat(jt, 2)
        assert not job.pending_maps
        assert ready(jt, job) == (False, False)
        assert jt.requeue_tasks_from(1) == 2
        assert ready(jt, job) == (True, False)
        assert len(job.pending_maps) == 2
        beat(jt, 3)
        assert ready(jt, job) == (False, False)

    def test_reduce_requeue_returns_the_job_to_reduce_ready(self, jt):
        job = jt.submit(JobSpec(0, 0.0, "warm", n_reduces=1))  # 2 maps
        beat(jt, 1)
        assert ready(jt, job) == (False, False)
        jt.engine.run()  # the maps complete; nobody beats in between
        assert job.maps_done
        assert ready(jt, job) == (False, True)
        beat(jt, 2)
        assert job.reduces[0].state is TaskState.RUNNING
        assert ready(jt, job) == (False, False)
        assert jt.requeue_tasks_from(2) == 1
        assert ready(jt, job) == (False, True)
        beat(jt, 3)
        assert ready(jt, job) == (False, False)

    def test_job_finish_leaves_every_set(self, jt):
        job = jt.submit(JobSpec(0, 0.0, "warm", n_reduces=1))
        beat(jt, 1)
        jt.engine.run()
        beat(jt, 2)
        jt.engine.run()
        assert job.done and job.finish_time is not None
        assert ready(jt, job) == (False, False)
        assert job not in jt.scheduler.active_jobs
        assert job.on_change is None

    def test_speculative_win_counts_one_finished_map(
        self, small_cluster, loaded_namenode
    ):
        jt = make_jt(small_cluster, loaded_namenode, speculation=SpeculationPolicy())
        job = jt.submit(JobSpec(0, 0.0, "cold", n_reduces=1))  # 5 maps
        for node_id in (1, 2, 3):
            beat(jt, node_id)
        assert ready(jt, job) == (False, False)
        # duplicate every running map on a node the original is not on
        for task, node_id in zip(job.maps, (4, 5, 6, 7, 4)):
            assert task.node_id != node_id
            jt._launch_speculative(task, jt.tasktrackers[node_id], jt.engine.now)
        jt.engine.run()
        assert jt.speculative_won >= 1
        assert job.finished_maps == job.n_maps and job.running_maps == 0
        assert ready(jt, job) == (False, True)
        beat(jt, 1)
        assert ready(jt, job) == (False, False)
        jt.engine.run()
        assert job.done and job not in jt.scheduler.active_jobs


@pytest.mark.parametrize(
    "make_scheduler", [FifoScheduler, FairScheduler, SkipCountFairScheduler]
)
def test_jobs_tie_in_submission_order(make_scheduler, small_cluster, loaded_namenode):
    """Equal fair keys (same submit time and id) fall back to submission order."""
    jt = make_jt(small_cluster, loaded_namenode, scheduler=make_scheduler())
    first = jt.submit(JobSpec(0, 0.0, "warm", n_reduces=1))
    second = jt.submit(JobSpec(0, 0.0, "warm", n_reduces=1))
    for job in (second, first):  # file the later job first
        for task in list(job.pending_maps):
            job.take_map(task)
            job.finish_map()
    assert jt.scheduler.reduce_ready == [first, second]
    job, _ = jt.scheduler.pick_reduce(1, now=0.0)
    assert job is first
