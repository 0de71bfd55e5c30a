"""Fixed-seed determinism: traces are byte-identical across reruns.

The hot-path optimizations (inlined scheduling, heap compaction, heartbeat
event reuse, locality indexing) and the sampling profiler are all required
to leave simulation behaviour untouched.  The proof is the JSONL trace: for
every policy x scheduler cell, the same seed must produce the same bytes —
run twice, and again with the profiler on.
"""

import hashlib
import itertools

import numpy as np
import pytest

from repro.core.config import DareConfig
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.replay import diff_traces
from repro.workloads.swim import synthesize_wl1

POLICIES = {
    "off": DareConfig.off(),
    "lru": DareConfig.greedy_lru(),
    "et": DareConfig.elephant_trap(),
}
SCHEDULERS = ("fifo", "fair", "fair-skip")
SEED = 20110926
N_JOBS = 12


def _run_cell(policy, scheduler, trace_path, profile=False, engine_events=False):
    rng = np.random.default_rng(SEED)
    workload = synthesize_wl1(rng, n_jobs=N_JOBS)
    config = ExperimentConfig(
        scheduler=scheduler,
        dare=POLICIES[policy],
        seed=SEED,
        trace_path=str(trace_path),
        trace_engine_events=engine_events,
        profile=profile,
    )
    return run_experiment(config, workload)


@pytest.mark.parametrize(
    "policy,scheduler", list(itertools.product(POLICIES, SCHEDULERS))
)
def test_cell_trace_is_reproducible(policy, scheduler, tmp_path):
    """Same seed, same bytes — twice plain, once under the profiler."""
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    c = tmp_path / "profiled.jsonl"
    _run_cell(policy, scheduler, a)
    _run_cell(policy, scheduler, b)
    result = _run_cell(policy, scheduler, c, profile=True)
    bytes_a = a.read_bytes()
    assert bytes_a == b.read_bytes(), f"{policy}/{scheduler}: rerun diverged"
    assert bytes_a == c.read_bytes(), f"{policy}/{scheduler}: profiler changed the run"
    assert result.profiler is not None and result.profiler.samples > 0


#: sha256 of each cell's trace, recorded from the schedulers that rescanned
#: every active job on every pick (before the ready sets).  Reruns agreeing
#: with each other prove determinism; these prove a refactor left the
#: simulated behaviour exactly where it was.
PINNED_TRACE_SHA256 = {
    ("off", "fifo"): "a762b2d3fb42b7bfc8b0df7450e1d63ac9232ec88da8b539e4caa214a8247c73",
    ("off", "fair"): "b8270c54521fe0a3e5ea739814711deb9df3fa05ce7b65ceb12f67cde28e68d7",
    ("off", "fair-skip"): "d50e5fef56897b3dfe8ec64cea286f9e61d7737b4e5b444a12c57e0c501c0a16",
    ("lru", "fifo"): "87e48eaec05bbee57ce2ecf4b7eeee11f603aab87e2adcec7b790a79bbbebe01",
    ("lru", "fair"): "a90e620ef4fd745534635e4d3f3963d0f86f392a0972a783a7075d2d2295d775",
    ("lru", "fair-skip"): "e68a22bd59dee3a05b356f7f2cef0f7354103aedf5608a56aae2674fd2e70074",
    ("et", "fifo"): "f69d55a7690330a4e812011659bc3df29b68a9329134c18422fc9d63e15d2fc3",
    ("et", "fair"): "6e63619547f0643449a93056d9874c27b8d89359c5a44b795bd9473cf627ab1a",
    ("et", "fair-skip"): "0304b4229048553800b6a6c00ba0ef261c9bdc6bc83cca769864caa0093101d2",
}

#: node failures mid-run: requeues maps under every scheduler, and a
#: running reduce too under fair
FAILURES = ((74.0, 19), (78.0, 6))
FAILURE_SEED = 7
FAILURE_N_JOBS = 40
PINNED_FAILURE_TRACE_SHA256 = {
    "fifo": "95c7641e984af434fd6efde3265e2f26e37ac5138d64de0c5afc0a2e9f5d4f36",
    "fair": "0fee27909e0e612497a17eaa0e52908a6f0367dafddd555daab6ea34fae4ca4d",
    "fair-skip": "91803d14d8d9f02ab643bca894e8322b18d298578e4dbb9487291ef66576a809",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "policy,scheduler", list(itertools.product(POLICIES, SCHEDULERS))
)
def test_cell_trace_matches_pinned_digest(policy, scheduler, tmp_path):
    trace = tmp_path / "t.jsonl"
    _run_cell(policy, scheduler, trace)
    assert _sha256(trace) == PINNED_TRACE_SHA256[policy, scheduler]


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_failure_cell_trace_matches_pinned_digest(scheduler, tmp_path):
    """Requeued tasks re-enter the schedule exactly as before."""
    trace = tmp_path / "t.jsonl"
    workload = synthesize_wl1(np.random.default_rng(FAILURE_SEED), n_jobs=FAILURE_N_JOBS)
    config = ExperimentConfig(
        scheduler=scheduler,
        dare=POLICIES["lru"],
        seed=FAILURE_SEED,
        failures=FAILURES,
        trace_path=str(trace),
    )
    result = run_experiment(config, workload)
    assert result.tasks_requeued > 0
    assert _sha256(trace) == PINNED_FAILURE_TRACE_SHA256[scheduler]


#: sha256 of ``repro run --policy rollout --jobs 32 --seed 7 --trace``,
#: recorded from the engine that restored every branch from a pickled
#: snapshot: the forked branches must decide exactly as those did, at any
#: --rollout-jobs, and the pruned cell too
PINNED_ROLLOUT_TRACE_SHA256 = {
    ("--rollout-jobs", "1"): "2a4f9b53fdea07de4893fd5e522dfd5e72a09e02215f545e13d36dcdeadbd3a8",
    ("--rollout-jobs", "2"): "2a4f9b53fdea07de4893fd5e522dfd5e72a09e02215f545e13d36dcdeadbd3a8",
    ("--rollout-prune", "2"): "216ca0e44e901fac650e999eb338c79b9d1a3ea8cc3174d38a366089a9037ddc",
}


@pytest.mark.parametrize("flag,value", list(PINNED_ROLLOUT_TRACE_SHA256))
def test_rollout_trace_matches_pinned_digest(flag, value, tmp_path):
    from repro.cli import main
    from repro.replay.reader import read_trace

    trace = tmp_path / "t.jsonl"
    assert main(["run", "--policy", "rollout", "--jobs", "32", "--seed", "7",
                 flag, value, "--trace", str(trace)]) == 0
    assert _sha256(trace) == PINNED_ROLLOUT_TRACE_SHA256[flag, value]
    assert sum(r.type == "rollout.decision" for r in read_trace(str(trace))) > 0


def test_engine_event_firehose_is_reproducible(tmp_path):
    """The per-callback firehose pins label and seq of every event."""
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    _run_cell("et", "fair", a, engine_events=True)
    _run_cell("et", "fair", b, profile=True, engine_events=True)
    assert a.read_bytes() == b.read_bytes()
    diff = diff_traces(str(a), str(b))
    assert diff.identical


# -- scale modes: batched heartbeats and mesoscale are deterministic too ------


def _run_scale_cell(mode, trace_path, n_nodes=150):
    from repro.cluster.cluster import scale_spec

    spec = scale_spec(
        n_nodes,
        mesoscale=(mode == "meso"),
        hb_batch=True if mode == "batch" else None,
    )
    rng = np.random.default_rng(SEED)
    workload = synthesize_wl1(rng, n_jobs=N_JOBS)
    config = ExperimentConfig(
        cluster_spec=spec,
        scheduler="fair",
        dare=POLICIES["et"],
        seed=SEED,
        trace_path=str(trace_path),
    )
    return run_experiment(config, workload)


@pytest.mark.parametrize("mode", ["accurate", "batch", "meso"])
def test_scale_cell_trace_is_reproducible(mode, tmp_path):
    """scale_spec clusters replay byte-identically in every heartbeat mode."""
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    _run_scale_cell(mode, a)
    _run_scale_cell(mode, b)
    assert a.read_bytes() == b.read_bytes(), f"{mode}: rerun diverged"


# -- sweep executor: identical bytes regardless of execution strategy ---------


def _sweep_cells():
    from repro.experiments.sweep import SweepCell, WorkloadSpec

    workload = WorkloadSpec("wl1", N_JOBS, SEED)
    return [
        SweepCell(
            ExperimentConfig(scheduler=scheduler, dare=POLICIES[policy], seed=SEED),
            workload,
            tag=f"{scheduler}/{policy}",
        )
        for policy, scheduler in itertools.product(POLICIES, SCHEDULERS)
    ]


def _result_bytes(outcomes):
    from repro.experiments.serialize import result_to_json
    from repro.experiments.sweep import results_of

    return [result_to_json(r) for r in results_of(outcomes)]


def test_sweep_results_identical_across_worker_counts(tmp_path):
    """Serial, 2-worker, 4-worker, and cache-hit runs: equal bytes per cell."""
    from repro.experiments.sweep import ResultCache, run_cells

    cells = _sweep_cells()
    serial = _result_bytes(run_cells(cells, jobs=1))

    # a fresh cache per worker count, so every run really computes its cells
    for jobs in (2, 4):
        cache = ResultCache(tmp_path / f"cache{jobs}")
        parallel = _result_bytes(run_cells(cells, jobs=jobs, cache=cache))
        assert cache.hits == 0 and cache.misses == len(cells)
        assert parallel == serial, f"jobs={jobs} diverged from the serial path"

    # the second pass with the populated cache must reproduce the same bytes
    cached = _result_bytes(run_cells(cells, jobs=1, cache=cache))
    assert cache.hits == len(cells)
    assert cached == serial


def test_sweep_serial_path_matches_run_experiment():
    """jobs=1 runs the legacy in-process loop: results compare equal live."""
    from repro.experiments.sweep import results_of, run_cells

    cells = _sweep_cells()[:2]
    via_sweep = results_of(run_cells(cells, jobs=1))
    for cell, result in zip(cells, via_sweep):
        rng = np.random.default_rng(SEED)
        direct = run_experiment(cell.config, synthesize_wl1(rng, n_jobs=N_JOBS))
        assert result.job_locality == direct.job_locality
        assert result.gmtt_s == direct.gmtt_s
        assert result.events_processed == direct.events_processed
