"""A traced run leaves no wrapper behind and records every layer it crosses."""

import numpy as np
import pytest

from perfbench import layers, run, workloads
from perfbench.spans import Patcher, SpanRecorder, is_wrapper


def _tiny_cells():
    from repro.core.config import DareConfig
    from repro.experiments.runner import ExperimentConfig
    from repro.workloads.swim import synthesize_wl1

    workload = synthesize_wl1(np.random.default_rng(3), n_jobs=20)
    config = ExperimentConfig(dare=DareConfig.greedy_lru(), seed=3)
    return [workloads.Cell("tiny/lru", config, workload)]


def _wrapped_names():
    return [f"{owner!r}.{attr}" for owner, attr in layers.patched_names()
            if is_wrapper(owner.__dict__[attr])]


def test_install_patches_and_restore_removes_every_wrapper():
    names = layers.patched_names()
    assert len(names) >= 20
    patcher = Patcher(SpanRecorder("t"))
    layers.install(patcher)
    assert all(is_wrapper(owner.__dict__[attr]) for owner, attr in names)
    patcher.restore()
    assert _wrapped_names() == []


def test_restore_after_a_failing_traced_pass():
    patcher = Patcher(SpanRecorder("t"))
    with pytest.raises(ZeroDivisionError):
        with patcher:
            layers.install(patcher)
            1 / 0
    assert _wrapped_names() == []


def test_traced_run_restores_and_reports_layers(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    cells = _tiny_cells()
    bench = run.Run("paper_grid", 3, seconds=0.01, trace=True)
    untraced = workloads.run_pass(cells)
    assert all(op.ok for op in untraced), untraced
    run._traced(bench, lambda recorder: workloads.run_pass(cells, recorder),
                lambda: True, untraced[0].wall_s)
    assert _wrapped_names() == []
    assert bench.failed == 0, bench.errors
    for name in ("cluster.build_s", "hdfs.create_file_s", "core.dare_build_s",
                 "simulation.run_s", "scheduling.pick_map_s", "mapreduce.heartbeat_s",
                 "metrics.finalize_s", "core.on_map_task_s", "trace.overhead_x"):
        assert bench.metrics[name][0] > 0, name
    assert bench.metrics["core.per_node_budget_blocks"][0] >= 1
    assert (tmp_path / "spans-paper_grid.npz").exists()
    # the plain run after restore is untraced and gives the same simulation
    again = workloads.run_pass(cells)
    assert again[0].summary == untraced[0].summary
