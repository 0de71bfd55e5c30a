"""Reference seconds: the arithmetic, the probe counts and a calibrated pass."""

import math

import numpy as np
import pytest

from perfbench import hostspeed, workloads


def test_to_reference_divides_by_the_mean_probe_to_the_sensitivity():
    assert hostspeed.to_reference(3.0, 1.0, 1.0, 0.8) == 3.0
    # a host twice as slow as the reference, fully followed
    assert hostspeed.to_reference(4.0, 2.0, 2.0, 1.0) == 2.0
    # the mean of the two probes, to the workload's power
    assert hostspeed.to_reference(4.0, 1.0, 3.0, 0.5) == pytest.approx(4.0 / math.sqrt(2.0))


def test_samples_grow_with_the_phase_and_are_capped():
    assert hostspeed.samples_after(0.0) == 1
    assert hostspeed.samples_after(hostspeed.SAMPLE_EVERY_S * 3) == 3
    assert hostspeed.samples_after(1e6) == hostspeed.MAX_SAMPLES


def test_probe_reads_a_positive_slowness():
    assert 0.0 < hostspeed.probe() < 100.0
    assert 0.0 < hostspeed.probe(3) < 100.0


def test_every_workload_has_a_sensitivity():
    assert set(hostspeed.SENSITIVITY) == set(workloads.WHY)
    assert all(0.0 < s <= 1.0 for s in hostspeed.SENSITIVITY.values())


def test_a_calibrated_pass_reports_reference_seconds():
    from repro.core.config import DareConfig
    from repro.experiments.runner import ExperimentConfig
    from repro.workloads.swim import synthesize_wl1

    workload = synthesize_wl1(np.random.default_rng(3), n_jobs=20)
    cells = [workloads.Cell("tiny/lru", ExperimentConfig(dare=DareConfig.greedy_lru(), seed=3),
                            workload)]
    plain = workloads.run_pass(cells)[0]
    calibrated = workloads.run_pass(cells, sensitivity=0.8)[0]
    assert math.isnan(plain.ref_wall_s) and math.isnan(plain.ref_setup_s)
    assert calibrated.ok and calibrated.summary == plain.summary
    assert 0.0 < calibrated.ref_setup_s < calibrated.ref_wall_s
