"""Workload inputs are a function of the seed alone."""

import pytest

from perfbench import serve, workloads


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_same_seed_same_bytes_other_seed_other_bytes(name):
    make = workloads.GENERATORS[name]
    first = workloads.fingerprint(make(20110926))
    assert workloads.fingerprint(make(20110926)) == first
    assert workloads.fingerprint(make(7)) != first


def test_serve_submissions_follow_the_seed():
    docs = serve.submissions(20110926)
    assert serve.fingerprint(serve.submissions(20110926)) == serve.fingerprint(docs)
    assert serve.fingerprint(serve.submissions(7)) != serve.fingerprint(docs)
    seeds = [d["seed"] for d in docs]
    repeats = [k for k in range(len(docs)) if k % serve.REPEAT_EVERY == serve.REPEAT_EVERY - 1]
    assert all(seeds[k] == seeds[k - serve.REPEAT_EVERY + 1] for k in repeats)
    fresh = [s for k, s in enumerate(seeds) if k not in repeats]
    assert len(set(fresh)) == len(fresh)
    assert len({d["idempotency_key"] for d in docs}) == len(docs)


def test_paper_grid_covers_the_paper_cells():
    cells = workloads.paper_grid_cells(20110926)
    keys = [c.key for c in cells]
    assert len(keys) == len(set(keys)) == 20
    assert sum(k.startswith("fig7/") for k in keys) == 12
    assert sum(k.startswith("fig10/") for k in keys) == 6
    assert sum(k.startswith("fig9a/") for k in keys) == 2
    assert all(c.workload.n_jobs == workloads.PAPER_JOBS for c in cells)
    # one trace per bar group: figure x workload x scheduler
    assert len({id(c.workload) for c in cells}) == 8


def test_scale_catalog_grows_with_the_cluster():
    [cell] = workloads.scale_cells(20110926)
    assert len(cell.workload.catalog) == 120 * workloads.SCALE_CATALOG_X
    assert cell.config.cluster_spec.n_nodes == workloads.SCALE_NODES
