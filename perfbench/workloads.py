"""The three in-process workloads: their inputs, one pass, and its checks.

Every workload is a fixed set of *operations* generated from the seed; a
run repeats that set (a *pass*) until its time is up.  An operation is
one experiment cell: ``Simulation(...)`` construction (the set-up),
``run()`` and ``finalize()``, exactly what ``run_experiment`` does, or
``run_experiment`` itself for a rollout cell.

Why each workload exists is recorded in ``BENCHMARK.json`` and in
:data:`WHY`; in short:

* ``paper_grid`` -- the paper's own cells (Fig. 7, Fig. 10 and the
  Fig. 9a budget-0.1 greedy-LRU cells) at 500 jobs, one trace per bar
  group: dense load on small clusters, where the event loop is about 90%
  of the time and the budget-0.1 cells drive the DARE eviction path;
* ``scale_20k`` -- one 20,000-node mesoscale cell with a 25x catalog:
  sparse load on a huge cluster, where build, event loop and finalize
  are each large;
* ``rollout`` -- the policy-benchmark rollout cell next to its
  greedy-LRU host on 16 derived workload seeds: the only workload that
  reaches ``checkpoint`` and ``policies.parallel``.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import random
import time
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

#: the grid and cell sizes (see the module docstring for why)
PAPER_JOBS = 500
SCALE_NODES = 20_000
#: 120 rather than 60 jobs: with only a handful of remote reads per
#: trace, ElephantTrap's p=0.3 coin leaves some 60-job seeds with a
#: single replica or none, and the run would fail its DARE check
SCALE_JOBS = 120
SCALE_CATALOG_X = 25
#: a rollout cell's cost varies 20-35% from one 200-job wl1 trace to the
#: next (about 20% at 50 or 100 jobs, once steady_wl1 removes the rare
#: large job that made one trace cost several times the others); so a
#: pass sums sixteen 50-job traces from derived seeds, to keep the
#: per-run figure steady
ROLLOUT_JOBS = 50
ROLLOUT_SEEDS = 16
#: fork-scoring workers: one per CPU of the two-CPU machine the loads are sized for
ROLLOUT_WORKERS = 2


class Cell(NamedTuple):
    """One operation: an experiment config and the workload it replays."""

    key: str
    config: object          # ExperimentConfig
    workload: object        # repro.workloads.swim.Workload
    #: rollout cells go through run_experiment; the rest are driven here
    rollout: bool = False
    #: key of the plain cell this rollout cell must not lose locality to
    host_key: str = ""


class Op(NamedTuple):
    """What one operation took and produced."""

    key: str
    wall_s: float
    setup_s: float          # NaN when the op has no separate set-up
    ok: bool
    error: str
    #: simulated statistics (deterministic; feed the digest)
    summary: Dict
    #: events the engine processed (host run only)
    events: int = 0
    #: wall time inside Simulation.run (NaN for rollout cells)
    run_s: float = float("nan")
    #: callback-profiler bucket -> sampled seconds (traced passes only)
    buckets: Optional[Dict[str, float]] = None
    #: wall_s and setup_s in reference seconds (calibrated passes only;
    #: see :mod:`perfbench.hostspeed`)
    ref_wall_s: float = float("nan")
    ref_setup_s: float = float("nan")


# -- inputs ---------------------------------------------------------------------


def derived_seeds(seed: int, n: int) -> List[int]:
    """``n`` distinct workload seeds derived from the benchmark seed."""
    rng = random.Random(seed)
    out: List[int] = []
    while len(out) < n:
        s = rng.randrange(1, 2**31 - 1)
        if s not in out:
            out.append(s)
    return out


def fixed_span(workload):
    """``workload`` with its arrivals scaled to the generator's mean span.

    The seed still decides which files the jobs read, how large they are
    and how arrivals cluster, but the last job always arrives at the
    expected time for that many jobs.  Unscaled, the span of a 500-job
    trace varies twentyfold from seed to seed, and with it the heartbeat
    count that dominates a cell's cost.
    """
    from repro.workloads.swim import WL1_PARAMS, WL2_PARAMS, Workload

    params = {"wl1": WL1_PARAMS, "wl2": WL2_PARAMS}[workload.name]
    n = workload.n_jobs
    span = n / (1.0 + params.burst_mean) * params.interburst_mean_s \
        + n * params.intraburst_mean_s
    factor = span / max(s.submit_time for s in workload.specs)
    return Workload(workload.name, workload.catalog, [
        s._replace(submit_time=s.submit_time * factor) for s in workload.specs
    ])


#: the golden-ratio step of :func:`quantile_ranked`'s quantile sequence
_GOLDEN = 0.6180339887498949


def quantile_ranked(catalog):
    """``catalog`` with each size class's sizes dealt to fixed quantiles.

    The seed still draws every file's size; only which file gets which
    size changes.  Rank ``r`` of a class (its ``r``-th most popular file)
    gets the size at quantile ``frac(0.5 + r * 0.618...)`` of the class's
    draws, so the hottest file -- to which Zipf(1.5) popularity sends
    about 38% of the class's jobs -- always has the median size.  Left as
    drawn, that one size swung a trace's map-task count twofold from seed
    to seed, and a ``scale_20k`` pass's time with it.
    """
    from repro.workloads.catalog import FileCatalog

    files = list(catalog.files)
    for size_class in ("small", "medium", "large"):
        members = catalog.by_class(size_class)
        sizes = sorted(files[i].n_blocks for i in members)
        keys = [(0.5 + r * _GOLDEN) % 1.0 for r in range(len(members))]
        for pos, r in enumerate(sorted(range(len(members)), key=keys.__getitem__)):
            i = members[r]
            files[i] = files[i]._replace(n_blocks=sizes[pos])
    return FileCatalog(files)


def exact_class_mix(workload, rng):
    """``workload`` with exactly its expected number of jobs per size class.

    wl1 draws each job's size class independently (97% small, 2.9% medium,
    0.1% large), so a 120-job trace holds anywhere from none to eight
    medium jobs and now and then a large one of 120-360 blocks; that count
    set a ``scale_20k`` trace's map-task total more than anything else.
    Here the surplus jobs of over-drawn classes, picked by ``rng``, read a
    file of an under-drawn class instead, chosen with the generator's own
    Zipf popularity (at 120 jobs: 117 small, 3 medium, no large).  Arrivals
    and every other draw stay the seed's.
    """
    from repro.workloads.popularity import zipf_weights
    from repro.workloads.swim import WL1_PARAMS as params
    from repro.workloads.swim import Workload

    assert workload.name == params.name
    catalog, specs = workload.catalog, list(workload.specs)
    classes = ("small", "medium", "large")
    size_class = {f.name: f.size_class for f in catalog.files}
    n = len(specs)
    mix = [m / sum(params.class_mix) for m in params.class_mix]
    want = [round(n * m) for m in mix[1:]]
    want = [n - sum(want)] + want
    have = {c: [i for i, sp in enumerate(specs) if size_class[sp.input_file] == c]
            for c in classes}
    surplus: List[int] = []
    for c, w in zip(classes, want):
        if len(have[c]) > w:
            surplus.extend(int(i) for i in rng.choice(have[c], len(have[c]) - w,
                                                       replace=False))
    surplus.sort()
    for c, w in zip(classes, want):
        members = catalog.by_class(c)
        weights = zipf_weights(len(members), params.zipf_s)
        for _ in range(max(0, w - len(have[c]))):
            i = surplus.pop(0)
            fspec = catalog[members[int(rng.choice(len(members), p=weights))]]
            specs[i] = specs[i]._replace(
                input_file=fspec.name, n_reduces=max(1, min(20, fspec.n_blocks // 6)))
    return Workload(workload.name, catalog, specs)


def steady_wl1(rng, n_jobs: int, **catalog_kwargs):
    """A wl1 trace whose total work varies little from seed to seed.

    The catalog (``generate_catalog(rng, **catalog_kwargs)``) is
    :func:`quantile_ranked`, the trace has :func:`exact_class_mix` and a
    :func:`fixed_span`; ``rng`` is drawn from in the generator's own order.
    """
    from repro.workloads.catalog import generate_catalog
    from repro.workloads.swim import synthesize_wl1

    catalog = quantile_ranked(generate_catalog(rng, **catalog_kwargs))
    return fixed_span(exact_class_mix(
        synthesize_wl1(rng, n_jobs=n_jobs, catalog=catalog), rng))


def _synth(kind: str, seed: int, n_jobs: int):
    import numpy as np

    from repro.workloads.swim import synthesize_wl1, synthesize_wl2

    synth = synthesize_wl1 if kind == "wl1" else synthesize_wl2
    return fixed_span(synth(np.random.default_rng(seed), n_jobs=n_jobs))


def paper_grid_cells(seed: int) -> List[Cell]:
    """Fig. 7 (12 cells), Fig. 10 (6) and the Fig. 9a budget-0.1 cells (2).

    Each bar group -- one figure, workload and scheduler -- replays its
    own trace, from a seed derived from the benchmark seed, so that its
    policies still compare on one trace while the grid's total work
    averages over eight traces instead of following one wl1/wl2 pair.
    """
    from repro.experiments import figures as F

    def fig9a(n_jobs: int, gseed: int):
        return F.fig9a_cells((0.1,), n_jobs, gseed)

    groups = [
        (F.fig7_cells, "wl1", "fifo"), (F.fig7_cells, "wl1", "fair"),
        (F.fig7_cells, "wl2", "fifo"), (F.fig7_cells, "wl2", "fair"),
        (F.fig10_cells, "wl1", "fifo"), (F.fig10_cells, "wl1", "fair"),
        (fig9a, "wl2", "fifo"), (fig9a, "wl2", "fair"),
    ]
    cells: List[Cell] = []
    for (build, kind, scheduler), gseed in zip(groups, derived_seeds(seed, len(groups))):
        # the benchmark makes the inputs; the program only replays them
        workload = _synth(kind, gseed, PAPER_JOBS)
        cells.extend(
            Cell(c.tag, c.config, workload)
            for c in build(PAPER_JOBS, gseed)
            if c.workload.kind == kind and c.config.scheduler == scheduler
        )
    return cells


def scale_cells(seed: int) -> List[Cell]:
    """One 20k-node fair + ElephantTrap cell over a 25x-catalog wl1 trace."""
    import numpy as np

    from repro.cluster.cluster import scale_spec
    from repro.core.config import DareConfig
    from repro.experiments.runner import ExperimentConfig

    # the namespace grows with the cluster: generate_catalog's default
    # 90/24/6 file mix, 25 times over (~3,000 files, ~69k blocks)
    workload = steady_wl1(
        np.random.default_rng(seed), SCALE_JOBS,
        n_small=90 * SCALE_CATALOG_X,
        n_medium=24 * SCALE_CATALOG_X,
        n_large=6 * SCALE_CATALOG_X,
    )
    config = ExperimentConfig(
        cluster_spec=scale_spec(SCALE_NODES, mesoscale=True),
        scheduler="fair",
        dare=DareConfig.elephant_trap(),
        seed=seed,
    )
    return [Cell(f"scale{SCALE_NODES}/wl1/fair/elephant-trap", config, workload)]


def rollout_cells(seed: int) -> List[Cell]:
    """Greedy-LRU host and rollout-greedy cells on 16 derived seeds."""
    import numpy as np

    from repro.policies.bench import BENCH_ROLLOUT, bench_config
    from repro.workloads.swim import WL1_PARAMS

    host = bench_config("greedy-lru")
    roll = dataclasses.replace(
        bench_config("rollout"), rollout=BENCH_ROLLOUT._replace(jobs=ROLLOUT_WORKERS)
    )
    cells: List[Cell] = []
    for wseed in derived_seeds(seed, ROLLOUT_SEEDS):
        workload = steady_wl1(np.random.default_rng(wseed), ROLLOUT_JOBS,
                              **WL1_PARAMS.catalog_kwargs)
        cells.append(Cell(f"s{wseed}/greedy-lru", host, workload))
        cells.append(Cell(f"s{wseed}/rollout", roll, workload, rollout=True,
                          host_key=f"s{wseed}/greedy-lru"))
    return cells


GENERATORS = {
    "paper_grid": paper_grid_cells,
    "scale_20k": scale_cells,
    "rollout": rollout_cells,
}


def fingerprint(cells: Sequence[Cell]) -> bytes:
    """Canonical bytes of a workload's inputs: configs, catalogs and jobs."""
    from repro.experiments.serialize import config_to_dict

    doc = []
    for cell in cells:
        wl = cell.workload
        doc.append({
            "key": cell.key,
            "config": config_to_dict(cell.config),
            "workload": wl.name,
            "files": [list(f) for f in wl.catalog.files],
            "jobs": [list(s) for s in wl.specs],
        })
    return json.dumps(doc, sort_keys=True, default=repr).encode()


# -- one pass -------------------------------------------------------------------

_clock = time.perf_counter


def _summary(result) -> Dict:
    return {
        "n_jobs": result.n_jobs,
        "job_locality": result.job_locality,
        "gmtt_s": result.gmtt_s,
        "makespan_s": result.makespan_s,
        "blocks_created": result.blocks_created,
        "blocks_evicted": result.blocks_evicted,
    }


def _buckets(result) -> Optional[Dict[str, float]]:
    if result.profiler is None:
        return None
    return {b.bucket: b.total_s for b in result.profiler.report()}


def _check_plain(cell: Cell, result, sim) -> str:
    """Empty when a plain cell's outputs pass every check."""
    from repro.hdfs.block import DEFAULT_BLOCK_SIZE

    if result.n_jobs != cell.workload.n_jobs:
        return f"{result.n_jobs}/{cell.workload.n_jobs} jobs completed"
    if cell.config.dare.enabled:
        budget = sim.dare.per_node_budget_bytes / DEFAULT_BLOCK_SIZE
        if budget < 1.0:
            return f"DARE budget {budget:.3f} blocks per node (< 1)"
        if result.blocks_created <= 0:
            return "DARE enabled but created no replicas"
    return ""


def _reference(calibrator, raw_s: float) -> float:
    """The phase just timed in reference seconds (NaN when not calibrated)."""
    return float("nan") if calibrator is None else calibrator.phase(raw_s)


def run_cell(cell: Cell, host_summaries: Dict[str, Dict], recorder=None,
             calibrator=None) -> Op:
    """Run one cell and check its outputs; never raises.

    Traced (``recorder`` given), the cell runs with the callback profiler
    on and a rollout cell runs inside a ``policies.rollout`` span, whose
    self time is the rollout loop's own.  With a
    :class:`~perfbench.hostspeed.Calibrator`, every phase -- set-up, run,
    finalize, or a whole rollout cell -- is followed by a host-speed probe
    and also reported in reference seconds.
    """
    from repro.experiments.runner import Simulation, run_experiment

    config = cell.config
    if recorder is not None:
        config = dataclasses.replace(config, profile=True)
    try:
        if cell.rollout:
            t0 = _clock()
            if recorder is None:
                result = run_experiment(config, cell.workload)
            else:
                with recorder.span("policies.rollout"):
                    result = run_experiment(config, cell.workload)
            wall = _clock() - t0
            ref_wall = _reference(calibrator, wall)
            setup = run_s = ref_setup = float("nan")
            error = ""
            if result.n_jobs != cell.workload.n_jobs:
                error = f"{result.n_jobs}/{cell.workload.n_jobs} jobs completed"
            host = host_summaries.get(cell.host_key)
            if not error and host is not None \
                    and result.job_locality < host["job_locality"]:
                error = (f"rollout locality {result.job_locality:.4f} < host "
                         f"{host['job_locality']:.4f}")
            if not error and result.blocks_created <= 0:
                error = "DARE enabled but created no replicas"
        else:
            t0 = _clock()
            sim = Simulation(config, cell.workload)
            setup = _clock() - t0
            ref_setup = _reference(calibrator, setup)
            t0 = _clock()
            sim.run()
            run_s = _clock() - t0
            ref_run = _reference(calibrator, run_s)
            t0 = _clock()
            result = sim.finalize()
            finalize = _clock() - t0
            ref_wall = ref_setup + ref_run + _reference(calibrator, finalize)
            wall = setup + run_s + finalize
            error = _check_plain(cell, result, sim)
            del sim
    except Exception as exc:  # one failed cell must not end the run
        return Op(cell.key, float("nan"), float("nan"), False,
                  f"{type(exc).__name__}: {exc}", {})
    summary = _summary(result)
    if not cell.rollout:
        host_summaries[cell.key] = summary
    return Op(cell.key, wall, setup, not error, error, summary,
              events=result.events_processed, run_s=run_s,
              buckets=_buckets(result), ref_wall_s=ref_wall, ref_setup_s=ref_setup)


def run_pass(cells: Sequence[Cell], recorder=None,
             sensitivity: Optional[float] = None) -> List[Op]:
    """Every cell once, in order; each inside a ``bench.op`` span if traced.

    Each cell starts from a collected heap, so the garbage-collection work
    a cell pays for is its own, not its predecessor's.  Given the
    workload's ``sensitivity`` (untraced passes only), the host speed is
    probed between phases and each op also carries its times in reference
    seconds.
    """
    from perfbench.hostspeed import Calibrator

    hosts: Dict[str, Dict] = {}
    ops: List[Op] = []
    calibrator = None
    if sensitivity is not None and recorder is None:
        calibrator = Calibrator(sensitivity)
    for cell in cells:
        gc.collect()
        if recorder is None:
            ops.append(run_cell(cell, hosts, calibrator=calibrator))
        else:
            with recorder.span("bench.op"):
                ops.append(run_cell(cell, hosts, recorder))
    return ops


# -- reduction --------------------------------------------------------------------


def digest(summaries: Sequence[Tuple[str, Dict]]) -> str:
    """Short hash of the simulated statistics of one pass."""
    blob = json.dumps(list(summaries), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def sum_of_medians(passes: Sequence[Sequence[Op]], field: str) -> Tuple[float, int]:
    """One pass's total of ``field``, from each op's median over the passes.

    Returns ``(value, samples)``; ops without the field (NaN) are skipped.
    """
    import statistics

    by_key: Dict[str, List[float]] = {}
    for ops in passes:
        for op in ops:
            value = getattr(op, field)
            if value == value:  # not NaN
                by_key.setdefault(op.key, []).append(value)
    total = sum(statistics.median(v) for v in by_key.values())
    return total, sum(len(v) for v in by_key.values())


WHY = {
    "paper_grid": (
        "the paper's Fig. 7/10 and Fig. 9a budget-0.1 cells at 500 jobs, a trace per "
        "bar group: event loop ~90% of the time; the 0.1 cells drive DARE eviction"
    ),
    "scale_20k": (
        "one 20k-node mesoscale fair+ElephantTrap cell with a 25x catalog: "
        "build, event loop and finalize each large; sparse load"
    ),
    "rollout": (
        "rollout-greedy next to its greedy-LRU host on 16 derived seeds: "
        "the only path through checkpoint and policies.parallel"
    ),
    "serve": (
        "2 closed-loop clients on repro serve --workers 2, every 4th job a "
        "repeat: the only path through server and experiments.jobs"
    ),
}
