#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper_grid --seed 20110926 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --trace 1
    python3 perfbench/run.py --list-metrics

Run from the root of a checkout: the simulator is imported from
``src/`` next to this directory, and nothing else.  The workload's
inputs are generated from ``--seed``; the run repeats them until
``--seconds`` have passed and reports medians.  ``setup_s`` and
``wall_s`` are in reference seconds, wall seconds corrected for the
host's speed drift by probes between the timed phases (see
``perfbench/hostspeed.py``); the plain wall seconds are printed as
``setup_raw_s`` and ``wall_raw_s``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``).  Everything above it is the
human-readable report, stamped with the CPU count, Python version, git
commit, seed, loop type and client count.  Full records and the traced
spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")
WORKLOADS = ("paper_grid", "scale_20k", "rollout", "serve")
DEFAULT_SEED = 20110926
#: share of a traced run's time given to untraced passes (the overhead
#: base) and, separately, to traced passes
TRACE_SHARE = 1.0 / 3.0

_clock = time.perf_counter
NAN = float("nan")


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path; fail without it."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no simulator sources at {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, ROOT)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def git_commit() -> str:
    """HEAD of the checkout, or 'unknown' outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Run:
    """What one workload run measured, before it is printed."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: name -> (value, samples)
        self.metrics: Dict[str, Tuple[float, int]] = {}
        self.notes: List[str] = []
        self.digest = ""
        #: traced runs: self time by layer, per traced pass
        self.layer_self: Dict[str, float] = {}

    def op(self, ok: bool, error: str, label: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"{label}: {error}")

    def put(self, name: str, value: float, samples: int = 1) -> None:
        self.metrics[name] = (float(value), int(samples))


# -- in-process workloads -------------------------------------------------------------


def _another(start: float, walls: List[float], budget_s: float) -> bool:
    """Whether a further pass, as long as the median one so far, still ends
    within ``budget_s`` of ``start`` (always true before the first pass)."""
    return not walls or _clock() - start + statistics.median(walls) <= budget_s


def _passes(run_pass, budget_s: float) -> Tuple[list, List[float]]:
    """Repeat ``run_pass`` while another pass fits in ``budget_s`` (at least once)."""
    results, walls = [], []
    start = _clock()
    while _another(start, walls, budget_s):
        t0 = _clock()
        results.append(run_pass())
        walls.append(_clock() - t0)
    return results, walls


def _account(run: Run, passes) -> None:
    for ops in passes:
        for op in ops:
            run.op(op.ok, op.error, op.key)


def _simulated(run: Run, ops) -> None:
    """Digest and means of the simulated statistics of one pass."""
    from perfbench.workloads import digest

    run.digest = digest([(op.key, op.summary) for op in ops])
    done = [op.summary for op in ops if op.summary]
    if done:
        run.put("job_locality", statistics.fmean(s["job_locality"] for s in done), len(done))
        run.put("gmtt_s", statistics.fmean(s["gmtt_s"] for s in done), len(done))


def _end_to_end_in_process(run: Run, passes) -> None:
    from perfbench.workloads import sum_of_medians

    run.put("setup_s", *sum_of_medians(passes, "ref_setup_s"))
    run.put("wall_s", *sum_of_medians(passes, "ref_wall_s"))
    run.put("setup_raw_s", *sum_of_medians(passes, "setup_s"))
    run.put("wall_raw_s", *sum_of_medians(passes, "wall_s"))
    if run.workload == "rollout":
        roll = [[op for op in ops if op.key.endswith("/rollout")] for ops in passes]
        host = [[op for op in ops if not op.key.endswith("/rollout")] for ops in passes]
        r, n = sum_of_medians(roll, "wall_s")
        h, _ = sum_of_medians(host, "wall_s")
        run.put("rollout_overhead_x", r / h if h else NAN, n)


def run_in_process(run: Run) -> None:
    from perfbench import workloads as W
    from perfbench.hostspeed import SENSITIVITY

    t0 = _clock()
    cells = W.GENERATORS[run.workload](run.seed)
    run.put("workloads.generate_s", _clock() - t0)
    budget = run.seconds * (TRACE_SHARE if run.trace else 1.0)
    # traced, the untraced passes are the overhead base and run exactly as
    # the traced ones do, without host-speed probes
    sensitivity = None if run.trace else SENSITIVITY[run.workload]
    passes, walls = _passes(lambda: W.run_pass(cells, sensitivity=sensitivity), budget)
    _account(run, passes)
    _simulated(run, passes[0])
    if not run.trace:
        _end_to_end_in_process(run, passes)
        run.put("peak_rss_mb", peak_rss_mb())
        return
    plain = [op for ops in passes for op in ops if op.run_s == op.run_s]
    run_s = sum(op.run_s for op in plain)
    run.put("simulation.events_per_s",
            sum(op.events for op in plain) / run_s if run_s else NAN, len(plain))
    _traced(run, lambda recorder: W.run_pass(cells, recorder),
            lambda: W.fingerprint(W.GENERATORS[run.workload](run.seed)) == W.fingerprint(cells),
            statistics.median(walls))


def _traced(run: Run, traced_pass, regenerate_matches, untraced_wall: float) -> None:
    """Install the wrappers, run traced passes, restore, report layers."""
    from perfbench.layers import install, patched_names
    from perfbench.spans import Patcher, SpanRecorder, is_wrapper, recorder_stats

    recorder = SpanRecorder(f"{run.workload}-s{run.seed}-{os.getpid()}")
    patcher = Patcher(recorder)
    passes: List = []
    walls: List[float] = []
    start = _clock()
    install(patcher)
    try:
        with recorder.span("workloads.generate"):
            same = regenerate_matches()
        run.op(same, "regenerated inputs differ from the first generation", "inputs")
        budget = run.seconds * TRACE_SHARE
        t_loop = _clock()
        while _another(t_loop, walls, budget):
            t0 = _clock()
            with recorder.span("bench.pass"):
                passes.append(traced_pass(recorder))
            walls.append(_clock() - t0)
    finally:
        patcher.restore()
    traced_wall = _clock() - start
    left = [f"{getattr(o, '__name__', o)}.{a}" for o, a in patched_names()
            if is_wrapper(getattr(o, a))]
    run.op(not left, f"wrappers left installed: {left}", "restore")
    _account(run, passes)
    stats = recorder_stats(recorder)
    _layer_metrics(run, recorder, stats, passes)
    run.put("trace.overhead_x", statistics.median(walls) / untraced_wall, len(walls))
    uncovered = traced_wall - stats.top_level_s
    run.notes.append(
        f"top-level spans cover {stats.top_level_s:.3f} s of {traced_wall:.3f} s traced "
        f"wall; uncovered remainder {uncovered:.4f} s"
    )
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{run.workload}.npz")
    recorder.save(path)
    run.notes.append(f"{len(recorder)} spans written to {os.path.relpath(path, ROOT)}")
    run.layer_self = {k: v / len(passes) for k, v in stats.layer_self_s().items()}


def _layer_metrics(run: Run, recorder, stats, passes) -> None:
    """Per-layer metrics, per traced pass."""
    import numpy as np

    n = len(passes)
    total, calls, counters = stats.total_s, stats.calls, recorder.counters

    def per(value: float) -> float:
        return value / n

    for span, metric in (
        ("cluster.build", "cluster.build_s"),
        ("hdfs.create_file", "hdfs.create_file_s"),
        ("core.dare_build", "core.dare_build_s"),
        ("experiments.build", "experiments.build_s"),
        ("simulation.run", "simulation.run_s"),
        ("mapreduce.heartbeat", "mapreduce.heartbeat_s"),
        ("mapreduce.pending_work_units", "mapreduce.pending_work_units_s"),
        ("mapreduce.hub_tick", "mapreduce.hub_tick_s"),
        ("scheduling.pick_map", "scheduling.pick_map_s"),
        ("scheduling.pick_reduce", "scheduling.pick_reduce_s"),
        ("hdfs.process_heartbeat", "hdfs.process_heartbeat_s"),
        ("metrics.finalize", "metrics.finalize_s"),
        ("metrics.mean_slowdown", "metrics.mean_slowdown_s"),
        ("metrics.popularity_indices", "metrics.popularity_indices_s"),
        ("hdfs.check_integrity", "hdfs.check_integrity_s"),
        ("core.on_map_task", "core.on_map_task_s"),
        ("checkpoint.snapshot", "checkpoint.snapshot_s"),
        ("policies.score_epoch", "policies.score_epoch_s"),
    ):
        if span in calls:
            run.put(metric, per(total[span]), calls[span])
    for span, metric in (
        ("hdfs.create_file", "hdfs.create_file_calls"),
        ("mapreduce.heartbeat", "mapreduce.heartbeat_calls"),
        ("scheduling.pick_map", "scheduling.pick_map_calls"),
        ("hdfs.process_heartbeat", "hdfs.process_heartbeat_calls"),
        ("core.on_map_task", "core.on_map_task_calls"),
        ("checkpoint.snapshot", "checkpoint.snapshot_calls"),
        ("policies.score_epoch", "policies.epochs"),
    ):
        if span in calls:
            run.put(metric, per(calls[span]), n)
    run.put("workloads.generate_s", total.get("workloads.generate", NAN))
    if calls.get("scheduling.pick_map"):
        run.put("scheduling.pick_map_hit_ratio",
                counters.get("scheduling.pick_map_hits", 0.0) / calls["scheduling.pick_map"],
                calls["scheduling.pick_map"])
    if counters.get("core.remote_reads"):
        run.put("core.replicate_ratio",
                counters.get("core.replications", 0.0) / counters["core.remote_reads"],
                int(counters["core.remote_reads"]))
    if counters.get("core.dare_services"):
        run.put("core.per_node_budget_blocks",
                counters["core.budget_blocks"] / counters["core.dare_services"],
                int(counters["core.dare_services"]))
    if calls.get("checkpoint.snapshot"):
        run.put("checkpoint.snapshot_bytes",
                counters.get("checkpoint.snapshot_bytes", 0.0) / calls["checkpoint.snapshot"],
                calls["checkpoint.snapshot"])
    if calls.get("policies.score_epoch"):
        run.put("policies.applied_ratio",
                counters.get("policies.applied", 0.0) / calls["policies.score_epoch"],
                calls["policies.score_epoch"])
        cols = recorder.arrays()
        names = np.asarray(recorder.names)
        runs = names[cols["name_idx"]] == "simulation.run"
        parent = cols["parent"]
        under = np.zeros(len(parent), dtype=bool)
        has = parent >= 0
        under[has] = names[cols["name_idx"][parent[has]]] == "policies.rollout"
        mask = runs & under
        run.put("policies.host_run_s",
                per(float((cols["end"] - cols["start"])[mask].sum())), int(mask.sum()))
    ops = [op for ops in passes for op in ops]
    run.put("simulation.events", per(sum(op.events for op in ops)), len(ops))
    done = [op.summary for op in ops if op.summary]
    run.put("core.blocks_created", per(sum(s["blocks_created"] for s in done)), len(done))
    run.put("core.blocks_evicted", per(sum(s["blocks_evicted"] for s in done)), len(done))
    buckets: Dict[str, float] = {}
    for op in ops:
        for name, secs in (op.buckets or {}).items():
            buckets[name] = buckets.get(name, 0.0) + secs
    grand = sum(buckets.values())
    for name, secs in sorted(buckets.items(), key=lambda kv: -kv[1]):
        run.put(f"simulation.bucket.{name}.share", secs / grand if grand else NAN)
    for layer, secs in stats.layer_self_s().items():
        run.put(f"self_s.{layer}", per(secs), n)


# -- serve ------------------------------------------------------------------------------


def run_serve(run: Run) -> None:
    from perfbench import serve as S
    from perfbench import workloads as W
    from perfbench.hostspeed import SENSITIVITY
    from perfbench.stats import percentile, tail_percentile

    docs = S.submissions(run.seed)
    workdir = os.path.join(OUT, f"serve-{os.getpid()}")
    budget = run.seconds * (TRACE_SHARE if run.trace else 1.0)
    passes, _ = _passes(lambda: S.run_pass(ROOT, workdir, docs, SENSITIVITY["serve"]),
                        budget)
    if not any(p.error for p in passes):
        shutil.rmtree(workdir, ignore_errors=True)
    for p in passes:
        if p.error:
            run.op(False, p.error, "server")
        for job in p.jobs:
            run.op(job.ok, job.error, f"job {job.index}")
    # one job's result must equal the in-process rendering of the same cells
    expected, outcomes = S.reference_doc(docs[0])
    first = passes[0].jobs[0] if passes[0].jobs else None
    run.op(first is not None and first.body == expected,
           "served result differs from in-process run_cells", "reference")
    run.digest = W.digest(sorted(
        (d["seed"], json.loads(j.body)["cells"][0]["result"]["job_locality"])
        for d, j in zip(docs, passes[0].jobs) if j.ok
    ))
    results = [o.result for o in outcomes if o.result is not None]
    if run.trace and results:
        engine_s = sum(r.engine_wall_s for r in results)
        run.put("simulation.events_per_s",
                sum(r.events_processed for r in results) / engine_s, len(results))
    if results:
        run.put("job_locality", statistics.fmean(r.job_locality for r in results), len(results))
        run.put("gmtt_s", statistics.fmean(r.gmtt_s for r in results), len(results))
    jobs = [j for p in passes for j in p.jobs if j.ok]
    good = [p for p in passes if not p.error and p.wall_s == p.wall_s]
    if not good or not jobs:
        run.op(False, "no pass completed", "server")
        return
    if not run.trace:
        for name, field in (("setup_s", "ref_setup_s"), ("wall_s", "ref_wall_s"),
                            ("setup_raw_s", "setup_s"), ("wall_raw_s", "wall_s")):
            run.put(name, statistics.median(getattr(p, field) for p in good), len(good))
        run.put("peak_rss_mb", peak_rss_mb())
        latencies = [j.latency_s for j in jobs]
        run.put("job_latency_p50_s", percentile(latencies, 50), len(latencies))
        q = tail_percentile(len(latencies))
        if q is not None:
            run.put("job_latency_p90_s" if q == 90 else f"job_latency_p{q:g}_s",
                    percentile(latencies, q), len(latencies))
        else:
            run.notes.append(f"{len(latencies)} jobs: too few for a tail percentile")
        run.put("jobs_per_s", sum(len(p.jobs) for p in good) / sum(p.wall_s for p in good),
                len(jobs))
        return
    run.put("server.submit_s_p50", percentile([j.submit_s for j in jobs], 50), len(jobs))
    run.put("server.result_s_p50", percentile([j.result_s for j in jobs], 50), len(jobs))
    run.put("server.http_errors", sum(1 for p in passes for j in p.jobs if not j.ok))
    waits = [j.queue_wait_s for j in jobs if j.queue_wait_s == j.queue_wait_s]
    if waits:
        run.put("experiments.queue_wait_s_p50", percentile(waits, 50), len(waits))
    execs = [d for j in jobs for d in j.cell_exec_s]
    if execs:
        run.put("experiments.cell_exec_s_p50", percentile(execs, 50), len(execs))
    submitted = sum(p.cells_submitted for p in good)
    executed = sum(p.cells_executed for p in good)
    run.put("experiments.cache_hit_ratio", 1.0 - executed / submitted if submitted else NAN,
            submitted)
    run.put("experiments.cells_executed", executed / len(good) if good else NAN, len(good))

    # the simulator's layers, traced on the in-process reference job
    def traced_reference(recorder):
        with recorder.span("bench.op"):
            _, outs = S.reference_doc(docs[0])
        return [_op_of(o) for o in outs]

    _, ref_walls = _passes(lambda: S.reference_doc(docs[0]), run.seconds * TRACE_SHARE)
    _traced(run, traced_reference,
            lambda: S.fingerprint(S.submissions(run.seed)) == S.fingerprint(docs),
            statistics.median(ref_walls))


def _op_of(outcome):
    """A reference cell outcome in the in-process ``Op`` shape."""
    from perfbench.workloads import Op

    r = outcome.result
    if r is None:
        return Op(outcome.cell.tag, NAN, NAN, False, outcome.error, {})
    summary = {"blocks_created": r.blocks_created, "blocks_evicted": r.blocks_evicted,
               "job_locality": r.job_locality, "gmtt_s": r.gmtt_s}
    return Op(outcome.cell.tag, NAN, NAN, outcome.ok, outcome.error, summary,
              events=r.events_processed)


# -- reporting ----------------------------------------------------------------------------


LOOPS = {
    "paper_grid": ("batch, serial, in-process", 1),
    "scale_20k": ("batch, one cell, in-process", 1),
    "rollout": ("batch, in-process, 2 fork-scoring workers", 1),
    "serve": ("closed loop, zero think time", 2),
}


def stamp(run: Run) -> Dict:
    loop, clients = LOOPS[run.workload]
    return {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": int(run.trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "loop": loop,
        "clients": clients,
    }


def final_line(run: Run) -> Dict:
    """The last stdout line: the metrics BENCHMARK.json lists for this mode."""
    from perfbench.layers import BY_NAME, END_TO_END, PER_LAYER

    names = PER_LAYER if run.trace else END_TO_END
    correct = run.failed == 0
    metrics = {}
    for name in names:
        value = run.metrics.get(name, (NAN, 0))[0]
        if value != value:
            correct = False
            run.errors.append(f"metric {name} was not measured")
            value = 0.0
        metrics[name] = {"value": value, "unit": BY_NAME[name].unit}
    return {"correct": correct, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def report(run: Run, info: Dict) -> List[str]:
    from perfbench.layers import BY_NAME

    lines = [
        f"# perfbench {run.workload}: seed={run.seed} seconds={run.seconds:g} "
        f"trace={int(run.trace)} nproc={info['nproc']} python={info['python']} "
        f"commit={info['commit'][:12]} loop='{info['loop']}' clients={info['clients']}",
        f"# operations: attempted={run.attempted} failed={run.failed} "
        f"error_rate={run.failed / run.attempted if run.attempted else 0.0:.4f}",
        f"# simulated-statistics digest: {run.digest}",
    ]
    if run.layer_self:
        lines.append("# self time by layer, per traced pass:")
        whole = sum(run.layer_self.values())
        for layer, secs in sorted(run.layer_self.items(), key=lambda kv: -kv[1]):
            lines.append(f"#   {layer:<12s} {secs:10.4f} s  {secs / whole:6.1%}")
    lines.append(f"# {'metric':<40s} {'value':>16s} {'unit':<6s} samples")
    for name, (value, samples) in run.metrics.items():
        unit = BY_NAME[name].unit if name in BY_NAME else (
            "s" if name.endswith("_s") else "ratio")
        lines.append(f"#   {name:<38s} {value:16.6g} {unit:<6s} n={samples}")
    lines.extend(f"# note: {note}" for note in run.notes)
    lines.extend(f"# FAILED {err}" for err in run.errors)
    return lines


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    run = Run(workload, seed, seconds, trace)
    if workload == "serve":
        run_serve(run)
    else:
        run_in_process(run)
    if not run.trace and run.attempted:
        run.put("error_rate", run.failed / run.attempted, run.attempted)
    info = stamp(run)
    line = final_line(run)
    for text in report(run, info):
        print(text)
    os.makedirs(OUT, exist_ok=True)
    record = dict(info, digest=run.digest, errors=run.errors,
                  metrics={k: {"value": v, "samples": n} for k, (v, n) in run.metrics.items()},
                  result=line)
    path = os.path.join(OUT, f"result-{workload}-s{seed}-t{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    print(json.dumps(line), flush=True)
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process (so peak RSS is per workload)."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            merged["correct"] = False
            continue
        line = json.loads(lines[-1])
        merged["correct"] &= line["correct"]
        merged["attempted"] += line["attempted"]
        merged["failed"] += line["failed"]
        for name, value in line["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(merged), flush=True)
    return 0


def list_metrics() -> int:
    from perfbench.layers import CATALOG

    print(f"{'metric':<36s} {'unit':<6s} {'better':<7s} {'layer':<12s} "
          f"{'in BENCHMARK.json':<17s} {'moves':<34s} workloads")
    for m in CATALOG:
        where = "end_to_end" if m.layer == "end_to_end" and m.universal else \
            "per_layer" if m.universal else "table only"
        print(f"{m.name:<36s} {m.unit:<6s} {m.better:<7s} {m.layer:<12s} {where:<17s} "
              f"{m.moves:<34s} {','.join(m.workloads)}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list-metrics", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _import_program()
    if args.list_metrics:
        return list_metrics()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
