#!/usr/bin/env python3
"""Compare two sets of benchmark runs: parent and change.

Run both checkouts in alternating pairs (the same seed within a pair,
the side that runs first alternating from pair to pair), then report::

    python3 perfbench/compare.py pairs --parent ../parent --change . \\
        --pairs 10 --out runs.jsonl
    python3 perfbench/compare.py report runs.jsonl
    python3 perfbench/compare.py report parent.jsonl change.jsonl

A record is one JSON line ``{"workload", "seed", "side", "result"}``
where ``result`` is the last line a run printed.  With two files the
first is the parent set and the second the change set, paired in order.
For each workload and end-to-end metric of ``BENCHMARK.json`` the report
prints both sides' median and quartiles, the change's share of pair wins
and a verdict: better, worse, unchanged or unresolved (see
:mod:`perfbench.stats`).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.stats import verdict  # noqa: E402


def load_spec() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_side(checkout: str, workload: str, seed: int, seconds: int) -> Dict:
    """One run of ``checkout``'s benchmark; its last stdout line."""
    spec_path = os.path.join(checkout, "BENCHMARK.json")
    with open(spec_path) as fh:
        command = json.load(fh)["command"]
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "error": proc.stderr[-2000:]}
    return json.loads(lines[-1])


def cmd_pairs(args: argparse.Namespace) -> int:
    spec = load_spec()
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(args.out, "a") as out:
        for pair in range(args.pairs):
            seed = args.seed + pair
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    result = run_side(sides[side], workload, seed, seconds)
                    record = {"workload": workload, "seed": seed, "pair": pair,
                              "side": side, "result": result}
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                    print(f"pair {pair} {workload} {side}: correct={result['correct']}",
                          flush=True)
    return report([args.out])


def _read(path: str) -> List[Dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def report(paths: List[str]) -> int:
    spec = load_spec()
    if len(paths) == 2:
        parent_runs = [dict(r, side="parent") for r in _read(paths[0])]
        change_runs = [dict(r, side="change") for r in _read(paths[1])]
        records = parent_runs + change_runs
    else:
        records = _read(paths[0])
    by: Dict[Tuple[str, str], List[Dict]] = {}
    for rec in records:
        by.setdefault((rec["workload"], rec["side"]), []).append(rec["result"])
    print(f"{'workload':<11s} {'metric':<12s} {'parent median [q1, q3]':<32s} "
          f"{'change median [q1, q3]':<32s} {'pairs':>5s} {'win':>5s}  verdict")
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        parent = by.get((workload, "parent"), [])
        change = by.get((workload, "change"), [])
        n = min(len(parent), len(change))
        if not n:
            continue
        for side, runs in (("parent", parent), ("change", change)):
            bad = sum(1 for r in runs if not r["correct"])
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            if bad:
                failures += bad
                print(f"{workload:<11s} {side}: {bad} incorrect runs, "
                      f"{failed}/{attempted} operations failed")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name]["value"] for r in parent[:n] if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in change[:n] if name in r["metrics"]]
            if len(p) != n or len(c) != n:
                print(f"{workload:<11s} {name:<12s} missing from some runs")
                continue
            v = verdict(p, c, metric["better"], metric["bound"])
            pq, cq = v["parent"], v["change"]
            print(
                f"{workload:<11s} {name:<12s} "
                f"{pq['median']:10.4f} [{pq['q1']:.4f}, {pq['q3']:.4f}]".ljust(57)
                + f"{cq['median']:10.4f} [{cq['q1']:.4f}, {cq['q3']:.4f}]".ljust(33)
                + f"{n:>5d} {v['win_share']:5.2f}  {v['verdict']}"
                + f"  (parent spread {v['parent_spread']:.3f}, bound {metric['bound']})"
            )
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("pairs", help="run parent and change in alternating pairs")
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--workloads", nargs="*", default=None)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    p.add_argument("--out", required=True, help="JSON-lines file to append runs to")
    r = sub.add_parser("report", help="verdicts from recorded runs")
    r.add_argument("files", nargs="+", help="one file of both sides, or parent then change")
    args = parser.parse_args(argv)
    if args.command == "pairs":
        return cmd_pairs(args)
    if len(args.files) > 2:
        parser.error("report takes one or two files")
    return report(args.files)


if __name__ == "__main__":
    sys.exit(main())
