"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run one workload from the repository root::

    python3 perfbench/run.py --workload paper_grid --seed 20110926 --seconds 20 --trace 0

``--trace 1`` runs the same workload with the span recorder of
:mod:`perfbench.spans` wrapped around the simulator's public entry points
and prints the per-layer table instead.  ``--workload all`` runs every
workload, each in its own process.  :mod:`perfbench.compare` runs two
checkouts in alternating pairs and prints a verdict per metric.
"""
