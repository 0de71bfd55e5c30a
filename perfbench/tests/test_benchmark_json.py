"""BENCHMARK.json agrees with the metric catalog and stays within its format."""

import json
import os
import re

from perfbench import layers, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_keys_and_limits():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert 1 <= spec["run_seconds"] <= 60
    # 4 + 22 runs per workload; a run starts no pass that would end past
    # run_seconds, so each takes run_seconds plus a few seconds of set-up
    assert (4 + 22 * len(spec["workloads"])) * (spec["run_seconds"] + 4) < 3420
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_matches_the_catalog():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(layers.ALL)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    for key, names in (("end_to_end", layers.END_TO_END), ("per_layer", layers.PER_LAYER)):
        assert [m["name"] for m in spec[key]] == list(names)
        for m in spec[key]:
            row = layers.BY_NAME[m["name"]]
            assert (m["unit"], m["better"]) == (row.unit, row.better)
