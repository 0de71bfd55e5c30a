"""Self-time arithmetic of the span recorder and the wrap/restore cycle."""

import types

import numpy as np
import pytest

from perfbench import spans
from perfbench.spans import Patcher, SpanRecorder, is_wrapper, recorder_stats, span_stats


def test_self_time_subtracts_direct_children_only():
    # A [0, 10] holds B [1, 4] and C [5, 6]; B holds D [2, 3]
    names = ["a.top", "b.mid", "b.leaf", "c.side"]
    name_idx = np.array([0, 1, 2, 3])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 6.0])
    parent = np.array([-1, 0, 1, 0])
    stats = span_stats(names, name_idx, start, end, parent)
    assert stats.total_s == {"a.top": 10.0, "b.mid": 3.0, "b.leaf": 1.0, "c.side": 1.0}
    assert stats.self_s == {"a.top": 6.0, "b.mid": 2.0, "b.leaf": 1.0, "c.side": 1.0}
    assert stats.layer_self_s() == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert stats.top_level_s == 10.0
    # self times partition the top-level wall time
    assert sum(stats.self_s.values()) == stats.top_level_s


def test_recorder_nesting_with_a_fake_clock(monkeypatch):
    ticks = iter([0.0, 1.0, 2.0, 4.0, 7.0, 8.0])
    monkeypatch.setattr(spans, "_clock", lambda: next(ticks))
    rec = SpanRecorder("t")
    with rec.span("outer.x"):          # opens at 0, closes at 8
        with rec.span("inner.y"):      # 1 .. 2
            pass
        with rec.span("inner.z"):      # 4 .. 7
            pass
    stats = recorder_stats(rec)
    assert stats.calls == {"outer.x": 1, "inner.y": 1, "inner.z": 1}
    assert stats.self_s["outer.x"] == pytest.approx(4.0)
    assert stats.layer_self_s() == pytest.approx({"outer": 4.0, "inner": 4.0})


def test_exception_closes_the_span_and_its_open_children():
    rec = SpanRecorder("t")
    outer = rec.open(rec.name_id("a.outer"))
    rec.open(rec.name_id("a.inner"))      # never closed explicitly
    rec.close(outer)
    cols = rec.arrays()
    assert (cols["end"] >= cols["start"]).all()
    assert rec._stack == []


def test_patch_wraps_counts_and_restores():
    module = types.ModuleType("fake_layer")

    def work(x):
        if x < 0:
            raise ValueError("negative")
        return x * 2

    module.work = work
    rec = SpanRecorder("t")
    seen = []
    with Patcher(rec) as patcher:
        patcher.patch(module, "work", "fake.work", lambda r, res, args: seen.append(res))
        assert is_wrapper(module.work)
        assert module.work(3) == 6
        with pytest.raises(ValueError):
            module.work(-1)
        with pytest.raises(RuntimeError):
            patcher.patch(module, "work", "fake.work")
    assert module.work is work
    assert seen == [6]
    assert recorder_stats(rec).calls == {"fake.work": 2}
