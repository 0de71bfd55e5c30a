"""Fault-injection harness for remote sweep workers.

Three layers:

* :class:`TestWorkQueue` — deterministic unit tests of the lease state
  machine under an injected fake clock: expiry + reclaim, renewal,
  duplicate/late completion resolution, exponential backoff and poison
  quarantine, work stealing, and drain.
* ``test_queue_state_machine_*`` — a hypothesis property over random
  interleavings of lease/complete/fail/expire/renew: the queue never
  loses a cell, never double-counts a completion, keeps each canonical
  result stable, and always terminates with every cell done or
  quarantined.  Each op dimension is drawn independently (the
  ``tests/invariants`` shrinking convention), so counterexamples shrink
  toward the shortest readable schedule.
* :class:`TestServiceIntegration` — a real HTTP server over a
  worker-less :class:`~repro.experiments.jobs.JobManager` (what
  ``repro sweep --serve`` runs) + real workers leasing through
  ``POST /api/queue/*``: a worker SIGKILLed mid-cell (via the CLI's
  ``--chaos`` injection), a frozen worker whose lease is reclaimed, a
  straggler whose delayed completion arrives as a duplicate, a server
  restart resuming a half-done grid from its job journal and the result
  cache, shard parity with offline ``shard K/M`` — each ending
  byte-identical to the serial ``run_cells`` path.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.core.config import DareConfig
from repro.experiments.jobs import JobManager
from repro.experiments.runner import ExperimentConfig
from repro.experiments.serialize import result_to_dict, result_to_json
from repro.experiments.service import (
    DONE,
    LEASED,
    PENDING,
    QUARANTINED,
    ChaosSpec,
    WorkQueue,
    cell_from_doc,
    cell_to_doc,
    parse_address,
    parse_chaos,
    run_worker,
)
from repro.experiments.sweep import (
    ResultCache,
    SweepCell,
    WorkloadSpec,
    cache_key,
    results_of,
    run_cells,
    shard_cells,
)
from repro.server.jobstore import JobJournal, restore
from tests.test_server import ServerThread

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the base image
    HAVE_HYPOTHESIS = False

SEED = 20110926
N_JOBS = 4  # tiny cells (~0.1s) keep the fault-injection suite fast


def _cell(tag: str, seed: int = SEED) -> SweepCell:
    config = ExperimentConfig(dare=DareConfig.elephant_trap(), seed=seed)
    return SweepCell(config, WorkloadSpec("wl1", N_JOBS, seed), tag=tag)


#: a small grid of distinct cells shared by every test in the module
CELLS = tuple(_cell(f"c{i}", SEED + i) for i in range(4))
KEYS = tuple(cache_key(c.config, c.workload) for c in CELLS)


@pytest.fixture(scope="module")
def serial_docs():
    """The canonical result of each CELLS member, computed serially once."""
    results = results_of(run_cells(list(CELLS)))
    return {key: result_to_dict(r) for key, r in zip(KEYS, results)}


class FakeClock:
    """Injectable logical time for deterministic lease-expiry tests."""

    def __init__(self, t: float = 1000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def make_queue(clock, n_cells: int = 2, **kwargs) -> WorkQueue:
    defaults = dict(
        lease_s=10.0, max_attempts=3, backoff_s=1.0, backoff_cap_s=8.0,
        steal_after_s=5.0, clock=clock,
    )
    defaults.update(kwargs)
    queue = WorkQueue(**defaults)
    queue.add_cells(CELLS[:n_cells])
    return queue


# -- wire helpers -------------------------------------------------------------


class TestWire:
    def test_parse_address(self):
        assert parse_address("10.0.0.2:7341") == ("10.0.0.2", 7341)
        assert parse_address("7341") == ("127.0.0.1", 7341)
        assert parse_address(":7341") == ("127.0.0.1", 7341)
        with pytest.raises(ValueError, match="bad address"):
            parse_address("host:notaport")

    def test_parse_chaos(self):
        assert parse_chaos("") == ChaosSpec()
        assert parse_chaos("kill-after-lease:2") == ChaosSpec("kill-after-lease", n=2)
        assert parse_chaos("hang-after-lease") == ChaosSpec("hang-after-lease", n=1)
        assert parse_chaos("delay-complete:1.5") == ChaosSpec(
            "delay-complete", delay_s=1.5
        )
        with pytest.raises(ValueError, match="unknown chaos"):
            parse_chaos("explode")

    def test_cell_doc_round_trip(self):
        cell = CELLS[0]
        restored = cell_from_doc(json.loads(json.dumps(cell_to_doc(cell))))
        assert restored == cell


# -- the work-queue state machine (deterministic unit tests) ------------------


class TestWorkQueue:
    def test_lease_then_complete(self):
        clock = FakeClock()
        q = make_queue(clock, n_cells=1)
        grant = q.lease("w1")
        assert grant["key"] == KEYS[0] and not grant["stolen"]
        assert q.counts()[LEASED] == 1
        ack = q.complete(grant["key"], grant["lease_id"], {"m": 1}, worker="w1")
        assert ack["accepted"]
        assert q.done
        assert q.entries[KEYS[0]].completed_by == "w1"

    def test_empty_queue_is_done(self):
        q = make_queue(FakeClock(), n_cells=0)
        assert q.done
        assert q.lease("w1") == {"ok": True, "done": True}

    def test_add_cells_dedupes_by_key(self):
        q = make_queue(FakeClock(), n_cells=2)
        assert q.add_cells(CELLS[:2]) == 0  # same cells, no duplicates
        assert len(q.entries) == 2

    def test_wait_reply_when_everything_leased(self):
        q = make_queue(FakeClock(), n_cells=1)
        q.lease("w1")
        reply = q.lease("w2")  # nothing pending, straggler too young to steal
        assert reply.get("wait") and reply["retry_s"] > 0

    def test_lease_expiry_reclaims_cell(self):
        clock = FakeClock()
        q = make_queue(clock, n_cells=1)
        first = q.lease("w1")
        clock.advance(q.lease_s + 0.1)
        assert q.expire() == 1
        assert q.expirations == 1
        assert q.entries[KEYS[0]].attempts == 1  # the expiry charged an attempt
        clock.advance(q.backoff_s + 0.1)  # sit out the retry backoff
        second = q.lease("w2")
        assert second["key"] == first["key"]
        assert second["lease_id"] != first["lease_id"]
        assert q.complete(second["key"], second["lease_id"], {"m": 1})["accepted"]

    def test_renew_keeps_lease_alive(self):
        clock = FakeClock()
        q = make_queue(clock, n_cells=1)
        grant = q.lease("w1")
        clock.advance(0.8 * q.lease_s)
        assert q.renew(grant["key"], grant["lease_id"])
        clock.advance(0.8 * q.lease_s)  # past the original deadline
        assert q.expire() == 0
        assert q.entries[KEYS[0]].state == LEASED
        clock.advance(q.lease_s)
        assert q.expire() == 1
        assert not q.renew(grant["key"], grant["lease_id"])  # lease is gone

    def test_late_completion_after_expiry_wins_if_first(self):
        clock = FakeClock()
        q = make_queue(clock, n_cells=1)
        grant = q.lease("w1")
        clock.advance(q.lease_s + 1)
        q.expire()  # w1's lease reclaimed; w1 doesn't know and reports anyway
        ack = q.complete(grant["key"], grant["lease_id"], {"m": "late"}, worker="w1")
        assert ack["accepted"]
        assert q.late_completions == 1
        assert q.entries[KEYS[0]].result == {"m": "late"}

    def test_duplicate_completion_is_discarded(self):
        clock = FakeClock()
        q = make_queue(clock, n_cells=1)
        grant = q.lease("w1")
        clock.advance(q.lease_s + 1)
        q.expire()  # reclaim
        clock.advance(q.backoff_s + 0.1)
        second = q.lease("w2")  # re-lease to another worker
        assert q.complete(second["key"], second["lease_id"], {"m": "w2"})["accepted"]
        late = q.complete(grant["key"], grant["lease_id"], {"m": "w1"}, worker="w1")
        assert late == {"ok": True, "accepted": False, "reason": "duplicate"}
        # deterministic resolution: the first completion stays canonical
        assert q.entries[KEYS[0]].result == {"m": "w2"}
        assert q.duplicates == 1 and q.completions == 1

    def test_backoff_grows_exponentially_then_quarantines(self):
        clock = FakeClock()
        q = make_queue(clock, n_cells=1, max_attempts=3, backoff_s=1.0,
                       backoff_cap_s=100.0)
        entry = q.entries[KEYS[0]]
        for attempt, backoff in ((1, 1.0), (2, 2.0)):
            grant = q.lease("w1")
            q.fail(grant["key"], grant["lease_id"], f"Traceback...\nboom {attempt}")
            assert entry.state == PENDING
            assert entry.not_before == pytest.approx(clock.t + backoff)
            assert q.lease("w1").get("wait")  # backing off: not leasable yet
            clock.advance(backoff + 0.1)
        grant = q.lease("w1")
        assert grant["attempt"] == 3
        q.fail(grant["key"], grant["lease_id"], "Traceback...\nboom 3")
        assert entry.state == QUARANTINED
        assert "boom 3" in entry.error
        assert entry.history == ["boom 1", "boom 2", "boom 3"]
        assert q.done  # quarantined counts as terminal
        assert q.lease("w1") == {"ok": True, "done": True}

    def test_backoff_is_capped(self):
        clock = FakeClock()
        q = make_queue(clock, n_cells=1, max_attempts=10, backoff_s=1.0,
                       backoff_cap_s=4.0)
        for _ in range(4):
            clock.advance(10.0)
            grant = q.lease("w1")
            q.fail(grant["key"], grant["lease_id"], "boom")
        assert q.entries[KEYS[0]].not_before - clock.t == pytest.approx(4.0)

    def test_completion_rescues_a_quarantined_cell(self):
        clock = FakeClock()
        q = make_queue(clock, n_cells=1, max_attempts=1)
        grant = q.lease("w1")
        clock.advance(q.lease_s + 1)
        q.expire()  # single allowed attempt burnt: quarantined
        assert q.entries[KEYS[0]].state == QUARANTINED
        ack = q.complete(grant["key"], grant["lease_id"], {"m": 1}, worker="w1")
        assert ack["accepted"]  # a correct deterministic result still counts
        assert q.entries[KEYS[0]].state == DONE

    def test_steal_releases_straggler_to_idle_worker(self):
        clock = FakeClock()
        q = make_queue(clock, n_cells=2, steal_after_s=5.0)
        straggler = q.lease("w1")
        other = q.lease("w1")
        q.complete(other["key"], other["lease_id"], {"m": 1})
        assert q.lease("w2").get("wait")  # straggler not old enough yet
        clock.advance(6.0)
        stolen = q.lease("w2")
        assert stolen["stolen"] and stolen["key"] == straggler["key"]
        assert q.steals == 1
        assert len(q.entries[straggler["key"]].leases) == 2
        # no third replica: max_leases bounds the speculative fan-out
        assert q.lease("w3").get("wait")
        # thief finishes first; the original attempt resolves to a duplicate
        assert q.complete(stolen["key"], stolen["lease_id"], {"m": "thief"})["accepted"]
        late = q.complete(straggler["key"], straggler["lease_id"], {"m": "orig"})
        assert not late["accepted"]
        assert q.entries[straggler["key"]].result == {"m": "thief"}
        assert q.done

    def test_failed_sibling_does_not_reset_surviving_lease(self):
        clock = FakeClock()
        q = make_queue(clock, n_cells=1, steal_after_s=1.0)
        orig = q.lease("w1")
        clock.advance(2.0)
        thief = q.lease("w2")
        assert thief["stolen"]
        ack = q.fail(thief["key"], thief["lease_id"], "thief exploded")
        assert ack["accepted"] and ack["state"] == LEASED  # original still runs
        assert q.entries[KEYS[0]].attempts == 0  # no attempt charged
        assert q.complete(orig["key"], orig["lease_id"], {"m": 1})["accepted"]

    def test_stale_fail_after_expiry_is_not_double_charged(self):
        clock = FakeClock()
        q = make_queue(clock, n_cells=1)
        grant = q.lease("w1")
        clock.advance(q.lease_s + 1)
        q.expire()  # charged attempt #1
        ack = q.fail(grant["key"], grant["lease_id"], "boom")
        assert ack == {"ok": True, "accepted": False, "reason": "stale-lease"}
        assert q.entries[KEYS[0]].attempts == 1

    def test_unknown_key_is_rejected(self):
        q = make_queue(FakeClock(), n_cells=1)
        assert not q.complete("feed" * 16, "L0", {})["ok"]
        assert not q.fail("feed" * 16, "L0", "boom")["ok"]

    def test_drain_stops_leasing_but_accepts_completions(self):
        clock = FakeClock()
        q = make_queue(clock, n_cells=2)
        grant = q.lease("w1")
        q.drain()
        assert q.lease("w2") == {"ok": True, "done": True}  # workers wind down
        assert q.complete(grant["key"], grant["lease_id"], {"m": 1})["accepted"]
        assert q.active_leases() == 0


# -- hypothesis: random interleavings of the state machine --------------------


def _check_queue_invariants(q: WorkQueue, total: int, done_results: dict) -> None:
    counts = q.counts()
    assert sum(counts.values()) == total  # no cell is ever lost
    for entry in q.entries.values():
        assert entry.state in (PENDING, LEASED, DONE, QUARANTINED)
        if entry.state == LEASED:
            assert 1 <= len(entry.leases) <= q.max_leases
        else:
            assert not entry.leases
        if entry.state == DONE:
            assert entry.result is not None
    # completions are counted exactly once and results stay canonical
    assert q.completions == len(done_results)
    for key, marker in done_results.items():
        assert q.entries[key].result == {"marker": marker}


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
@settings(deadline=None, max_examples=80)
@given(
    n_cells=st.integers(min_value=1, max_value=4),
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),  # op kind
            st.integers(min_value=0, max_value=7),  # lease index / time step
            st.integers(min_value=0, max_value=2),  # worker index
        ),
        max_size=50,
    ),
)
def test_queue_state_machine_random_interleavings(n_cells, ops):
    """Random lease/complete/fail/expire/renew schedules never lose a cell,
    never double-count a completion, and always terminate."""
    clock = FakeClock()
    q = WorkQueue(lease_s=10.0, max_attempts=3, backoff_s=1.0, backoff_cap_s=8.0,
                  steal_after_s=5.0, clock=clock)
    q.add_cells(CELLS[:n_cells])
    total = n_cells
    issued = []  # every (key, lease_id) ever granted, live or stale
    done_results = {}  # key -> marker of the accepted (canonical) completion
    marker = 0

    def try_complete(key: str, lease_id: str, worker: str) -> None:
        nonlocal marker
        marker += 1
        ack = q.complete(key, lease_id, {"marker": marker}, worker=worker)
        if ack.get("accepted"):
            assert key not in done_results  # a cell completes exactly once
            done_results[key] = marker

    for kind, a, b in ops:
        worker = f"w{b}"
        if kind == 0:
            grant = q.lease(worker)
            if "lease_id" in grant:
                issued.append((grant["key"], grant["lease_id"]))
        elif kind == 1 and issued:
            key, lease_id = issued[a % len(issued)]
            try_complete(key, lease_id, worker)
        elif kind == 2 and issued:
            key, lease_id = issued[a % len(issued)]
            q.fail(key, lease_id, f"injected failure {a}")
        elif kind == 3:
            clock.advance(float(a))
            q.expire()
        elif kind == 4 and issued:
            key, lease_id = issued[a % len(issued)]
            q.renew(key, lease_id)
        _check_queue_invariants(q, total, done_results)

    # liveness: a worker that keeps pulling always drains the queue
    for _ in range(10 * total + 20):
        if q.done:
            break
        clock.advance(q.lease_s + q.backoff_cap_s + 1.0)
        grant = q.lease("driver")
        if "lease_id" in grant:
            try_complete(grant["key"], grant["lease_id"], "driver")
        _check_queue_invariants(q, total, done_results)
    assert q.done
    counts = q.counts()
    assert counts[DONE] + counts[QUARANTINED] == total
    assert counts[DONE] == len(done_results)


# -- integration: a real server + real workers over HTTP ----------------------

_SRC = str(Path(repro.__file__).resolve().parents[1])


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _spawn_cli_worker(port: int, *extra: str) -> subprocess.Popen:
    cmd = [sys.executable, "-m", "repro", "sweep",
           "--worker", f"127.0.0.1:{port}", "--no-cache", "--poll", "0.1",
           *extra]
    return subprocess.Popen(cmd, env=_worker_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def _worker_thread(address, results: list, **kwargs):
    kwargs.setdefault("no_cache", True)
    kwargs.setdefault("poll_s", 0.05)
    thread = threading.Thread(
        target=lambda: results.append(run_worker(address, **kwargs)), daemon=True
    )
    thread.start()
    return thread


class GridServer(ServerThread):
    """What ``repro sweep --serve`` runs, in-process: the grid as one job
    on a worker-less :class:`JobManager` behind a real HTTP server.

    ``jobstore`` journals the job; an existing journal is restored first,
    so re-serving the same grid resumes it.  Queue options default to the
    ``sweep --serve`` CLI defaults.
    """

    def __init__(self, cells, cache=None, jobstore=None, server_kwargs=None,
                 **queue_kwargs):
        queue_kwargs.setdefault("lease_s", 60.0)
        queue_kwargs.setdefault("max_attempts", 3)
        manager = JobManager(
            cache=cache, workers=0, max_cells_per_job=len(cells),
            journal=JobJournal(jobstore) if jobstore else None, **queue_kwargs,
        )
        if jobstore:
            restore(manager, jobstore)
        self.job, self.created = manager.submit(
            {"cells": [cell_to_doc(c) for c in cells]}
        )
        super().__init__(manager, **(server_kwargs or {}))

    @property
    def address(self):
        return "127.0.0.1", self.port

    def call(self, op: str, doc: dict) -> dict:
        """One lease-route request; the reply document."""
        _, _, data = self.request("POST", f"/api/queue/{op}", body=doc)
        return json.loads(data)

    def wait(self, timeout: float) -> bool:
        """Block until the grid's job settles; False on timeout."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            self.server.manager.expire()
            if not self.job.active:
                return True
            time.sleep(0.05)
        return False

    def outcomes(self) -> list:
        return self.server.manager.job_outcomes(self.job)

    def status(self) -> dict:
        """The queue status document, as ``GET /api/cluster`` serves it."""
        return self.server.manager.cluster_doc()["queue"]


def _service_jsons(server: GridServer) -> list:
    return [result_to_json(o.result) for o in server.outcomes()]


class TestServiceIntegration:
    def test_two_workers_match_serial_bytes(self, serial_docs):
        serial = [result_to_json(run_cells([c])[0].result) for c in CELLS[:3]]
        with GridServer(CELLS[:3], lease_s=10.0) as server:
            stats: list = []
            threads = [
                _worker_thread(server.address, stats, worker_id=f"w{i}")
                for i in range(2)
            ]
            assert server.wait(timeout=60.0)
            for thread in threads:
                thread.join(timeout=10.0)
            assert _service_jsons(server) == serial
        assert sum(s.completed for s in stats) == 3

    def test_worker_sigkill_mid_cell_grid_still_byte_identical(self):
        """The acceptance scenario: a worker is SIGKILLed mid-cell, its lease
        is reclaimed (by expiry or stealing), and the finished grid is
        byte-identical to the serial path."""
        cells = list(CELLS[:3])
        serial = [result_to_json(r) for r in results_of(run_cells(cells))]
        with GridServer(cells, lease_s=1.5) as server:
            chaos = _spawn_cli_worker(server.port, "--chaos", "kill-after-lease:1")
            chaos.wait(timeout=30.0)
            assert chaos.returncode == -9  # died by its own SIGKILL, mid-cell
            status = server.status()
            assert status["leased"] >= 1  # the orphaned lease is still held
            stats: list = []
            thread = _worker_thread(server.address, stats, worker_id="survivor")
            assert server.wait(timeout=60.0)
            thread.join(timeout=10.0)
            assert _service_jsons(server) == serial
            status = server.status()
            # the dead worker's cell was recovered by expiry or by stealing
            assert status["expirations"] + status["steals"] >= 1
            assert status["quarantined"] == 0

    def test_frozen_worker_lease_reclaimed_and_late_complete_discarded(
        self, serial_docs
    ):
        cells = list(CELLS[:2])
        serial = [result_to_json(r) for r in results_of(run_cells(cells))]
        with GridServer(cells, lease_s=0.4, steal_after_s=0.2) as server:
            # a frozen worker: leases a cell by hand and never executes it
            frozen = server.call("lease", {"worker": "frozen"})
            assert "lease_id" in frozen
            stats: list = []
            thread = _worker_thread(server.address, stats, worker_id="healthy")
            assert server.wait(timeout=60.0)
            thread.join(timeout=10.0)
            assert _service_jsons(server) == serial
            # the thawed worker finally reports: discarded as a duplicate
            late = server.call("complete", {
                "worker": "frozen", "key": frozen["key"],
                "lease_id": frozen["lease_id"],
                "result": serial_docs[frozen["key"]],
            })
            assert late["accepted"] is False and late["reason"] == "duplicate"
            status = server.status()
            assert status["duplicates"] == 1
            assert status["expirations"] + status["steals"] >= 1

    def test_delayed_completion_resolves_to_one_canonical_result(self):
        """A straggler sleeps past its lease before reporting; the re-executed
        attempt wins and the straggler's completion is the duplicate."""
        cells = [CELLS[0]]
        serial = [result_to_json(r) for r in results_of(run_cells(cells))]
        with GridServer(cells, lease_s=0.3, steal_after_s=60.0) as server:
            stats_slow: list = []
            slow = _worker_thread(
                server.address, stats_slow, worker_id="straggler",
                chaos=ChaosSpec("delay-complete", delay_s=2.5),
            )
            time.sleep(0.1)  # let the straggler take the lease first
            stats_fast: list = []
            fast = _worker_thread(server.address, stats_fast, worker_id="fast")
            assert server.wait(timeout=60.0)
            slow.join(timeout=15.0)
            fast.join(timeout=15.0)
            assert _service_jsons(server) == serial
            status = server.status()
            assert status["completions"] == 1
            assert status["duplicates"] + status["late_completions"] >= 1
        [slow_stats] = stats_slow
        assert slow_stats.rejected + slow_stats.completed == 1

    def test_failing_cell_backs_off_then_quarantines(self, tmp_path):
        # a cell whose config crashes every worker deterministically
        bad_config = ExperimentConfig(dare=DareConfig.elephant_trap(), seed=SEED,
                                      scheduler="no-such-scheduler")
        bad = SweepCell(bad_config, WorkloadSpec("wl1", N_JOBS, SEED), tag="bad")
        cells = [bad, CELLS[1]]
        with GridServer(cells, lease_s=10.0, max_attempts=2) as server:
            stats: list = []
            thread = _worker_thread(server.address, stats, worker_id="w")
            assert server.wait(timeout=60.0)
            thread.join(timeout=10.0)
            outcomes = server.outcomes()
            assert not outcomes[0].ok and "no-such-scheduler" in outcomes[0].error
            assert outcomes[1].ok  # the grid survived the poison cell
            status = server.status()
            assert status["quarantined"] == 1 and status["failures"] == 2
        [worker_stats] = stats
        assert worker_stats.failed == 2  # initial attempt + one backoff retry

    def test_coordinator_restart_resumes_half_done_grid(self, tmp_path, serial_docs):
        cells = list(CELLS[:3])
        serial = [result_to_json(run_cells([c])[0].result) for c in cells]
        cache = ResultCache(tmp_path / "cache")
        jobstore = tmp_path / "jobs.jsonl"
        with GridServer(cells, cache=cache, jobstore=jobstore,
                        lease_s=10.0) as first:
            # one cell completes, one is left mid-lease; then the server dies
            grant = first.call("lease", {"worker": "w1"})
            first.call("complete", {
                "worker": "w1", "key": grant["key"],
                "lease_id": grant["lease_id"], "result": serial_docs[grant["key"]],
            })
            first.call("lease", {"worker": "w1"})  # in flight
        # the job journal and the result cache are all that survive

        second = GridServer(cells, cache=cache, jobstore=jobstore, lease_s=10.0)
        assert not second.created  # the journaled job, not a new one
        status = second.status()
        assert status["finished"] is False
        assert status[DONE] == 1  # the completed cell survived the restart
        assert status[LEASED] == 0  # the in-flight lease was reclaimed
        with second:
            stats: list = []
            thread = _worker_thread(second.address, stats, worker_id="w2")
            assert second.wait(timeout=60.0)
            thread.join(timeout=10.0)
            assert _service_jsons(second) == serial
            # the completed cell came back from the cache, not a re-run
            assert second.server.manager.queue.entries[grant["key"]].from_cache
        [worker_stats] = stats
        assert worker_stats.completed == 2  # only the unfinished cells re-ran

    def test_shard_parity_with_offline_shards(self):
        """A sharded served grid is exactly the offline ``shard K/M``
        partition, and its results are byte-identical to running that
        shard serially."""
        cells = list(CELLS)
        seen_keys: list = []
        for k in (1, 2):
            shard = shard_cells(cells, (k, 2))
            shard_keys = [cache_key(c.config, c.workload) for c in shard]
            serial = [result_to_json(r) for r in results_of(run_cells(shard))]
            with GridServer(shard, lease_s=10.0) as server:
                assert server.server.manager.queue.order == shard_keys
                stats: list = []
                thread = _worker_thread(server.address, stats)
                assert server.wait(timeout=60.0)
                thread.join(timeout=10.0)
                assert _service_jsons(server) == serial
            seen_keys.extend(shard_keys)
        assert sorted(seen_keys) == sorted(KEYS)  # the shards partition the grid

    def test_workers_share_the_coordinator_cache(self, tmp_path):
        cells = list(CELLS[:2])
        cache = ResultCache(tmp_path / "cache")
        with GridServer(cells, cache=cache, lease_s=10.0) as server:
            stats: list = []
            thread = _worker_thread(server.address, stats)
            assert server.wait(timeout=60.0)
            thread.join(timeout=10.0)
        assert len(cache) == 2  # accepted completions landed in the shared cache
        # a warm re-serve resolves everything from cache: no leases granted
        with GridServer(cells, cache=cache, lease_s=10.0) as server:
            assert server.wait(timeout=10.0)
            outcomes = server.outcomes()
            assert all(o.from_cache for o in outcomes)
            assert server.status()["leases_granted"] == 0

    def test_remote_completion_is_validated(self, tmp_path, serial_docs):
        """A completion whose result does not parse, or belongs to another
        cell, is refused with 400 and stores nothing."""
        cache = ResultCache(tmp_path / "cache")
        with GridServer(list(CELLS[:2]), cache=cache, lease_s=10.0) as server:
            grant = server.call("lease", {"worker": "w1"})
            other = KEYS[1] if grant["key"] == KEYS[0] else KEYS[0]
            for bogus in ({"m": 1}, serial_docs[other]):
                status, _, data = server.request("POST", "/api/queue/complete", body={
                    "worker": "w1", "key": grant["key"],
                    "lease_id": grant["lease_id"], "result": bogus,
                })
                assert status == 400, data
                assert len(cache) == 0  # nothing stored
                assert server.status()[LEASED] == 1  # the lease still stands
            assert "result is for cell" in json.loads(data)["error"]
            ack = server.call("complete", {
                "worker": "w1", "key": grant["key"],
                "lease_id": grant["lease_id"], "result": serial_docs[grant["key"]],
            })
            assert ack["accepted"] and len(cache) == 1

    def test_drain_is_graceful(self, serial_docs):
        cells = list(CELLS[:2])
        with GridServer(cells, lease_s=10.0) as server:
            manager = server.server.manager
            grant = server.call("lease", {"worker": "w1"})
            manager.drain()  # what SIGTERM on the server does first
            reply = server.call("lease", {"worker": "w2"})
            assert reply.get("done")  # new work is refused while draining
            assert manager.queue.active_leases() == 1  # one lease in flight
            ack = server.call("complete", {
                "worker": "w1", "key": grant["key"],
                "lease_id": grant["lease_id"], "result": serial_docs[grant["key"]],
            })
            assert ack["accepted"]  # in-flight work still lands
            assert manager.queue.active_leases() == 0  # leases drained

    def test_status_op_and_cli(self, capsys):
        from repro.cli import main

        with GridServer(list(CELLS[:2]), lease_s=10.0) as server:
            host, port = server.address
            # machine-readable: the raw status_doc serializer, parseable
            assert main(["sweep", "--status", f"{host}:{port}", "--json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["total"] == 2 and doc["pending"] == 2
            assert doc == server.status()  # one shared serializer
            # default: the human table
            assert main(["sweep", "--status", f"{host}:{port}"]) == 0
            table = capsys.readouterr().out
            assert "cells: 2" in table and "2 pending" in table
        with pytest.raises(SystemExit, match="cannot reach server"):
            main(["sweep", "--status", f"{host}:{port}"])

    def test_unknown_op_and_bad_json_are_rejected(self):
        with GridServer(list(CELLS[:1])) as server:
            status, _, data = server.request("POST", "/api/queue/explode", body={})
            assert status == 404 and "no route" in json.loads(data)["error"]
            status, _, data = server.request(
                "POST", "/api/queue/lease", body="this is not json")
            assert status == 400 and "JSON" in json.loads(data)["error"]
            assert server.request("GET", "/api/queue/lease")[0] == 405


# -- the worker door's request limits ----------------------------------------


class TestProtocolHardening:
    def test_oversized_request_line_rejected(self):
        with GridServer(CELLS[:1],
                        server_kwargs={"max_body_bytes": 1024}) as server:
            status, _, data = server.request(
                "POST", "/api/queue/lease",
                body='{"worker": "w", "pad": "' + "x" * 4096 + '"}',
            )
            assert status == 413
            assert "exceeds 1024 bytes" in json.loads(data)["error"]
            # nothing was leased, and the server still serves the next worker
            assert server.status()[LEASED] == 0
            grant = server.call("lease", {"worker": "w"})
            assert "lease_id" in grant


# -- voluntary release (graceful worker shutdown) -----------------------------


class TestVoluntaryRelease:
    def test_requeue_releases_without_charging_attempt(self):
        clock = FakeClock()
        q = make_queue(clock, n_cells=1)
        grant = q.lease("w1")
        ack = q.fail(grant["key"], grant["lease_id"],
                     "worker shutting down", requeue=True)
        assert ack["accepted"] and ack["state"] == PENDING
        entry = q.entries[grant["key"]]
        assert entry.attempts == 0          # no attempt charged...
        assert entry.not_before == clock.t  # ...and no backoff
        assert q.releases == 1 and q.failures == 0
        assert q.status_doc()["releases"] == 1
        # the released cell is immediately leasable again
        regrant = q.lease("w2")
        assert regrant["key"] == grant["key"]

    def test_requeue_with_stale_lease_is_ignored(self):
        clock = FakeClock()
        q = make_queue(clock, n_cells=1, lease_s=1.0)
        grant = q.lease("w1")
        clock.advance(5.0)
        q.expire()  # the expiry already charged the attempt
        ack = q.fail(grant["key"], grant["lease_id"],
                     "late release", requeue=True)
        assert ack["accepted"] is False and ack["reason"] == "stale-lease"
        assert q.releases == 0

    def test_requeue_with_surviving_stolen_sibling_keeps_cell_leased(self):
        clock = FakeClock()
        q = make_queue(clock, n_cells=1)
        grant1 = q.lease("w1")
        clock.advance(6.0)  # past steal_after_s=5.0, inside lease_s=10.0
        grant2 = q.lease("w2")
        assert grant2["stolen"]
        ack = q.fail(grant1["key"], grant1["lease_id"],
                     "shutdown", requeue=True)
        assert ack["accepted"] and ack["state"] == LEASED
        assert q.releases == 1  # the sibling attempt stays in charge
        assert grant2["lease_id"] in q.entries[grant1["key"]].leases


# -- graceful worker shutdown under a real signal -----------------------------


class TestWorkerGracefulShutdown:
    def test_sigterm_releases_in_flight_lease_in_process(self):
        """run_worker in the main thread, a real SIGTERM mid-cell: the
        in-flight lease is handed back (no attempt charged) and the grid
        still finishes byte-identical to serial."""
        import signal as signal_mod

        cells = list(CELLS[:2])
        serial = [result_to_json(r) for r in results_of(run_cells(cells))]
        with GridServer(cells, lease_s=30.0) as server:
            address = server.address

            def fire_once_leased():
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    if server.status()[LEASED] >= 1:
                        time.sleep(0.3)  # let run_worker set in_flight
                        os.kill(os.getpid(), signal_mod.SIGTERM)
                        return
                    time.sleep(0.02)

            threading.Thread(target=fire_once_leased, daemon=True).start()
            # delay-complete holds the finished cell (and its lease) for
            # 30s before reporting — a deterministic window for the signal
            stats = run_worker(address, worker_id="doomed", no_cache=True,
                               chaos="delay-complete:30")
            assert stats.stopped_by_signal == signal_mod.SIGTERM
            assert stats.released == 1
            status = server.status()
            assert status["releases"] == 1 and status["failures"] == 0
            assert status[LEASED] == 0 and status["finished"] is False
            assert status[PENDING] >= 1  # the released cell, uncharged
            results: list = []
            thread = _worker_thread(address, results, worker_id="healthy")
            assert server.wait(timeout=60.0)
            thread.join(timeout=10.0)
            assert _service_jsons(server) == serial

    def test_cli_worker_sigterm_exits_cleanly_and_releases(self):
        """The acceptance scenario with a real process: SIGTERM a CLI
        worker mid-cell; it exits 0 and its lease returns to pending."""
        import signal as signal_mod

        cells = list(CELLS[:2])
        with GridServer(cells, lease_s=30.0) as server:
            proc = _spawn_cli_worker(server.port, "--chaos", "delay-complete:30")
            try:
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    if server.status()[LEASED] >= 1:
                        break
                    time.sleep(0.05)
                else:
                    pytest.fail("worker never leased a cell")
                time.sleep(0.3)
                proc.send_signal(signal_mod.SIGTERM)
                out, _ = proc.communicate(timeout=30.0)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.communicate()
            assert proc.returncode == 0  # graceful exit, not a crash
            assert b"worker" in out  # it got far enough to print stats
            status = server.status()
            assert status["releases"] == 1
            assert status[LEASED] == 0 and status[PENDING] >= 1
            assert status["failures"] == 0
