"""The ``serve`` workload: two closed-loop clients against ``repro serve``.

One pass boots ``python -m repro serve --workers 2`` on a fresh cache
directory (the set-up, timed until ``/api/healthz`` answers 200), then
two client threads each submit their share of :data:`JOBS_PER_PASS`
small jobs with zero think time: ``POST /api/jobs`` (``grid: smoke``,
40 jobs), follow ``/events`` until ``done``, ``GET /result``.  Every
fourth submission repeats the seed of the submission three before it, so
the server answers it from cells it already computed while the other
client's submissions execute.  The pass ends with SIGTERM, and the
server must drain and exit 0.

A fresh server per pass keeps every pass identical: the same
submissions against the same cold cache.  The server's per-client rate
limit is raised so that it never refuses the benchmark's own clients.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

GRID = "smoke"
JOB_SIZE = 40
#: each submission's seed makes its own unscaled 40-job trace, whose cost
#: varies severalfold from seed to seed; 48 (36 distinct seeds) keep a
#: pass's total steadier than 24 did
JOBS_PER_PASS = 48
CLIENTS = 2
SERVER_WORKERS = 2
#: every REPEAT_EVERY-th submission repeats an earlier seed
REPEAT_EVERY = 4
BOOT_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 120.0

_clock = time.perf_counter


def submissions(seed: int) -> List[Dict]:
    """The pass's job documents, in submission order (deterministic)."""
    rng = random.Random(seed)
    seeds: List[int] = []
    for k in range(JOBS_PER_PASS):
        if k % REPEAT_EVERY == REPEAT_EVERY - 1:
            seeds.append(seeds[k - (REPEAT_EVERY - 1)])
        else:
            seeds.append(rng.randrange(1, 2**31 - 1))
    return [
        # a distinct idempotency key makes every submission its own job,
        # so a repeat goes through submit and cache pre-resolution
        {"grid": GRID, "n_jobs": JOB_SIZE, "seed": s, "idempotency_key": f"pb-{k}"}
        for k, s in enumerate(seeds)
    ]


def fingerprint(docs: List[Dict]) -> bytes:
    """Canonical bytes of the pass's submissions."""
    return json.dumps(docs, sort_keys=True).encode()


class JobSample(NamedTuple):
    """One HTTP job as the client saw it."""

    index: int
    ok: bool
    error: str
    latency_s: float          # POST sent -> result body read
    submit_s: float           # the POST round trip
    result_s: float           # the GET /result round trip
    queue_wait_s: float       # POST answered -> first 'cell started' read (NaN if none)
    cell_exec_s: List[float]  # duration_s of each executed cell
    cached_cells: int
    cells: int
    body: bytes


def _request(port: int, method: str, path: str, client: str,
             body: Optional[Dict] = None) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=payload, headers={"X-Client-Id": client})
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _follow(port: int, job_id: str, client: str, answered: float):
    """Read the job's SSE stream to ``done``; returns cell timings."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    started: Optional[float] = None
    durations: List[float] = []
    cached = 0
    done = False
    try:
        conn.request("GET", f"/api/jobs/{job_id}/events",
                     headers={"X-Client-Id": client})
        resp = conn.getresponse()
        if resp.status != 200:
            raise RuntimeError(f"events stream answered {resp.status}")
        kind = ""
        while True:
            line = resp.readline()
            if not line:
                break
            if line.startswith(b"event:"):
                kind = line.split(b":", 1)[1].strip().decode()
            elif line.startswith(b"data:") and kind == "cell":
                data = json.loads(line.split(b":", 1)[1])
                if data.get("phase") == "started" and started is None:
                    started = _clock() - answered
                elif data.get("phase") == "finished":
                    if data.get("from_cache"):
                        cached += 1
                    else:
                        durations.append(float(data["duration_s"]))
            elif line.startswith(b"data:") and kind == "done":
                done = True
                break
    finally:
        conn.close()
    if not done:
        raise RuntimeError("events stream ended without 'done'")
    return (float("nan") if started is None else started), durations, cached


def _check_result(body: bytes, spec: Dict) -> str:
    doc = json.loads(body)
    if doc.get("seed") != spec["seed"] or doc.get("n_jobs") != JOB_SIZE:
        return "result document names another job"
    for cell in doc["cells"]:
        result = cell.get("result")
        if not cell.get("ok") or result is None:
            return f"cell {cell.get('tag')} failed: {cell.get('error')}"
        if result["n_jobs"] != JOB_SIZE:
            return f"cell {cell['tag']} completed {result['n_jobs']}/{JOB_SIZE} jobs"
        if result["blocks_created"] <= 0:
            return f"cell {cell['tag']}: DARE enabled but created no replicas"
    return ""


def run_job(port: int, client: str, index: int, spec: Dict) -> JobSample:
    """Submit one job, wait for ``done``, fetch the result; never raises."""
    nan = float("nan")
    t0 = _clock()
    try:
        status, raw = _request(port, "POST", "/api/jobs", client, spec)
        t1 = _clock()
        if status not in (200, 202):
            raise RuntimeError(f"POST /api/jobs answered {status}: {raw[:200]!r}")
        doc = json.loads(raw)
        wait, durations, cached = _follow(port, doc["id"], client, t1)
        t2 = _clock()
        status, body = _request(port, "GET", f"/api/jobs/{doc['id']}/result", client)
        t3 = _clock()
        if status != 200:
            raise RuntimeError(f"GET result answered {status}")
        error = _check_result(body, spec)
        cells = len(json.loads(body)["cells"])
    except Exception as exc:  # a failed job is counted, not fatal
        return JobSample(index, False, f"{type(exc).__name__}: {exc}", nan, nan, nan,
                         nan, [], 0, 0, b"")
    return JobSample(index, not error, error, t3 - t0, t1 - t0, t3 - t2, wait,
                     durations, cached, cells, body)


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Server:
    """One ``repro serve`` subprocess on a fresh cache directory."""

    def __init__(self, root: str, workdir: str) -> None:
        self.root = root
        self.workdir = workdir
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self._log = None

    def boot(self) -> float:
        """Start the server; returns seconds until ``/api/healthz`` is 200."""
        os.makedirs(self.workdir, exist_ok=True)
        cache = os.path.join(self.workdir, "cache")
        shutil.rmtree(cache, ignore_errors=True)
        self.port = _free_port()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        self._log = open(os.path.join(self.workdir, "server.log"), "wb")
        t0 = _clock()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", str(self.port), "--workers", str(SERVER_WORKERS),
             "--cache-dir", cache, "--rate", "10000", "--burst", "10000"],
            cwd=self.root, env=env, stdout=self._log, stderr=subprocess.STDOUT,
        )
        while True:
            try:
                status, _ = _request(self.port, "GET", "/api/healthz", "boot")
                if status == 200:
                    return _clock() - t0
            except OSError:
                pass
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode} during boot")
            if _clock() - t0 > BOOT_TIMEOUT_S:
                raise RuntimeError("server did not answer /api/healthz in time")
            time.sleep(0.002)

    def cluster(self) -> Dict:
        """The ``/api/cluster`` document."""
        status, raw = _request(self.port, "GET", "/api/cluster", "observer")
        if status != 200:
            raise RuntimeError(f"/api/cluster answered {status}")
        return json.loads(raw)

    def stop(self) -> int:
        """SIGTERM, wait for the drain; returns the exit code."""
        if self.proc is None:
            return 0
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            code = -9
        finally:
            if self._log is not None:
                self._log.close()
            self.proc = None
            shutil.rmtree(os.path.join(self.workdir, "cache"), ignore_errors=True)
        return code


class PassResult(NamedTuple):
    """One serve pass."""

    setup_s: float
    wall_s: float
    jobs: List[JobSample]
    cells_executed: int
    cells_submitted: int
    error: str               # a pass-level failure (boot, drain)
    #: setup_s and wall_s in reference seconds (see perfbench.hostspeed)
    ref_setup_s: float = float("nan")
    ref_wall_s: float = float("nan")


def run_pass(root: str, workdir: str, docs: List[Dict], sensitivity: float) -> PassResult:
    """Boot a server, run the closed loop over ``docs``, drain it.

    The host speed is probed before the boot, after it and after the
    closed loop, so both times are also given in reference seconds.
    """
    from perfbench.hostspeed import Calibrator

    server = Server(root, workdir)
    nan = float("nan")
    try:
        calibrator = Calibrator(sensitivity)
        try:
            setup = server.boot()
        except Exception as exc:
            return PassResult(nan, nan, [], 0, 0, f"boot: {exc}")
        ref_setup = calibrator.phase(setup)
        samples: List[JobSample] = []
        lock = threading.Lock()

        def client(c: int) -> None:
            name = f"client-{c}"
            for index in range(c, len(docs), CLIENTS):
                sample = run_job(server.port, name, index, docs[index])
                with lock:
                    samples.append(sample)

        t0 = _clock()
        threads = [threading.Thread(target=client, args=(c,), daemon=True)
                   for c in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=BOOT_TIMEOUT_S * 10)
        wall = _clock() - t0
        ref_wall = calibrator.phase(wall)
        if any(t.is_alive() for t in threads):
            return PassResult(setup, nan, samples, 0, 0, "clients did not finish")
        try:
            executed = server.cluster()["cells_executed"]
        except (OSError, RuntimeError, ValueError) as exc:
            return PassResult(setup, nan, samples, 0, 0, f"cluster: {exc}")
    finally:
        code = server.stop()
    samples.sort(key=lambda s: s.index)
    error = "" if code == 0 else f"server exited {code} after SIGTERM"
    return PassResult(setup, wall, samples, executed, sum(s.cells for s in samples), error,
                      ref_setup, ref_wall)


def reference_doc(spec: Dict) -> Tuple[bytes, list]:
    """The in-process rendering of one job (and its cell outcomes), as the
    server must return it."""
    from repro.experiments.sweep import build_grid, doc_to_text, outcomes_to_doc, run_cells

    cells = build_grid(spec["grid"], n_jobs=spec["n_jobs"], seed=spec["seed"])
    outcomes = run_cells(cells, jobs=1)
    doc = outcomes_to_doc(outcomes, grid=spec["grid"], n_jobs=spec["n_jobs"],
                          seed=spec["seed"], provenance=False)
    return doc_to_text(doc).encode(), outcomes
