"""The HTTP front door: routes, backpressure, SSE, graceful drain.

:class:`Server` owns the asyncio listener and delegates all execution to
a :class:`~repro.experiments.jobs.JobManager` (whose executor threads do
the blocking work — the event loop only parses requests, renders
documents, and pumps SSE frames).

Routes::

    POST /api/jobs              submit a grid/cells document → job id
    GET  /api/jobs              one summary row per job
    GET  /api/jobs/{id}         status, progress, per-cell outcomes
    GET  /api/jobs/{id}/result  the outcome document (--out rendering)
    GET  /api/jobs/{id}/events  SSE: job/cell/progress/trace/done
    GET  /api/cluster           queue/worker/lease/cache/limiter state
    GET  /api/healthz           liveness (also reports draining)
    POST /api/queue/lease       remote worker: take one cell
    POST /api/queue/renew       remote worker: extend a lease
    POST /api/queue/complete    remote worker: report a result
    POST /api/queue/fail        remote worker: report a failure / release

Edge behavior (documented for clients in ``docs/SERVER.md``):

* every request is charged to a per-client token bucket
  (``X-Client-Id`` header — a remote worker sends its worker id — else
  peer address) — empty bucket → **429** with ``Retry-After``;
* the job backlog is bounded — full → **503**; draining → **503**;
* request size/time limits from :mod:`repro.server.http` → 408/413/431;
* submitted cells that name a server-side path (``trace_path``, a
  ``"file"`` workload) → **400**, nothing queued;
* SIGTERM/SIGINT → drain: stop accepting, let in-flight cells land,
  close SSE streams, exit.  With a job journal configured, unfinished
  jobs resume on restart (:mod:`repro.server.jobstore`).
"""

from __future__ import annotations

import asyncio
import signal
import traceback
from functools import partial
from typing import Callable, Dict, Optional, Set

from repro.experiments.jobs import Job, JobManager, JobRejected, parse_job_spec
from repro.experiments.serialize import result_from_dict
from repro.server import sse
from repro.server.http import (
    HttpError,
    Request,
    error_response,
    json_response,
    read_request,
    response,
    sse_preamble,
)
from repro.server.ratelimit import RateLimiter


class Server:
    """The asyncio HTTP server over one :class:`JobManager`."""

    def __init__(
        self,
        manager: JobManager,
        host: str = "127.0.0.1",
        port: int = 8750,
        rate: float = 20.0,
        burst: float = 40.0,
        max_body_bytes: int = 1_048_576,
        request_timeout_s: float = 10.0,
        keepalive_s: float = 15.0,
        shutdown_grace_s: float = 30.0,
    ) -> None:
        self.manager = manager
        self.host = host
        self.port = port
        self.limiter = RateLimiter(rate=rate, burst=burst)
        self.max_body_bytes = max_body_bytes
        self.request_timeout_s = request_timeout_s
        self.keepalive_s = keepalive_s
        self.shutdown_grace_s = shutdown_grace_s
        self.requests = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping = False
        self._stop_requested: Optional[asyncio.Event] = None
        self._sse_wakeups: Set[asyncio.Event] = set()

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting (resolves ``port=0`` to the real port)."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve(self) -> None:
        """Run until SIGTERM/SIGINT, then drain gracefully."""
        if self._server is None:
            await self.start()
        loop = asyncio.get_running_loop()
        self._stop_requested = asyncio.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self._stop_requested.set)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-unix or non-main thread; request_stop instead
        try:
            await self._stop_requested.wait()
        finally:
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.remove_signal_handler(sig)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass
            await self.shutdown()

    def request_stop(self) -> None:
        """Ask :meth:`serve` to exit (thread-unsafe; call on the loop)."""
        if self._stop_requested is not None:
            self._stop_requested.set()

    async def shutdown(self) -> None:
        """Drain: refuse new work, land in-flight cells, close streams."""
        if self._stopping:
            return
        self._stopping = True
        self.manager.drain()
        for wakeup in list(self._sse_wakeups):
            wakeup.set()
        if self._server is not None:
            self._server.close()
            try:
                await asyncio.wait_for(
                    self._server.wait_closed(), timeout=self.shutdown_grace_s
                )
            except (asyncio.TimeoutError, TimeoutError):
                pass  # a wedged client connection; the process is exiting
        await asyncio.to_thread(self.manager.stop, self.shutdown_grace_s)
        journal = getattr(self.manager, "journal", None)
        if journal is not None and hasattr(journal, "close"):
            journal.close()

    # -- connection handling ---------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peername = writer.get_extra_info("peername")
        peer = peername[0] if isinstance(peername, tuple) else str(peername)
        try:
            try:
                request = await read_request(
                    reader, self.max_body_bytes, self.request_timeout_s,
                    peer=peer,
                )
            except HttpError as exc:
                writer.write(error_response(exc))
                await writer.drain()
                return
            if request is None:
                return
            self.requests += 1
            try:
                self._check_rate(request)
                body = await self._dispatch(request, writer)
            except HttpError as exc:
                body = error_response(exc)
            except JobRejected as exc:
                headers = {}
                if exc.retry_after_s:
                    headers["Retry-After"] = f"{exc.retry_after_s:g}"
                body = json_response(
                    exc.status,
                    {"error": exc.message, "status": exc.status},
                    headers=headers,
                )
            except Exception:
                body = json_response(
                    500,
                    {"error": traceback.format_exc(limit=1).strip()
                     .splitlines()[-1], "status": 500},
                )
            if body is not None:
                writer.write(body)
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _check_rate(self, request: Request) -> None:
        client = request.headers.get("x-client-id") or request.peer or "anon"
        allowed, retry_after = self.limiter.check(client)
        if not allowed:
            raise HttpError(
                429,
                f"rate limit exceeded for client {client!r}",
                headers={"Retry-After": f"{max(retry_after, 0.001):.3f}"},
            )

    # -- routing ---------------------------------------------------------------

    async def _dispatch(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> Optional[bytes]:
        """Return the full response bytes, or None if already streamed."""
        method, path = request.method, request.path.rstrip("/") or "/"
        if path == "/api/jobs":
            if method == "POST":
                return await self._submit(request)
            if method == "GET":
                return json_response(200, {"jobs": self.manager.jobs_doc()})
            raise HttpError(405, f"{method} not allowed on {path}")
        if path == "/api/cluster":
            self._require_get(method, path)
            return json_response(200, self._cluster_doc())
        if path == "/api/healthz":
            self._require_get(method, path)
            return json_response(
                200, {"ok": True, "draining": self.manager.draining}
            )
        if path.startswith("/api/queue/"):
            if method != "POST":
                raise HttpError(405, f"{method} not allowed on {path}")
            return await self._queue_op(path[len("/api/queue/"):], request)
        if path.startswith("/api/jobs/"):
            rest = path[len("/api/jobs/"):]
            job_id, _, sub = rest.partition("/")
            job = self._find_job(job_id)
            if not sub:
                self._require_get(method, path)
                return json_response(200, self.manager.job_status_doc(job))
            if sub == "result":
                self._require_get(method, path)
                return self._result(job)
            if sub == "events":
                self._require_get(method, path)
                await self._stream_events(request, writer, job)
                return None
        raise HttpError(404, f"no route for {method} {path}")

    @staticmethod
    def _require_get(method: str, path: str) -> None:
        if method != "GET":
            raise HttpError(405, f"{method} not allowed on {path}")

    def _find_job(self, job_id: str) -> Job:
        job = self.manager.jobs.get(job_id)
        if job is None:
            raise HttpError(404, f"no such job {job_id!r}")
        return job

    # -- handlers --------------------------------------------------------------

    async def _submit(self, request: Request) -> bytes:
        doc = request.json()

        def submit():
            _refuse_server_paths(doc)
            return self.manager.submit(doc)

        # submission touches the cache (disk) — keep it off the event loop
        job, created = await asyncio.to_thread(submit)
        body = {
            "id": job.id,
            "state": job.state,
            "created": created,
            "idempotency_key": job.idempotency_key,
            "progress": self.manager.job_status_doc(job)["progress"],
        }
        return json_response(202 if created else 200, body)

    async def _queue_op(self, op: str, request: Request) -> bytes:
        """One lease-protocol call from a remote worker.

        The reply is the queue's document; ``ok: false`` (an unknown
        cell, a result for another cell) answers 400.
        """
        doc = request.json()
        if not isinstance(doc, dict):
            raise HttpError(400, "request body must be a JSON object")
        manager = self.manager
        worker = str(doc.get("worker", ""))
        key, lease_id = str(doc.get("key", "")), str(doc.get("lease_id", ""))
        if op == "lease":
            call = partial(manager.lease, worker)
        elif op == "renew":
            call = partial(manager.renew, key, lease_id)
        elif op == "complete":
            try:
                result = result_from_dict(doc["result"])
                duration_s = float(doc.get("duration_s", 0.0))
            except Exception as exc:
                raise HttpError(400, f"malformed completion: {exc!r}")
            call = partial(manager.complete, key, lease_id, result, worker,
                           bool(doc.get("cached", False)), duration_s)
        elif op == "fail":
            call = partial(manager.fail, key, lease_id, str(doc.get("error", "")),
                           requeue=bool(doc.get("requeue", False)))
        else:
            raise HttpError(404, f"no route for POST /api/queue/{op}")
        # a call may write the cache or the job journal — keep it off the loop
        reply = await asyncio.to_thread(call)
        return json_response(200 if reply.get("ok") else 400, reply)

    def _result(self, job: Job) -> bytes:
        doc = self.manager.job_result_doc(job)
        if doc is None:
            raise HttpError(
                409, f"job {job.id!r} is still {job.state}; result not ready"
            )
        return json_response(200, doc)

    def _cluster_doc(self) -> Dict:
        doc = self.manager.cluster_doc()
        doc["server"] = {
            "requests": self.requests,
            "stopping": self._stopping,
            "ratelimit": {
                "allowed": self.limiter.allowed,
                "limited": self.limiter.limited,
                "clients": len(self.limiter),
            },
        }
        return doc

    async def _stream_events(
        self, request: Request, writer: asyncio.StreamWriter, job: Job
    ) -> None:
        """Pump the job's RecordStream as SSE until done (or shutdown)."""
        since = 0
        raw_since = request.query.get("since") \
            or request.headers.get("last-event-id", "")
        if raw_since:
            try:
                since = int(raw_since)
            except ValueError:
                raise HttpError(400, f"malformed event id {raw_since!r}")
        writer.write(sse_preamble(sse.HEADERS))
        loop = asyncio.get_running_loop()
        wakeup = asyncio.Event()
        self._sse_wakeups.add(wakeup)

        def wake() -> None:
            loop.call_soon_threadsafe(wakeup.set)

        job.stream.add_waiter(wake)
        try:
            while True:
                events, dropped, closed = job.stream.read_since(since)
                if dropped:
                    writer.write(sse.format_event(
                        "dropped", {"count": dropped}
                    ))
                    since += dropped
                for event in events:
                    writer.write(sse.format_event(
                        event.kind, dict(event.data), seq=event.seq
                    ))
                    since = event.seq
                await writer.drain()
                if closed or self._stopping:
                    break
                wakeup.clear()
                try:
                    await asyncio.wait_for(
                        wakeup.wait(), timeout=self.keepalive_s
                    )
                except (asyncio.TimeoutError, TimeoutError):
                    writer.write(sse.format_comment())
                    await writer.drain()
        finally:
            job.stream.remove_waiter(wake)
            self._sse_wakeups.discard(wakeup)


def _refuse_server_paths(doc: object) -> None:
    """400 for client cells naming a path on the server's disk: a
    ``trace_path`` to write, or a ``"file"`` workload to read and hash
    (``/dev/zero`` never ends).  In-process ``sweep --serve`` may use both.
    """
    if not isinstance(doc, dict) or "cells" not in doc:
        return  # a named grid builds its own cells
    for cell in parse_job_spec(doc)[0]:
        if cell.config.trace_path or cell.workload.kind == "file":
            what = "sets trace_path" if cell.config.trace_path else "has a 'file' workload"
            raise HttpError(400, f"cell {cell.label()!r} {what}; the server "
                                 "opens no client-named files")


async def run_server(
    server: Server, until: Optional[Callable[[], bool]] = None
) -> None:
    """CLI entry: start and serve until signalled — or, with ``until``,
    until that predicate (polled every 0.1 s) turns true."""
    await server.start()
    print(f"serving on http://{server.host}:{server.port}", flush=True)
    if until is not None:
        # held so it is not collected; asyncio.run cancels it if a signal
        # stops the server first
        watcher = asyncio.get_running_loop().create_task(  # noqa: F841
            _stop_when(server, until)
        )
    await server.serve()


async def _stop_when(server: Server, until: Callable[[], bool]) -> None:
    while not until():
        await asyncio.sleep(0.1)
    server.request_stop()
