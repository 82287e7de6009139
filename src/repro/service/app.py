"""The campaign service HTTP front end.

A deliberately small, hand-rolled HTTP/1.1 server on
``asyncio.start_server`` — the environment ships no third-party web
framework, and the service's surface (five JSON routes plus one JSONL
stream) does not need one. The event loop parses requests, admits
submissions and shuttles bytes; every campaign executes on the
:class:`~repro.service.queue.CampaignQueue` worker threads, so a
long-running grid never blocks health checks or status polls.

Routes::

    GET    /healthz            liveness + queue occupancy + journal state
    GET    /metrics            Prometheus text-format metrics export
    GET    /cache              shared sharded-cache info (incl. hot tier)
    GET    /jobs               every held job's status document
    POST   /jobs               submit a campaign  -> 202 + job status
                               (200 when deduplicated onto an active job)
    GET    /jobs/<id>[?wait=S] one job's status (optionally long-poll)
    GET    /jobs/<id>/results  finished job's JSONL result stream
    DELETE /jobs/<id>          request cancellation
    DELETE /                   begin a graceful drain (admin / tests)

Error mapping: malformed campaign -> 400, unknown job -> 404,
results before completion -> 409, queue at capacity or draining ->
503 + ``Retry-After``. The queue holds only the newest finished jobs
(:data:`~repro.service.queue.MAX_FINISHED_JOBS`); a job it has
forgotten answers 404 on every route, like an unknown id.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
from typing import Dict, Optional, Set, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from ..analysis.engine import TRACE_MEMO, ShardedResultCache, configure
from ..errors import ConfigurationError, QueueFullError, ServiceDrainingError
from ..obs.export import render_prometheus
from ..obs.metrics import MetricsRegistry
from .journal import JobJournal
from .queue import CampaignQueue

__all__ = [
    "CampaignService",
    "ServiceHandle",
    "create_service",
    "start_in_thread",
]

#: Campaign payloads are small JSON documents; anything bigger than
#: this is a malfunctioning client, not a campaign.
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Per-request header/body read deadline; an idle kept-alive
#: connection is closed when it expires.
READ_TIMEOUT_S = 30.0
#: A response body up to this size goes out in one write with its head.
_WRITE_CHUNK = 64 * 1024

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def create_service(
    cache_dir,
    capacity: int = 64,
    workers: int = 2,
    hot_bytes: int = ShardedResultCache.DEFAULT_HOT_BYTES,
    engine_workers: int = 1,
    journal: Union[str, JobJournal, None] = None,
    drain_timeout_s: float = 30.0,
) -> "CampaignService":
    """Build a service around a fresh shared sharded cache.

    Configures the process-wide engine for service duty: the sharded
    cache with its hot tier, ``engine_workers`` engine processes per
    grid (default 1 — concurrency comes from the queue's worker
    threads). Repeat hits land in the byte-bounded hot tier.

    ``journal`` (a path or a :class:`JobJournal`) arms the write-ahead
    job journal: jobs found pending in it are replayed and re-enqueued
    before the listener opens, so a restarted server resumes exactly
    where the killed one stopped.
    """
    cache = ShardedResultCache(cache_dir, hot_bytes=hot_bytes)
    configure(cache=cache, workers=engine_workers)
    if journal is not None and not isinstance(journal, JobJournal):
        journal = JobJournal(journal)
    return CampaignService(
        cache=cache,
        capacity=capacity,
        workers=workers,
        journal=journal,
        drain_timeout_s=drain_timeout_s,
    )


def _resolve(future: "asyncio.Future") -> None:
    if not future.done():
        future.set_result(None)


async def _wait_until_done(job, timeout_s: float) -> None:
    """Wait on the event loop until ``job`` is done or ``timeout_s`` passes.

    A long-poll holds no thread: the job's completion wakes it through
    ``call_soon_threadsafe``, so the loop's pool threads stay free for
    scrapes and run tables however many polls are pending. A job that
    is already done returns at once; a poll that times out (or is
    cancelled) unregisters its callback.
    """
    loop = asyncio.get_running_loop()
    done = loop.create_future()

    def wake() -> None:
        try:
            loop.call_soon_threadsafe(_resolve, done)
        except RuntimeError:  # the loop closed before the job finished
            pass

    if not job.add_done_callback(wake):
        return
    try:
        await asyncio.wait_for(done, timeout_s)
    except asyncio.TimeoutError:
        pass
    finally:
        job.remove_done_callback(wake)


class CampaignService:
    """HTTP front end over a :class:`CampaignQueue` and a shared cache."""

    def __init__(
        self,
        cache: ShardedResultCache,
        capacity: int = 64,
        workers: int = 2,
        journal: Optional[JobJournal] = None,
        drain_timeout_s: float = 30.0,
    ) -> None:
        self.cache = cache
        self.journal = journal
        self.drain_timeout_s = float(drain_timeout_s)
        self.queue = CampaignQueue(
            capacity=capacity, workers=workers, journal=journal
        )
        self._server: Optional[asyncio.AbstractServer] = None
        #: Open client connections; clients keep them alive between calls.
        self._connections: Set[asyncio.StreamWriter] = set()
        self._drain_lock = threading.Lock()
        self._drain_thread: Optional[threading.Thread] = None
        self._drain_summary: Dict[str, int] = {}
        # Run-table endpoint accounting, surfaced through /metrics.
        self._runtable_lock = threading.Lock()
        self._runtable_requests = 0
        self._runtable_rows = 0
        self._runtable_bytes = 0

    # -- drain -----------------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self.queue.draining

    def drain(self, timeout_s: Optional[float] = None) -> Dict[str, int]:
        """Synchronous graceful drain (SIGTERM path): refuse new
        submissions, finish running jobs up to the deadline, journal
        the remainder as requeued, join the workers."""
        summary = self.queue.drain(
            self.drain_timeout_s if timeout_s is None else timeout_s
        )
        self._drain_summary = summary
        return summary

    def begin_drain(self) -> None:
        """Start a drain without blocking the event loop (the
        ``DELETE /`` admin path); idempotent."""
        with self._drain_lock:
            if self._drain_thread is None:
                self._drain_thread = threading.Thread(
                    target=self.drain, name="campaign-drain", daemon=True
                )
                self._drain_thread.start()

    # -- request handling ------------------------------------------------------

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Optional[Tuple[str, str, bytes]]:
        """Parse one request; returns (method, target, body) or None on EOF.

        One deadline covers the head and the body: when it expires it
        aborts the connection, which ends the pending read with EOF.
        """
        deadline = asyncio.get_running_loop().call_later(
            READ_TIMEOUT_S, writer.transport.abort
        )
        try:
            header_blob = await reader.readuntil(b"\r\n\r\n")
            head, _, _ = header_blob.partition(b"\r\n\r\n")
            lines = head.decode("latin-1").split("\r\n")
            parts = lines[0].split(" ")
            if len(parts) != 3:
                raise ValueError(f"malformed request line: {lines[0]!r}")
            method, target, _version = parts
            headers: Dict[str, str] = {}
            for line in lines[1:]:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", "0") or "0")
            if length < 0 or length > MAX_BODY_BYTES:
                raise ValueError(f"unacceptable content-length {length}")
            body = b""
            if length:
                body = await reader.readexactly(length)
        finally:
            deadline.cancel()
        return method.upper(), target, body

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await self._read_request(reader, writer)
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    break
                except (ValueError, asyncio.LimitOverrunError) as exc:
                    await self._send_json(
                        writer, 400, {"error": str(exc)}, close=True
                    )
                    break
                if request is None:
                    break
                method, target, body = request
                try:
                    status, payload, raw, headers = await self._route(
                        method, target, body
                    )
                except Exception as exc:  # pragma: no cover - last resort
                    status = 500
                    payload = {"error": f"{type(exc).__name__}: {exc}"}
                    raw, headers = None, None
                if raw is not None:
                    content_type = (headers or {}).pop(
                        "Content-Type", "application/x-ndjson"
                    )
                    await self._send_raw(
                        writer, status, raw, content_type, headers=headers
                    )
                else:
                    await self._send_json(
                        writer, status, payload, headers=headers
                    )
        except asyncio.CancelledError:
            # Shutdown cancels idle keep-alive handlers; end quietly so
            # the stream protocol's done-callback sees a clean task.
            pass
        finally:
            self._connections.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _route(
        self, method: str, target: str, body: bytes
    ) -> Tuple[
        int,
        Dict[str, object],
        Optional[bytes],
        Optional[Dict[str, str]],
    ]:
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = parse_qs(split.query)

        if path == "/" and method == "DELETE":
            # Admin drain: same state machine SIGTERM drives, reachable
            # over HTTP so the chaos/drain suites can exercise it.
            self.begin_drain()
            return (
                200,
                {
                    "draining": True,
                    "drain_timeout_s": self.drain_timeout_s,
                    "jobs": self.queue.counts(),
                },
                None,
                None,
            )
        if path == "/healthz" and method == "GET":
            counts = self.queue.counts()
            doc: Dict[str, object] = {
                "status": "draining" if self.draining else "ok",
                "draining": self.draining,
                "jobs": len(self.queue),
                "jobs_by_state": counts,
                "active": counts["queued"] + counts["running"],
                "capacity": self.queue.capacity,
            }
            if self.journal is not None:
                doc["journal"] = self.journal.stats.to_dict()
            return 200, doc, None, None
        # Scrapes walk and stat every cache entry: run them on a pool
        # thread so a large cache never stalls the other clients.
        if path == "/metrics" and method == "GET":
            text = await asyncio.get_running_loop().run_in_executor(
                None, self._metrics_document
            )
            return (
                200,
                {},
                text.encode("utf-8"),
                {"Content-Type": "text/plain; version=0.0.4"},
            )
        if path == "/cache" and method == "GET":
            info = await asyncio.get_running_loop().run_in_executor(
                None, self.cache.info
            )
            return 200, info, None, None
        if path == "/jobs" and method == "GET":
            return (
                200,
                {"jobs": [job.to_dict() for job in self.queue.jobs()]},
                None,
                None,
            )
        if path == "/jobs" and method == "POST":
            try:
                payload = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                return 400, {"error": f"body is not JSON: {exc}"}, None, None
            try:
                # Admission runs on the loop, as a cancel does: the
                # windowed journal only writes and flushes the submitted
                # record here, which costs less than a hop to a pool
                # thread. (A strict journal also fsyncs it here.)
                job, created = self.queue.submit(payload)
            except ConfigurationError as exc:
                return 400, {"error": str(exc)}, None, None
            except ServiceDrainingError as exc:
                # Capacity never frees up in a draining process; point
                # the client past the drain window at the restarted
                # server (resubmission is idempotent).
                retry_after = max(1, int(self.drain_timeout_s))
                return (
                    503,
                    {"error": str(exc), "draining": True},
                    None,
                    {"Retry-After": str(retry_after)},
                )
            except QueueFullError as exc:
                return (
                    503,
                    {"error": str(exc)},
                    None,
                    {"Retry-After": "1"},
                )
            doc = job.to_dict()
            if not created:
                doc["deduplicated"] = True
            return (202 if created else 200), doc, None, None

        if path.startswith("/jobs/"):
            rest = path[len("/jobs/"):]
            job_id, _, tail = rest.partition("/")
            job = self.queue.get(job_id)
            if job is None:
                return 404, {"error": f"unknown job {job_id!r}"}, None, None
            if not tail and method == "GET":
                wait_values = query.get("wait")
                if wait_values:
                    try:
                        wait_s = min(max(float(wait_values[0]), 0.0), 60.0)
                    except ValueError:
                        return (
                            400,
                            {"error": f"bad wait value {wait_values[0]!r}"},
                            None,
                            None,
                        )
                    if wait_s:
                        await _wait_until_done(job, wait_s)
                return 200, job.to_dict(), None, None
            if not tail and method == "DELETE":
                self.queue.cancel(job_id)
                return 200, job.to_dict(), None, None
            if tail == "results" and method == "GET":
                if job.status != "done":
                    return (
                        409,
                        {
                            "error": (
                                f"job {job_id} is {job.status}, not done"
                            ),
                            "status": job.status,
                        },
                        None,
                        None,
                    )
                blob = ("\n".join(job.result_lines) + "\n").encode("utf-8")
                return 200, {}, blob, None
            if tail == "runtable.csv" and method == "GET":
                if job.status != "done":
                    return (
                        409,
                        {
                            "error": (
                                f"job {job_id} is {job.status}, not done"
                            ),
                            "status": job.status,
                        },
                        None,
                        None,
                    )
                blob = job.runtable_csv
                if blob is None:
                    try:
                        # Decoding payloads and replaying quality is CPU
                        # work — keep it off the event loop. Concurrent
                        # first requests may build twice; the bytes are
                        # identical, and the queue keeps the first.
                        blob = await asyncio.get_running_loop().run_in_executor(
                            None, self._build_runtable, job
                        )
                    except Exception as exc:  # pragma: no cover - defensive
                        return (
                            500,
                            {"error": f"run table build failed: {exc}"},
                            None,
                            None,
                        )
                n_rows = blob.count(b"\n") - 1
                with self._runtable_lock:
                    self._runtable_requests += 1
                    self._runtable_rows += n_rows
                    self._runtable_bytes += len(blob)
                return (
                    200,
                    {},
                    blob,
                    {"Content-Type": "text/csv; charset=utf-8"},
                )

        if path in ("/healthz", "/metrics", "/cache", "/jobs") or (
            path.startswith("/jobs/")
        ):
            return 405, {"error": f"{method} not allowed on {path}"}, None, None
        return 404, {"error": f"no route for {path}"}, None, None

    def _metrics_document(self) -> str:
        """Assemble the ``/metrics`` Prometheus text document.

        One registry holds everything: the queue's accumulated engine
        and device metrics (merged from every finished job's
        RunReports), point-in-time service gauges (queue depth by
        state, drain flag, finished jobs and traces held), monotonic
        counters (forgotten jobs, hot-tier hits, quarantines) and the
        journal's replay/skip accounting.
        """
        registry = self.queue.metrics_snapshot()
        for state, count in self.queue.counts().items():
            registry.set_gauge(f"service.jobs.{state}", count)
        registry.set_gauge("service.jobs_retained", self.queue.retained())
        registry.inc("service.jobs_forgotten", self.queue.forgotten)
        registry.set_gauge("engine.trace_memo.entries", len(TRACE_MEMO))
        registry.set_gauge("engine.trace_memo.bytes", TRACE_MEMO.charge)
        registry.set_gauge("service.queue.capacity", self.queue.capacity)
        registry.set_gauge("service.draining", int(self.draining))
        info = self.cache.info()
        registry.set_gauge("cache.entries", info["entries"])
        for shard, count in info.get("shards", {}).items():
            registry.set_gauge(f"cache.shard.{shard}.entries", count)
        registry.set_gauge("cache.hot.entries", info.get("hot_entries", 0))
        registry.set_gauge("cache.hot.bytes", info.get("hot_bytes", 0))
        registry.inc("cache.hot.hits", info.get("hot_hits", 0))
        registry.inc("cache.quarantined", info.get("quarantined", 0))
        if self.journal is not None:
            for name, value in self.journal.stats.to_dict().items():
                registry.inc(f"journal.{name}", value)
        with self._runtable_lock:
            registry.inc("service.runtable.requests", self._runtable_requests)
            registry.inc("service.runtable.rows", self._runtable_rows)
            registry.inc("service.runtable.bytes", self._runtable_bytes)
        return render_prometheus(registry)

    def _build_runtable(self, job) -> bytes:
        """Build (and memoise) one job's canonical run-table CSV.

        The bytes derive purely from the campaign's task list and the
        bit-exact result payloads already streamed in
        ``job.result_lines``, so they equal what the offline writer
        produces for the same campaign with ``job=<job id>``.
        """
        from ..analysis.runtable import run_table_from_result_lines

        blob = run_table_from_result_lines(
            job.campaign, job.result_lines, job=job.id
        ).to_csv_bytes()
        return self.queue.store_runtable(job, blob)

    # -- response writing ------------------------------------------------------

    async def _send_raw(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        content_type: str,
        close: bool = False,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        reason = _STATUS_TEXT.get(status, "Unknown")
        extra = "".join(
            f"{name}: {value}\r\n"
            for name, value in sorted((headers or {}).items())
        )
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            "\r\n"
        ).encode("latin-1")
        if len(body) <= _WRITE_CHUNK:
            writer.write(head + body)
            await writer.drain()
            return
        # Stream a large body (a results stream) in chunks so it never
        # sits duplicated in a single write buffer.
        writer.write(head)
        for offset in range(0, len(body), _WRITE_CHUNK):
            writer.write(body[offset : offset + _WRITE_CHUNK])
            await writer.drain()

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, object],
        close: bool = False,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        await self._send_raw(
            writer,
            status,
            body,
            "application/json",
            close=close,
            headers=headers,
        )

    # -- lifecycle -------------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._server = await asyncio.start_server(
            self._handle_client, host=host, port=port
        )

    @property
    def port(self) -> int:
        assert self._server is not None, "service not started"
        sockets = self._server.sockets or ()
        for sock in sockets:
            if sock.family in (socket.AF_INET, socket.AF_INET6):
                return sock.getsockname()[1]
        raise RuntimeError("service has no listening socket")

    async def serve_forever(self) -> None:
        assert self._server is not None, "service not started"
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            # Close idle kept-alive connections too: since Python 3.12.1
            # ``wait_closed`` waits for every connection, and an idle one
            # would hold it for the whole READ_TIMEOUT_S.
            for writer in list(self._connections):
                writer.close()
            await self._server.wait_closed()
            self._server = None
        # Close runs off the event loop thread's executor so a slow
        # worker join never wedges the loop shutdown.
        await asyncio.get_running_loop().run_in_executor(
            None, self.queue.close
        )


class ServiceHandle:
    """A service running on a background thread — the test/bench harness.

    ``base_url`` points at the ephemeral port; :meth:`close` tears down
    the event loop, the listener and the queue workers.
    """

    def __init__(
        self,
        service: CampaignService,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self.service = service
        self._loop = loop
        self._thread = thread
        self.port = service.port
        self.base_url = f"http://127.0.0.1:{self.port}"

    def close(self, timeout_s: float = 10.0) -> None:
        drain_thread = self.service._drain_thread
        if drain_thread is not None and drain_thread.is_alive():
            drain_thread.join(timeout=timeout_s)
        if self._thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(
                self._shutdown(), self._loop
            )
            future.result(timeout=timeout_s)
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=timeout_s)
        if not self._loop.is_closed():
            self._loop.close()

    async def _shutdown(self) -> None:
        await self.service.aclose()
        # Idle keep-alive connections still sit in a read; cancel them
        # and let them finish while the loop still runs. A handler left
        # suspended would run its ``finally`` (``writer.close()``) only
        # when garbage-collected, after the loop has closed, and raise
        # from whatever code the collector happened to interrupt.
        current = asyncio.current_task()
        pending = [task for task in asyncio.all_tasks() if task is not current]
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, return_exceptions=True)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def start_in_thread(
    cache_dir,
    capacity: int = 64,
    workers: int = 2,
    hot_bytes: int = ShardedResultCache.DEFAULT_HOT_BYTES,
    engine_workers: int = 1,
    host: str = "127.0.0.1",
    journal: Union[str, JobJournal, None] = None,
    drain_timeout_s: float = 30.0,
    port: int = 0,
) -> ServiceHandle:
    """Start a fully wired service on a daemon thread; returns its handle.

    ``port=0`` (the default) binds an ephemeral port; a fixed ``port``
    lets a test restart a service where its clients already connect.
    """
    service = create_service(
        cache_dir,
        capacity=capacity,
        workers=workers,
        hot_bytes=hot_bytes,
        engine_workers=engine_workers,
        journal=journal,
        drain_timeout_s=drain_timeout_s,
    )
    loop = asyncio.new_event_loop()
    started = threading.Event()
    failure: list = []

    def _run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(service.start(host=host, port=port))
        except Exception as exc:  # pragma: no cover - bind failure
            failure.append(exc)
            started.set()
            return
        started.set()
        loop.run_forever()

    thread = threading.Thread(
        target=_run, name="campaign-service", daemon=True
    )
    thread.start()
    if not started.wait(timeout=10.0):
        raise RuntimeError("campaign service failed to start in time")
    if failure:
        raise failure[0]
    return ServiceHandle(service=service, loop=loop, thread=thread)
