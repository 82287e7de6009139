"""Bounded job queue + worker pool for the campaign service.

Jobs move ``queued → running → done`` (or ``failed`` / ``cancelled``,
or back to ``requeued`` when a drain interrupts them). The queue is
bounded: once ``queued + running`` reaches capacity, new submissions
are refused with :class:`~repro.errors.QueueFullError` (the HTTP
layer maps that to 503 + ``Retry-After``) — backpressure instead of
unbounded memory growth under a client storm.

The queue forgets what it no longer needs, like the paper's device,
which carries only live state across an outage. It keeps the newest
finished jobs, at most :data:`MAX_FINISHED_JOBS` of them holding at
most :data:`MAX_FINISHED_BYTES` of result lines and run tables, and
forgets older ones oldest first. A forgotten job answers 404 like an
unknown id; its results are a pure function of its campaign, so
resubmitting it is idempotent and served warm, and the journal stays
the durable record.

Identical campaigns (equal :meth:`Campaign.signature`) are
*singleflighted*: a per-signature lock serialises their execution, so
when N clients submit the same grid at once, one job computes and the
rest replay almost entirely from the shared cache; a signature's lock
is dropped once no job holds it. The same content hash doubles as an
**idempotency key** across restarts: submitting a campaign whose
signature matches a still-active *recovered* job returns that job
instead of creating a duplicate — which is what lets a client that
lost its connection to a crashed server resubmit blindly and land on
the journal-replayed job. (Fresh identical submissions still get their
own job records; the flight lock alone bounds their duplicate
computation.)

Durability comes from an optional write-ahead
:class:`~repro.service.journal.JobJournal`: every commit point
(``submitted`` / ``started`` / ``cancelled`` / ``finished`` /
``requeued``) is fsync-ed to the journal before it is acknowledged,
and a queue constructed over an existing journal **replays** it —
jobs whose last event is non-terminal are re-created under their
original ids and re-enqueued, so a SIGKILL-ed server restarted on the
same journal + cache directories finishes every job it had accepted.

Graceful shutdown is :meth:`CampaignQueue.drain`: stop admitting,
let running jobs finish up to a deadline, cancel-and-requeue the
overrun, sweep still-queued jobs into ``requeued`` journal records,
then :meth:`close` — which cancels any stragglers through the
engine's thread-local ``cancel_scope`` and actually joins the worker
threads instead of abandoning them.

Each job executes under three scopes:

* :func:`repro.analysis.telemetry.job_scope` — its grid reports carry
  the job id;
* :func:`repro.analysis.telemetry.collected` — per-job telemetry
  summary without scanning shared history;
* :func:`repro.analysis.engine.cancel_scope` — ``DELETE /jobs/<id>``
  trips the event and the engine aborts between waves.
"""

from __future__ import annotations

import itertools
import queue as _queue
import threading
import time
import traceback
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..analysis import telemetry
from ..errors import (
    ConfigurationError,
    JobCancelledError,
    QueueFullError,
    ServiceDrainingError,
)
from ..obs.metrics import MetricsRegistry
from .journal import JobJournal
from .protocol import Campaign, execute_campaign, parse_campaign, summarize_reports

__all__ = ["Job", "CampaignQueue", "TERMINAL_STATES", "ACTIVE_STATES"]

#: Terminal job states — ``done_event`` is set exactly when one is reached.
TERMINAL_STATES = ("done", "failed", "cancelled")

#: States that count against queue capacity.
ACTIVE_STATES = ("queued", "running")

#: Every state a job status document may carry.
JOB_STATES = ("queued", "running", "requeued", "done", "failed", "cancelled")

#: Finished jobs the queue keeps, newest first. At the benchmark's ~300
#: requests/s that is about a second of finished work, far more than
#: the milliseconds between a client's wait and its results fetch.
MAX_FINISHED_JOBS = 256
#: Bytes the kept finished jobs may hold together: their result lines
#: and any run-table CSV built for them. A 1000-device fleet job is
#: about 2 MB of lines and 0.3 MB of CSV. The newest finished job is
#: kept whatever its size.
MAX_FINISHED_BYTES = 64 * 1024 * 1024


@dataclass
class Job:
    """One submitted campaign and everything the service knows about it."""

    id: str
    campaign: Campaign
    signature: str
    status: str = "queued"
    error: str = ""
    created_at: float = field(default_factory=time.time)
    started_at: float = 0.0
    finished_at: float = 0.0
    #: True when this job was rebuilt from the journal at startup.
    recovered: bool = False
    #: Set while draining so a cancel requeues instead of cancelling.
    requeue_on_cancel: bool = False
    #: Streamed JSONL result lines (set when status == "done").
    result_lines: List[str] = field(default_factory=list)
    #: Campaign-level summary from :func:`execute_campaign`.
    summary: Dict[str, object] = field(default_factory=dict)
    #: Aggregated per-job run telemetry (computed / cache_hits / ...).
    telemetry: Dict[str, object] = field(default_factory=dict)
    #: Memoised canonical run-table CSV (built on first request; the
    #: bytes are a pure function of the campaign + result payloads, so
    #: caching them is safe and keeps streaming overhead low). Stored
    #: through :meth:`CampaignQueue.store_runtable`, which charges them
    #: to the finished-job bound.
    runtable_csv: Optional[bytes] = None
    cancel_event: threading.Event = field(default_factory=threading.Event)
    done_event: threading.Event = field(default_factory=threading.Event)
    #: Callbacks :meth:`mark_done` runs once (long-polls waiting on the
    #: event loop), guarded with ``done_event`` by ``_done_lock``.
    _done_callbacks: List[Callable[[], None]] = field(
        default_factory=list, init=False, repr=False
    )
    _done_lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False
    )

    def mark_done(self) -> None:
        """Set ``done_event`` and run every registered callback once."""
        with self._done_lock:
            self.done_event.set()
            callbacks, self._done_callbacks = self._done_callbacks, []
        for callback in callbacks:
            callback()

    def add_done_callback(self, callback: Callable[[], None]) -> bool:
        """Have :meth:`mark_done` call ``callback`` from the finishing
        thread; ``False`` (nothing registered) if the job is done."""
        with self._done_lock:
            if self.done_event.is_set():
                return False
            self._done_callbacks.append(callback)
            return True

    def remove_done_callback(self, callback: Callable[[], None]) -> None:
        """Unregister ``callback`` if :meth:`mark_done` has not run it."""
        with self._done_lock:
            if callback in self._done_callbacks:
                self._done_callbacks.remove(callback)

    def to_dict(self) -> Dict[str, object]:
        """The ``GET /jobs/<id>`` status document."""
        out: Dict[str, object] = {
            "id": self.id,
            "kind": self.campaign.kind,
            "engine": self.campaign.engine,
            "n_tasks": self.campaign.n_tasks,
            "signature": self.signature,
            "status": self.status,
            "created_at": self.created_at,
        }
        if self.recovered:
            out["recovered"] = True
        if self.started_at:
            out["started_at"] = self.started_at
        if self.finished_at:
            out["finished_at"] = self.finished_at
            out["wall_s"] = self.finished_at - max(
                self.started_at, self.created_at
            )
        if self.error:
            out["error"] = self.error
        if self.telemetry:
            out["telemetry"] = self.telemetry
        if self.summary:
            out["summary"] = self.summary
        if self.status == "done":
            out["result_lines"] = len(self.result_lines)
        return out


class CampaignQueue:
    """Bounded FIFO of campaign jobs drained by joinable worker threads."""

    def __init__(
        self,
        capacity: int = 64,
        workers: int = 2,
        journal: Optional[JobJournal] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.capacity = int(capacity)
        self.journal = journal
        self.metrics = MetricsRegistry()
        self._pending: "_queue.Queue[Optional[Job]]" = _queue.Queue()
        #: Every job the queue still answers for: the live ones and the
        #: newest finished ones.
        self._jobs: Dict[str, Job] = {}
        #: The ids of the finished jobs in ``_jobs``, oldest first, with
        #: the bytes they hold (result lines and run-table CSV).
        self._finished: "OrderedDict[str, int]" = OrderedDict()
        self._finished_bytes = 0
        #: Finished jobs forgotten to stay within the bounds.
        self.forgotten = 0
        #: The queued and running jobs, by id. A job is queued only when
        #: it is created and runs only from queued, so it enters here
        #: then and leaves in :meth:`_retire`; :meth:`submit` admits
        #: against these, so admission costs the same however long the
        #: service has run.
        self._live: Dict[str, Job] = {}
        self._lock = threading.Lock()
        #: Per-signature flight lock and how many jobs hold or await it.
        self._flights: Dict[str, List] = {}
        self._closed = False
        self._joined = False
        self._draining = False
        recovered, max_ordinal = self._recover()
        self._ids = itertools.count(max_ordinal + 1)
        for job in recovered:
            self._pending.put(job)
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"campaign-worker-{i}",
                daemon=True,
            )
            for i in range(int(workers))
        ]
        for worker in self._workers:
            worker.start()

    # -- recovery --------------------------------------------------------------

    def _recover(self) -> Tuple[List[Job], int]:
        """Replay the journal into re-enqueueable jobs (original ids).

        A pending record whose payload no longer parses (schema drift,
        hand-edited journal) is retired with a ``finished``/``failed``
        record so it cannot replay forever — the serving-layer analog
        of the restore chain giving up on an unrecoverable checkpoint.
        """
        if self.journal is None:
            return [], 0
        records, max_ordinal = self.journal.replay()
        jobs: List[Job] = []
        for record in records:
            job_id = str(record["job"])
            try:
                campaign = parse_campaign(record["payload"])
            except ConfigurationError as exc:
                self.journal.stats.recover_failed += 1
                self.journal.append(
                    "finished",
                    job_id,
                    status="failed",
                    error=f"unrecoverable journal payload: {exc}",
                )
                continue
            job = Job(
                id=job_id,
                campaign=campaign,
                signature=campaign.signature(),
                recovered=True,
            )
            self._jobs[job.id] = self._live[job.id] = job
            jobs.append(job)
            self.journal.stats.recovered += 1
            self.journal.append("requeued", job.id)
        return jobs, max_ordinal

    # -- submission / lookup ---------------------------------------------------

    def submit(self, payload: object) -> Tuple[Job, bool]:
        """Parse, admit and enqueue a campaign.

        Returns ``(job, created)``: when a still-active *recovered*
        job carries the same content signature, that job is returned
        with ``created=False`` — idempotent resubmission after a crash
        — and nothing is enqueued. Raises
        :class:`~repro.errors.ConfigurationError` for malformed
        payloads, :class:`~repro.errors.ServiceDrainingError` while
        draining, and :class:`~repro.errors.QueueFullError` when the
        queue has no room (none of which create a job record).
        """
        campaign = parse_campaign(payload)
        signature = campaign.signature()
        with self._lock:
            if self._draining:
                raise ServiceDrainingError(
                    "campaign queue is draining for shutdown"
                )
            if self._closed:
                raise QueueFullError("campaign queue is shut down")
            for existing in self._live.values():
                if existing.recovered and existing.signature == signature:
                    return existing, False
            if len(self._live) >= self.capacity:
                raise QueueFullError(
                    f"campaign queue at capacity ({self.capacity} active jobs)"
                )
            job = Job(
                id=f"job-{next(self._ids):06d}",
                campaign=campaign,
                signature=signature,
            )
            self._jobs[job.id] = self._live[job.id] = job
        # Journal *before* enqueueing: a crash between the append and
        # the put loses only in-memory state the replay rebuilds.
        if self.journal is not None:
            self.journal.append(
                "submitted",
                job.id,
                signature=signature,
                payload=campaign.payload,
            )
        self._pending.put(job)
        return job, True

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        """Every job the queue holds, oldest submission first."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda job: job.id)

    def __len__(self) -> int:
        """How many jobs the queue holds, in any state."""
        with self._lock:
            return len(self._jobs)

    def retained(self) -> int:
        """How many finished jobs the queue still holds."""
        with self._lock:
            return len(self._finished)

    def counts(self) -> Dict[str, int]:
        """Job tallies by state (every state present, zero or not)."""
        out = {state: 0 for state in JOB_STATES}
        with self._lock:
            for job in self._jobs.values():
                out[job.status] = out.get(job.status, 0) + 1
        return out

    @property
    def draining(self) -> bool:
        return self._draining

    def metrics_snapshot(self) -> MetricsRegistry:
        """A merged copy of the queue's accumulated metrics."""
        snapshot = MetricsRegistry()
        with self._lock:
            snapshot.merge(self.metrics)
        return snapshot

    def cancel(self, job_id: str) -> Optional[Job]:
        """Request cancellation; a still-queued job is cancelled at once."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            job.cancel_event.set()
            if job.status == "queued":
                job.status = "cancelled"
                job.finished_at = time.time()
                self._retire(job)
                job.mark_done()
                if self.journal is not None:
                    self.journal.append("cancelled", job.id)
        return job

    # -- drain / shutdown ------------------------------------------------------

    def drain(self, timeout_s: float = 30.0) -> Dict[str, int]:
        """Graceful shutdown: finish what's running, requeue the rest.

        Flips the queue into draining mode (submissions refused with
        :class:`~repro.errors.ServiceDrainingError`), lets running
        jobs finish until ``timeout_s`` elapses, then cancels the
        overrun through their cancel scopes so they are journaled as
        ``requeued`` instead of lost. Still-queued jobs are swept to
        ``requeued`` by the workers on their way down, and the worker
        threads are joined. Returns the final job tallies.
        """
        with self._lock:
            first = not self._draining
            self._draining = True
        if first:
            deadline = time.monotonic() + max(float(timeout_s), 0.0)
            while time.monotonic() < deadline:
                running = [
                    job for job in self.jobs() if job.status == "running"
                ]
                if not running:
                    break
                running[0].done_event.wait(
                    min(0.05, max(deadline - time.monotonic(), 0.0))
                )
            with self._lock:
                overrun = [
                    job
                    for job in self._jobs.values()
                    if job.status == "running"
                ]
                for job in overrun:
                    job.requeue_on_cancel = True
                    job.cancel_event.set()
        self.close(cancel_running=False)
        return self.counts()

    def close(
        self, timeout_s: float = 10.0, cancel_running: bool = True
    ) -> List[str]:
        """Stop accepting work, cancel running jobs, join the workers.

        Returns the names of any worker threads that survived the join
        timeout (the stress suite asserts this is empty). Safe to call
        more than once; only the first call enqueues sentinels.
        """
        with self._lock:
            first = not self._closed
            self._closed = True
            running = [
                job for job in self._jobs.values() if job.status == "running"
            ]
        if cancel_running:
            for job in running:
                job.cancel_event.set()
        if first:
            for _ in self._workers:
                self._pending.put(None)
        for worker in self._workers:
            worker.join(timeout=timeout_s)
        leaked = [
            worker.name for worker in self._workers if worker.is_alive()
        ]
        if not leaked and not self._joined:
            self._joined = True
            if self.journal is not None:
                self.journal.close()
        return leaked

    # -- execution -------------------------------------------------------------

    def _retire(self, job: Job) -> None:
        """Record ``job`` as finished and forget the oldest finished
        jobs beyond the bounds; the caller holds ``_lock``.

        Every path that ends a job in this process comes here: a worker
        finishing or failing it, a cancel while it is queued, and the
        close and drain sweeps. The newest finished job always stays.
        """
        self._live.pop(job.id, None)
        self._finished_bytes -= self._finished.pop(job.id, 0)
        self._finished[job.id] = 0
        self._charge(job.id, sum(len(line) for line in job.result_lines))

    def _charge(self, job_id: str, size: int) -> None:
        """Count ``size`` more bytes held by finished job ``job_id`` and
        forget the oldest finished jobs beyond the bounds; the caller
        holds ``_lock``."""
        self._finished[job_id] += size
        self._finished_bytes += size
        while len(self._finished) > 1 and (
            len(self._finished) > MAX_FINISHED_JOBS
            or self._finished_bytes > MAX_FINISHED_BYTES
        ):
            old_id, old_size = self._finished.popitem(last=False)
            self._finished_bytes -= old_size
            self._jobs.pop(old_id, None)
            self.forgotten += 1

    def store_runtable(self, job: Job, blob: bytes) -> bytes:
        """Memoise ``job``'s run-table CSV and charge its bytes to the
        finished-job bound like its result lines; returns the stored
        bytes (the first ones, if two requests built them at once)."""
        with self._lock:
            if job.runtable_csv is None:
                job.runtable_csv = blob
                if job.id in self._finished:
                    self._charge(job.id, len(blob))
            return job.runtable_csv

    @contextmanager
    def _flight(self, signature: str) -> Iterator[None]:
        """Hold ``signature``'s flight lock; the last holder drops it."""
        with self._lock:
            flight = self._flights.get(signature)
            if flight is None:
                flight = self._flights[signature] = [threading.Lock(), 0]
            flight[1] += 1
        try:
            with flight[0]:
                yield
        finally:
            with self._lock:
                flight[1] -= 1
                if not flight[1]:
                    del self._flights[signature]

    def _worker_loop(self) -> None:
        while True:
            job = self._pending.get()
            if job is None:
                return
            # cancel() may have finished the job while it sat queued.
            if job.done_event.is_set():
                continue
            with self._lock:
                if self._draining:
                    # Draining: never start new work; sweep the queued
                    # job into a durable requeued record instead.
                    if job.status == "queued":
                        job.status = "requeued"
                        self._retire(job)
                        if self.journal is not None:
                            self.journal.append("requeued", job.id)
                    continue
                if self._closed:
                    # Abrupt close (no drain): cancel instead of
                    # executing, so the join is prompt and bounded.
                    if job.status == "queued":
                        job.status = "cancelled"
                        job.finished_at = time.time()
                        self._retire(job)
                        if self.journal is not None:
                            self.journal.append("cancelled", job.id)
                        job.mark_done()
                    continue
                job.status = "running"
                job.started_at = time.time()
            if self.journal is not None:
                self.journal.append("started", job.id)
            try:
                with self._flight(job.signature):
                    self._execute(job)
            except BaseException:  # pragma: no cover - worker must survive
                with self._lock:
                    job.status = "failed"
                    job.error = traceback.format_exc(limit=3)
                    job.finished_at = time.time()
                    self._retire(job)
                self._finalize(job, "failed")
                job.mark_done()

    def _execute(self, job: Job) -> None:
        reports: List[telemetry.RunReport] = []
        try:
            with telemetry.job_scope(job.id):
                with telemetry.collected() as reports:
                    lines, summary = execute_campaign(
                        job.campaign, cancel_event=job.cancel_event
                    )
            status, error = "done", ""
        except JobCancelledError:
            lines, summary = [], {}
            status, error = "cancelled", ""
        except Exception as exc:
            lines, summary = [], {}
            status = "failed"
            error = f"{type(exc).__name__}: {exc}"
        if status == "cancelled" and job.requeue_on_cancel:
            # Drain interrupted this job: put it back on the durable
            # queue (requeued), not into a terminal state, so the
            # restarted server picks it up.
            with self._lock:
                job.status = "requeued"
                job.started_at = 0.0
                job.telemetry = summarize_reports(reports)
                self._retire(job)
            self._finalize(job, "requeued")
            return
        with self._lock:
            job.result_lines = lines
            job.summary = summary
            job.telemetry = summarize_reports(reports)
            job.status = status
            job.error = error
            job.finished_at = time.time()
            self.metrics.inc(f"service.jobs_finished.{status}")
            for key, value in job.telemetry.items():
                if isinstance(value, (int, float)) and not isinstance(
                    value, bool
                ):
                    self.metrics.inc(f"engine.{key}", value)
            for report in reports:
                if report.device_metrics:
                    self.metrics.merge_dict(report.device_metrics)
            self._retire(job)
        self._finalize(job, status)
        job.mark_done()

    def _finalize(self, job: Job, status: str) -> None:
        """Durably record a job's exit from the running state."""
        if self.journal is None:
            return
        if status == "requeued":
            self.journal.append("requeued", job.id)
        elif status == "cancelled":
            self.journal.append("cancelled", job.id)
        else:
            fields: Dict[str, object] = {"status": status}
            if job.error:
                fields["error"] = job.error[:500]
            self.journal.append("finished", job.id, **fields)
