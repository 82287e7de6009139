"""Run telemetry: per-grid :class:`RunReport`\\ s and a JSONL event log.

Every grid the experiment engine executes (fixed-bit, executive, or
explicit-trace) produces one :class:`RunReport`: per-task wall time and
attempt counts, the engine used, cache hit/miss/quarantine counters,
retries, timeouts, injected or real worker failures, and whether the
run degraded from the process pool to in-process serial execution.

Reports are kept in a bounded in-process history (``history()`` /
``last_report()``) and, when a log path is configured, appended to a
JSONL event log — one ``run`` line per grid plus one ``task`` line per
task — that ``repro-experiments report`` summarises after the fact.
The log is append-only and line-oriented, so a crashed run still
leaves every completed grid on disk (the NORM-style "observable
replay" prerequisite: you can always reconstruct what a campaign
actually executed).

Experiment runners tag their grids with :func:`context` (e.g.
``"fig15"``) so a report can be traced back to the artifact that
requested it.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Union

__all__ = [
    "TaskTelemetry",
    "RunReport",
    "configure",
    "log_path",
    "context",
    "current_context",
    "job_scope",
    "current_job",
    "collected",
    "record",
    "history",
    "last_report",
    "read_events",
    "summarize_events",
    "reset",
]

#: Reports kept in process memory (the JSONL log is unbounded).
HISTORY_LIMIT = 256


@dataclass
class TaskTelemetry:
    """What one grid task actually did (one ``task`` event line)."""

    index: int
    label: str = ""
    status: str = "computed"  #: ``memo-hit`` | ``cache-hit`` | ``computed`` | ``failed``
    engine: str = "auto"
    wall_s: float = 0.0
    attempts: int = 1
    retries: int = 0
    crashes: int = 0
    timeouts: int = 0
    corrupt_payloads: int = 0
    #: ``batch`` (a batch-tier lane, however chunked) | ``pool`` |
    #: ``serial`` | ``degraded`` | ``""`` (cache hit)
    executed_in: str = ""
    #: Device-level metrics payload (``MetricsRegistry.to_dict`` form)
    #: captured by an enabled tracer; empty when observability is off or
    #: the task was served from a cache (cached results carry no trace).
    metrics: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        out = dataclasses.asdict(self)
        if not out.get("metrics"):
            out.pop("metrics", None)
        return out


@dataclass
class RunReport:
    """Aggregated telemetry for one grid run (one ``run`` event line)."""

    kind: str  #: ``fixed`` | ``executive`` | ``trace`` | ``resilience``
    context: str = ""  #: artifact label, e.g. ``"fig15"``
    job: str = ""  #: service job id when run inside :func:`job_scope`
    engine: str = "auto"
    workers: int = 1
    n_tasks: int = 0
    memo_hits: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    quarantines: int = 0
    computed: int = 0
    retries: int = 0
    crashes: int = 0
    timeouts: int = 0
    corrupt_payloads: int = 0
    pool_failures: int = 0
    degraded: bool = False
    failed: int = 0
    wall_s: float = 0.0
    started_at: float = 0.0
    tasks: List[TaskTelemetry] = field(default_factory=list)
    #: Merged device metrics across the run's computed tasks (empty when
    #: observability is off).
    device_metrics: Dict[str, object] = field(default_factory=dict)

    def merge_task(self, task: TaskTelemetry) -> None:
        """Fold one task record into the aggregate counters."""
        self.tasks.append(task)
        self.retries += task.retries
        self.crashes += task.crashes
        self.timeouts += task.timeouts
        self.corrupt_payloads += task.corrupt_payloads
        if task.status == "memo-hit":
            self.memo_hits += 1
        elif task.status == "cache-hit":
            self.cache_hits += 1
        elif task.status == "failed":
            self.failed += 1
        elif task.status == "computed":
            self.computed += 1

    def to_dict(self, include_tasks: bool = False) -> Dict[str, object]:
        """The ``run`` event: every field in declaration order, less the
        tasks (unless asked for), an empty ``device_metrics`` and an
        empty ``job``.

        Built field by field: every other field is a scalar, so only
        ``device_metrics`` and the tasks are copied, and tasks left out
        are never copied at all.
        """
        out = {f.name: getattr(self, f.name) for f in _RUN_REPORT_FIELDS}
        if include_tasks:
            out["tasks"] = [dataclasses.asdict(task) for task in self.tasks]
        else:
            del out["tasks"]
        if self.device_metrics:
            out["device_metrics"] = copy.deepcopy(self.device_metrics)
        else:
            del out["device_metrics"]
        if not self.job:
            del out["job"]
        return out

    @property
    def worker_failures(self) -> int:
        """Everything a worker did wrong: crashes, hangs, bad payloads."""
        return self.crashes + self.timeouts + self.corrupt_payloads


_RUN_REPORT_FIELDS = dataclasses.fields(RunReport)


# -- module state --------------------------------------------------------------

_HISTORY: List[RunReport] = []
_LOG_PATH: Optional[Path] = None

#: Context labels, job labels and report collectors are **per thread**:
#: the campaign service runs concurrent jobs on worker threads, and one
#: job's labels must never leak into another's reports. Single-threaded
#: callers see the exact pre-service behaviour.
_LOCAL = threading.local()

#: Serialises history appends and JSONL log writes across the service's
#: worker threads (one report line is never torn by another).
_RECORD_LOCK = threading.Lock()


def _context_stack() -> List[str]:
    stack = getattr(_LOCAL, "context", None)
    if stack is None:
        stack = _LOCAL.context = []
    return stack


def _collector_stack() -> List[List[RunReport]]:
    sinks = getattr(_LOCAL, "collectors", None)
    if sinks is None:
        sinks = _LOCAL.collectors = []
    return sinks


def configure(log_path: Optional[Union[str, os.PathLike]]) -> None:
    """Set (or, with ``None``, clear) the JSONL event-log destination.

    The parent directory is created eagerly so a bad path fails at
    configuration time, not mid-campaign.
    """
    global _LOG_PATH
    if log_path is None:
        _LOG_PATH = None
        return
    path = Path(log_path)
    if path.parent:
        path.parent.mkdir(parents=True, exist_ok=True)
    _LOG_PATH = path


def log_path() -> Optional[Path]:
    """The configured JSONL event-log path, if any."""
    return _LOG_PATH


@contextmanager
def context(label: str) -> Iterator[None]:
    """Tag every grid run in this block with ``label`` (re-entrant,
    thread-scoped)."""
    stack = _context_stack()
    stack.append(str(label))
    try:
        yield
    finally:
        stack.pop()


def current_context() -> str:
    """The innermost active context label (``""`` outside any)."""
    stack = _context_stack()
    return stack[-1] if stack else ""


@contextmanager
def job_scope(job_id: str) -> Iterator[None]:
    """Stamp every report recorded in this block (and thread) with a
    service job id; the campaign service wraps each job's execution so
    its grid runs can be attributed in the history and event log."""
    previous = getattr(_LOCAL, "job", "")
    _LOCAL.job = str(job_id)
    try:
        yield
    finally:
        _LOCAL.job = previous


def current_job() -> str:
    """The active service job label (``""`` outside any job scope)."""
    return getattr(_LOCAL, "job", "")


@contextmanager
def collected() -> Iterator[List[RunReport]]:
    """Collect every report recorded by this thread inside the block.

    Yields the live list; nesting works (inner collectors see a subset).
    The service uses this to attach per-job telemetry to job status
    without scanning the shared history.
    """
    sinks = _collector_stack()
    sink: List[RunReport] = []
    sinks.append(sink)
    try:
        yield sink
    finally:
        sinks.remove(sink)


def record(report: RunReport) -> None:
    """Add ``report`` to the history and append it to the event log."""
    if not report.job:
        report.job = current_job()
    for sink in _collector_stack():
        sink.append(report)
    with _RECORD_LOCK:
        _HISTORY.append(report)
        del _HISTORY[:-HISTORY_LIMIT]
        if _LOG_PATH is None:
            return
        lines = [
            json.dumps({"event": "run", **report.to_dict()}, sort_keys=True)
        ]
        for task in report.tasks:
            lines.append(
                json.dumps(
                    {
                        "event": "task",
                        "kind": report.kind,
                        "context": report.context,
                        **task.to_dict(),
                    },
                    sort_keys=True,
                )
            )
        with open(_LOG_PATH, "a", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")


def history() -> List[RunReport]:
    """The retained reports, oldest first (a copy)."""
    return list(_HISTORY)


def last_report(kind: Optional[str] = None) -> Optional[RunReport]:
    """The most recent report (optionally of one grid ``kind``)."""
    for report in reversed(_HISTORY):
        if kind is None or report.kind == kind:
            return report
    return None


def reset() -> None:
    """Drop the history, this thread's scopes and the log configuration."""
    global _LOG_PATH
    with _RECORD_LOCK:
        _HISTORY.clear()
        _LOG_PATH = None
    _context_stack().clear()
    _collector_stack().clear()
    _LOCAL.job = ""


# -- event-log reading (the ``repro-experiments report`` command) --------------


def read_events(path: Union[str, os.PathLike]) -> List[Dict[str, object]]:
    """Parse a JSONL event log; malformed lines are skipped, not fatal.

    A run that died mid-write leaves at most one torn final line; the
    rest of the campaign must still be reportable.
    """
    events: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(event, dict):
                events.append(event)
    return events


def summarize_events(events: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Aggregate totals over every ``run`` event of a log."""
    totals = {
        "runs": 0,
        "tasks": 0,
        "memo_hits": 0,
        "cache_hits": 0,
        "cache_misses": 0,
        "quarantines": 0,
        "computed": 0,
        "retries": 0,
        "crashes": 0,
        "timeouts": 0,
        "corrupt_payloads": 0,
        "pool_failures": 0,
        "degraded_runs": 0,
        "failed": 0,
        "wall_s": 0.0,
    }
    for event in events:
        if event.get("event") != "run":
            continue
        totals["runs"] += 1
        totals["tasks"] += int(event.get("n_tasks", 0))
        totals["degraded_runs"] += int(bool(event.get("degraded", False)))
        totals["wall_s"] += float(event.get("wall_s", 0.0))
        for key in (
            "memo_hits",
            "cache_hits",
            "cache_misses",
            "quarantines",
            "computed",
            "retries",
            "crashes",
            "timeouts",
            "corrupt_payloads",
            "pool_failures",
            "failed",
        ):
            totals[key] += int(event.get(key, 0))
    return totals


def now() -> float:
    """Wall-clock timestamp for report stamping (monkeypatchable)."""
    return time.time()
