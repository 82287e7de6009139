"""Campaign service wire protocol: parsing, execution, result encoding.

A campaign submission is one JSON object::

    {"kind": "grid",       "grid": {...GridSpec fields...}}
    {"kind": "grid",       "tasks": [{...FixedBitTask fields...}, ...]}
    {"kind": "executive",  "tasks": [{...ExecutiveTask fields...}, ...]}
    {"kind": "resilience", "campaign": {...ResilienceCampaign fields...}}
    {"kind": "fleet",      "fleet": {...FleetSpec fields..., "archetypes": [...]}}

plus an optional ``"engine"`` override (``auto`` / ``fast`` /
``reference``; resilience campaigns default to ``reference`` like the
CLI does). :func:`parse_campaign` validates the payload into real task
objects **at submission time**, so a malformed campaign is a 400 at
the door, never a failed job.

Results stream back as JSONL, one line per task in deterministic task
order. Array-carrying results (grid / executive / fleet) travel as
base64 of their cache entry: the bytes the engine's task pipeline
returns for grid and executive tasks (what the hot tier holds, what a
disk read just checked or what ``put`` just wrote), and for fleet
devices the bytes the hot tier holds; where there are none, the
*same* entry codec the on-disk cache uses
(:func:`repro.analysis.engine.fixed_entry_bytes` et al.) — so the
bytes a client receives are, by construction, byte-identical to the
``.npz`` file a direct run writes into the cache. Resilience points
travel as sorted-key JSON, identical to their cache payloads. The
conformance suite (``tests/test_service_conformance.py``) holds this
line.
"""

from __future__ import annotations

import base64
import dataclasses
import functools
import hashlib
import json
import random
import re
import socket
import threading
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..analysis import telemetry
from ..analysis.engine import (
    EXECUTIVE,
    FIXED,
    ExecutiveTask,
    FixedBitTask,
    GridSpec,
    cancel_scope,
    default_cache,
    fixed_entry_bytes,
    run_tasks,
)

# Bound here for the benchmark suite, which wraps each name in the
# module its callers resolve it in (benchmarks/suite/spans.py); this
# module no longer calls them.
from ..analysis.engine import (  # noqa: F401
    executive_entry_bytes,
    run_executive_grid,
    run_grid,
)
from ..analysis.resilience import ResilienceCampaign, run_resilience_grid
from ..errors import ConfigurationError
from ..fleet import FleetArchetype, FleetSpec, run_fleet

__all__ = [
    "CAMPAIGN_KINDS",
    "Campaign",
    "parse_campaign",
    "execute_campaign",
    "http_submit",
    "http_wait",
    "http_results",
    "http_cache_info",
    "http_health",
    "http_metrics",
    "RETRYABLE_STATUSES",
]

CAMPAIGN_KINDS = ("grid", "executive", "resilience", "fleet")

_ENGINE_CHOICES = ("auto", "reference")


@dataclass(frozen=True)
class Campaign:
    """One parsed, validated campaign submission.

    ``tasks`` holds the materialised task tuple for grid/executive/
    resilience kinds; fleet campaigns carry their :class:`FleetSpec`
    in ``fleet`` (device tasks expand inside :func:`run_fleet`).
    """

    kind: str
    engine: str
    tasks: Tuple = ()
    fleet: Optional[FleetSpec] = None
    #: The normalised submission payload (for signatures and echoes).
    payload: Dict[str, object] = dataclasses.field(default_factory=dict)

    def signature(self) -> str:
        """Content hash of the submission — the singleflight identity.

        Two submissions with equal signatures describe the identical
        campaign, so the queue serialises them against each other and
        the second one is served almost entirely from cache.
        """
        return hashlib.sha256(
            json.dumps(self.payload, sort_keys=True).encode("utf-8")
        ).hexdigest()

    @property
    def n_tasks(self) -> int:
        if self.kind == "fleet":
            assert self.fleet is not None
            return self.fleet.n_devices
        return len(self.tasks)


@functools.lru_cache(maxsize=None)
def _field_names(cls) -> FrozenSet[str]:
    """The field names of dataclass ``cls``, computed once per class."""
    return frozenset(f.name for f in dataclasses.fields(cls))


def _build(cls, data: object, what: str):
    """Construct a dataclass from a JSON object, with strict fields.

    JSON lists become tuples (every tuple-typed spec field arrives as
    a list on the wire); unknown keys are a
    :class:`~repro.errors.ConfigurationError` naming the offender, so
    a typo'd field name fails loudly at submission time.
    """
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"{what} must be a JSON object, got {type(data).__name__}"
        )
    known = _field_names(cls)
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigurationError(
            f"{what} has unknown field(s) {unknown}; expected a subset "
            f"of {sorted(known)}"
        )
    kwargs = {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in data.items()
    }
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"invalid {what}: {exc}") from exc


def parse_campaign(payload: object) -> Campaign:
    """Validate a submission payload into a :class:`Campaign`.

    Raises :class:`~repro.errors.ConfigurationError` on any malformed
    submission (the service maps that to HTTP 400).
    """
    if not isinstance(payload, dict):
        raise ConfigurationError(
            f"campaign must be a JSON object, got {type(payload).__name__}"
        )
    kind = payload.get("kind")
    if kind not in CAMPAIGN_KINDS:
        raise ConfigurationError(
            f"kind must be one of {CAMPAIGN_KINDS}, got {kind!r}"
        )
    engine = payload.get("engine")
    if engine is None:
        engine = "reference" if kind == "resilience" else "auto"
    if engine not in _ENGINE_CHOICES:
        raise ConfigurationError(
            f"engine must be one of {_ENGINE_CHOICES}, got {engine!r}"
        )
    allowed_keys = {"kind", "engine", "grid", "tasks", "campaign", "fleet"}
    unknown = sorted(set(payload) - allowed_keys)
    if unknown:
        raise ConfigurationError(
            f"campaign has unknown key(s) {unknown}; expected a subset "
            f"of {sorted(allowed_keys)}"
        )

    tasks: Tuple = ()
    fleet: Optional[FleetSpec] = None
    if kind == "grid":
        if ("grid" in payload) == ("tasks" in payload):
            raise ConfigurationError(
                "a grid campaign needs exactly one of 'grid' or 'tasks'"
            )
        if "grid" in payload:
            tasks = _build(GridSpec, payload["grid"], "grid spec").tasks()
        else:
            task_list = payload["tasks"]
            if not isinstance(task_list, list) or not task_list:
                raise ConfigurationError(
                    "'tasks' must be a non-empty list of task objects"
                )
            tasks = tuple(
                _build(FixedBitTask, item, f"task {i}")
                for i, item in enumerate(task_list)
            )
    elif kind == "executive":
        task_list = payload.get("tasks")
        if not isinstance(task_list, list) or not task_list:
            raise ConfigurationError(
                "an executive campaign needs a non-empty 'tasks' list"
            )
        tasks = tuple(
            _build(ExecutiveTask, item, f"task {i}")
            for i, item in enumerate(task_list)
        )
    elif kind == "resilience":
        if "campaign" not in payload:
            raise ConfigurationError(
                "a resilience campaign needs a 'campaign' object"
            )
        campaign = _build(
            ResilienceCampaign, payload["campaign"], "resilience campaign"
        )
        tasks = campaign.tasks()
    else:  # fleet
        spec_data = payload.get("fleet")
        if not isinstance(spec_data, dict):
            raise ConfigurationError("a fleet campaign needs a 'fleet' object")
        spec_data = dict(spec_data)
        archetypes = spec_data.pop("archetypes", None)
        if archetypes is not None:
            if not isinstance(archetypes, list) or not archetypes:
                raise ConfigurationError(
                    "'archetypes' must be a non-empty list of objects"
                )
            spec_data["archetypes"] = [
                _build(FleetArchetype, item, f"archetype {i}")
                for i, item in enumerate(archetypes)
            ]
        fleet = _build(FleetSpec, spec_data, "fleet spec")

    normalised = json.loads(json.dumps(payload, sort_keys=True))
    normalised["engine"] = engine
    return Campaign(
        kind=kind, engine=engine, tasks=tasks, fleet=fleet, payload=normalised
    )


# -- execution + result encoding ----------------------------------------------


def _entry_line(index: int, name: str, data: bytes) -> str:
    return json.dumps(
        {
            "type": "task",
            "index": index,
            "name": name,
            "entry": base64.b64encode(data).decode("ascii"),
        },
        sort_keys=True,
    )


def _entry_lines(named: Sequence[Tuple[str, bytes]]) -> List[str]:
    """One ``task`` line per ``(entry name, entry bytes)``, in order."""
    return [
        _entry_line(index, name, data)
        for index, (name, data) in enumerate(named)
    ]


def _held_fleet_entries(
    keys: Sequence[str], results: Sequence
) -> List[Tuple[str, bytes]]:
    """``(entry name, entry bytes)`` per fleet device, in task order.

    ``keys`` are the ones :func:`run_fleet` hashed, so no key is hashed
    twice. The bytes are those the cache's hot tier holds for the entry,
    so a hit is never re-encoded; ``fixed_entry_bytes`` runs only for
    the entries it does not hold (no cache or hot tier, evicted, or the
    file replaced since).
    """
    cache = default_cache()
    named = []
    for key, result in zip(keys, results):
        data = cache.held_bytes(key, FIXED) if cache is not None else None
        if data is None:
            data = fixed_entry_bytes(result)
        named.append((FIXED.entry_name(key), data))
    return named


def execute_campaign(
    campaign: Campaign,
    cancel_event: Optional["threading.Event"] = None,
) -> Tuple[List[str], Dict[str, object]]:
    """Run ``campaign`` through the engine; returns (JSONL lines, summary).

    Uses the process-wide engine configuration (cache, workers, retries
    and timeouts) and the engine's own tier choice exactly like a
    direct :func:`run_grid` call would — that is the whole point: the
    service path adds transport, never semantics.

    Grid and executive campaigns ask :func:`run_tasks` for named entry
    bytes, not values: a warm job streams the bytes the hot tier holds
    (or a disk read checked) without decoding them, a cold job streams
    the bytes ``put`` just wrote, and each task's key is hashed once.
    Fleet campaigns need values for their summary, so they run
    :func:`run_fleet` and stream the held bytes under the keys it
    hashed.
    A set ``cancel_event`` aborts between engine waves/tasks with
    :class:`~repro.errors.JobCancelledError`.
    """
    scope = cancel_scope(cancel_event) if cancel_event is not None else None
    lines: List[str] = []
    summary: Dict[str, object] = {"kind": campaign.kind}
    if scope is not None:
        scope.__enter__()
    try:
        if campaign.kind in ("grid", "executive"):
            kind = FIXED if campaign.kind == "grid" else EXECUTIVE
            lines += _entry_lines(
                run_tasks(
                    campaign.tasks, kind, engine=campaign.engine, entries=True
                )
            )
        elif campaign.kind == "resilience":
            points = run_resilience_grid(campaign.tasks, engine=campaign.engine)
            for i, point in enumerate(points):
                lines.append(
                    json.dumps(
                        {"type": "point", "index": i, "point": point.to_dict()},
                        sort_keys=True,
                    )
                )
        else:  # fleet
            assert campaign.fleet is not None
            fleet_result = run_fleet(campaign.fleet, engine=campaign.engine)
            lines += _entry_lines(
                _held_fleet_entries(fleet_result.keys, fleet_result.results)
            )
            summary["fleet"] = {
                "n_devices": len(fleet_result.tasks),
                "progress_percentiles": fleet_result.progress_percentiles,
                "progress_rate_percentiles": (
                    fleet_result.progress_rate_percentiles
                ),
                "availability_percentiles": (
                    fleet_result.availability_percentiles
                ),
                "availability_cdf": {
                    f"{threshold:g}": fraction
                    for threshold, fraction in (
                        fleet_result.availability_cdf.items()
                    )
                },
                "energy_per_progress_percentiles": (
                    fleet_result.energy_per_progress_percentiles
                ),
                "per_archetype": fleet_result.per_archetype,
            }
            lines.append(
                json.dumps(
                    {"type": "summary", **summary["fleet"]}, sort_keys=True
                )
            )
    finally:
        if scope is not None:
            scope.__exit__(None, None, None)
    summary["tasks"] = campaign.n_tasks
    lines.append(
        json.dumps(
            {"type": "end", "count": campaign.n_tasks, "kind": campaign.kind},
            sort_keys=True,
        )
    )
    return lines, summary


def summarize_reports(
    reports: Sequence[telemetry.RunReport],
) -> Dict[str, object]:
    """Aggregate a job's collected RunReports into status telemetry."""
    return telemetry.summarize_events(
        [{"event": "run", **report.to_dict()} for report in reports]
    )


# -- HTTP client -----------------------------------------------------------------
#
# A small HTTP/1.1 client for the service's own JSON + JSONL surface; it
# speaks plain HTTP only, like the server. One exchange is one
# ``sendall`` of the request head and body and one header parse of the
# answer: the status line and the headers are split on CRLF, and the
# body is read to its ``Content-Length``, which the server always sends.
#
# Each thread keeps one kept-alive connection per ``host:port``: a warm
# request is three calls (submit, wait, results), and opening a TCP
# connection for each cost more than the server's work. The server
# closes an idle connection after its read timeout (``READ_TIMEOUT_S``
# in ``app.py``) or when it restarts, so a reused connection can be
# dead; such a connection fails before any response byte arrives, and
# the request is resent once on a fresh connection without spending a
# retry. A ``Connection: close`` answer closes the connection, and the
# next call opens a fresh one. Every failure is an ``OSError``.
#
# The helpers are *hardened*: a failure on a fresh connection (a
# server mid-restart) and 503s (a draining or saturated queue) retry
# with jittered exponential backoff, honouring any ``Retry-After`` the
# server sent — safe because submissions are idempotent on their
# content hash.

#: HTTP statuses the retrying client treats as transient.
RETRYABLE_STATUSES = (503,)

#: Upper bound on any single backoff sleep.
MAX_BACKOFF_S = 10.0

#: Longest response head the client reads before giving up on it.
_MAX_HEAD_BYTES = 64 * 1024

_RECV_BYTES = 64 * 1024

_STATUS_LINE = re.compile(rb"HTTP/1\.[01] (\d{3})[ \r]")

#: Characters a request target may not hold: they would end or split
#: the request line.
_UNSAFE_TARGET = re.compile(r"[\x00-\x20\x7f]")


class RemoteDisconnected(ConnectionResetError):
    """The server closed the connection before any response byte: the
    way a reused connection fails once the server has dropped it."""


class ResponseError(ConnectionError):
    """A response that ended early or does not parse as HTTP/1.1."""


def _address(netloc: str) -> Tuple[str, int]:
    """``(host, port)`` of a ``host[:port]``; IPv6 hosts in brackets."""
    host, sep, port = netloc.rpartition(":")
    if not sep or "]" in port:
        host, port = netloc, "80"
    return host.strip("[]"), int(port)


class _Connection:
    """One kept-alive HTTP/1.1 connection to a ``host:port``.

    ``sock`` is the open socket, or ``None`` until the next exchange
    opens one.
    """

    def __init__(self, netloc: str) -> None:
        self.address = _address(netloc)
        self.sock: Optional[socket.socket] = None

    def connect(self, timeout: float) -> None:
        self.sock = socket.create_connection(self.address, timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def close(self) -> None:
        sock, self.sock = self.sock, None
        if sock is not None:
            sock.close()

    def exchange(
        self, message: bytes, timeout: float
    ) -> Tuple[int, bytes, Dict[str, str]]:
        """Send one request ``message``; returns ``(status, body,
        lower-cased headers)``.

        Raises :class:`RemoteDisconnected` when the connection ends
        before any response byte, :class:`ResponseError` when it ends
        inside the response or the response does not parse. The caller
        closes the connection on any failure.
        """
        if self.sock is None:
            self.connect(timeout)
        else:
            self.sock.settimeout(timeout)
        sock = self.sock
        try:
            sock.sendall(message)
            data = sock.recv(_RECV_BYTES)
        except (ConnectionResetError, BrokenPipeError) as exc:
            raise RemoteDisconnected(str(exc)) from exc
        if not data:
            raise RemoteDisconnected("server closed the connection")
        end = data.find(b"\r\n\r\n")
        while end < 0:
            if len(data) > _MAX_HEAD_BYTES:
                raise ResponseError("response head too long")
            chunk = sock.recv(_RECV_BYTES)
            if not chunk:
                raise ResponseError("connection closed inside a response head")
            data += chunk
            end = data.find(b"\r\n\r\n")
        match = _STATUS_LINE.match(data)
        if match is None:
            raise ResponseError(f"malformed status line {data[:80]!r}")
        lines = data[:end].decode("latin-1").split("\r\n")
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers["content-length"])
        except (KeyError, ValueError):
            length = -1
        if length < 0:
            raise ResponseError("response without a valid Content-Length")
        start = end + 4
        body = data[start : start + length]
        if len(body) < length:
            buffer = bytearray(length)
            view = memoryview(buffer)
            got = len(body)
            view[:got] = body
            while got < length:
                n = sock.recv_into(view[got:])
                if not n:
                    raise ResponseError(
                        f"connection closed after {got} of {length} body bytes"
                    )
                got += n
            body = bytes(buffer)
        # A close answer ends the connection; so do bytes past the
        # answer, which leave the stream unframed.
        closing = headers.get("connection", "").lower() == "close"
        if closing or len(data) > start + length:
            self.close()
        return int(match.group(1)), body, headers


class _Connections(dict):
    """One thread's ``{(scheme, host:port): connection}``.

    It goes with the thread's local storage when the thread ends, and
    closes its sockets then rather than leaving them to the collector.
    """

    def __del__(self) -> None:
        for conn in self.values():
            conn.close()


#: Per thread: a :class:`_Connections`, created on first use.
_connections = threading.local()


def _split_url(url: str) -> Tuple[str, str, str]:
    """``(scheme, host:port, request target)`` of an ``http://`` URL."""
    scheme, sep, rest = url.partition("://")
    if not sep or scheme != "http":
        raise ValueError(f"not an http URL: {url!r}")
    netloc, slash, path = rest.partition("/")
    target = (slash + path) or "/"
    if _UNSAFE_TARGET.search(target):
        raise ValueError(f"request target has unsafe characters: {url!r}")
    return scheme, netloc, target


def _connection(scheme: str, netloc: str) -> _Connection:
    """This thread's connection to ``scheme://netloc`` (opened lazily)."""
    pool = getattr(_connections, "pool", None)
    if pool is None:
        pool = _connections.pool = _Connections()
    conn = pool.get((scheme, netloc))
    if conn is None:
        conn = pool[(scheme, netloc)] = _Connection(netloc)
    return conn


def _request(
    method: str,
    url: str,
    payload: Optional[Dict[str, object]] = None,
    timeout: float = 30.0,
) -> Tuple[int, bytes, Dict[str, str]]:
    """One HTTP exchange on this thread's connection to ``url``'s host.

    Returns ``(status, body, lower-cased headers)`` for every status,
    4xx and 5xx included. A reused connection found closed is replaced
    and the request resent once; any other failure closes the
    connection and raises an ``OSError``.
    """
    scheme, netloc, target = _split_url(url)
    head = (
        f"{method} {target} HTTP/1.1\r\n"
        f"Host: {netloc}\r\n"
        "Accept: application/json\r\n"
    )
    body = b""
    if payload is not None:
        body = json.dumps(payload).encode("utf-8")
        head += (
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
    message = (head + "\r\n").encode("latin-1") + body
    conn = _connection(scheme, netloc)
    reused = conn.sock is not None
    try:
        try:
            return conn.exchange(message, timeout)
        except RemoteDisconnected:
            if not reused:
                raise
            conn.close()
            return conn.exchange(message, timeout)
    except BaseException:
        conn.close()
        raise


def _backoff_delay(
    attempt: int,
    backoff_s: float,
    retry_after: Optional[str],
    rng: "random.Random",
) -> float:
    """One jittered exponential delay, floored by the server's hint."""
    base = min(backoff_s * (2 ** attempt), MAX_BACKOFF_S)
    if retry_after:
        try:
            base = max(base, min(float(retry_after), MAX_BACKOFF_S))
        except ValueError:
            pass
    # Full jitter on [base/2, base]: desynchronises a client storm
    # without ever collapsing the wait to ~zero.
    return base * (0.5 + 0.5 * rng.random())


def _retrying_request(
    method: str,
    url: str,
    payload: Optional[Dict[str, object]] = None,
    timeout: float = 30.0,
    retries: int = 0,
    backoff_s: float = 0.25,
    rng: Optional["random.Random"] = None,
) -> Tuple[int, bytes, Dict[str, str]]:
    """`_request` with bounded retries on connection errors and 503.

    A connection-level failure (refused / reset / timed out — the
    signature of a server being SIGKILLed and restarted under the
    client) or a retryable status consumes one retry and backs off;
    anything else returns (or raises) immediately. The one resend
    `_request` makes on a reused connection the server had closed is
    not a retry. With ``retries=0`` this is exactly ``_request``.
    The jitter generator is seeded (from ``os.urandom``) only at the
    first backoff, so a call that needs none builds none.
    """
    attempt = 0
    while True:
        try:
            status, body, headers = _request(
                method, url, payload, timeout=timeout
            )
        except OSError:
            if attempt >= retries:
                raise
            retry_after = None
        else:
            if status not in RETRYABLE_STATUSES or attempt >= retries:
                return status, body, headers
            retry_after = headers.get("retry-after")
        if rng is None:
            rng = random.Random()
        time.sleep(_backoff_delay(attempt, backoff_s, retry_after, rng))
        attempt += 1


def _json_or_error(status: int, body: bytes, what: str) -> Dict[str, object]:
    try:
        decoded = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RuntimeError(
            f"{what}: HTTP {status} with unparseable body {body[:200]!r}"
        ) from exc
    if status >= 400:
        raise RuntimeError(
            f"{what}: HTTP {status}: {decoded.get('error', decoded)}"
        )
    return decoded


def http_submit(
    base_url: str,
    payload: Dict[str, object],
    timeout: float = 30.0,
    retries: int = 0,
    backoff_s: float = 0.25,
) -> Dict[str, object]:
    """POST a campaign; returns the job status object (raises on 4xx/5xx).

    With ``retries > 0`` connection errors and 503s back off and
    retry; resubmission is safe because the service deduplicates
    active jobs on the campaign's content hash, so a retry after a
    crashed server recovers lands on the journaled job, never a
    duplicate.
    """
    status, body, _ = _retrying_request(
        "POST",
        f"{base_url}/jobs",
        payload,
        timeout=timeout,
        retries=retries,
        backoff_s=backoff_s,
    )
    return _json_or_error(status, body, "submit")


def http_wait(
    base_url: str,
    job_id: str,
    timeout: float = 60.0,
    poll_s: float = 0.05,
    retries: int = 0,
    backoff_s: float = 0.25,
) -> Dict[str, object]:
    """Poll ``GET /jobs/<id>`` until the job leaves queued/running.

    ``retries`` bounds back-to-back connection failures (a server
    restarting under the poll); the budget refills after any
    successful response.
    """
    deadline = time.monotonic() + timeout
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError(f"job {job_id} still pending after {timeout}s")
        wait_s = min(max(remaining, 0.01), 10.0)
        status, body, _ = _retrying_request(
            "GET",
            f"{base_url}/jobs/{job_id}?wait={wait_s:g}",
            timeout=wait_s + 10.0,
            retries=retries,
            backoff_s=backoff_s,
        )
        job = _json_or_error(status, body, f"poll {job_id}")
        if job.get("status") not in ("queued", "running"):
            return job
        time.sleep(poll_s)


def http_results(
    base_url: str,
    job_id: str,
    timeout: float = 60.0,
    retries: int = 0,
    backoff_s: float = 0.25,
) -> List[Dict[str, object]]:
    """Fetch and parse a finished job's streamed JSONL result lines."""
    status, body, _ = _retrying_request(
        "GET",
        f"{base_url}/jobs/{job_id}/results",
        timeout=timeout,
        retries=retries,
        backoff_s=backoff_s,
    )
    if status >= 400:
        _json_or_error(status, body, f"results {job_id}")
    lines = [line for line in body.decode("utf-8").splitlines() if line]
    return [json.loads(line) for line in lines]


def http_cache_info(base_url: str, timeout: float = 30.0) -> Dict[str, object]:
    """Fetch the service's shared-cache info (``GET /cache``)."""
    status, body, _ = _request("GET", f"{base_url}/cache", timeout=timeout)
    return _json_or_error(status, body, "cache info")


def http_health(
    base_url: str, timeout: float = 10.0, retries: int = 0
) -> Dict[str, object]:
    """``GET /healthz``."""
    status, body, _ = _retrying_request(
        "GET", f"{base_url}/healthz", timeout=timeout, retries=retries
    )
    return _json_or_error(status, body, "health")


def http_metrics(base_url: str, timeout: float = 10.0) -> str:
    """``GET /metrics`` — the Prometheus text document."""
    status, body, _ = _request("GET", f"{base_url}/metrics", timeout=timeout)
    if status >= 400:
        raise RuntimeError(f"metrics: HTTP {status}: {body[:200]!r}")
    return body.decode("utf-8")
