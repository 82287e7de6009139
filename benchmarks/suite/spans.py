"""Span recording for traced benchmark runs.

A traced run wraps the public functions of each layer with a wrapper
that records one span per call: its layer name, start, end, the
enclosing span on the same thread, and a request id. The clock is
``time.perf_counter`` (CLOCK_MONOTONIC on Linux), so spans from the
workload process, its forked pool workers and the service process land
on one time axis.

Each wrapper is installed at the name its caller resolves. Where a
module imports a function by name (``from .x import f``) the wrapper
goes into that module's namespace too, or the call would bypass it.

Spans stay in memory. A forked pool worker inherits the installed
wrappers and the recorder; it writes its spans to a per-pid JSONL file
each time its outermost span ends, because pool workers exit without
running ``atexit`` hooks.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis import telemetry

__all__ = ["Span", "Recorder", "LAYER_PATCHES", "installed", "read_spans"]


class Span:
    """One timed call. ``parent`` is the enclosing span on its thread."""

    __slots__ = ("id", "name", "start", "end", "parent", "rid", "pid", "tid", "attrs")

    def __init__(self, id, name, start, end=None, parent=None, rid=None,
                 pid=0, tid=0, attrs=None) -> None:
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.rid = rid
        self.pid = pid
        self.tid = tid
        self.attrs = attrs or {}

    def to_dict(self) -> Dict[str, object]:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Span":
        return cls(**data)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from every thread of this process (and forks).

    ``rid`` is the request id given to spans that open with no
    enclosing span and no id of their own; the benchmark sets it to
    the repetition number, and forked pool workers inherit it.
    """

    def __init__(self, spill_dir: Optional[Path] = None) -> None:
        self.spans: List[Span] = []
        self.rid: Optional[object] = None
        #: Wrapped names the program no longer defines.
        self.missing: set = set()
        self.spill_dir = spill_dir
        self._pid = os.getpid()
        self._spill_handle = None
        self._local = threading.local()
        self._seq = itertools.count()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _after_fork(self) -> None:
        # A forked pool worker starts from a copy of the parent's state:
        # drop the parent's spans and open stacks, and spill from now on.
        self._pid = os.getpid()
        self.spans = []
        self._local = threading.local()
        if self.spill_dir is not None:
            self._spill_handle = open(
                self.spill_dir / f"spans-{self._pid}.jsonl", "a", encoding="utf-8"
            )

    def open(self, name: str, rid: Optional[object] = None) -> Span:
        if os.getpid() != self._pid:
            self._after_fork()
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None and parent is None:
            rid = self.rid
        span = Span(
            f"{self._pid}:{next(self._seq)}",
            name,
            time.perf_counter(),
            parent=None if parent is None else parent.id,
            rid=rid,
            pid=self._pid,
            tid=threading.get_ident(),
        )
        stack.append(span)
        return span

    def close(self, span: Span, end: Optional[float] = None) -> None:
        span.end = time.perf_counter() if end is None else end
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)
        if self._spill_handle is not None and not stack:
            # Flushed per outermost span: the worker may exit any time.
            spans, self.spans = self.spans, []
            self._spill_handle.writelines(
                json.dumps(s.to_dict()) + "\n" for s in spans
            )
            self._spill_handle.flush()

    def write(self, path: Path) -> None:
        """Write every recorded span to ``path`` as JSONL."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(json.dumps(s.to_dict()) + "\n" for s in self.spans)


def read_spans(paths: Sequence[Path]) -> List[Span]:
    """Spans spilled to JSONL files (by forked workers or a server)."""
    out: List[Span] = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            out.extend(Span.from_dict(json.loads(line)) for line in handle if line.strip())
    return out


# -- layer wrappers ------------------------------------------------------------

#: ``hook(args, kwargs, result) -> dict`` of span fields set at close:
#: ``rid`` and any counts (``bytes``, ``hit``, ``chunks``).
Hook = Callable[[tuple, dict, object], Dict[str, object]]


def _entry_bytes(args, kwargs, result):
    data = args[0]
    if isinstance(data, (bytes, bytearray)):
        return {"bytes": len(data)}
    return {"bytes": os.path.getsize(data)}


def _hit(args, kwargs, result):
    return {"hit": result is not None}


def _result_len(key):
    return lambda args, kwargs, result: {key: len(result)}


def _submit_rid(args, kwargs, result):
    return {"rid": result[0].id}


def _journal_rid(args, kwargs, result):
    return {"rid": args[2]}


def _current_job(args, kwargs, result):
    return {"rid": telemetry.current_job() or None}


_ENGINE = "repro.analysis.engine"
_PROTOCOL = "repro.service.protocol"
_QUEUE = "repro.service.queue"
_BATCHSIM = "repro.system.batchsim"
_BATCHEXEC = "repro.core.batchexec"
_FLEET_SPEC = "repro.fleet.spec"

#: ``(module, qualified name, layer, hook)`` for every wrapped call. The
#: same function appears once per namespace its callers resolve it in.
LAYER_PATCHES: Tuple[Tuple[str, str, str, Optional[Hook]], ...] = (
    # engine: keys, cache, codec, orchestration
    (_ENGINE, "FixedBitTask.cache_key", "engine.cache_key", None),
    (_ENGINE, "ExecutiveTask.cache_key", "engine.cache_key", None),
    (_FLEET_SPEC, "FleetDeviceTask.cache_key", "engine.cache_key", None),
    (_ENGINE, "ResultCache.get", "engine.cache_get", _hit),
    (_ENGINE, "ResultCache.get_executive", "engine.cache_get", _hit),
    (_ENGINE, "decode_fixed_entry", "engine.decode", _entry_bytes),
    (_ENGINE, "decode_executive_entry", "engine.decode", _entry_bytes),
    (_ENGINE, "fixed_entry_bytes", "engine.encode", _result_len("bytes")),
    (_ENGINE, "executive_entry_bytes", "engine.encode", _result_len("bytes")),
    (_PROTOCOL, "fixed_entry_bytes", "engine.encode", _result_len("bytes")),
    (_PROTOCOL, "executive_entry_bytes", "engine.encode", _result_len("bytes")),
    (_ENGINE, "ResultCache.put", "engine.cache_put", None),
    (_ENGINE, "ResultCache.put_executive", "engine.cache_put", None),
    (_ENGINE, "run_grid", "engine.orchestration", None),
    (_ENGINE, "run_executive_grid", "engine.orchestration", None),
    (_PROTOCOL, "run_grid", "engine.orchestration", None),
    (_PROTOCOL, "run_executive_grid", "engine.orchestration", None),
    # traces and the batch tier
    (_ENGINE, "FixedBitTask.build_trace", "energy.trace", None),
    (_ENGINE, "ExecutiveTask.build_trace", "energy.trace", None),
    (_ENGINE, "ExecutiveTask.build_executive", "batch.lanes", None),
    (_BATCHSIM, "run_fixed_batch", "batch.lanes", None),
    (_BATCHEXEC, "run_executive_batch", "batch.lanes", None),
    (_BATCHSIM, "build_trace_plan", "batchsim.plan", None),
    (_BATCHEXEC, "build_trace_plan", "batchsim.plan", None),
    (_BATCHSIM, "chunk_lane_indices", "batchsim.chunk_pack", _result_len("chunks")),
    ("repro._accel", "fixed_replay", "accel.kernel", None),
    ("repro._accel", "exec_replay", "accel.kernel", None),
    # fleet
    (_FLEET_SPEC, "FleetSpec.tasks", "fleet.expand", None),
    (_FLEET_SPEC, "FleetDeviceTask.build_trace", "fleet.trace_synth", None),
    ("repro.fleet.runner", "run_fleet", "fleet.summary", None),
    ("repro.fleet", "run_fleet", "fleet.summary", None),
    (_PROTOCOL, "run_fleet", "fleet.summary", None),
    # service: the client calls, then the server side of one request
    (_PROTOCOL, "http_submit", "client.submit", None),
    (_PROTOCOL, "http_wait", "client.wait", None),
    (_PROTOCOL, "http_results", "client.results", None),
    (_QUEUE, "parse_campaign", "service.parse", None),
    (_QUEUE, "CampaignQueue.submit", "service.admission", _submit_rid),
    ("repro.service.journal", "JobJournal.append", "service.journal", _journal_rid),
    (_QUEUE, "execute_campaign", "service.engine", _current_job),
    (_ENGINE, "ShardedResultCache.info", "service.cache_info", None),
)


def _owner(module: str, qualname: str):
    """The module or class that defines ``qualname``'s last part."""
    owner = importlib.import_module(module)
    for part in qualname.split(".")[:-1]:
        owner = getattr(owner, part)
    return owner


def _wrap(recorder: Recorder, fn: Callable, layer: str, hook: Optional[Hook]):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(layer)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            if hook is not None:
                try:
                    fields = hook(args, kwargs, result)
                except (TypeError, IndexError, AttributeError, OSError):
                    fields = {}  # the call raised; nothing to count
                rid = fields.pop("rid", None)
                if rid is not None:
                    span.rid = rid
                span.attrs.update(fields)
            recorder.close(span, end)

    return wrapper


@contextmanager
def installed(recorder: Recorder) -> Iterator[None]:
    """Wrap every call in :data:`LAYER_PATCHES` for the block's duration."""
    # Resolve every name before patching any: a module imported after a
    # patch would bind the wrapper under its own name and wrap it twice.
    targets = []
    for module, qualname, layer, hook in LAYER_PATCHES:
        # Only names the owner defines itself, so that restoring puts
        # back exactly what was there. A name the program no longer
        # defines is reported, not fatal, so a refactor of the program
        # leaves the benchmark running.
        attr = qualname.rsplit(".", 1)[-1]
        try:
            owner = _owner(module, qualname)
            targets.append((owner, attr, vars(owner)[attr], layer, hook))
        except (ImportError, AttributeError, KeyError):
            recorder.missing.add(f"{module}.{qualname}")
    originals: List[Tuple[object, str, object]] = []
    try:
        for owner, attr, original, layer, hook in targets:
            setattr(owner, attr, _wrap(recorder, original, layer, hook))
            originals.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
