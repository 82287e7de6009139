"""Parallel experiment engine: one task pipeline, workers and a result cache.

Every paper artifact is regenerated by sweeping a simulator across
kernel x profile x policy x bitwidth grids. This module is the one
place that executes those sweeps:

* :class:`FixedBitTask` / :class:`GridSpec` and :class:`ExecutiveTask`
  describe one simulation / a whole grid of them, as hashable value
  objects whose ``cache_key()`` hashes the configuration, the trace
  seed and the code version;
* a :class:`TaskKind` record (:data:`FIXED`, :data:`EXECUTIVE`,
  :data:`RESILIENCE`) holds exactly what differs between campaign
  kinds: the report kind and fault scope, the entry filename prefix,
  the entry codec, the payload validator, the fault corrupter and the
  optional batch lane runner;
* :func:`run_tasks` is the one pipeline every kind runs through:
  cache probe → batch tier → robust per-task execution → write-back,
  recorded as one :class:`repro.analysis.telemetry.RunReport`.
  Results come back in task order whatever the worker count or
  completion order. :func:`run_grid`, :func:`run_executive_grid` and
  :func:`repro.analysis.resilience.run_resilience_grid` are thin
  wrappers over it, and every fixed-bit and executive point of the
  experiment runners goes through one of them;
  :func:`run_on_trace` / :func:`run_executive_on_trace` run
  caller-supplied traces through the same robust core;
* :class:`ResultCache` is a content-addressed on-disk store with one
  kind-parameterised ``get``/``put``. No value is ever handed out
  twice: a computed result owns its arrays, and every cache read
  (hot-tier hits included) decodes fresh ones, so a caller mutating
  ``result.bit_schedule`` can never poison a later run. A caller that
  only forwards entries (the campaign service) asks
  ``run_tasks(..., entries=True)`` for the stored bytes instead, and a
  hot-tier hit is then never decoded.

Simulations go through the bit-exact C replay kernels by default
(``engine="auto"``): a grid as batch plans, a single task as a
one-lane plan (:mod:`repro.system.batchsim`,
:mod:`repro.core.batchexec`). The engine picks the batch tier from
what it can observe, never from a switch: the engine name, an active
fault plan, observability capture and whether the accelerator built.
Traced runs, device-resilience runs, lanes the kernel refuses, and
every run on a host without a C compiler take the per-tick reference
loop; pass ``engine="reference"`` to force it, e.g. for differential
tests. A run under a :mod:`repro.analysis.faults` plan loses only the
batch tier: each task still runs on the C kernel as a one-lane plan.

Per-task execution goes through one robust core (:func:`_run_robust`):
per-task timeouts, bounded retry with backoff, payload validation
(a worker returning garbage is retried, not trusted), and graceful
degradation to in-process serial execution when the process pool turns
unhealthy (a hung worker or a broken pool). Faults injected via
:mod:`repro.analysis.faults` ride the same paths.

The CLI wires ``--workers``, ``--cache-dir``, ``--no-cache``,
``--task-timeout``, ``--retries`` and ``--retry-backoff`` straight
into :func:`configure`, the only place the timeout, retry and backoff
settings are set; a run may pass only its own ``workers`` and
``cache``. The batch tier's chunk budgets are constants of
:mod:`repro.system.batchsim`.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import os
import tempfile
import threading
import time
from collections import OrderedDict
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

try:  # pragma: no cover - always present on the supported platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from . import faults, telemetry
from ._npz import read_npz, write_npz
from .._memo import LruMemo
from .._validation import (
    check_int_in_range,
    check_non_negative,
    check_positive,
)
from ..core.executive import (
    ExecutiveResult,
    FrameRecord,
    IncidentalExecutive,
    clear_quality_memo,
    replay_frame_quality,
)
from ..core.pragmas import IncidentalPragma, RecoverFromPragma
from ..core.program import AnnotatedProgram
from ..energy.traces import TICK_S, PowerTrace, standard_profile
from ..errors import (
    ConfigurationError,
    EngineExecutionError,
    JobCancelledError,
    SimulationError,
)
from ..kernels import create_kernel, frame_sequence
from ..kernels.registry import kernel_mix
from ..nvm.retention import STANDARD_POLICY_NAMES, policy_by_name
from ..obs import capture as obs_capture
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import Tracer
from ..system.metrics import SimulationResult
from ..system.simulator import simulate_fixed_bits

__all__ = [
    "ENGINE_CACHE_VERSION",
    "FixedBitTask",
    "GridSpec",
    "GridResult",
    "ExecutiveTask",
    "ExecutiveTraceTask",
    "ExecutiveGridResult",
    "TaskKind",
    "FIXED",
    "EXECUTIVE",
    "RESILIENCE",
    "run_tasks",
    "ResultCache",
    "ShardedResultCache",
    "CacheHotTier",
    "shard_for_name",
    "fixed_entry_bytes",
    "executive_entry_bytes",
    "point_entry_bytes",
    "decode_fixed_entry",
    "decode_executive_entry",
    "decode_point_entry",
    "cancel_scope",
    "run_grid",
    "run_executive_grid",
    "run_executive_on_trace",
    "executive_frame_quality",
    "configure",
    "configured_workers",
    "default_cache",
    "reset",
    "copy_result",
    "simulation_results_equal",
    "executive_results_equal",
    "simulation_payload_error",
    "executive_payload_error",
    "derive_task_seed",
    "trace_for",
    "TRACE_MEMO",
    "TRACE_MEMO_BYTES",
]

#: Bump whenever a change could alter simulation results (calibration,
#: simulator semantics, result schema): stale on-disk entries then miss
#: instead of silently serving results from an older code version.
ENGINE_CACHE_VERSION = "1"

#: Retention-policy names accepted by :class:`FixedBitTask` (``"precise"``
#: means no shaping, as everywhere else in the analysis layer).
_POLICY_CHOICES = ("precise",) + tuple(STANDARD_POLICY_NAMES)


# -- tasks and grids ----------------------------------------------------------


def _content_key(task, extra: Dict[str, str]) -> str:
    """sha256 of a task's fields plus ``extra`` as sorted-key JSON.

    Every field of the tasks that use it is a scalar, so the payload is
    the dict ``dataclasses.asdict`` builds, without its recursive deep
    copy (which cost more than the hash).
    """
    payload = {f.name: getattr(task, f.name) for f in dataclasses.fields(task)}
    payload.update(extra)
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


@dataclass(frozen=True)
class FixedBitTask:
    """One fixed-bit system simulation, as a hashable value object.

    ``seed=None`` runs on the calibrated standard profile
    ``profile_id``; an explicit ``seed`` re-rolls the wristwatch
    harvester deterministically instead (the Figure 28 robustness
    protocol), in which case ``profile_id`` only labels the task.
    """

    profile_id: int
    bits: int
    duration_s: float = 10.0
    simd_width: int = 1
    policy: str = "precise"
    kernel: Optional[str] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        check_int_in_range(self.bits, "bits", 1, 8)
        check_int_in_range(self.simd_width, "simd_width", 1, 4)
        check_positive(self.duration_s, "duration_s")
        if self.policy not in _POLICY_CHOICES:
            raise ConfigurationError(
                f"policy must be one of {_POLICY_CHOICES}, got {self.policy!r}"
            )

    def cache_key(self) -> str:
        """Content hash of the task config, trace seed and code version."""
        return _content_key(self, {"__engine__": ENGINE_CACHE_VERSION})

    def build_trace(self) -> PowerTrace:
        """Materialise the task's power trace (deterministic)."""
        if self.seed is None:
            return trace_for(self.profile_id, self.duration_s)
        return _seeded_trace(self.seed, self.duration_s)

    def trace_ticks(self) -> int:
        """Tick count of :meth:`build_trace`, without synthesising it."""
        return _trace_ticks(self.duration_s, self.seed)

    def trace_signature(self) -> Tuple:
        """Hashable (trace, config) identity for chunk dedup planning.

        Two tasks with equal signatures share one plan slot (their
        :meth:`build_trace` returns the identical memoised object and
        they run under the same system config), so the chunk planner
        keeps them in one shard.
        """
        if self.seed is None:
            return ("fixed-profile", self.profile_id, self.duration_s)
        return ("fixed-seed", self.seed, self.duration_s)

    def run(self, engine: str = "auto", tracer=None) -> SimulationResult:
        """Execute the simulation (no caching at this level)."""
        policy = None if self.policy == "precise" else policy_by_name(self.policy)
        mix = kernel_mix(self.kernel) if self.kernel is not None else None
        kwargs = {} if mix is None else {"mix": mix}
        return simulate_fixed_bits(
            self.build_trace(),
            self.bits,
            simd_width=self.simd_width,
            policy=policy,
            engine=engine,
            tracer=tracer,
            **kwargs,
        )


@dataclass(frozen=True)
class GridSpec:
    """A cartesian experiment grid of :class:`FixedBitTask`\\ s.

    Enumeration order is the deterministic product order
    ``profile x bits x policy x kernel`` — the same nesting the serial
    experiment loops used — so a grid's task list is stable across
    runs and across processes.
    """

    profile_ids: Tuple[int, ...] = (1, 2, 3, 4, 5)
    bits: Tuple[int, ...] = (8,)
    policies: Tuple[str, ...] = ("precise",)
    kernels: Tuple[Optional[str], ...] = (None,)
    duration_s: float = 10.0
    simd_width: int = 1
    #: Base seed for re-rolled traces; ``None`` uses standard profiles.
    seed: Optional[int] = None

    def tasks(self) -> Tuple[FixedBitTask, ...]:
        """Enumerate the grid in deterministic product order."""
        out: List[FixedBitTask] = []
        for pid in self.profile_ids:
            for bits in self.bits:
                for policy in self.policies:
                    for kernel in self.kernels:
                        seed = None
                        if self.seed is not None:
                            # Derived from task coordinates, not from
                            # enumeration order: reordering or
                            # filtering the grid cannot change any
                            # task's trace.
                            seed = derive_task_seed(
                                self.seed, pid, bits, policy, kernel or ""
                            )
                        out.append(
                            FixedBitTask(
                                profile_id=pid,
                                bits=bits,
                                duration_s=self.duration_s,
                                simd_width=self.simd_width,
                                policy=policy,
                                kernel=kernel,
                                seed=seed,
                            )
                        )
        return tuple(out)


@dataclass(frozen=True)
class GridResult:
    """Results of one grid run, aligned with its task tuple."""

    tasks: Tuple[FixedBitTask, ...]
    results: Tuple[SimulationResult, ...]

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[Tuple[FixedBitTask, SimulationResult]]:
        return iter(zip(self.tasks, self.results))

    def result_for(self, task: FixedBitTask) -> SimulationResult:
        """The result of ``task`` (raises ``KeyError`` if absent)."""
        try:
            return self.results[self.tasks.index(task)]
        except ValueError:
            raise KeyError(f"task not in grid: {task!r}") from None

    def equal(self, other: "GridResult") -> bool:
        """Field-for-field equality (numpy arrays compared exactly)."""
        return self.tasks == other.tasks and all(
            simulation_results_equal(a, b)
            for a, b in zip(self.results, other.results)
        )


def derive_task_seed(base_seed: int, *coordinates: object) -> int:
    """Stable 63-bit per-task seed from a base seed and coordinates.

    Independent of enumeration order and of Python's hash
    randomisation, so ``run_grid(workers=1)`` and ``run_grid(workers=4)``
    see identical traces.
    """
    digest = hashlib.sha256(
        json.dumps([int(base_seed), *map(str, coordinates)]).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# -- traces -------------------------------------------------------------------

#: Byte budget of :data:`TRACE_MEMO`, in trace samples. 8 MB holds ten
#: 10 s traces: every trace one Figure 15 + 24 grid needs (at most
#: five), and the 40 distinct traces ``repro run all`` asks for with no
#: extra synthesis in the order it asks for them (4 MB costs one). A
#: long-running service re-rolls two short traces per cold job, and the
#: memo is what keeps those from piling up.
TRACE_MEMO_BYTES = 8 * 1024 * 1024

#: The process's one trace memo: standard profiles, seeded re-rolls and
#: fleet device traces (:mod:`repro.fleet.spec`), least recently used
#: out first under :data:`TRACE_MEMO_BYTES`. Identity matters beyond
#: speed: the batch plan dedups slots by trace *object*, so repeated
#: lookups must hand back one instance while it is held. Eviction costs
#: a re-synthesis or a lost dedup, never a different sample.
TRACE_MEMO = LruMemo(
    TRACE_MEMO_BYTES, size=lambda trace: trace.samples_uw.nbytes
)


def trace_for(profile_id: int, duration_s: float = 10.0) -> PowerTrace:
    """Standard profile ``profile_id``, memoised in :data:`TRACE_MEMO`.

    Immutable and safe to share. A profile the memo has dropped is
    synthesised again, sample for sample.
    """
    return TRACE_MEMO.get(
        (f"profile:{profile_id}", float(duration_s)),
        lambda: standard_profile(profile_id, duration_s=duration_s),
    )


def _trace_ticks(duration_s: float, seed: Optional[int]) -> int:
    """Tick count of :func:`trace_for` (``seed=None``) or :func:`_seeded_trace`.

    Standard profiles round ``duration_s / TICK_S``, as
    ``ProfileSpec.generate`` does; seeded traces truncate it, and every
    seeded cache entry depends on that truncation.
    """
    ticks = duration_s / TICK_S
    return max(1, int(round(ticks)) if seed is None else int(ticks))


def _seeded_trace(seed: int, duration_s: float) -> PowerTrace:
    """A deterministically re-rolled wristwatch trace, memoised like
    :func:`trace_for`."""
    from ..energy.harvester import WristwatchRingHarvester

    def build() -> PowerTrace:
        rng = np.random.default_rng(seed)
        return PowerTrace(
            WristwatchRingHarvester().generate(int(duration_s / TICK_S), rng),
            name=f"seeded-{seed}",
        )

    return TRACE_MEMO.get((f"seed:{seed}", float(duration_s)), build)


# -- result utilities ---------------------------------------------------------


def copy_result(result: SimulationResult) -> SimulationResult:
    """Defensive copy: fresh arrays, so callers cannot poison a cache."""
    return dataclasses.replace(
        result,
        bit_schedule=result.bit_schedule.copy(),
        lane_schedule=result.lane_schedule.copy(),
    )


def simulation_results_equal(a: SimulationResult, b: SimulationResult) -> bool:
    """Exact field-for-field equality, including arrays and dtypes.

    (The dataclass ``==`` is unusable here: comparing numpy array
    fields elementwise raises on truth-value ambiguity.)
    """
    for f in dataclasses.fields(SimulationResult):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, np.ndarray):
            if va.dtype != vb.dtype or not np.array_equal(va, vb):
                return False
        elif va != vb:
            return False
    return True


def executive_results_equal(a: ExecutiveResult, b: ExecutiveResult) -> bool:
    """Exact equality of two executive runs: the simulation metrics,
    every frame's element-bit schedule (values and dtype), lifecycle
    flags and exposure list, and the idle-instruction total."""
    if not simulation_results_equal(a.sim, b.sim):
        return False
    if a.idle_instructions != b.idle_instructions:
        return False
    if len(a.frames) != len(b.frames):
        return False
    for fa, fb in zip(a.frames, b.frames):
        if (
            fa.frame_id != fb.frame_id
            or fa.arrival_tick != fb.arrival_tick
            or fa.completed_tick != fb.completed_tick
            or fa.completed_incidentally != fb.completed_incidentally
            or fa.abandoned != fb.abandoned
            or list(fa.exposures) != list(fb.exposures)
            or fa.element_bits.dtype != fb.element_bits.dtype
            or not np.array_equal(fa.element_bits, fb.element_bits)
        ):
            return False
    return True


def simulation_payload_error(result: object) -> Optional[str]:
    """Why ``result`` is not a trustworthy :class:`SimulationResult`.

    Returns ``None`` for a sane payload, else a one-line reason. The
    robust runner applies this to every worker-computed result: a
    worker (or an injected fault) that returns garbage without raising
    is retried exactly like a crash. Checks are deliberately
    conservative — structural and value-range invariants every honest
    simulation satisfies — so a legitimate result can never be
    rejected.
    """
    if not isinstance(result, SimulationResult):
        return f"payload is {type(result).__name__}, not SimulationResult"
    for name in ("bit_schedule", "lane_schedule"):
        array = getattr(result, name)
        if not isinstance(array, np.ndarray) or not np.issubdtype(
            array.dtype, np.integer
        ):
            return f"{name} is not an integer ndarray"
    if len(result.bit_schedule) != result.total_ticks:
        return "bit_schedule length does not match total_ticks"
    if result.bit_schedule.size and not (
        0 <= int(result.bit_schedule.min())
        and int(result.bit_schedule.max()) <= 8
    ):
        return "bit_schedule outside [0, 8]"
    if result.lane_schedule.size and not (
        0 <= int(result.lane_schedule.min())
        and int(result.lane_schedule.max()) <= 4
    ):
        return "lane_schedule outside [0, 4]"
    for name in (
        "forward_progress",
        "incidental_progress",
        "backup_count",
        "restore_count",
        "on_ticks",
    ):
        if getattr(result, name) < 0:
            return f"{name} is negative"
    if result.on_ticks > result.total_ticks:
        return "on_ticks exceeds total_ticks"
    for name in (
        "income_energy_uj",
        "converted_energy_uj",
        "run_energy_uj",
        "backup_energy_uj",
        "restore_energy_uj",
    ):
        value = getattr(result, name)
        if not math.isfinite(value) or value < 0:
            return f"{name} is not a finite non-negative energy"
    return None


def executive_payload_error(result: object) -> Optional[str]:
    """The executive twin of :func:`simulation_payload_error`."""
    if not isinstance(result, ExecutiveResult):
        return f"payload is {type(result).__name__}, not ExecutiveResult"
    sim_error = simulation_payload_error(result.sim)
    if sim_error is not None:
        return f"sim: {sim_error}"
    if result.idle_instructions < 0:
        return "idle_instructions is negative"
    for frame in result.frames:
        bits = frame.element_bits
        if not isinstance(bits, np.ndarray) or not np.issubdtype(
            bits.dtype, np.integer
        ):
            return f"frame {frame.frame_id}: element_bits not integer ndarray"
        if bits.size and not (0 <= int(bits.min()) and int(bits.max()) <= 8):
            return f"frame {frame.frame_id}: element_bits outside [0, 8]"
    return None


# -- content-addressed on-disk cache ------------------------------------------


#: Exceptions that mean "this .npz entry is corrupt or mis-schemaed":
#: anything :func:`~repro.analysis._npz.read_npz` refuses (truncated or
#: zero-byte archives, bad CRCs, sizes or headers, garbage bytes) and
#: version mismatches and foreign resilience-point schemas (ValueError),
#: missing keys (KeyError), short reads (OSError), executive frame tables
#: that index past their frames (IndexError), and payloads whose arrays
#: fail the SimulationResult length invariants (SimulationError).
_CORRUPT_ENTRY_ERRORS = (
    OSError,
    KeyError,
    ValueError,
    IndexError,
    SimulationError,
)


# -- entry encoding (one codec for cache files AND service streams) -----------
#
# The byte encoding of a cache entry is defined *once*, here, and used
# by both the on-disk store and the campaign service's result streams.
# :func:`~repro.analysis._npz.write_npz` writes it: exactly the bytes
# ``np.savez_compressed`` writes, byte-deterministic for a fixed payload
# (tests/test_batch_tiers.py relies on this for cross-tier cache-byte
# identity) and pinned by ``tests/golden/entry_digests.json``. An entry
# is encoded once, when it is computed: the hot tier holds the bytes
# that were written or read, and the service streams them, so "the
# entry the service streamed" and "the entry a direct run wrote to
# disk" are the same bytes by construction and a hit is never
# re-encoded. Reads go through :func:`~repro.analysis._npz.read_npz`,
# which accepts exactly that layout and checks every member's size and
# CRC-32, dtype and shape (tests/test_entry_codec.py holds the writer
# and the reader differentially equal to ``np.savez_compressed`` and
# ``np.load``).


def _result_scalars(result: SimulationResult) -> Dict[str, object]:
    return {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(SimulationResult)
        if f.name not in ("bit_schedule", "lane_schedule", "backup_ticks")
    }


def fixed_entry_bytes(result: SimulationResult) -> bytes:
    """The canonical ``.npz`` byte encoding of one fixed-bit entry."""
    return write_npz(
        {
            "version": np.array(ENGINE_CACHE_VERSION),
            "scalars": np.array(json.dumps(_result_scalars(result))),
            "bit_schedule": result.bit_schedule,
            "lane_schedule": result.lane_schedule,
            "backup_ticks": np.asarray(result.backup_ticks, dtype=np.int64),
        }
    )


def executive_entry_bytes(result: ExecutiveResult) -> bytes:
    """The canonical ``.npz`` byte encoding of one executive entry."""
    scalars = {
        "sim": _result_scalars(result.sim),
        "idle_instructions": result.idle_instructions,
    }
    frames = result.frames
    n_elements = frames[0].element_bits.size if frames else 0
    frame_meta = np.zeros((len(frames), 5), dtype=np.int64)
    element_bits = np.zeros((len(frames), n_elements), dtype=np.int8)
    exposure_rows: List[Tuple[int, int, int]] = []
    for i, f in enumerate(frames):
        frame_meta[i] = (
            f.frame_id,
            f.arrival_tick,
            -1 if f.completed_tick is None else f.completed_tick,
            int(f.completed_incidentally),
            int(f.abandoned),
        )
        element_bits[i] = f.element_bits
        for outage_ticks, elements_done in f.exposures:
            exposure_rows.append((i, outage_ticks, elements_done))
    exposures = np.asarray(exposure_rows, dtype=np.int64).reshape(-1, 3)
    return write_npz(
        {
            "version": np.array(ENGINE_CACHE_VERSION),
            "scalars": np.array(json.dumps(scalars)),
            "bit_schedule": result.sim.bit_schedule,
            "lane_schedule": result.sim.lane_schedule,
            "backup_ticks": np.asarray(result.sim.backup_ticks, dtype=np.int64),
            "frame_meta": frame_meta,
            "element_bits": element_bits,
            "exposures": exposures,
        }
    )


def point_entry_bytes(payload: Dict[str, object]) -> bytes:
    """The canonical ``.npz`` byte encoding of one resilience point."""
    return write_npz(
        {
            "version": np.array(ENGINE_CACHE_VERSION),
            "payload": np.array(json.dumps(payload, sort_keys=True)),
        }
    )


_EntrySource = Union[bytes, bytearray, str, os.PathLike]


def _entry_arrays(data: _EntrySource) -> Dict[str, np.ndarray]:
    """The version-checked arrays of one entry (path or bytes)."""
    if not isinstance(data, (bytes, bytearray)):
        data = Path(data).read_bytes()
    arrays = read_npz(data)
    ResultCache._check_version(arrays)
    return arrays


def decode_fixed_entry(data: _EntrySource) -> SimulationResult:
    """Decode a fixed-bit entry (path or bytes); raises on corruption."""
    arrays = _entry_arrays(data)
    scalars = json.loads(str(arrays["scalars"][()]))
    return SimulationResult(
        bit_schedule=arrays["bit_schedule"],
        lane_schedule=arrays["lane_schedule"],
        backup_ticks=tuple(arrays["backup_ticks"].tolist()),
        **scalars,
    )


def decode_executive_entry(data: _EntrySource) -> ExecutiveResult:
    """Decode an executive entry (path or bytes); raises on corruption."""
    arrays = _entry_arrays(data)
    scalars = json.loads(str(arrays["scalars"][()]))
    sim = SimulationResult(
        bit_schedule=arrays["bit_schedule"],
        lane_schedule=arrays["lane_schedule"],
        backup_ticks=tuple(arrays["backup_ticks"].tolist()),
        **scalars["sim"],
    )
    element_bits = arrays["element_bits"]
    frames: List[FrameRecord] = [
        FrameRecord(
            frame_id=fid,
            arrival_tick=arrival,
            element_bits=element_bits[i].copy(),
            completed_tick=None if completed < 0 else completed,
            completed_incidentally=bool(incid),
            abandoned=bool(abandoned),
        )
        for i, (fid, arrival, completed, incid, abandoned) in enumerate(
            arrays["frame_meta"].tolist()
        )
    ]
    for frame, outage_ticks, elements_done in arrays["exposures"].tolist():
        frames[frame].exposures.append((outage_ticks, elements_done))
    return ExecutiveResult(
        sim=sim,
        frames=tuple(frames),
        idle_instructions=int(scalars["idle_instructions"]),
    )


def decode_point_entry(data: _EntrySource) -> Dict[str, object]:
    """Decode a resilience-point entry (path or bytes)."""
    payload = json.loads(str(_entry_arrays(data)["payload"][()]))
    if not isinstance(payload, dict):
        raise ValueError(
            f"resilience payload is {type(payload).__name__}, not a dict"
        )
    return payload


# -- task kinds -----------------------------------------------------------------
#
# A campaign kind is everything that differs between the fixed-bit,
# executive and resilience pipelines; :func:`run_tasks` is everything
# they share. A new kind is one more :class:`TaskKind`, not another
# cache → batch → retry → write-back loop.


@dataclass(frozen=True)
class TaskKind:
    """What one campaign kind contributes to the shared task pipeline.

    ``name`` is the :class:`~repro.analysis.telemetry.RunReport` kind,
    the fault-plan scope and the cache shard of the kind's entries,
    whose filenames start with ``prefix``. ``encode``/``decode`` are
    the entry codec (``decode`` raises on anything it cannot trust, so
    the cache quarantines it); ``validate`` says why a worker payload is
    untrustworthy (``None`` if it is sane); ``corrupt`` is the breakage
    an injected ``corrupt`` fault applies. ``batch`` replays a sequence
    of tasks as batch lanes, one
    :class:`~repro.system.batchsim.LaneOutcome` each; ``None`` means
    the kind has no batch tier.

    A kind pickles by name, so pool workers use this module's own
    instance and its callables need not be picklable.
    """

    name: str
    prefix: str
    encode: Callable[[object], bytes]
    decode: Callable[[_EntrySource], object]
    validate: Callable[[object], Optional[str]]
    corrupt: Callable[[object], object]
    batch: Optional[Callable[[Sequence], List]] = None

    def entry_name(self, key: str) -> str:
        """The filename of the entry for the task keyed ``key``."""
        return f"{self.prefix}{key}.npz"

    def __reduce__(self):
        return (_kind_named, (self.name,))

    def __repr__(self) -> str:
        return f"TaskKind({self.name!r})"


def _kind_named(name: str) -> TaskKind:
    return _KINDS[name]


def _by_slot(tasks: Sequence, replay: Callable[[List[int]], List]) -> List:
    """Replay a batch chunk one trace slot at a time, outcomes in task order.

    Tasks with equal ``trace_signature()`` share one plan slot.
    ``replay`` gets the lane order that puts each slot's tasks next to
    each other (slots in first-seen order) and returns one outcome per
    lane in that order. The batch runners plan one slot at a time, so a
    runner fed lanes built on demand in this order synthesises, plans,
    replays and drops one slot's trace and plan before it builds the
    next slot's lanes.
    """
    slots: Dict[Tuple, List[int]] = {}
    for lane, task in enumerate(tasks):
        slots.setdefault(task.trace_signature(), []).append(lane)
    order = [lane for lanes in slots.values() for lane in lanes]
    outcomes: List = [None] * len(tasks)
    for lane, outcome in zip(order, replay(order)):
        outcomes[lane] = outcome
    return outcomes


def _fixed_batch(tasks: Sequence) -> List:
    from ..system import batchsim

    # One policy object per name across the batch: run_fixed_batch
    # memoises each lane's processor terms by policy identity.
    policy_for = functools.lru_cache(maxsize=None)(policy_by_name)
    return _by_slot(
        tasks,
        lambda order: batchsim.run_fixed_batch(
            _fixed_lane_spec(tasks[i], policy_for) for i in order
        ),
    )


def _executive_batch(tasks: Sequence) -> List:
    from ..core import batchexec

    return _by_slot(
        tasks,
        lambda order: batchexec.run_executive_batch(
            tasks[i].build_executive() for i in order
        ),
    )


def _resilience_module():
    # Lazy: analysis.resilience imports this module at load time.
    from . import resilience

    return resilience


# The codec lambdas look ``fixed_entry_bytes`` & co. up at call time, so
# a wrapper installed on those module globals (a tracing span, say)
# sees every cache read and write.
FIXED = TaskKind(
    name="fixed",
    prefix="",
    encode=lambda result: fixed_entry_bytes(result),
    decode=lambda data: decode_fixed_entry(data),
    validate=simulation_payload_error,
    corrupt=faults.corrupt_simulation_result,
    batch=_fixed_batch,
)
EXECUTIVE = TaskKind(
    name="executive",
    prefix="exec-",
    encode=lambda result: executive_entry_bytes(result),
    decode=lambda data: decode_executive_entry(data),
    validate=executive_payload_error,
    corrupt=faults.corrupt_executive_result,
    batch=_executive_batch,
)
#: Resilience runs always take the reference loop, so there is no batch
#: tier.
RESILIENCE = TaskKind(
    name="resilience",
    prefix="res-",
    encode=lambda point: point_entry_bytes(point.to_dict()),
    decode=lambda data: _resilience_module().ResiliencePoint.from_dict(
        decode_point_entry(data)
    ),
    validate=lambda point: _resilience_module().resilience_payload_error(point),
    corrupt=lambda point: _resilience_module().corrupt_resilience_point(point),
)
_KINDS: Dict[str, TaskKind] = {k.name: k for k in (FIXED, EXECUTIVE, RESILIENCE)}


# -- in-memory hot tier --------------------------------------------------------


class CacheHotTier:
    """Byte-bounded read-through LRU of entry bytes in front of an on-disk store.

    Entries are keyed by the entry's absolute path and guarded by the
    file's stat signature ``(st_ino, st_mtime_ns, st_size)``: every
    overwrite lands via ``os.replace`` of a freshly created temp file,
    so a replaced entry *always* changes inode and the hot tier can
    never serve stale bytes — a mismatched or missing file invalidates
    the entry and reads fall through to disk (exact-merge safety with
    concurrent writers in other processes).

    The tier holds each entry's **bytes**, exactly as they sit in the
    file, and takes them only from a write (the bytes just written) or
    from a read that decoded them (bytes that just passed every check of
    ``kind.decode``), so it is checked once, when it is filled. The
    budget charges ``len(data)``, which is what the tier holds: it
    bounds the tier's memory up to per-entry bookkeeping. A hit hands
    the bytes back; the cache decodes them into fresh values, or, for
    ``get(..., entry=True)``, returns them as they are for the campaign
    service to stream. Thread-safe.
    """

    def __init__(self, max_bytes: int) -> None:
        self.max_bytes = check_int_in_range(max_bytes, "max_bytes", 1)
        self._entries: "OrderedDict[str, Tuple[Tuple[int, int, int], bytes]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def signature(path: Path) -> Optional[Tuple[int, int, int]]:
        """The stat identity of an entry file (``None`` if unreadable)."""
        try:
            st = os.stat(path)
        except OSError:
            return None
        return (st.st_ino, st.st_mtime_ns, st.st_size)

    def _drop(self, key: str) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self.current_bytes -= len(entry[1])

    def peek(self, path: Path) -> Optional[bytes]:
        """The held bytes for ``path``, or ``None``; counts nothing.

        Validates the stat signature against the live file; any
        mismatch (overwritten, quarantined, deleted) drops the entry.
        """
        key = str(path)
        with self._lock:
            if key not in self._entries:
                return None
        signature = self.signature(path)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or signature is None or entry[0] != signature:
                self._drop(key)
                return None
            self._entries.move_to_end(key)
            return entry[1]

    def lookup(self, path: Path) -> Optional[bytes]:
        """:meth:`peek`, counted as a hit or a miss."""
        data = self.peek(path)
        with self._lock:
            if data is None:
                self.misses += 1
            else:
                self.hits += 1
        return data

    def store(
        self,
        path: Path,
        signature: Optional[Tuple[int, int, int]],
        data: bytes,
    ) -> None:
        """Hold ``data``, the file bytes ``signature`` identifies, for
        ``path``, and enforce the budget."""
        if signature is None or len(data) > self.max_bytes:
            return
        key = str(path)
        with self._lock:
            self._drop(key)
            self._entries[key] = (signature, data)
            self.current_bytes += len(data)
            while self.current_bytes > self.max_bytes:
                _, (_, evicted) = self._entries.popitem(last=False)
                self.current_bytes -= len(evicted)
                self.evictions += 1

    def invalidate(self, path: Path) -> None:
        """Drop the entry for ``path`` (quarantine/clear paths)."""
        with self._lock:
            self._drop(str(path))

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.current_bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def info(self) -> Dict[str, object]:
        with self._lock:
            return {
                "hot_entries": len(self._entries),
                "hot_bytes": self.current_bytes,
                "hot_max_bytes": self.max_bytes,
                "hot_hits": self.hits,
                "hot_misses": self.misses,
                "hot_evictions": self.evictions,
            }


class ResultCache:
    """Content-addressed store of task results, one entry per task.

    One ``.npz`` file per entry, named by the task kind's filename
    prefix and the task's ``cache_key()`` (config + trace seed + code
    version); the code version is *also* embedded in the payload and
    checked on load. Writes are atomic (temp file + ``os.replace``),
    and every value load rebuilds fresh arrays — cache hits can never
    alias a caller's mutation.

    The store is safe under concurrent writers: in-flight temp files
    carry a ``.npz.tmp`` suffix precisely so no ``*.npz`` scan
    (:meth:`verify`, :meth:`info`, :meth:`clear`, ``len()``) can see —
    or quarantine — a half-written entry out from under its writer,
    and the final ``os.replace`` is atomic, so two processes racing on
    the same key leave one intact winner. Stale temp files (a writer
    killed mid-write) are swept by :meth:`clear`.

    Corrupt, truncated or wrong-version entries are **quarantined**,
    never silently swallowed: the offending file is moved into the
    ``quarantine/`` subdirectory (preserving it for diagnosis), the
    ``quarantines`` counter increments, and the read reports a miss so
    the result is recomputed. Both read paths — :meth:`get` (for every
    kind) and the :meth:`verify` scan — share this behaviour.
    """

    #: Filename prefix distinguishing executive entries from fixed-bit
    #: ones (``repro-experiments cache info`` reports them separately).
    EXEC_PREFIX = EXECUTIVE.prefix

    #: Filename prefix for resilience-campaign point summaries (small
    #: JSON payloads: availability/quality/fallback counters per task).
    RES_PREFIX = RESILIENCE.prefix

    #: Filename prefix of fleet device entries. Unlike the other two,
    #: it is part of the *key* (``FleetDeviceTask.cache_key`` prepends
    #: it) — fleet entries are ordinary fixed-bit payloads read and
    #: written by :meth:`get`/:meth:`put`; the prefix only lets
    #: :meth:`info` report them separately.
    FLEET_PREFIX = "fleet-"

    #: The entry partition by filename prefix (order matches
    #: :func:`shard_for_name`); :meth:`info` counts each, and a
    #: :class:`ShardedResultCache` stores each in its own directory.
    SHARD_NAMES = ("fixed", "executive", "resilience", "fleet")

    #: Subdirectory corrupt entries are moved into.
    QUARANTINE_DIR = "quarantine"

    #: Cross-process coordination lock file (at the cache root).
    #: Writers hold it *shared* across their stage-write + rename;
    #: :meth:`clear`'s stale-tmp sweep takes it *exclusive*, so the
    #: sweep can never unlink another process's in-flight temp file.
    LOCK_FILE = ".cache.lock"

    def __init__(
        self, cache_dir: Union[str, os.PathLike], hot_bytes: int = 0
    ) -> None:
        self.cache_dir = Path(cache_dir)
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(
                f"cache directory {self.cache_dir} is not usable: {exc}"
            ) from exc
        if not os.access(self.cache_dir, os.W_OK):
            raise ConfigurationError(
                f"cache directory {self.cache_dir} is not writable"
            )
        self.hits = 0
        self.misses = 0
        self.quarantines = 0
        #: Read-through in-memory hot tier (``hot_bytes=0`` disables it).
        self.hot: Optional[CacheHotTier] = (
            CacheHotTier(hot_bytes) if hot_bytes else None
        )

    def _shard_path(self, name: str) -> Path:
        """Where the entry file ``name`` lives (flat: the cache root)."""
        return self.cache_dir / name

    def _path(self, key: str, kind: TaskKind = FIXED) -> Path:
        return self._shard_path(kind.entry_name(key))

    def _entry_dirs(self) -> Tuple[Path, ...]:
        """Every directory that may hold ``*.npz`` entries."""
        return (self.cache_dir,)

    def _entry_paths(self) -> Iterator[Path]:
        for directory in self._entry_dirs():
            yield from directory.glob("*.npz")

    def _tmp_paths(self) -> Iterator[Path]:
        for directory in self._entry_dirs():
            yield from directory.glob(".tmp-*.npz.tmp")

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_paths())

    # -- cross-process lock-file coordination ---------------------------------

    def _lock_path(self) -> Path:
        return self.cache_dir / self.LOCK_FILE

    @contextmanager
    def _writer_lock(self) -> Iterator[None]:
        """Shared flock held across one entry's stage-write + rename.

        Many writers (threads or processes) proceed concurrently; only
        an exclusive holder (:meth:`clear`'s tmp sweep) is excluded.
        No-op where ``fcntl`` is unavailable.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        fd = os.open(self._lock_path(), os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_SH)
            try:
                yield
            finally:
                fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)

    @contextmanager
    def _exclusive_lock(self, timeout_s: float = 2.0) -> Iterator[bool]:
        """Try for the exclusive cache lock; yields whether it was won.

        Non-blocking with a short retry deadline: if a writer keeps the
        shared lock past ``timeout_s``, the caller proceeds without
        exclusivity (yields ``False``) rather than deadlocking.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield True
            return
        fd = os.open(self._lock_path(), os.O_RDWR | os.O_CREAT, 0o644)
        acquired = False
        try:
            deadline = time.monotonic() + timeout_s
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    acquired = True
                    break
                except OSError:
                    if time.monotonic() >= deadline:
                        break
                    time.sleep(0.01)
            try:
                yield acquired
            finally:
                if acquired:
                    fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)

    @property
    def quarantine_dir(self) -> Path:
        """Where corrupt entries end up (created on first quarantine)."""
        return self.cache_dir / self.QUARANTINE_DIR

    def _quarantine(self, path: Path) -> bool:
        """Move a corrupt entry aside (rename + counter, not deletion)."""
        if self.hot is not None:
            self.hot.invalidate(path)
        qdir = self.quarantine_dir
        try:
            qdir.mkdir(exist_ok=True)
            os.replace(path, qdir / path.name)
        except OSError:
            # Renaming failed (e.g. the file vanished under us); fall
            # back to unlinking so the corrupt entry cannot be reread.
            try:
                path.unlink(missing_ok=True)
            except OSError:
                return False
        self.quarantines += 1
        return True

    def quarantined_count(self) -> int:
        """Entries currently sitting in the quarantine directory."""
        if not self.quarantine_dir.is_dir():
            return 0
        return sum(1 for _ in self.quarantine_dir.glob("*.npz"))

    def info(self) -> Dict[str, object]:
        """Entry counts (split by kind), quarantine state, on-disk size.

        When a hot tier is attached, its occupancy and hit/miss/eviction
        counters are folded in under ``hot_*`` keys.
        """
        counts = dict.fromkeys(self.SHARD_NAMES, 0)
        total_bytes = 0
        for path in self._entry_paths():
            counts[shard_for_name(path.name)] += 1
            try:
                total_bytes += path.stat().st_size
            except OSError:
                pass
        out: Dict[str, object] = {
            "path": str(self.cache_dir),
            "entries": sum(counts.values()),
            **counts,
            "bytes": total_bytes,
            "quarantined": self.quarantined_count(),
            "quarantine_path": str(self.quarantine_dir),
        }
        if self.hot is not None:
            out.update(self.hot.info())
        return out

    @staticmethod
    def _check_version(data) -> None:
        version = str(data["version"][()])
        if version != ENGINE_CACHE_VERSION:
            raise ValueError(
                f"entry written by engine version {version!r}, "
                f"expected {ENGINE_CACHE_VERSION!r}"
            )

    def _write_entry(self, path: Path, data: bytes) -> Tuple[int, int, int]:
        """Stage ``data`` beside ``path`` and rename it in, atomically.

        Held under the shared writer lock (so :meth:`clear`'s tmp sweep
        cannot race the staged file). Returns the entry's stat
        signature, captured from the staged file itself — rename
        preserves inode and mtime — so the hot tier attributes the
        bytes to exactly this write even if another process replaces
        the entry immediately after.
        """
        with self._writer_lock():
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".npz.tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                    handle.flush()
                    st = os.fstat(handle.fileno())
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        return (st.st_ino, st.st_mtime_ns, st.st_size)

    @staticmethod
    def _read_entry(path: Path) -> Tuple[bytes, Tuple[int, int, int]]:
        """An entry file's bytes and the stat signature of those bytes.

        The signature comes from the open file itself, so it names the
        inode the bytes were read from even if a writer replaces the
        entry meanwhile.
        """
        with open(path, "rb") as handle:
            st = os.fstat(handle.fileno())
            return handle.read(), (st.st_ino, st.st_mtime_ns, st.st_size)

    def get(
        self, key: str, kind: TaskKind = FIXED, entry: bool = False
    ) -> Optional[object]:
        """Load the ``kind`` entry for ``key``; ``None`` (a miss) if absent.

        A present entry that ``kind.decode`` cannot trust is
        quarantined and reads as a miss. A hot-tier hit skips the disk
        and decodes the held bytes (still counted in ``hits``); a disk
        read that decodes fills the hot tier with the file's bytes.
        Every value hit decodes fresh values, so no two callers share
        one.

        ``entry=True`` returns the entry's bytes instead of its value:
        a hot-tier hit returns the held bytes undecoded (they were
        checked when they entered the tier), and a disk hit returns the
        file's bytes once ``kind.decode`` has accepted them, with the
        same quarantine, hot-tier fill and counters.
        """
        path = self._path(key, kind)
        if self.hot is not None:
            held = self.hot.lookup(path)
            if held is not None:
                self.hits += 1
                return held if entry else kind.decode(held)
        try:
            data, signature = self._read_entry(path)
            value = kind.decode(data)
        except FileNotFoundError:
            self.misses += 1
            return None
        except _CORRUPT_ENTRY_ERRORS:
            self._quarantine(path)
            self.misses += 1
            return None
        if self.hot is not None:
            self.hot.store(path, signature, data)
        self.hits += 1
        return data if entry else value

    def put(self, key: str, result: object, kind: TaskKind = FIXED) -> bytes:
        """Atomically store ``result`` as the ``kind`` entry for ``key``;
        returns the entry bytes written."""
        data = kind.encode(result)
        path = self._path(key, kind)
        signature = self._write_entry(path, data)
        if self.hot is not None:
            self.hot.store(path, signature, data)
        return data

    def held_bytes(self, key: str, kind: TaskKind = FIXED) -> Optional[bytes]:
        """The bytes the hot tier holds for the ``kind`` entry ``key``.

        The entry exactly as :meth:`put` wrote it or :meth:`get` checked
        it, for streaming without re-encoding. ``None`` when there is no
        hot tier, the tier does not hold the entry (never filled, or
        evicted) or the file was replaced since. Applies :meth:`get`'s
        stat-signature check but counts no hit or miss.
        """
        if self.hot is None:
            return None
        return self.hot.peek(self._path(key, kind))

    def get_executive(self, key: str) -> Optional[ExecutiveResult]:
        """``get(key, EXECUTIVE)``."""
        return self.get(key, EXECUTIVE)

    def put_executive(self, key: str, result: ExecutiveResult) -> bytes:
        """``put(key, result, EXECUTIVE)``."""
        return self.put(key, result, EXECUTIVE)

    def verify(self) -> Dict[str, int]:
        """Scan every entry, quarantining the unreadable ones.

        The last read path (after :meth:`get`): walks the whole store,
        decodes each entry with its kind's codec (by filename prefix,
        see :func:`shard_for_name`; fleet entries are fixed-bit
        payloads) under :meth:`get`'s corruption rules, and moves every
        corrupt/truncated/wrong-version/foreign-schema file into
        quarantine. Returns ``{"checked", "ok", "quarantined"}`` counts
        for this scan.
        """
        checked = ok = quarantined = 0
        for path in sorted(self._entry_paths()):
            checked += 1
            kind = _KINDS.get(shard_for_name(path.name), FIXED)
            try:
                kind.decode(path)
            except FileNotFoundError:
                continue
            except _CORRUPT_ENTRY_ERRORS:
                self._quarantine(path)
                quarantined += 1
            else:
                ok += 1
        return {"checked": checked, "ok": ok, "quarantined": quarantined}

    def clear(self) -> int:
        """Delete every entry (all kinds); returns the number removed.

        Quarantined files are kept — they exist for diagnosis and are
        only removed by deleting the quarantine directory itself.
        Stale ``.npz.tmp`` files (a writer killed mid-write) are swept
        too, but not counted — and only under the **exclusive** cache
        lock, so the sweep can never unlink a temp file another
        process's writer is about to rename in. If a writer holds the
        shared lock past the grace period, the sweep is skipped (the
        stale files go on the next clear) rather than deadlocking.
        """
        if self.hot is not None:
            self.hot.clear()
        removed = 0
        for path in self._entry_paths():
            path.unlink(missing_ok=True)
            removed += 1
        with self._exclusive_lock() as exclusive:
            if exclusive:
                for path in self._tmp_paths():
                    path.unlink(missing_ok=True)
        return removed


def shard_for_name(name: str) -> str:
    """The shard directory an entry filename belongs to.

    A total partition of the name space by filename prefix: ``exec-``
    → ``executive``, ``res-`` → ``resilience``, ``fleet-`` → ``fleet``,
    everything else → ``fixed``. Prefix checks happen in this order,
    so every name maps to exactly one shard.
    """
    if name.startswith(ResultCache.EXEC_PREFIX):
        return "executive"
    if name.startswith(ResultCache.RES_PREFIX):
        return "resilience"
    if name.startswith(ResultCache.FLEET_PREFIX):
        return "fleet"
    return "fixed"


class ShardedResultCache(ResultCache):
    """A :class:`ResultCache` sharded by key prefix into subdirectories.

    Entries land in ``fixed/``, ``executive/``, ``resilience/`` or
    ``fleet/`` under the cache root according to
    :func:`shard_for_name` — one directory per entry kind, so a
    fleet-scale campaign's hundred-thousand entries do not turn every
    ``exec-`` lookup into a scan of one giant directory. Filenames are
    unchanged (the shard is pure routing), the quarantine directory
    and coordination lock file stay shared at the root, and temp files
    stage inside the destination shard (same-directory rename).

    By default a sharded cache carries a read-through in-memory hot
    tier (:class:`CacheHotTier`); pass ``hot_bytes=0`` to disable it.
    """

    #: Default hot-tier budget: 64 MiB of entry bytes, about 22k 10 s
    #: entries of ~3 KB, without threatening a service worker's memory
    #: headroom (the tier holds its budget plus per-entry bookkeeping).
    DEFAULT_HOT_BYTES = 64 * 1024 * 1024

    def __init__(
        self,
        cache_dir: Union[str, os.PathLike],
        hot_bytes: int = DEFAULT_HOT_BYTES,
    ) -> None:
        super().__init__(cache_dir, hot_bytes=hot_bytes)
        for shard in self.SHARD_NAMES:
            (self.cache_dir / shard).mkdir(exist_ok=True)

    def _entry_dirs(self) -> Tuple[Path, ...]:
        return tuple(self.cache_dir / shard for shard in self.SHARD_NAMES)

    def _shard_path(self, name: str) -> Path:
        # Fleet keys carry their prefix in the *key* (they are ordinary
        # fixed payloads), so routing on the full filename sends them
        # to the fleet shard while plain keys stay in fixed/.
        return self.cache_dir / shard_for_name(name) / name

    def info(self) -> Dict[str, object]:
        out = super().info()
        out["sharded"] = True
        out["shards"] = {shard: out[shard] for shard in self.SHARD_NAMES}
        return out


# -- global engine configuration (set by the CLI) -----------------------------

#: Engine-wide defaults. ``task_timeout_s=None`` disables timeouts;
#: ``retries`` is the number of *re*-attempts after a failed first try.
_DEFAULT_CONFIG: Dict[str, object] = {
    "workers": 1,
    "cache": None,
    "use_cache": True,
    "task_timeout_s": None,
    "retries": 2,
    "retry_backoff_s": 0.05,
}
_CONFIG: Dict[str, object] = dict(_DEFAULT_CONFIG)


def configure(
    workers: Optional[int] = None,
    cache_dir: Optional[Union[str, os.PathLike]] = None,
    use_cache: Optional[bool] = None,
    task_timeout_s: Optional[float] = None,
    retries: Optional[int] = None,
    retry_backoff_s: Optional[float] = None,
    cache: Optional[ResultCache] = None,
) -> None:
    """Set process-wide engine defaults (the CLI flags land here).

    The only place ``task_timeout_s``, ``retries`` and
    ``retry_backoff_s`` are set: every run reads them from here.
    ``task_timeout_s=0`` disables per-task timeouts (the default);
    positive values bound how long a pooled task may run before the
    runner abandons the pool and degrades to serial execution.

    ``cache`` installs an already-constructed store (e.g. a
    :class:`ShardedResultCache` with a hot tier) as the default;
    mutually exclusive with ``cache_dir``. ``use_cache=False`` turns
    every cache read and write off.

    Every argument is checked, and a ``cache_dir`` store opened, before
    any setting changes, so a call that raises leaves the configuration
    as it was.
    """
    updates: Dict[str, object] = {}
    if workers is not None:
        updates["workers"] = check_int_in_range(workers, "workers", 1)
    if task_timeout_s is not None:
        timeout_s = check_non_negative(task_timeout_s, "task_timeout_s")
        updates["task_timeout_s"] = timeout_s or None
    if retries is not None:
        updates["retries"] = check_int_in_range(retries, "retries", 0)
    if retry_backoff_s is not None:
        updates["retry_backoff_s"] = check_non_negative(
            retry_backoff_s, "retry_backoff_s"
        )
    if use_cache is not None:
        updates["use_cache"] = bool(use_cache)
    if cache is not None and cache_dir is not None:
        raise ConfigurationError(
            "pass either cache or cache_dir to configure(), not both"
        )
    if cache is not None:
        if not isinstance(cache, ResultCache):
            raise ConfigurationError(
                f"cache must be a ResultCache, got {type(cache).__name__}"
            )
        updates["cache"] = cache
    elif cache_dir is not None:
        updates["cache"] = ResultCache(cache_dir)
    _CONFIG.update(updates)


def configured_workers() -> int:
    """The current default worker count."""
    return int(_CONFIG["workers"])  # type: ignore[arg-type]


def default_cache() -> Optional[ResultCache]:
    """The configured on-disk cache, if any."""
    cache = _CONFIG["cache"]
    return cache if isinstance(cache, ResultCache) else None


def reset() -> None:
    """Restore engine defaults and drop in-process memoisation (the
    trace memo and the executive's exact-reference memo; on-disk
    entries are untouched)."""
    _CONFIG.update(_DEFAULT_CONFIG)
    TRACE_MEMO.clear()
    clear_quality_memo()


# -- execution ----------------------------------------------------------------


_CANCEL = threading.local()


@contextmanager
def cancel_scope(event: "threading.Event") -> Iterator[None]:
    """Make grid runs on this thread cancellable via ``event``.

    While the scope is active, the robust core checks the event
    between pool waves and between serial tasks; a set event raises
    :class:`~repro.errors.JobCancelledError` out of the run (the
    enclosing run's report is still recorded). Scopes nest; the
    innermost event wins. Thread-local, so one service job's
    cancellation never touches a neighbour's run.
    """
    previous = getattr(_CANCEL, "event", None)
    _CANCEL.event = event
    try:
        yield
    finally:
        _CANCEL.event = previous


def _check_cancelled() -> None:
    event = getattr(_CANCEL, "event", None)
    if event is not None and event.is_set():
        raise JobCancelledError("grid run cancelled")


@dataclass(frozen=True)
class _Robustness:
    """Resolved per-run robustness settings (the run's own ``workers``
    or the configured one, and the configured rest)."""

    workers: int
    timeout_s: Optional[float]
    retries: int
    backoff_s: float


def _resolve_robustness(workers: Optional[int]) -> _Robustness:
    if workers is None:
        workers = configured_workers()
    return _Robustness(
        workers=check_int_in_range(workers, "workers", 1),
        timeout_s=_CONFIG["task_timeout_s"],  # type: ignore[arg-type]
        retries=int(_CONFIG["retries"]),  # type: ignore[arg-type]
        backoff_s=float(_CONFIG["retry_backoff_s"]),  # type: ignore[arg-type]
    )


def _new_report(
    name: str, engine: str, settings: _Robustness, n_tasks: int
) -> telemetry.RunReport:
    return telemetry.RunReport(
        kind=name,
        context=telemetry.current_context(),
        engine=engine,
        workers=settings.workers,
        n_tasks=n_tasks,
        started_at=telemetry.now(),
    )


def _timed_run(
    kind: TaskKind,
    run: Callable[..., object],
    engine: str,
    spec: Optional[faults.FaultSpec],
    obs_level: Optional[str],
) -> Tuple[object, float, Optional[Dict[str, object]]]:
    """The pool entry: fault application + worker-measured wall time.

    ``run`` is a picklable ``(engine=, tracer=)`` callable — a task's
    bound ``run``, or ``run_on`` bound to an explicit trace — and
    ``kind.corrupt`` breaks its result for an injected ``corrupt``
    fault. Worker processes cannot share the parent's capture state,
    so the engine resolves the observability level once
    (``obs_capture.capture_level()``) and ships it here; the tracer
    payload travels back pickled alongside the result.
    """
    start = time.perf_counter()
    faults.apply_pre_fault(spec)
    tracer = Tracer(obs_level) if obs_level else None
    result = run(engine=engine, tracer=tracer)
    if spec is not None and spec.kind == "corrupt":
        result = kind.corrupt(result)
    payload = tracer.to_payload() if tracer is not None else None
    return result, time.perf_counter() - start, payload


def _run_robust(
    pending: Sequence[int],
    worker_fn: Callable[..., Tuple[object, float, Optional[Dict[str, object]]]],
    args_for: Callable[[int, Optional[faults.FaultSpec]], Tuple],
    label_for: Callable[[int], str],
    validate: Callable[[object], Optional[str]],
    scope: str,
    settings: _Robustness,
    engine: str,
    report: telemetry.RunReport,
) -> Dict[int, object]:
    """Execute ``pending`` task indices with retries and degradation.

    The one robust core behind every grid runner. Pool mode fans tasks
    out over a :class:`ProcessPoolExecutor` wave by wave; a failed
    attempt (worker exception, payload failing ``validate``, or — with
    a timeout configured — a task overrunning its deadline) is retried
    up to ``settings.retries`` times with exponential backoff. A hung
    or broken pool is abandoned (``pool_failures``) and every
    unfinished task **degrades to in-process serial execution**, where
    retries continue without preemption. Injected faults
    (:mod:`repro.analysis.faults`) are resolved per ``(index,
    attempt)`` in the parent, so any execution mode injects — and
    therefore recovers — identically.

    Raises :class:`EngineExecutionError` once any task exhausts its
    retry budget; per-task telemetry is merged into ``report`` either
    way.
    """
    plan = faults.active()
    attempts: Dict[int, int] = {index: 0 for index in pending}
    stats: Dict[int, telemetry.TaskTelemetry] = {
        index: telemetry.TaskTelemetry(
            index=index, label=label_for(index), engine=engine
        )
        for index in pending
    }
    results: Dict[int, object] = {}
    payloads: Dict[int, Optional[Dict[str, object]]] = {}
    failures: Dict[int, str] = {}
    degraded = False

    def spec_for(index: int) -> Optional[faults.FaultSpec]:
        if plan is None:
            return None
        return plan.fault_for(scope, index, attempts[index])

    def note_failure(index: int, counter: str, reason: str) -> bool:
        """Record one failed attempt; ``True`` if the task may retry."""
        stat = stats[index]
        setattr(stat, counter, getattr(stat, counter) + 1)
        attempts[index] += 1
        if attempts[index] > settings.retries:
            failures[index] = reason
            stat.status = "failed"
            return False
        return True

    remaining = list(pending)
    use_pool = settings.workers > 1 and len(remaining) > 1

    while remaining and use_pool:
        _check_cancelled()
        wave, remaining = remaining, []
        max_workers = min(settings.workers, len(wave))
        pool_broken = False
        pool = ProcessPoolExecutor(max_workers=max_workers)
        try:
            future_index = {
                pool.submit(worker_fn, *args_for(index, spec_for(index))): index
                for index in wave
            }
            deadline = None
            if settings.timeout_s is not None:
                # The whole wave shares one deadline sized to its
                # worst-case serial depth, so a queued-behind task is
                # never charged for its predecessors' run time.
                rounds = math.ceil(len(wave) / max_workers)
                deadline = time.monotonic() + settings.timeout_s * rounds + 1.0
            not_done = set(future_index)
            while not_done and not pool_broken:
                timeout = (
                    None
                    if deadline is None
                    else max(0.0, deadline - time.monotonic())
                )
                done, not_done = wait(
                    not_done, timeout=timeout, return_when=FIRST_COMPLETED
                )
                if not done:
                    # Deadline passed with tasks still running: count a
                    # timeout against each and abandon the pool (the
                    # hung workers cannot be preempted, only orphaned).
                    for future in not_done:
                        index = future_index[future]
                        if note_failure(index, "timeouts", "task timed out"):
                            remaining.append(index)
                    not_done = set()
                    pool_broken = True
                    break
                for future in done:
                    index = future_index[future]
                    try:
                        result, wall_s, obs_payload = future.result()
                    except BrokenExecutor:
                        # A worker process died; the pool is unusable.
                        # Not charged as a task attempt — innocent
                        # siblings see the same exception.
                        pool_broken = True
                        remaining.append(index)
                    except Exception as exc:
                        reason = f"worker raised {type(exc).__name__}: {exc}"
                        if note_failure(index, "crashes", reason):
                            remaining.append(index)
                    else:
                        error = validate(result)
                        if error is None:
                            results[index] = result
                            payloads[index] = obs_payload
                            stats[index].wall_s = wall_s
                            stats[index].executed_in = "pool"
                        elif note_failure(
                            index, "corrupt_payloads", f"corrupt payload: {error}"
                        ):
                            remaining.append(index)
            for future in not_done:
                remaining.append(future_index[future])
        except BrokenExecutor:
            pool_broken = True
            remaining = [
                index
                for index in wave
                if index not in results and index not in failures
            ]
        finally:
            if pool_broken:
                # concurrent.futures joins every worker at interpreter
                # exit, so a hung orphan would hold the process open.
                # Kill only this pool's workers (a service runs other
                # jobs' pools beside it); the task each was running is
                # re-run below, and workers write nothing to the cache.
                for process in list(pool._processes.values()):
                    process.terminate()
            pool.shutdown(wait=not pool_broken, cancel_futures=True)
        if pool_broken:
            report.pool_failures += 1
            degraded = True
            use_pool = False
        if remaining and settings.backoff_s:
            _cancellable_sleep(settings.backoff_s)

    for index in sorted(set(remaining)):
        if index in failures:
            continue
        while True:
            _check_cancelled()
            spec = spec_for(index)
            try:
                result, wall_s, obs_payload = worker_fn(*args_for(index, spec))
            except Exception as exc:
                reason = f"worker raised {type(exc).__name__}: {exc}"
                if note_failure(index, "crashes", reason):
                    _backoff_sleep(settings, attempts[index])
                    continue
                break
            error = validate(result)
            if error is not None:
                if note_failure(
                    index, "corrupt_payloads", f"corrupt payload: {error}"
                ):
                    _backoff_sleep(settings, attempts[index])
                    continue
                break
            results[index] = result
            payloads[index] = obs_payload
            stats[index].wall_s = wall_s
            stats[index].executed_in = "degraded" if degraded else "serial"
            break

    report.degraded = report.degraded or degraded
    merged_metrics: Optional[MetricsRegistry] = None
    for index in sorted(stats):
        stat = stats[index]
        if index in results:
            stat.status = "computed"
            stat.retries = attempts[index]
            payload = payloads.get(index)
            if payload:
                # Fold the worker tracer's payload: per-task metrics
                # onto the telemetry row, events + metrics into the
                # run-scoped capture, and the merged registry onto the
                # report (sorted index order keeps the fold exact and
                # deterministic regardless of completion order).
                stat.metrics = dict(payload.get("metrics") or {})
                obs_capture.collect(label_for(index), payload)
                if stat.metrics:
                    if merged_metrics is None:
                        merged_metrics = MetricsRegistry.from_dict(
                            report.device_metrics
                        )
                    merged_metrics.merge_dict(stat.metrics)
        stat.attempts = attempts[index] + (1 if index in results else 0)
        report.merge_task(stat)
    if merged_metrics is not None and not merged_metrics.is_empty():
        report.device_metrics = merged_metrics.to_dict()
    if failures:
        detail = "; ".join(
            f"task {index} ({stats[index].label}): {reason}"
            for index, reason in sorted(failures.items())
        )
        raise EngineExecutionError(
            f"{len(failures)} task(s) failed after "
            f"{settings.retries} retr{'y' if settings.retries == 1 else 'ies'}: "
            f"{detail}"
        )
    return results


def _backoff_sleep(settings: _Robustness, attempt: int) -> None:
    if settings.backoff_s:
        _cancellable_sleep(settings.backoff_s * (2 ** max(0, attempt - 1)))


def _cancellable_sleep(delay_s: float) -> None:
    """Back off without outliving a cancellation.

    Inside a :func:`cancel_scope` the sleep waits on the scope's event
    so a cancelled (or draining) service job aborts its retry backoff
    immediately — that is what lets ``CampaignQueue.close()`` join its
    workers instead of waiting out exponential backoffs — and outside
    any scope it degrades to a plain sleep.
    """
    event = getattr(_CANCEL, "event", None)
    if event is None:
        time.sleep(delay_s)
        return
    if event.wait(delay_s):
        raise JobCancelledError("grid run cancelled")


def _batch_enabled(engine: str) -> bool:
    """Whether the batched replay tier may run for this grid call.

    Decided only from what the engine observes, with no switch to
    override it: ``engine="reference"`` requests the per-tick loop, an
    active fault plan or observability capture changes per-task
    behaviour in ways the batch kernels do not replicate, and a host
    without the accelerator has no kernels to run.
    """
    if engine != "auto":
        return False
    if faults.active() is not None:
        return False
    if obs_capture.capture_level() is not None:
        return False
    from .. import _accel

    return _accel.available()


def _merge_batch_outcomes(
    pending: Sequence[int],
    outcomes: Sequence,
    keys: Sequence[str],
    engine: str,
    report: telemetry.RunReport,
) -> Tuple[Dict[int, object], List[int]]:
    """Split batch lane outcomes into computed results and leftovers.

    Refused lanes (and any lane the kernel flagged) drop through to
    the per-task tiers untouched — every pending index comes back
    exactly once, either in the computed dict or the remainder list.
    """
    computed: Dict[int, object] = {}
    remaining: List[int] = []
    for index, outcome in zip(pending, outcomes):
        if outcome.result is None:
            remaining.append(index)
            continue
        computed[index] = outcome.result
        report.merge_task(
            telemetry.TaskTelemetry(
                index=index,
                label=keys[index][:12],
                status="computed",
                engine=engine,
                wall_s=outcome.wall_s,
                executed_in="batch",
            )
        )
    return computed, remaining


# -- chunk-sharded batch dispatch ---------------------------------------------
#
# The tier below splits the pending lanes into dedup-aware chunks under
# two budgets (``batchsim.CHUNK_MAX_LANES`` lanes and
# ``batchsim.CHUNK_MAX_TICKS`` slot ticks, read at call time) and hands
# them to the same robust core the per-task tiers use (retries,
# timeouts, pool degradation, telemetry). That core runs them in
# process when there is one chunk or ``workers == 1`` and fans them out
# over the process pool otherwise. A grid split for the pool is cut
# into at least ``2 * workers`` tick-balanced chunks where its dedup
# groups allow, so no worker idles behind one oversized chunk. Every lane the tier
# computes reports ``executed_in="batch"``, however it was chunked.
# A chunk replays one trace slot at a time (:func:`_by_slot`), so it
# holds one slot's trace and plan beside its results however many
# ticks it spans: the budgets set how many chunks a grid makes and how
# they spread over the pool, not plan memory. A pooled chunk's outcomes
# travel back pickled, and each ``SimulationResult`` (an executive
# result's ``sim`` too) pickles its bit and lane schedules as runs, so
# a 337-lane fleet chunk sends about 0.17 MB instead of 13.6 MB.
# Results and cache entries are byte-identical across any chunking — a
# lane reads only its own slot, and per-lane setup depends on nothing
# else (``tests/test_batch_chunks.py``). Every task that reaches the
# tier (``FixedBitTask``, ``ExecutiveTask``, the fleet's device tasks)
# defines ``trace_ticks()`` and ``trace_signature()`` for the planner.


def _fixed_lane_spec(task, policy_for):
    """Build the batch lane spec for one fixed-bit-style task.

    Duck-typed over ``FixedBitTask`` and the fleet device tasks: any
    task exposing ``bits``/``simd_width``/``policy``/``kernel``/
    ``build_trace`` rides the fixed batch tier; an optional
    ``system_config()`` carries per-device capacitor heterogeneity.
    ``policy_for`` maps a policy name to its retention policy object.
    """
    from ..system import batchsim

    kwargs = {}
    if task.kernel is not None:
        kwargs["mix"] = kernel_mix(task.kernel)
    config_fn = getattr(task, "system_config", None)
    if config_fn is not None:
        config = config_fn()
        if config is not None:
            kwargs["config"] = config
    return batchsim.FixedLaneSpec(
        trace=task.build_trace(),
        bits=task.bits,
        simd_width=task.simd_width,
        policy=None if task.policy == "precise" else policy_for(task.policy),
        **kwargs,
    )


def _run_chunk_worker(kind: TaskKind, chunk_tasks: Sequence):
    """Robust-core entry: replay one batch chunk of ``kind``; never raises.

    Any failure becomes per-lane refusals, so a poisoned lane costs a
    per-task fallback — not the chunk's retry budget.
    """
    from ..system.batchsim import LaneOutcome

    start = time.perf_counter()
    try:
        outcomes = kind.batch(chunk_tasks)
    except Exception as exc:  # pragma: no cover - defensive
        reason = f"chunk setup raised {type(exc).__name__}: {exc}"
        outcomes = [LaneOutcome(refused=reason) for _ in chunk_tasks]
    return outcomes, time.perf_counter() - start, None


def _chunk_payload_error(payload) -> Optional[str]:
    """Validate a chunk worker's payload (a list of lane outcomes)."""
    from ..system.batchsim import LaneOutcome

    if not isinstance(payload, list):
        return f"chunk payload is {type(payload).__name__}, not a list"
    for item in payload:
        if not isinstance(item, LaneOutcome):
            return (
                "chunk payload contains a "
                f"{type(item).__name__}, not a LaneOutcome"
            )
    return None


def _dispatch_chunks(
    chunk_tasks: Sequence[Tuple],
    kind: TaskKind,
    engine: str,
    report: telemetry.RunReport,
    settings: _Robustness,
) -> List[Optional[List]]:
    """Run chunk workers; one outcome list (or ``None``) per chunk.

    Chunks go through :func:`_run_robust` under the ``<kind>-chunk``
    scope, which runs them in process for one chunk or
    ``workers == 1`` and over the process pool otherwise, with its
    retry/timeout/degradation machinery. Chunk-level telemetry goes to
    a private sub-report (lanes get their own per-lane rows from
    :func:`_merge_batch_outcomes`); pool failures and degradation fold
    into the real ``report``. If a chunk exhausts its retry budget,
    every chunk resolves to ``None`` and all lanes fall back to the
    per-task tiers.
    """
    indices = list(range(len(chunk_tasks)))
    scope = f"{kind.name}-chunk"
    sub = _new_report(scope, engine, settings, len(chunk_tasks))
    try:
        results = _run_robust(
            indices,
            worker_fn=_run_chunk_worker,
            args_for=lambda ci, spec: (kind, chunk_tasks[ci]),
            label_for=lambda ci: f"{scope}-{ci}",
            validate=_chunk_payload_error,
            scope=scope,
            settings=settings,
            engine=engine,
            report=sub,
        )
    except EngineExecutionError:
        # Rare (workers never raise): charge nothing, let every lane
        # of the failed dispatch fall back to the per-task tiers.
        results = {}
    report.pool_failures += sub.pool_failures
    report.degraded = report.degraded or sub.degraded
    return [results.get(ci) for ci in indices]


def _run_batch_tier(
    tasks: Sequence,
    pending: Sequence[int],
    keys: Sequence[str],
    kind: TaskKind,
    engine: str,
    report: telemetry.RunReport,
    settings: _Robustness,
) -> Tuple[Dict[int, object], List[int]]:
    """Replay the batchable slice of a grid through ``kind.batch``,
    chunk-sharded; returns (computed results, indices left over)."""
    from ..system import batchsim

    lengths = [tasks[i].trace_ticks() for i in pending]
    sigs = [tasks[i].trace_signature() for i in pending]
    chunks = batchsim.chunk_lane_indices(
        lengths, sigs, batchsim.CHUNK_MAX_LANES, batchsim.CHUNK_MAX_TICKS,
        workers=settings.workers,
    )
    chunk_tasks = [tuple(tasks[pending[pos]] for pos in chunk) for chunk in chunks]
    per_chunk = _dispatch_chunks(chunk_tasks, kind, engine, report, settings)
    lane_outcomes = [
        batchsim.LaneOutcome(refused="chunk dispatch failed")
    ] * len(pending)
    for chunk, outcomes in zip(chunks, per_chunk):
        if outcomes is None:
            continue
        for pos, outcome in zip(chunk, outcomes):
            lane_outcomes[pos] = outcome
    return _merge_batch_outcomes(pending, lane_outcomes, keys, engine, report)


# -- the task pipeline ----------------------------------------------------------


def run_tasks(
    tasks: Iterable,
    kind: TaskKind,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    engine: str = "auto",
    entries: bool = False,
    keys: Optional[Sequence[str]] = None,
) -> Tuple:
    """Run every task of one ``kind``; results come back in task order.

    The one pipeline behind every campaign kind. Each task (anything
    with ``cache_key()`` and ``run(engine=, tracer=)``) is served, in
    order of preference, by:

    1. the cache — ``cache=None`` uses the :func:`configure`\\ d
       default, and ``use_cache=False`` disables caching altogether;
    2. the batched replay tier, when ``kind`` has one and
       :func:`_batch_enabled` allows it: lanes replay chunk-sharded and
       bit-identical by contract, and refused lanes fall through;
    3. the robust per-task core (:func:`_run_robust`): serial
       in-process at ``workers=1`` (``None`` uses the configured
       default), a process pool otherwise; failed or corrupted
       attempts retry, and pooled tasks overrunning the task timeout
       degrade the run to in-process serial execution, both as
       :func:`configure` sets them.

    Every computed result is written back to the cache, and one
    :class:`~repro.analysis.telemetry.RunReport` of kind ``kind.name``
    is recorded per call. Tasks are deterministic and retried tasks
    re-run identically, so any worker count, tier or recovery produces
    the identical results. Results come back exactly as they were
    computed or decoded: each owns its arrays, so none is shared with
    another result or a later call.

    ``entries=True`` returns ``(entry name, entry bytes)`` per task
    instead of its value, through the same tiers, retries, write-back
    and report: a cache hit is ``cache.get(..., entry=True)``, so a
    hot-tier hit is never decoded, and a computed result is the bytes
    ``put`` wrote (``kind.encode`` of it with caching off). The name
    is ``kind.entry_name`` of the key already hashed for the probe.

    ``keys`` are the tasks' cache keys, in task order, from a caller
    that has hashed them already (:func:`repro.fleet.run_fleet` hands
    them back); by default each task's ``cache_key()`` is hashed here.
    """
    tasks = tuple(tasks)
    if keys is not None and len(keys) != len(tasks):
        raise ValueError(f"{len(keys)} keys for {len(tasks)} tasks")
    settings = _resolve_robustness(workers)
    use_cache = bool(_CONFIG["use_cache"])
    if cache is None and use_cache:
        cache = default_cache()
    elif not use_cache:
        cache = None

    report = _new_report(kind.name, engine, settings, len(tasks))
    start = time.perf_counter()
    misses_before = cache.misses if cache is not None else 0
    quarantines_before = cache.quarantines if cache is not None else 0

    if keys is None:
        keys = [task.cache_key() for task in tasks]
    results: Dict[int, object] = {}
    pending: List[int] = []
    for index, key in enumerate(keys):
        hit = cache.get(key, kind, entry=entries) if cache is not None else None
        if hit is not None:
            results[index] = hit
            report.merge_task(
                telemetry.TaskTelemetry(
                    index=index, label=key[:12], status="cache-hit",
                    engine=engine,
                )
            )
        else:
            pending.append(index)
    if cache is not None:
        report.cache_misses = cache.misses - misses_before
        report.quarantines = cache.quarantines - quarantines_before

    try:
        if pending:
            remaining: List[int] = list(pending)
            if kind.batch is not None and _batch_enabled(engine):
                batched, remaining = _run_batch_tier(
                    tasks, pending, keys, kind, engine, report, settings
                )
                results.update(batched)
            if remaining:
                obs_level = obs_capture.capture_level()
                computed = _run_robust(
                    remaining,
                    worker_fn=_timed_run,
                    args_for=lambda index, spec: (
                        kind, tasks[index].run, engine, spec, obs_level
                    ),
                    label_for=lambda index: keys[index][:12],
                    validate=kind.validate,
                    scope=kind.name,
                    settings=settings,
                    engine=engine,
                    report=report,
                )
                results.update(computed)
            if cache is not None:
                for index in pending:
                    data = cache.put(keys[index], results[index], kind)
                    if entries:
                        results[index] = data
            elif entries:
                for index in pending:
                    results[index] = kind.encode(results[index])
    finally:
        report.wall_s = time.perf_counter() - start
        telemetry.record(report)

    if entries:
        return tuple(
            (kind.entry_name(key), results[index])
            for index, key in enumerate(keys)
        )
    return tuple(results[index] for index in range(len(tasks)))


def _run_on_trace(
    trace: PowerTrace,
    tasks: Sequence,
    kind: TaskKind,
    workers: Optional[int],
    engine: str,
) -> List:
    """Run ``tasks`` (each with ``run_on(trace, engine=, tracer=)``)
    against one explicit trace.

    Such tasks have no profile/seed identity to cache by, so there is
    no cache or batch tier — only the robust core, reported and
    fault-scoped as ``"trace"`` with ``trace-task-<i>`` labels.
    ``kind`` supplies the payload validator and the fault corrupter.
    """
    tasks = list(tasks)
    settings = _resolve_robustness(workers)
    obs_level = obs_capture.capture_level()
    report = _new_report("trace", engine, settings, len(tasks))
    start = time.perf_counter()
    try:
        results = _run_robust(
            range(len(tasks)),
            worker_fn=_timed_run,
            args_for=lambda index, spec: (
                kind,
                functools.partial(tasks[index].run_on, trace),
                engine,
                spec,
                obs_level,
            ),
            label_for=lambda index: f"trace-task-{index}",
            validate=kind.validate,
            scope="trace",
            settings=settings,
            engine=engine,
            report=report,
        )
    finally:
        report.wall_s = time.perf_counter() - start
        telemetry.record(report)
    return [results[index] for index in range(len(tasks))]


def run_grid(
    spec: Union[GridSpec, Iterable[FixedBitTask]],
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    engine: str = "auto",
    keys: Optional[Sequence[str]] = None,
) -> GridResult:
    """Run every task of ``spec``; results assembled in task order.

    :func:`run_tasks` with the :data:`FIXED` kind (fleet device tasks
    ride it too): cache, batch tier (:mod:`repro.system.batchsim`),
    then the robust per-task core. Tasks are deterministic (profiles
    are seeded, re-rolls derive per-task seeds), so any worker count
    produces the identical :class:`GridResult`. ``keys`` is passed on
    to :func:`run_tasks`.
    """
    tasks = spec.tasks() if isinstance(spec, GridSpec) else tuple(spec)
    results = run_tasks(tasks, FIXED, workers, cache, engine, keys=keys)
    return GridResult(tasks=tasks, results=results)


# -- explicit-trace helpers (sweeps) ------------------------------------------


@dataclass(frozen=True)
class TraceTask:
    """A fixed-bit run on an explicit (caller-supplied) trace."""

    bits: int
    policy: str = "precise"
    kernel: Optional[str] = None
    simd_width: int = 1

    def run_on(
        self, trace: PowerTrace, engine: str = "auto", tracer=None
    ) -> SimulationResult:
        """Execute against ``trace`` (no caching at this level)."""
        policy = None if self.policy == "precise" else policy_by_name(self.policy)
        mix = kernel_mix(self.kernel) if self.kernel is not None else None
        kwargs = {} if mix is None else {"mix": mix}
        return simulate_fixed_bits(
            trace, self.bits, simd_width=self.simd_width, policy=policy,
            engine=engine, tracer=tracer, **kwargs,
        )


def run_on_trace(
    trace: PowerTrace,
    tasks: Sequence[TraceTask],
    workers: Optional[int] = None,
    engine: str = "auto",
) -> List[SimulationResult]:
    """Run ``tasks`` against one explicit trace, optionally in parallel.

    Used by the QoS tuning loop, whose traces are caller-supplied
    rather than drawn from the standard profiles (so there is no
    profile/seed identity to cache by). Shares the grid runners'
    robust core: retries, timeouts, pool degradation and telemetry.
    """
    return _run_on_trace(trace, tasks, FIXED, workers, engine)


# -- executive tasks and grids -------------------------------------------------


_RECOVER_PLACEMENTS = ("inner", "frame")


class _ExecutiveConfigMixin:
    """Program/frame construction shared by the two executive tasks.

    Both value objects fully describe an :class:`IncidentalExecutive`
    configuration; the mixin materialises its annotated program and
    frame stream deterministically, so a cached result's quality can be
    replayed without the original executive instance.
    """

    def _validate_executive_fields(self) -> None:
        if self.policy not in STANDARD_POLICY_NAMES:
            raise ConfigurationError(
                f"policy must be one of {tuple(STANDARD_POLICY_NAMES)}, "
                f"got {self.policy!r}"
            )
        if self.recover_placement not in _RECOVER_PLACEMENTS:
            raise ConfigurationError(
                "recover_placement must be 'inner' or 'frame', "
                f"got {self.recover_placement!r}"
            )
        check_int_in_range(self.minbits, "minbits", 1, 8)
        check_int_in_range(self.maxbits, "maxbits", self.minbits, 8)
        check_int_in_range(self.current_minbits, "current_minbits", 1, 8)
        check_int_in_range(
            self.current_maxbits, "current_maxbits", self.current_minbits, 8
        )
        check_int_in_range(self.frame_period_ticks, "frame_period_ticks", 10)
        check_int_in_range(
            self.resume_buffer_capacity, "resume_buffer_capacity", 1, 4
        )

    def build_program(self) -> AnnotatedProgram:
        """The annotated program (kernel + pragmas) this task runs."""
        return AnnotatedProgram(
            create_kernel(self.kernel),
            [
                IncidentalPragma("src", self.minbits, self.maxbits, self.policy),
                RecoverFromPragma("frame"),
            ],
        )

    def _build_executive(
        self, trace: PowerTrace, n_frames: int, resilience=None, tracer=None
    ) -> IncidentalExecutive:
        return IncidentalExecutive(
            self.build_program(),
            trace,
            frame_sequence(n_frames, self.frame_size),
            frame_period_ticks=self.frame_period_ticks,
            enable_simd=self.enable_simd,
            enable_rollforward=self.enable_rollforward,
            current_minbits=self.current_minbits,
            current_maxbits=self.current_maxbits,
            retention_time_scale=self.retention_time_scale,
            resume_buffer_capacity=self.resume_buffer_capacity,
            precise_backup=self.precise_backup,
            recover_placement=self.recover_placement,
            seed=self.seed,
            resilience=resilience,
            tracer=tracer,
        )


@dataclass(frozen=True)
class ExecutiveTask(_ExecutiveConfigMixin):
    """One incidental-executive run, as a hashable value object.

    The cache key covers everything that can change the result: the
    program pragmas (kernel, ``minbits``/``maxbits``, retention
    policy), the recover placement, the resume-buffer capacity, the
    retention time scale, the frame stream, the ablation switches, the
    trace identity and the engine version.

    ``trace_seed=None`` runs on the calibrated standard profile
    ``profile_id``; an explicit ``trace_seed`` re-rolls the wristwatch
    harvester deterministically instead (the Figure 28 robustness
    protocol), in which case ``profile_id`` only labels the task.
    ``n_frames=None`` derives the frame count from the trace length and
    frame period exactly as the experiment runners always have.
    """

    kernel: str
    policy: str
    profile_id: int
    minbits: int
    maxbits: int = 8
    duration_s: float = 10.0
    current_minbits: int = 8
    current_maxbits: int = 8
    frame_size: int = 12
    frame_period_ticks: int = 15_000
    n_frames: Optional[int] = None
    enable_simd: bool = True
    enable_rollforward: bool = True
    precise_backup: bool = False
    recover_placement: str = "inner"
    resume_buffer_capacity: int = 4
    retention_time_scale: float = 8.0
    seed: int = 0
    trace_seed: Optional[int] = None

    def __post_init__(self) -> None:
        check_positive(self.duration_s, "duration_s")
        if self.n_frames is not None:
            check_int_in_range(self.n_frames, "n_frames", 1)
        self._validate_executive_fields()

    def cache_key(self) -> str:
        """Content hash of the full executive config and code version."""
        return _content_key(
            self, {"__engine__": ENGINE_CACHE_VERSION, "__task__": "executive"}
        )

    def build_trace(self) -> PowerTrace:
        """Materialise the task's power trace (deterministic)."""
        if self.trace_seed is None:
            return trace_for(self.profile_id, self.duration_s)
        return _seeded_trace(self.trace_seed, self.duration_s)

    def trace_ticks(self) -> int:
        """Tick count of :meth:`build_trace`, without synthesising it."""
        return _trace_ticks(self.duration_s, self.trace_seed)

    def trace_signature(self) -> Tuple:
        """Hashable (trace, config) identity for chunk dedup planning."""
        if self.trace_seed is None:
            return ("exec-profile", self.profile_id, self.duration_s)
        return ("exec-seed", self.trace_seed, self.duration_s)

    def resolved_n_frames(self) -> int:
        """The frame count actually simulated (derives when ``None``)."""
        if self.n_frames is not None:
            return self.n_frames
        trace = self.build_trace()
        return min(max(2, int(len(trace) / self.frame_period_ticks) + 1), 16)

    def build_frames(self) -> List[np.ndarray]:
        """The deterministic sensor-frame stream this task processes."""
        return frame_sequence(self.resolved_n_frames(), self.frame_size)

    def build_executive(self, resilience=None, tracer=None) -> IncidentalExecutive:
        """A fresh executive for this configuration (one run each).

        ``resilience`` optionally attaches a device fault model +
        hardened restore path (:mod:`repro.resilience`); resilience
        campaigns wrap this task in a
        :class:`repro.analysis.resilience.ResilienceTask`, whose cache
        key covers the fault configuration. ``tracer`` must be supplied
        here rather than at run time because the executive's
        :class:`~repro.nvp.backup.BackupEngine` binds it at
        construction.
        """
        return self._build_executive(
            self.build_trace(),
            self.resolved_n_frames(),
            resilience=resilience,
            tracer=tracer,
        )

    def run(self, engine: str = "auto", tracer=None) -> ExecutiveResult:
        """Execute the simulation (no caching at this level).

        Untraced ``"auto"`` runs replay as a one-lane C plan;
        an enabled ``tracer`` or a lane the kernel refuses takes the
        reference loop (see :meth:`IncidentalExecutive.run`).
        """
        return self.build_executive(tracer=tracer).run(engine=engine)


@dataclass(frozen=True)
class ExecutiveGridResult:
    """Results of one executive grid run, aligned with its task tuple."""

    tasks: Tuple[ExecutiveTask, ...]
    results: Tuple[ExecutiveResult, ...]

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[Tuple[ExecutiveTask, ExecutiveResult]]:
        return iter(zip(self.tasks, self.results))

    def result_for(self, task: ExecutiveTask) -> ExecutiveResult:
        """The result of ``task`` (raises ``KeyError`` if absent)."""
        try:
            return self.results[self.tasks.index(task)]
        except ValueError:
            raise KeyError(f"task not in grid: {task!r}") from None

    def equal(self, other: "ExecutiveGridResult") -> bool:
        """Field-for-field equality (arrays and frames compared exactly)."""
        return self.tasks == other.tasks and all(
            executive_results_equal(a, b)
            for a, b in zip(self.results, other.results)
        )


def run_executive_grid(
    tasks: Iterable[ExecutiveTask],
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    engine: str = "auto",
) -> ExecutiveGridResult:
    """Run every :class:`ExecutiveTask`; results come back in task order.

    :func:`run_tasks` with the :data:`EXECUTIVE` kind: the same
    cache (executive entries carry an ``exec-`` filename prefix),
    batched replay tier (via :mod:`repro.core.batchexec`; refused
    lanes fall back per task) and robust core as :func:`run_grid`.
    Tasks are deterministic, so any worker count produces the
    identical :class:`ExecutiveGridResult`.
    """
    tasks = tuple(tasks)
    results = run_tasks(tasks, EXECUTIVE, workers, cache, engine)
    return ExecutiveGridResult(tasks=tasks, results=results)


def executive_frame_quality(
    task: Union[ExecutiveTask, "ExecutiveTraceTask"],
    result: ExecutiveResult,
    min_coverage: float = 1.0,
    apply_retention_decay: bool = True,
):
    """Post-hoc frame quality for a (possibly cached) executive result.

    Rebuilds the task's kernel, frame stream and retention policy and
    replays the recorded bit schedules through
    :func:`repro.core.executive.replay_frame_quality`. Each frame is
    scored afresh; only its exact kernel reference is memoised per
    process.
    """
    program = task.build_program()
    policy = (
        None
        if (task.precise_backup or not apply_retention_decay)
        else program.retention_policy(time_scale=task.retention_time_scale)
    )
    return replay_frame_quality(
        program.kernel,
        task.build_frames(),
        result.frames,
        policy=policy,
        seed=task.seed,
        min_coverage=min_coverage,
    )


@dataclass(frozen=True)
class ExecutiveTraceTask(_ExecutiveConfigMixin):
    """An executive run on an explicit (caller-supplied) trace.

    The executive twin of :class:`TraceTask`, for ablation studies
    whose traces are built from bespoke harvester models rather than
    the standard profiles (so there is no profile/seed identity to
    cache by).
    """

    kernel: str
    policy: str
    minbits: int
    maxbits: int = 8
    current_minbits: int = 8
    current_maxbits: int = 8
    n_frames: int = 12
    frame_size: int = 16
    frame_period_ticks: int = 2_500
    enable_simd: bool = True
    enable_rollforward: bool = True
    precise_backup: bool = False
    recover_placement: str = "inner"
    resume_buffer_capacity: int = 4
    retention_time_scale: float = 8.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_int_in_range(self.n_frames, "n_frames", 1)
        self._validate_executive_fields()

    def build_frames(self) -> List[np.ndarray]:
        """The deterministic sensor-frame stream this task processes."""
        return frame_sequence(self.n_frames, self.frame_size)

    def run_on(
        self, trace: PowerTrace, engine: str = "auto", tracer=None
    ) -> ExecutiveResult:
        """Execute against ``trace`` (no caching at this level)."""
        executive = self._build_executive(trace, self.n_frames, tracer=tracer)
        return executive.run(engine=engine)


def run_executive_on_trace(
    trace: PowerTrace,
    tasks: Sequence[ExecutiveTraceTask],
    workers: Optional[int] = None,
    engine: str = "auto",
) -> List[ExecutiveResult]:
    """Run executive ``tasks`` against one explicit trace.

    The executive twin of :func:`run_on_trace`: serial in-process when
    ``workers`` resolves to 1, a process pool otherwise, with the
    shared robust core handling retries, timeouts and degradation.
    """
    return _run_on_trace(trace, tasks, EXECUTIVE, workers, engine)
