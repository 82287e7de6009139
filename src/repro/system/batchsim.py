"""Trace-parallel batched replay of fixed-bit system simulations.

This is the one fast path of the fixed-bit model. An experiment grid
replays N (trace, config) points; run one at a time, it would pay the
per-task dispatch (and, under the pooled tier, process spawn +
pickling) N times. This module stacks a whole grid into one **ragged
batch**, and a single task
(:func:`~repro.system.simulator.simulate_fixed_bits`) is a batch of one
lane:

* every distinct (trace, front-end config) pair becomes one *slot* —
  its converted/bypass income series, the sticky-zero outage mask and
  the precomputed outage/income skip schedules are built once, each
  as a 1-D array exactly as long as the slot's data
  (:class:`BatchTracePlan`), so the plan costs the sum of its slots'
  ticks and nothing for the spread of their lengths;
* every grid point becomes a *lane* referencing a slot plus its own
  scalar constants (thresholds, reserve, backup-cost table), and the
  replay loop runs in a compiled kernel (:mod:`repro._accel`) over the
  slot's arrays.

The batch path is required to be **bit-exact**: every lane's
:class:`SimulationResult` is identical field for field to what the
reference :class:`~repro.system.simulator.NVPSystemSimulator` would
produce. ``tests/test_batch_equivalence.py`` and
``tests/test_engine_equivalence.py`` enforce that contract
differentially; ``tests/test_batch_properties.py`` pins the ragged
representation itself against a per-task restatement of the
precomputation.

Lanes the batch path cannot honor byte-for-byte are *refused*, never
approximated: setup errors (e.g. a start level above the capacitor
capacity) and kernel status codes hand the lane back to the caller,
who re-runs it through the reference loop where the identical
:class:`~repro.errors.SimulationError` surfaces naturally.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import _accel
from .._validation import check_int_in_range
from ..energy.frontend import DualChannelFrontend
from ..energy.management import derive_thresholds
from ..energy.traces import TICK_S, PowerTrace
from ..errors import SimulationError
from ..nvm.retention import RetentionPolicy
from ..nvp.energy_model import CYCLES_PER_TICK
from ..nvp.isa import DEFAULT_MIX, InstructionMix
from ..nvp.processor import NonvolatileProcessor
from .config import SystemConfig
from .metrics import SimulationResult

__all__ = [
    "FixedLaneSpec",
    "LaneOutcome",
    "BatchTracePlan",
    "build_trace_plan",
    "chunk_lane_indices",
    "estimate_plan_bytes",
    "run_fixed_batch",
    "batch_available",
]


def batch_available() -> bool:
    """Whether the compiled batch kernels can run on this host."""
    return _accel.available()


# -- ragged trace plan --------------------------------------------------------


@dataclass(frozen=True)
class BatchTracePlan:
    """Ragged per-slot trace precomputation shared by a batch.

    One *slot* per distinct (trace, front-end config) pair; lanes map
    onto slots via :attr:`slot_of`. Every per-slot array is 1-D and
    exactly as long as its data: slot ``s`` owns ``lengths[s]`` ticks
    and its skip schedules hold only real tick indices. Nothing is
    padded, so a plan costs the sum of its slots' ticks, not the
    slot count times the longest one.
    """

    #: Per-slot tick counts (S,).
    lengths: np.ndarray
    #: Lane -> slot index (L,).
    slot_of: np.ndarray
    #: Storage-channel income per tick, one float64 array per slot.
    conv: Tuple[np.ndarray, ...]
    #: Bypass-channel income per slot, ``None`` for slots whose front
    #: end has no bypass channel.
    direct: Tuple[Optional[np.ndarray], ...]
    #: Sticky-zero outage mask per slot (uint8): from an empty
    #: capacitor, this tick provably ends back at exactly 0.0.
    sticky: Tuple[np.ndarray, ...]
    #: Sorted non-sticky tick indices per slot (int64).
    nonsticky: Tuple[np.ndarray, ...]
    #: Sorted positive-income tick indices per slot (int64).
    income: Tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return int(self.slot_of.shape[0])

    @property
    def n_slots(self) -> int:
        return int(self.lengths.shape[0])


def _slot_key(trace: PowerTrace, config: SystemConfig) -> Tuple[int, SystemConfig]:
    return (id(trace), config)


def build_trace_plan(
    entries: Sequence[Tuple[PowerTrace, SystemConfig]],
) -> BatchTracePlan:
    """Build the ragged batch plan for ``entries`` (one lane each).

    Precomputes, per distinct (trace, config) slot, the front-end
    conversion, the bypass series, the sticky-zero predicate and the
    sorted skip schedules, with the IEEE-754 operations the reference
    loop applies tick by tick.
    """
    slots: Dict[Tuple[int, SystemConfig], int] = {}
    conv: List[np.ndarray] = []
    direct: List[Optional[np.ndarray]] = []
    sticky: List[np.ndarray] = []
    nonsticky: List[np.ndarray] = []
    income: List[np.ndarray] = []
    slot_of = np.zeros(len(entries), dtype=np.int64)

    for lane, (trace, config) in enumerate(entries):
        key = _slot_key(trace, config)
        slot = slots.get(key)
        if slot is None:
            slot = len(conv)
            slots[key] = slot
            samples = trace.samples_uw
            frontend = config.build_frontend()
            converted = frontend.convert_trace(samples)
            bypass = None
            if isinstance(frontend, DualChannelFrontend):
                bypass = samples * frontend.bypass_efficiency
                bypass[samples < frontend.min_input_uw] = 0.0
            dt = TICK_S
            capacity = float(config.capacitor_uj)
            leak_frac = float(config.capacitor_leak_per_s)
            floor_e = float(config.capacitor_leak_floor_uw) * dt
            off_e = float(config.off_leakage_uw) * dt
            inc0 = np.minimum(converted * dt, capacity)
            loss0 = np.minimum(inc0, inc0 * leak_frac * dt + floor_e)
            is_sticky = (inc0 - loss0) <= off_e
            conv.append(np.ascontiguousarray(converted, dtype=np.float64))
            direct.append(
                None
                if bypass is None
                else np.ascontiguousarray(bypass, dtype=np.float64)
            )
            sticky.append(is_sticky.view(np.uint8))
            nonsticky.append(
                np.flatnonzero(~is_sticky).astype(np.int64, copy=False)
            )
            income.append(
                np.flatnonzero(converted > 0.0).astype(np.int64, copy=False)
            )
        slot_of[lane] = slot

    return BatchTracePlan(
        lengths=np.array([len(c) for c in conv], dtype=np.int64),
        slot_of=slot_of,
        conv=tuple(conv),
        direct=tuple(direct),
        sticky=tuple(sticky),
        nonsticky=tuple(nonsticky),
        income=tuple(income),
    )


# -- chunk planning -----------------------------------------------------------
#
# A plan stores each of its slots' ticks once, so a chunk's footprint
# is the sum of its slots' lengths. Chunking bounds that sum (and the
# lane count) per shard and, when a split grid goes to the process
# pool, cuts it finer so the pool's queue can even out the load.
# Because a lane reads nothing but its own slot, any chunking of a
# grid is bit-exact with the unchunked plan by construction (pinned by
# ``tests/test_batch_chunks.py``).

#: Worst-case plan bytes per slot tick: conv float64 + sticky uint8
#: + nonsticky int64 + income int64 + optional direct float64. The
#: skip schedules hold at most one entry per tick, so this bounds them.
_PLAN_BYTES_PER_TICK = 33


def estimate_plan_bytes(lengths: Sequence[int]) -> int:
    """Upper-bound the plan footprint for slots of ``lengths``.

    ``lengths`` holds one entry per *slot* (distinct (trace, config)
    pair). :func:`build_trace_plan` stores every slot's ticks once, so
    the bound is their sum at the worst-case per-tick width.
    """
    return sum(int(n) for n in lengths) * _PLAN_BYTES_PER_TICK


def _pack_units(
    units: Sequence[Tuple[int, int, List[int]]],
    max_lanes: Optional[int],
    max_ticks: Optional[int],
) -> List[List[int]]:
    """Fill chunks with ``units`` in order, opening a new chunk whenever
    the next unit would push the open one past either budget. A unit is
    never split, so a chunk may exceed ``max_ticks`` only by holding a
    single unit."""
    chunks: List[List[int]] = []
    cur: List[int] = []
    cur_ticks = 0
    for length, _, lanes in units:
        if cur and (
            (max_lanes is not None and len(cur) + len(lanes) > max_lanes)
            or (max_ticks is not None and cur_ticks + length > max_ticks)
        ):
            chunks.append(cur)
            cur, cur_ticks = [], 0
        cur.extend(lanes)
        cur_ticks += length
    if cur:
        chunks.append(cur)
    return chunks


def chunk_lane_indices(
    lengths: Sequence[int],
    keys: Optional[Sequence] = None,
    max_lanes: Optional[int] = None,
    max_bytes: Optional[int] = None,
    workers: int = 1,
) -> List[List[int]]:
    """Partition lanes into memory-bounded, dedup-aware chunks.

    Parameters
    ----------
    lengths:
        Per-lane trace tick counts (cheap to obtain without
        synthesising the trace — see ``synth_trace_ticks``).
    keys:
        Optional per-lane dedup keys: lanes with equal keys share one
        plan slot (same (trace, config) precompute) and are kept in
        the same chunk whenever the lane budget allows, so the shared
        slot is built once per chunk rather than once per lane.
        ``None`` treats every lane as its own slot.
    max_lanes:
        Lane-count budget per chunk (``--batch-chunk-lanes``). The only
        budget that splits a dedup group.
    max_bytes:
        Plan byte budget per chunk, compared against
        :func:`estimate_plan_bytes` of the chunk's slots. A chunk always
        admits at least one dedup group even when that group alone
        exceeds the budget (budgets bound memory, they cannot split a
        slot).
    workers:
        Size of the process pool the chunks will run on. When the
        budgets split the grid and ``workers > 1``, the groups are
        re-packed into chunks of at most ``ceil(total slot ticks /
        (2 * workers))`` ticks (and still within both budgets), so the
        pool's queue can balance the load. A grid the budgets leave
        whole stays one chunk.

    Returns a list of chunks — each a sorted list of original lane
    indices — covering every lane exactly once. The partition is a
    pure function of the arguments (deterministic): groups are packed
    longest-first, so the pool starts on the heaviest chunks.
    """
    n_lanes = len(lengths)
    if keys is not None and len(keys) != n_lanes:
        raise ValueError(
            f"keys has {len(keys)} entries for {n_lanes} lanes"
        )
    if max_lanes is not None:
        max_lanes = check_int_in_range(max_lanes, "max_lanes", 1, 1 << 40)
    if max_bytes is not None:
        max_bytes = check_int_in_range(max_bytes, "max_bytes", 1, 1 << 60)
    workers = check_int_in_range(workers, "workers", 1)
    if n_lanes == 0:
        return []
    if max_lanes is None and max_bytes is None:
        return [list(range(n_lanes))]

    # Group lanes by dedup key, preserving first-seen order for ties.
    group_of: Dict = {}
    groups: List[List[int]] = []
    for lane in range(n_lanes):
        key = keys[lane] if keys is not None else lane
        g = group_of.get(key)
        if g is None:
            group_of[key] = len(groups)
            groups.append([lane])
        else:
            groups[g].append(lane)

    # Split any group larger than the lane budget (its pieces still
    # dedup within their own chunk), then order units longest-first.
    units: List[Tuple[int, int, List[int]]] = []  # (length, order, lanes)
    for order, lanes in enumerate(groups):
        length = max(int(lengths[i]) for i in lanes)
        if max_lanes is not None and len(lanes) > max_lanes:
            for off in range(0, len(lanes), max_lanes):
                units.append((length, order, lanes[off: off + max_lanes]))
        else:
            units.append((length, order, lanes))
    units.sort(key=lambda u: (-u[0], u[1]))

    # An integer tick count t has t * 33 > max_bytes exactly when
    # t > max_bytes // 33, so the byte budget is a tick budget.
    max_ticks = None if max_bytes is None else max_bytes // _PLAN_BYTES_PER_TICK
    chunks = _pack_units(units, max_lanes, max_ticks)
    if len(chunks) > 1 and workers > 1:
        total = sum(length for length, _, _ in units)
        share = -(-total // (2 * workers))
        if max_ticks is not None:
            share = min(share, max_ticks)
        chunks = _pack_units(units, max_lanes, share)
    for chunk in chunks:
        chunk.sort()
    return chunks


# -- lane specs and outcomes --------------------------------------------------


@dataclass(frozen=True)
class FixedLaneSpec:
    """One fixed-bit grid point, mirroring ``simulate_fixed_bits``'s inputs."""

    trace: PowerTrace
    bits: int
    simd_width: int = 1
    policy: Optional[RetentionPolicy] = None
    mix: InstructionMix = DEFAULT_MIX
    config: Optional[SystemConfig] = None

    def resolved_config(self) -> SystemConfig:
        return self.config if self.config is not None else SystemConfig()


@dataclass(frozen=True)
class LaneOutcome:
    """Result of one batch lane: a result, or a refusal reason.

    ``refused`` lanes carry no result; the caller re-runs them through
    the reference loop (where errors raise with the reference message).
    """

    result: Optional[SimulationResult] = None
    refused: Optional[str] = None
    wall_s: float = 0.0


@dataclass
class _FixedLaneSetup:
    """Hoisted per-lane constants, evaluated as the reference does."""

    dp: np.ndarray
    ip: np.ndarray
    backup_cost: np.ndarray
    income_energy_uj: float


#: ``(backup_uj, restore_uj, run_power_uw, instructions_per_tick,
#: backup_cost)`` for one (bits, simd_width, policy, mix).
_ProcessorTerms = Tuple[float, float, float, float, np.ndarray]


def _processor_terms(spec: FixedLaneSpec) -> _ProcessorTerms:
    """The processor half of the lane setup, independent of the config.

    Everything here depends only on (bits, simd_width, policy, mix), so
    :func:`run_fixed_batch` memoises it across the lanes of a run: a
    fleet repeats a handful of device archetypes across thousands of
    distinct capacitors. ``run_power_uw`` is already weighted by the
    mix, as the thresholds and the kernel use it.
    """
    proc = NonvolatileProcessor(policy=spec.policy, mix=spec.mix)
    bits = check_int_in_range(spec.bits, "bits", 1, proc.energy_model.word_bits)
    simd_width = check_int_in_range(spec.simd_width, "simd_width", 1, 4)
    lanes = [bits] * simd_width
    backup_cost = np.zeros(bits + 1, dtype=np.float64)
    for b0 in range(1, bits + 1):
        backup_cost[b0] = proc.backup_energy_uj([b0] + lanes[1:])
    return (
        proc.backup_energy_uj(lanes),
        proc.restore_energy_uj(lanes),
        proc.run_power_uw(lanes) * proc.mix.mean_energy_weight,
        CYCLES_PER_TICK / proc.mix.mean_cycles,
        backup_cost,
    )


def _fixed_lane_constants(
    spec: FixedLaneSpec, terms: _ProcessorTerms
) -> Tuple[np.ndarray, np.ndarray]:
    """The trace-independent half of the lane setup: ``(dp, backup_cost)``.

    ``terms`` are the lane's :func:`_processor_terms`; the thresholds,
    the start level and its capacity check and ``dp`` come from the
    lane's own config every time.
    """
    backup_uj, restore_uj, run_power, instructions_per_tick, backup_cost = terms
    cfg = spec.resolved_config()
    thresholds = derive_thresholds(
        backup_energy_uj=backup_uj,
        restore_energy_uj=restore_uj,
        run_power_uw=run_power,
        min_run_ticks=cfg.min_run_ticks,
        backup_margin=cfg.backup_margin,
    )
    start_level = max(
        thresholds.start_energy_uj,
        cfg.start_fill_fraction * cfg.capacitor_uj,
    )
    if start_level > cfg.capacitor_uj:
        raise SimulationError(
            f"start level {start_level:.2f} uJ exceeds capacitor "
            f"capacity {cfg.capacitor_uj:.2f} uJ; this configuration "
            "can never start"
        )

    dt = TICK_S
    dp = np.array(
        [
            dt,
            float(cfg.capacitor_uj),
            float(cfg.capacitor_leak_per_s),
            float(cfg.capacitor_leak_floor_uw) * dt,
            float(cfg.off_leakage_uw) * dt,
            run_power * dt,
            backup_uj * (1.0 + cfg.backup_margin),
            restore_uj,
            start_level,
            instructions_per_tick,
            run_power * 1.0e-4,
        ],
        dtype=np.float64,
    )
    return dp, backup_cost


def _fixed_lane_setup(
    spec: FixedLaneSpec, slot: int, plan: BatchTracePlan, memo: Dict
) -> _FixedLaneSetup:
    """Per-lane setup mirroring the reference loop's set-up.

    Raises the same :class:`SimulationError` the reference would for an
    unstartable configuration; the caller converts that into a refusal
    so the reference loop re-raises it through the normal machinery.
    ``memo`` caches the processor terms within one call of
    :func:`run_fixed_batch`, keyed on (bits, simd_width, policy, mix);
    policy/mix are keyed by identity, with the references pinned in the
    memo value so no other object can take their ids while the memo
    lives.
    """
    key = (spec.bits, spec.simd_width, id(spec.policy), id(spec.mix))
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = (spec.policy, spec.mix, _processor_terms(spec))
    dp, backup_cost = _fixed_lane_constants(spec, hit[2])

    n = int(plan.lengths[slot])
    ip = np.array(
        [
            n,
            len(plan.nonsticky[slot]),
            len(plan.income[slot]),
            int(spec.bits),
            int(spec.simd_width),
            0 if plan.direct[slot] is None else 1,
            n,  # backup_ticks capacity: one backup needs >= 1 run tick
        ],
        dtype=np.int64,
    )
    return _FixedLaneSetup(
        dp=dp,
        ip=ip,
        backup_cost=backup_cost,
        income_energy_uj=spec.trace.total_energy_uj,
    )


def run_fixed_batch(
    specs: Sequence[FixedLaneSpec],
    plan: Optional[BatchTracePlan] = None,
) -> List[LaneOutcome]:
    """Replay every lane of ``specs`` through the batch kernel.

    Returns one :class:`LaneOutcome` per lane, in order. Lanes are
    never approximated: any setup error or kernel status refuses the
    lane instead. With the accelerator unavailable every lane refuses.
    """
    if not batch_available():
        return [LaneOutcome(refused="accelerator unavailable") for _ in specs]
    if plan is None:
        plan = build_trace_plan(
            [(spec.trace, spec.resolved_config()) for spec in specs]
        )
    outcomes: List[LaneOutcome] = []
    scratch_backups: Optional[np.ndarray] = None
    setup_memo: Dict = {}
    for lane, spec in enumerate(specs):
        start = time.perf_counter()
        slot = int(plan.slot_of[lane])
        n = int(plan.lengths[slot])
        try:
            setup = _fixed_lane_setup(spec, slot, plan, setup_memo)
        except SimulationError as exc:
            outcomes.append(
                LaneOutcome(
                    refused=f"setup raised: {exc}",
                    wall_s=time.perf_counter() - start,
                )
            )
            continue
        if scratch_backups is None or scratch_backups.shape[0] < n:
            scratch_backups = np.zeros(max(n, 1), dtype=np.int64)
        bit_schedule = np.zeros(n, dtype=np.int16)
        lane_schedule = np.zeros(n, dtype=np.int16)
        iout = np.zeros(4, dtype=np.int64)
        dout = np.zeros(3, dtype=np.float64)
        status = _accel.fixed_replay(
            plan.conv[slot],
            plan.direct[slot],
            plan.sticky[slot],
            plan.nonsticky[slot],
            plan.income[slot],
            setup.dp,
            setup.ip,
            setup.backup_cost,
            bit_schedule,
            lane_schedule,
            scratch_backups,
            iout,
            dout,
        )
        if status != 0:
            outcomes.append(
                LaneOutcome(
                    refused=f"kernel status {status}",
                    wall_s=time.perf_counter() - start,
                )
            )
            continue
        committed = int(iout[0])
        n_backups = int(iout[2])
        result = SimulationResult(
            total_ticks=n,
            forward_progress=committed,
            incidental_progress=committed * (spec.simd_width - 1),
            backup_count=n_backups,
            restore_count=int(iout[3]),
            on_ticks=int(iout[1]),
            income_energy_uj=setup.income_energy_uj,
            converted_energy_uj=float(plan.conv[slot].sum() * TICK_S),
            run_energy_uj=float(dout[0]),
            backup_energy_uj=float(dout[1]),
            restore_energy_uj=float(dout[2]),
            bit_schedule=bit_schedule,
            lane_schedule=lane_schedule,
            backup_ticks=tuple(int(b) for b in scratch_backups[:n_backups]),
        )
        outcomes.append(
            LaneOutcome(result=result, wall_s=time.perf_counter() - start)
        )
    return outcomes
