"""Trace-parallel batched replay of incidental-executive simulations.

The executive analog of :mod:`repro.system.batchsim`, and the one fast
path of the executive model: a grid of
:class:`~repro.core.executive.IncidentalExecutive` runs shares one
ragged :class:`~repro.system.batchsim.BatchTracePlan` (one exact-length
array set per trace slot) and each lane replays through a compiled
kernel (:mod:`repro._accel`) that ports the reference run loop *and*
the executive's frame bookkeeping (arrivals, current-frame selection,
the resume-point buffer, incidental lane adoption, exposures) into C.
A single :meth:`IncidentalExecutive.run` is a batch of one lane.

Lane costs come from a table: every lane tuple (widths 1-4,
bits 1-8 per lane; 4680 entries, width-major layout) gets its raw
``run_power_uw`` and pipeline state fraction precomputed once per
process, and per-task scalars (mix weight, blended retention scale,
backup margin, tick length) are folded in vectorised — in the
reference's operation order, so every rounding is preserved.

The contract is the same as everywhere in this repo: **bit-exact** or
**refused**. A refused lane (device resilience, priced guard bits, a
non-default energy model, an enabled tracer, more frame arrivals than
:data:`MAX_BATCH_FRAMES`, a setup error, or any nonzero kernel status)
is handed back for the reference loop to run — never silently
approximated. ``tests/test_batch_equivalence.py`` and
``tests/test_executive_equivalence.py`` arbitrate against the
reference loop.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

import numpy as np

from .. import _accel
from ..energy.management import derive_thresholds
from ..energy.traces import TICK_S
from ..errors import SimulationError
from ..nvp.energy_model import CYCLES_PER_TICK, EnergyModel
from ..nvp.pipeline import PipelineModel
from ..system.batchsim import BatchTracePlan, LaneOutcome, build_trace_plan
from ..system.metrics import SimulationResult

__all__ = [
    "MAX_BATCH_FRAMES",
    "executive_refusal",
    "run_executive_batch",
    "lane_tuple_index",
]

#: Hard bound on frame arrivals the batch kernel will track per lane;
#: a lane whose trace/period implies more is refused to the reference
#: loop (keeps the C-side bookkeeping arrays small and bounded).
MAX_BATCH_FRAMES = 1024

#: Width-major offsets of the lane-tuple table (widths 1-4, bits 1-8).
_TUP_OFF = (0, 8, 72, 584)
_TUP_SIZE = 8 + 64 + 512 + 4096  # 4680

_POWER_RAW: Optional[np.ndarray] = None
_FRACTION: Optional[np.ndarray] = None


def lane_tuple_index(lanes: Sequence[int]) -> int:
    """Table index of a lane tuple (widths 1-4, bits 1-8 per lane)."""
    width = len(lanes)
    idx = _TUP_OFF[width - 1]
    mul = 1
    for bits in lanes:
        idx += (bits - 1) * mul
        mul *= 8
    return idx


def _tuple_tables() -> tuple:
    """Global raw lane-cost tables for the default energy model.

    ``_POWER_RAW[i]`` is ``EnergyModel().run_power_uw(tuple_i)`` and
    ``_FRACTION[i]`` the pipeline state fraction of ``tuple_i`` — the
    exact doubles the reference memoises per run. Computed lazily once
    per process (~4700 model calls).
    """
    global _POWER_RAW, _FRACTION
    if _POWER_RAW is None:
        model = EnergyModel()
        pipeline = PipelineModel(word_bits=model.word_bits)
        power = np.zeros(_TUP_SIZE, dtype=np.float64)
        fraction = np.zeros(_TUP_SIZE, dtype=np.float64)
        for width in range(1, 5):
            offset = _TUP_OFF[width - 1]
            for i in range(8 ** width):
                lanes = tuple((i // (8 ** j)) % 8 + 1 for j in range(width))
                power[offset + i] = model.run_power_uw(lanes)
                fraction[offset + i] = pipeline.state_fraction(lanes)
        _POWER_RAW = power
        _FRACTION = fraction
    return _POWER_RAW, _FRACTION


def executive_refusal(executive) -> Optional[str]:
    """Why the batch kernel cannot replay this executive (or ``None``).

    Device resilience and tracing live only on the reference loop;
    the rest are the kernel's table preconditions. Refusal means "run
    the reference loop", not "error": it handles every refused lane
    with the reference semantics.
    """
    proc = executive.processor
    if proc.resilience is not None:
        return "device resilience configured"
    if executive.tracer.enabled:
        return "tracer active"
    if proc.backup_engine.guard_bits:
        return "priced guard bits configured"
    if proc.energy_model != EnergyModel():
        return "non-default energy model"
    n = len(executive.trace.samples_uw)
    max_frames = (n - 1) // executive.frame_period_ticks + 1 if n else 1
    if max_frames > MAX_BATCH_FRAMES:
        return (
            f"frame bound {max_frames} exceeds batch limit {MAX_BATCH_FRAMES}"
        )
    return None


def run_executive_batch(
    executives: Sequence,
    plan: Optional[BatchTracePlan] = None,
) -> List[LaneOutcome]:
    """Replay freshly constructed executives through the batch kernel.

    Returns one :class:`LaneOutcome` per executive, in order; refused
    lanes carry a reason and no result. The kernel reads the
    executives and writes nothing back to them, so a refused executive
    can still run the reference loop; pass fresh instances all the
    same.
    """
    from .executive import ExecutiveResult, FrameRecord

    if not _accel.available():
        return [LaneOutcome(refused="accelerator unavailable") for _ in executives]
    if plan is None:
        plan = build_trace_plan([(ex.trace, ex.config) for ex in executives])
    power_raw, state_fraction = _tuple_tables()

    outcomes: List[LaneOutcome] = []
    scratch_backups: Optional[np.ndarray] = None
    scratch_exposures: Optional[np.ndarray] = None
    # Folded lane-cost tables are pure functions of three per-task
    # scalars; fleet grids repeat a few device archetypes over many
    # traces, so memoise the 4x4680-entry products within this run.
    table_memo: dict = {}
    for lane, ex in enumerate(executives):
        start = time.perf_counter()
        reason = executive_refusal(ex)
        if reason is not None:
            outcomes.append(
                LaneOutcome(refused=reason, wall_s=time.perf_counter() - start)
            )
            continue
        slot = int(plan.slot_of[lane])
        n = int(plan.lengths[slot])
        cfg = ex.config
        proc = ex.processor

        try:
            mix_weight = proc.mix.mean_energy_weight
            start_lanes = ex.start_lane_bits()
            thresholds = derive_thresholds(
                backup_energy_uj=proc.backup_energy_uj(start_lanes),
                restore_energy_uj=proc.restore_energy_uj(start_lanes),
                run_power_uw=proc.run_power_uw(start_lanes) * mix_weight,
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
        except SimulationError as exc:
            outcomes.append(
                LaneOutcome(
                    refused=f"setup raised: {exc}",
                    wall_s=time.perf_counter() - start,
                )
            )
            continue

        dt = TICK_S
        control = ex.control
        margin_f = 1.0 + cfg.backup_margin
        # Per-task lane-cost tables, folded from the global raw tables
        # in the reference's operation order: the backup energy is
        # (base * blended_scale) * fraction, so the scalar product is
        # taken first and broadcast over the fraction table.
        backup_scale = (
            proc.energy_model.backup_base_uj
            * proc.backup_engine._blended_policy_scale()
        )
        table_key = (mix_weight, backup_scale, margin_f)
        tables = table_memo.get(table_key)
        if tables is None:
            power_mw = power_raw * mix_weight
            tick_e = power_mw * dt
            backup_raw = backup_scale * state_fraction
            reserve_tab = backup_raw * margin_f
            table_memo[table_key] = (power_mw, tick_e, backup_raw, reserve_tab)
        else:
            power_mw, tick_e, backup_raw, reserve_tab = tables

        period = ex.frame_period_ticks
        max_frames = (n - 1) // period + 1 if n else 1
        ne = ex.n_elements

        dp = np.array(
            [
                dt,
                float(cfg.capacitor_uj),
                float(cfg.capacitor_leak_per_s),
                float(cfg.capacitor_leak_floor_uw) * dt,
                float(cfg.off_leakage_uw) * dt,
                start_level,
                proc.restore_energy_uj(start_lanes),
                control.comfort_fill * ex.capacity_uj,
                control.reserve_fill * ex.capacity_uj,
                control.drawdown_horizon_ticks * 1.0e-4,
                CYCLES_PER_TICK / proc.mix.mean_cycles,
            ],
            dtype=np.float64,
        )
        exp_cap = 4 * max(n, 1)
        ip = np.array(
            [
                n,
                len(plan.nonsticky[slot]),
                0 if plan.direct[slot] is None else 1,
                ex.current_minbits,
                ex.current_maxbits,
                ex.lane_minbits,
                ex.lane_maxbits,
                ex.max_width - 1,
                1 if ex.enable_simd else 0,
                1 if control.ac_enabled else 0,
                period,
                ne,
                ex.instr_per_element,
                1 if ex.recover_placement == "frame" else 0,
                1 if ex.enable_rollforward else 0,
                ex.buffer.capacity,
                max_frames,
                n,  # backup_ticks capacity
                exp_cap,
            ],
            dtype=np.int64,
        )

        if scratch_backups is None or scratch_backups.shape[0] < n:
            scratch_backups = np.zeros(max(n, 1), dtype=np.int64)
        if scratch_exposures is None or scratch_exposures.shape[0] < exp_cap:
            scratch_exposures = np.zeros((exp_cap, 3), dtype=np.int64)
        bit_schedule = np.zeros(n, dtype=np.int16)
        lane_schedule = np.zeros(n, dtype=np.int16)
        element_bits = np.zeros((max_frames, ne), dtype=np.int8)
        frame_completed = np.full(max_frames, -1, dtype=np.int64)
        frame_incid = np.zeros(max_frames, dtype=np.uint8)
        frame_abandoned = np.zeros(max_frames, dtype=np.uint8)
        unstarted = np.zeros(max_frames, dtype=np.int64)
        iout = np.zeros(10, dtype=np.int64)
        dout = np.zeros(3, dtype=np.float64)

        status = _accel.exec_replay(
            plan.conv[slot],
            plan.direct[slot],
            plan.sticky[slot],
            plan.nonsticky[slot],
            power_mw,
            tick_e,
            backup_raw,
            reserve_tab,
            dp,
            ip,
            bit_schedule,
            lane_schedule,
            scratch_backups,
            element_bits,
            frame_completed,
            frame_incid,
            frame_abandoned,
            scratch_exposures,
            unstarted,
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

        arrived = int(iout[6])
        records = []
        for fid in range(arrived):
            completed = int(frame_completed[fid])
            records.append(
                FrameRecord(
                    frame_id=fid,
                    arrival_tick=fid * period,
                    element_bits=element_bits[fid].copy(),
                    completed_tick=completed if completed >= 0 else None,
                    completed_incidentally=bool(frame_incid[fid]),
                    abandoned=bool(frame_abandoned[fid]),
                )
            )
        for k in range(int(iout[9])):
            fid = int(scratch_exposures[k, 0])
            records[fid].exposures.append(
                (int(scratch_exposures[k, 1]), int(scratch_exposures[k, 2]))
            )

        n_backups = int(iout[7])
        sim = SimulationResult(
            total_ticks=n,
            forward_progress=int(iout[0]),
            incidental_progress=int(iout[1] + iout[2] + iout[3]),
            backup_count=n_backups,
            restore_count=int(iout[8]),
            on_ticks=int(iout[4]),
            income_energy_uj=ex.trace.total_energy_uj,
            converted_energy_uj=float(plan.conv[slot].sum() * TICK_S),
            run_energy_uj=float(dout[0]),
            backup_energy_uj=float(dout[1]),
            restore_energy_uj=float(dout[2]),
            bit_schedule=bit_schedule,
            lane_schedule=lane_schedule,
            backup_ticks=tuple(int(b) for b in scratch_backups[:n_backups]),
        )
        outcomes.append(
            LaneOutcome(
                result=ExecutiveResult(
                    sim=sim,
                    frames=tuple(records),
                    idle_instructions=int(iout[5]),
                ),
                wall_s=time.perf_counter() - start,
            )
        )
    return outcomes
