"""Per-figure/table experiment runners.

Every table and figure in the paper's evaluation has a runner here
that regenerates its underlying data series on our simulated platform
(see DESIGN.md's experiment index). Runners return an
:class:`ExperimentResult` whose ``rows`` print as the artifact's table
and whose ``data`` dict carries the raw values the test suite asserts
shape properties on.

Absolute numbers are simulator-calibration-dependent; the *shape*
targets (who wins, orderings, approximate factors) are what the paper
pins down and what ``tests/test_experiments.py`` checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, wraps
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core.controller import DynamicBitAllocator, IncidentalAllocator
from ..core.recompute import RecomputeAndCombine, schedule_from_trace
from ..energy.outages import outage_statistics
from ..energy.traces import TICK_S, PowerTrace
from ..kernels import (
    ApproxContext,
    JPEGEncodeKernel,
    create_kernel,
    frame_sequence,
    test_scene,
)
from ..kernels.registry import KERNEL_NAMES, kernel_mix
from ..nvm.failures import count_retention_failures
from ..nvm.retention import (
    LinearRetention,
    LogRetention,
    ParabolaRetention,
    STANDARD_POLICY_NAMES,
    policy_by_name,
)
from ..nvm.sttram import RETENTION_10MS_S, RETENTION_ONE_DAY_S, STTRAMModel
from ..nvp.processor import NonvolatileProcessor
from ..quality.metrics import mse as compute_mse
from ..quality.metrics import psnr as compute_psnr
from ..quality.qos import TABLE2_POLICIES, evaluate_qos
from ..system.config import SystemConfig
from ..system.simulator import FixedBitAllocator, NVPSystemSimulator
from ..system.wait_compute import WaitComputeSimulator
from . import engine, telemetry
from .reporting import format_table

__all__ = ["ExperimentResult"]

#: Image size used by the quality studies (the paper uses 256x256;
#: quality curves are size-independent for these kernels).
QUALITY_IMAGE_SIZE = 64

#: Retention-curve stretch matching our platform's backup cadence
#: (DESIGN.md §5.2).
RETENTION_TIME_SCALE = 8.0


@dataclass
class ExperimentResult:
    """Uniform result wrapper: printable rows plus raw data."""

    experiment_id: str
    description: str
    headers: Tuple[str, ...]
    rows: List[Tuple]
    data: Dict[str, object] = field(default_factory=dict)

    def as_table(self) -> str:
        """The artifact as an aligned text table."""
        title = f"[{self.experiment_id}] {self.description}"
        return title + "\n" + format_table(self.headers, self.rows)


def _artifact(label: str):
    """Tag a runner's engine activity with its artifact id.

    Every grid the wrapped runner executes produces a
    :class:`repro.analysis.telemetry.RunReport` carrying ``label`` as
    its context, so ``repro-experiments report`` can attribute cache
    hits, retries and degradations to the artifact that caused them.
    """

    def decorate(fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            with telemetry.context(label):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


# -- shared building blocks ---------------------------------------------------
#
# Trace reuse and every fixed-bit and executive point go through
# ``repro.analysis.engine``: a runner builds its points with the task
# builders below and hands each kind to one ``run_grid`` /
# ``run_executive_grid`` call (``run_on_trace`` for a bespoke trace),
# so the on-disk cache, ``--workers``, fault plans, capture and run
# telemetry treat every point alike. Every result the engine hands out
# owns its arrays, so a runner mutating one cannot poison later
# experiments.


def _trace(profile_id: int, duration_s: float) -> PowerTrace:
    return engine.trace_for(profile_id, duration_s)


def _fixed_task(
    profile_id: int, duration_s: float, kernel: str, bits: int = 8, policy: str = "precise"
) -> engine.FixedBitTask:
    """One fixed-bit point; by default the precise 8-bit NVP baseline."""
    return engine.FixedBitTask(
        profile_id=profile_id, bits=bits, duration_s=duration_s, policy=policy, kernel=kernel
    )


class _SaturatedIncidentalAllocator(IncidentalAllocator):
    """An incidental allocator with a permanently full resume buffer.

    Used by the Figure 9 timing study, which examines the machine's
    power behaviour independent of any particular frame stream.
    """

    def allocate(self, income_uw: float, stored_uj: float, tick: int) -> List[int]:
        self.pending_lanes = self.max_width - 1
        return super().allocate(income_uw, stored_uj, tick)


# -- Figure 2: the five power profiles ----------------------------------------


@_artifact("fig02")
def fig02_power_profiles(duration_s: float = 10.0) -> ExperimentResult:
    """Figure 2: statistics of the five standard "watch" profiles."""
    rows = []
    for pid in range(1, 6):
        trace = _trace(pid, duration_s)
        stats = outage_statistics(trace)
        rows.append(
            (
                pid,
                round(trace.mean_power_uw, 1),
                round(trace.peak_power_uw, 0),
                stats.count,
                round(stats.outage_fraction, 3),
            )
        )
    return ExperimentResult(
        experiment_id="fig02",
        description="power profiles of 'watch' in daily life use",
        headers=("profile", "mean_uW", "peak_uW", "emergencies", "outage_frac"),
        rows=rows,
        data={"means": [r[1] for r in rows], "emergencies": [r[3] for r in rows]},
    )


# -- Figure 3: outage durations and frequency ----------------------------------


@_artifact("fig03")
def fig03_outage_statistics(profile_id: int = 1, duration_s: float = 10.0) -> ExperimentResult:
    """Figure 3: outage duration distribution for one profile."""
    trace = _trace(profile_id, duration_s)
    stats = outage_statistics(trace)
    edges = [0, 25, 50, 100, 200, 400, 800, 1600, 3200, 6400]
    counts, bin_edges = stats.histogram(edges)
    rows = [
        (f"{int(bin_edges[i])}-{int(bin_edges[i + 1])}", int(counts[i]))
        for i in range(len(counts))
    ]
    return ExperimentResult(
        experiment_id="fig03",
        description=f"power outage durations, profile {profile_id} (0.1 ms ticks)",
        headers=("duration_ticks", "count"),
        rows=rows,
        data={
            "count": stats.count,
            "median": stats.median_duration_ticks,
            "max": stats.max_duration_ticks,
            "histogram": counts.tolist(),
        },
    )


# -- Figure 4: STT-RAM write current vs pulse width vs retention ---------------


@_artifact("fig04")
def fig04_sttram_write() -> ExperimentResult:
    """Figure 4: write current / pulse width / retention trade-off."""
    cell = STTRAMModel()
    retentions = [
        ("10ms", RETENTION_10MS_S),
        ("1s", 1.0),
        ("1min", 60.0),
        ("1day", RETENTION_ONE_DAY_S),
    ]
    pulses = (1.0, 2.0, 4.0, 8.0)
    rows = []
    for label, retention in retentions:
        currents = [round(cell.write_current_ua(p, retention), 1) for p in pulses]
        pulse, current, energy = cell.optimal_write_point(retention)
        rows.append((label, *currents, round(pulse, 2), round(energy, 3)))
    saving = cell.energy_saving_fraction(RETENTION_ONE_DAY_S, RETENTION_10MS_S)
    return ExperimentResult(
        experiment_id="fig04",
        description="STT-RAM write current vs pulse width (uA); best-energy point",
        headers=("retention", "I@1ns", "I@2ns", "I@4ns", "I@8ns", "best_pulse_ns", "best_E_pJ"),
        rows=rows,
        data={"saving_1day_to_10ms": saving},
    )


# -- Figure 5: retention-time shaping curves ------------------------------------


@_artifact("fig05")
def fig05_retention_shaping(time_scale: float = 1.0) -> ExperimentResult:
    """Figure 5: per-bit shaped retention times (Equations 1-3)."""
    policies = [
        LinearRetention(time_scale=time_scale),
        LogRetention(time_scale=time_scale),
        ParabolaRetention(time_scale=time_scale),
    ]
    cell = STTRAMModel()
    rows = []
    for bit in range(1, 9):
        rows.append(
            (bit, *[int(p.retention_ticks(bit)) for p in policies])
        )
    relatives = {p.name: round(p.relative_write_energy(cell), 3) for p in policies}
    return ExperimentResult(
        experiment_id="fig05",
        description="retention time per bit (ticks): linear / log / parabola",
        headers=("bit", "linear", "log", "parabola"),
        rows=rows,
        data={"relative_energy": relatives},
    )


# -- Section 2.2: NVP vs wait-compute -------------------------------------------


@_artifact("sec2.2")
def sec22_wait_compute(
    profile_ids: Sequence[int] = (1, 2, 3, 4, 5),
    duration_s: float = 10.0,
    unit_instructions: int = 3_000,
    kernel: str = "median",
) -> ExperimentResult:
    """Section 2.2: NVP execution vs the wait-compute paradigm."""
    rows = []
    ratios = []
    mix = kernel_mix(kernel)
    grid = engine.run_grid(_fixed_task(pid, duration_s, kernel) for pid in profile_ids)
    for pid, nvp in zip(profile_ids, grid.results):
        trace = _trace(pid, duration_s)
        wait = WaitComputeSimulator(unit_instructions, mix=mix).run(trace)
        nvp_units = nvp.forward_progress / unit_instructions
        wc_units = wait.units_completed
        ratio = nvp_units / wc_units if wc_units else float("inf")
        ratios.append(ratio)
        rows.append(
            (pid, round(nvp_units, 2), wc_units, wait.units_lost, round(ratio, 2))
        )
    return ExperimentResult(
        experiment_id="sec2.2",
        description="NVP vs wait-compute (units of work per trace)",
        headers=("profile", "nvp_units", "wait_units", "wait_lost", "nvp/wait"),
        rows=rows,
        data={"ratios": ratios},
    )


# -- Figure 9: timing-behaviour analysis -----------------------------------------


@_artifact("fig09")
def fig09_timing_behavior(
    profile_id: int = 2,
    duration_s: float = 10.0,
    window_ticks: int = 30_000,
) -> ExperimentResult:
    """Figure 9: system-on time and FP of four configurations.

    Runs on the densest-activity window of the profile (the paper zooms
    into an active portion of profile 2). Configurations: precise 8-bit
    NVP, incidental with pragmas (a1,b) = [2..8] bits, incidental with
    (a2,b) = [6..8] bits, and a 4-SIMD full-precision NVP.
    """
    trace = _trace(profile_id, duration_s)
    _, window = trace.high_activity_window(window_ticks)
    config = SystemConfig()

    def _run(allocator, policy=None):
        processor = NonvolatileProcessor(policy=policy)
        return NVPSystemSimulator(window, processor, allocator, config=config).run()

    linear = policy_by_name("linear", time_scale=RETENTION_TIME_SCALE)
    configs = [
        ("8-bit NVP", _run(FixedBitAllocator(8))),
        (
            "incidental (a1,b) [2..8]",
            _run(_SaturatedIncidentalAllocator(2, 8, capacity_uj=config.capacitor_uj), linear),
        ),
        (
            "incidental (a2,b) [6..8]",
            _run(_SaturatedIncidentalAllocator(6, 8, capacity_uj=config.capacitor_uj), linear),
        ),
        ("4-SIMD NVP", _run(FixedBitAllocator(8, simd_width=4))),
    ]
    rows = []
    for name, sim in configs:
        rows.append(
            (
                name,
                round(100 * sim.system_on_fraction, 1),
                sim.forward_progress,
                sim.total_progress,
                sim.backup_count,
            )
        )
    return ExperimentResult(
        experiment_id="fig09",
        description="timing behaviour on an active window",
        headers=("config", "on_%", "FP_current", "FP_total", "backups"),
        rows=rows,
        data={
            "on_fractions": {name: sim.system_on_fraction for name, sim in configs},
            "total_progress": {name: sim.total_progress for name, sim in configs},
        },
    )


# -- Figures 11-14: bitwidth vs quality --------------------------------------------


def _quality_sweep(mode: str, kernels: Sequence[str], bits_list: Sequence[int], seed: int = 1):
    image = test_scene(QUALITY_IMAGE_SIZE, "mixed", seed=7)
    rows = []
    data: Dict[str, Dict[int, Tuple[float, float]]] = {}
    for name in kernels:
        kernel = create_kernel(name)
        reference = kernel.run_exact(image)
        data[name] = {}
        for bits in bits_list:
            if mode == "alu":
                ctx = ApproxContext(alu_bits=bits, seed=seed)
            else:
                ctx = ApproxContext(mem_bits=bits, seed=seed)
            output = kernel.run(image, ctx)
            err = compute_mse(reference, output)
            quality = compute_psnr(reference, output)
            data[name][bits] = (err, quality)
            rows.append((name, bits, round(err, 2), round(quality, 2)))
    return rows, data


@_artifact("fig12")
def fig12_alu_quality(
    kernels: Sequence[str] = ("sobel", "median", "integral"),
    bits_list: Sequence[int] = (7, 6, 5, 4, 3, 2, 1),
) -> ExperimentResult:
    """Figures 11-12: approximate-ALU bitwidth vs MSE and PSNR."""
    rows, data = _quality_sweep("alu", kernels, bits_list)
    return ExperimentResult(
        experiment_id="fig12",
        description="approximate ALU: MSE / PSNR vs reliable bits",
        headers=("kernel", "bits", "MSE", "PSNR_dB"),
        rows=rows,
        data=data,
    )


@_artifact("fig14")
def fig14_memory_quality(
    kernels: Sequence[str] = ("sobel", "median", "integral"),
    bits_list: Sequence[int] = (7, 6, 5, 4, 3, 2, 1),
) -> ExperimentResult:
    """Figures 13-14: approximate-memory bitwidth vs MSE and PSNR."""
    rows, data = _quality_sweep("mem", kernels, bits_list)
    return ExperimentResult(
        experiment_id="fig14",
        description="approximate memory (truncation): MSE / PSNR vs reliable bits",
        headers=("kernel", "bits", "MSE", "PSNR_dB"),
        rows=rows,
        data=data,
    )


# -- Figures 15-16: forward progress and backups vs bitwidth ------------------------


@_artifact("fig15")
def fig15_forward_progress(
    profile_ids: Sequence[int] = (1, 2, 3, 4, 5),
    bits_list: Sequence[int] = (8, 7, 6, 5, 4, 3, 2, 1),
    duration_s: float = 10.0,
) -> ExperimentResult:
    """Figure 15: forward progress as ALU+memory bits shrink."""
    grid = engine.run_grid(
        engine.GridSpec(
            profile_ids=tuple(profile_ids),
            bits=tuple(bits_list),
            kernels=("median",),
            duration_s=duration_s,
        )
    )
    rows = []
    data: Dict[int, Dict[int, int]] = {pid: {} for pid in profile_ids}
    for task, sim in grid:
        data[task.profile_id][task.bits] = sim.forward_progress
        rows.append((task.profile_id, task.bits, sim.forward_progress))
    return ExperimentResult(
        experiment_id="fig15",
        description="forward progress vs reliable bits",
        headers=("profile", "bits", "forward_progress"),
        rows=rows,
        data={"fp": data},
    )


@_artifact("fig16")
def fig16_backup_counts(
    profile_ids: Sequence[int] = (1, 2, 3, 4, 5),
    bits_list: Sequence[int] = (8, 7, 6, 5, 4, 3, 2, 1),
    duration_s: float = 10.0,
) -> ExperimentResult:
    """Figure 16: number of backups as bits shrink."""
    grid = engine.run_grid(
        engine.GridSpec(
            profile_ids=tuple(profile_ids),
            bits=tuple(bits_list),
            kernels=("median",),
            duration_s=duration_s,
        )
    )
    rows = []
    data: Dict[int, Dict[int, int]] = {pid: {} for pid in profile_ids}
    for task, sim in grid:
        data[task.profile_id][task.bits] = sim.backup_count
        rows.append((task.profile_id, task.bits, sim.backup_count))
    return ExperimentResult(
        experiment_id="fig16",
        description="backup count vs reliable bits",
        headers=("profile", "bits", "backups"),
        rows=rows,
        data={"backups": data},
    )


# -- Figures 17-21: dynamic bitwidth --------------------------------------------------


@lru_cache(maxsize=64)
def _dynamic_run_pristine(profile_id: int, duration_s: float, minbits: int, kernel: str):
    trace = _trace(profile_id, duration_s)
    config = SystemConfig()
    allocator = DynamicBitAllocator(minbits, 8, capacity_uj=config.capacitor_uj)
    processor = NonvolatileProcessor(mix=kernel_mix(kernel))
    return NVPSystemSimulator(trace, processor, allocator, config=config).run()


def _dynamic_run(profile_id: int, duration_s: float, minbits: int, kernel: str):
    """Cached dynamic-bitwidth simulation (returns a fresh copy).

    The ``lru_cache`` holds the pristine result; handing out a copy
    prevents the aliasing hazard where a caller mutating
    ``result.bit_schedule`` would silently corrupt every later
    experiment sharing the cache entry.
    """
    return engine.copy_result(
        _dynamic_run_pristine(profile_id, duration_s, minbits, kernel)
    )


@_artifact("fig18")
def fig18_bit_utilization(
    profile_ids: Sequence[int] = (1, 2, 3),
    duration_s: float = 10.0,
    minbits: int = 1,
) -> ExperimentResult:
    """Figures 17-18: dynamic-bitwidth utilisation distribution."""
    rows = []
    data = {}
    for pid in profile_ids:
        sim = _dynamic_run(pid, duration_s, minbits, "median")
        util = sim.bit_utilization()
        data[pid] = util
        rows.append(
            (pid, *[round(100 * util[level], 1) for level in range(0, 9)])
        )
    return ExperimentResult(
        experiment_id="fig18",
        description="dynamic bitwidth: % of time at each level (0 = OFF)",
        headers=("profile", "OFF", "1b", "2b", "3b", "4b", "5b", "6b", "7b", "8b"),
        rows=rows,
        data={"utilization": data},
    )


def _dynamic_quality(profile_id: int, duration_s: float, minbits: int, kernel_name: str, seed: int = 3):
    sim = _dynamic_run(profile_id, duration_s, minbits, kernel_name)
    schedule = np.clip(sim.active_bit_series(), minbits, 8)
    kernel = create_kernel(kernel_name)
    image = test_scene(QUALITY_IMAGE_SIZE, "mixed", seed=7)
    reference = kernel.run_exact(image)
    ctx = ApproxContext(alu_bits=schedule, seed=seed)
    output = kernel.run(image, ctx)
    return sim, compute_mse(reference, output), compute_psnr(reference, output)


def _dynamic_vs_fixed(
    experiment_id: str,
    profile_ids: Sequence[int],
    duration_s: float,
    minbits: int,
    equivalent_fixed_bits: int,
    kernel: str,
) -> ExperimentResult:
    rows = []
    fp_gains = []
    grid = engine.run_grid(
        _fixed_task(pid, duration_s, kernel, bits=equivalent_fixed_bits)
        for pid in profile_ids
    )
    for pid, fixed in zip(profile_ids, grid.results):
        dyn, dyn_mse, dyn_psnr = _dynamic_quality(pid, duration_s, minbits, kernel)
        gain = dyn.forward_progress / max(1, fixed.forward_progress)
        fp_gains.append(gain)
        rows.append(
            (
                pid,
                round(dyn_mse, 2),
                round(dyn_psnr, 2),
                dyn.forward_progress,
                fixed.forward_progress,
                round(gain, 2),
            )
        )
    return ExperimentResult(
        experiment_id=experiment_id,
        description=(
            f"dynamic [{minbits}..8] bits vs fixed {equivalent_fixed_bits}-bit ({kernel})"
        ),
        headers=("profile", "dyn_MSE", "dyn_PSNR", "dyn_FP", "fixed_FP", "FP_gain"),
        rows=rows,
        data={"fp_gains": fp_gains},
    )


@_artifact("fig20")
def fig20_dynamic_vs_fixed(
    profile_ids: Sequence[int] = (1, 2, 3),
    duration_s: float = 10.0,
    minbits: int = 1,
    equivalent_fixed_bits: int = 2,
    kernel: str = "median",
) -> ExperimentResult:
    """Figures 19-20: dynamic bitwidth vs the similar-quality fixed bits."""
    return _dynamic_vs_fixed(
        "fig20", profile_ids, duration_s, minbits, equivalent_fixed_bits, kernel
    )


@_artifact("fig21")
def fig21_minbits4(
    profile_ids: Sequence[int] = (1, 2, 3),
    duration_s: float = 10.0,
) -> ExperimentResult:
    """Figure 21: 4-bit-minimum dynamic vs the similar-quality fixed 7-bit."""
    return _dynamic_vs_fixed("fig21", profile_ids, duration_s, 4, 7, "median")


# -- Figure 22: retention failures -------------------------------------------------------


@_artifact("fig22")
def fig22_retention_failures(
    profile_ids: Sequence[int] = (1, 2, 3),
    duration_s: float = 10.0,
) -> ExperimentResult:
    """Figure 22: per-bit retention-failure counts per policy.

    Counted at the paper's cadence: every power emergency is a backup,
    and a bit fails when the following outage outlives its nominal
    (unscaled) shaped retention.
    """
    rows = []
    data: Dict[str, Dict[int, List[int]]] = {}
    for policy_name in STANDARD_POLICY_NAMES:
        policy = policy_by_name(policy_name)
        data[policy_name] = {}
        for pid in profile_ids:
            stats = outage_statistics(_trace(pid, duration_s))
            counts = count_retention_failures(stats.durations_ticks, policy)
            data[policy_name][pid] = list(counts.per_bit)
            rows.append((policy_name, pid, *counts.per_bit))
    return ExperimentResult(
        experiment_id="fig22",
        description="retention failures per bit (bit 1 = LSB)",
        headers=("policy", "profile", "b1", "b2", "b3", "b4", "b5", "b6", "b7", "b8"),
        rows=rows,
        data={"failures": data},
    )


# -- Figures 23-25: backup/recovery approximation ------------------------------------------


def _executive_task(
    kernel_name: str,
    policy: str,
    profile_id: int,
    duration_s: float,
    minbits: int,
    frame_size: int = 12,
    frame_period_ticks: int = 15_000,
) -> engine.ExecutiveTask:
    return engine.ExecutiveTask(
        kernel=kernel_name,
        policy=policy,
        profile_id=profile_id,
        minbits=minbits,
        duration_s=duration_s,
        frame_size=frame_size,
        frame_period_ticks=frame_period_ticks,
        retention_time_scale=RETENTION_TIME_SCALE,
    )


def _tuned_task(
    kernel_name: str,
    profile_id: int,
    duration_s: float,
    frame_size: int = 16,
    frame_period_ticks: int = 2_500,
) -> engine.ExecutiveTask:
    """An executive point under the kernel's Table 2 policy (default:
    minbits 3, linear) on a backlog-saturated frame stream."""
    tuned = TABLE2_POLICIES.get(kernel_name)
    minbits = tuned.minbits if tuned else 3
    backup = tuned.backup_policy if tuned else "linear"
    return _executive_task(
        kernel_name, backup, profile_id, duration_s, minbits=minbits,
        frame_size=frame_size, frame_period_ticks=frame_period_ticks,
    )


@_artifact("fig24")
def fig24_quality_vs_policy(
    profile_ids: Sequence[int] = (1, 2, 3),
    duration_s: float = 10.0,
    kernel: str = "median",
) -> ExperimentResult:
    """Figures 23-24: output quality under each retention policy."""
    rows = []
    data: Dict[str, Dict[int, Tuple[float, float]]] = {}
    tasks = [
        _executive_task(kernel, policy_name, pid, duration_s, minbits=4)
        for policy_name in STANDARD_POLICY_NAMES
        for pid in profile_ids
    ]
    grid = engine.run_executive_grid(tasks)
    for policy_name in STANDARD_POLICY_NAMES:
        data[policy_name] = {}
        for pid in profile_ids:
            task = _executive_task(kernel, policy_name, pid, duration_s, minbits=4)
            result = grid.result_for(task)
            scores = engine.executive_frame_quality(task, result, min_coverage=0.999)
            if scores:
                mean_mse = float(np.mean([s.mse for s in scores]))
                mean_psnr = float(np.mean([s.psnr_db for s in scores]))
            else:
                mean_mse, mean_psnr = float("nan"), float("nan")
            data[policy_name][pid] = (mean_mse, mean_psnr)
            rows.append((policy_name, pid, len(scores), round(mean_mse, 2), round(mean_psnr, 2)))
    return ExperimentResult(
        experiment_id="fig24",
        description=f"quality vs retention policy ({kernel}, completed frames)",
        headers=("policy", "profile", "frames", "MSE", "PSNR_dB"),
        rows=rows,
        data={"quality": data},
    )


@_artifact("fig25")
def fig25_fp_retention(
    profile_ids: Sequence[int] = (1, 2, 3),
    duration_s: float = 10.0,
) -> ExperimentResult:
    """Figure 25: FP improvement from retention-shaped backups."""
    rows = []
    data: Dict[str, List[float]] = {name: [] for name in STANDARD_POLICY_NAMES}
    grid = engine.run_grid(
        _fixed_task(pid, duration_s, "median", policy=policy_name)
        for pid in profile_ids
        for policy_name in ("precise", *STANDARD_POLICY_NAMES)
    )
    for pid in profile_ids:
        base = grid.result_for(_fixed_task(pid, duration_s, "median"))
        gains = []
        for policy_name in STANDARD_POLICY_NAMES:
            shaped = grid.result_for(
                _fixed_task(pid, duration_s, "median", policy=policy_name)
            )
            gain = shaped.forward_progress / max(1, base.forward_progress)
            data[policy_name].append(gain)
            gains.append(round(gain, 3))
        rows.append((pid, *gains))
    return ExperimentResult(
        experiment_id="fig25",
        description="FP gain over precise backups (8-bit NVP)",
        headers=("profile", "linear", "log", "parabola"),
        rows=rows,
        data={"gains": data},
    )


# -- Figures 26-27: recomputation ----------------------------------------------------------


@_artifact("fig27")
def fig27_recomputation(
    profile_id: int = 1,
    duration_s: float = 10.0,
    kernel: str = "median",
    minbits_list: Sequence[int] = (1, 2, 4, 6),
    passes: int = 8,
) -> ExperimentResult:
    """Figures 26-27: quality vs recompute-and-combine passes."""
    trace = _trace(profile_id, duration_s)
    image = test_scene(QUALITY_IMAGE_SIZE, "mixed", seed=7)
    rows = []
    data: Dict[int, List[float]] = {}
    for minbits in minbits_list:
        schedule = schedule_from_trace(trace, minbits, 8)
        rac = RecomputeAndCombine(create_kernel(kernel), minbits, 8, seed=11)
        outcome = rac.run(image, passes, schedule)
        data[minbits] = list(outcome.psnr_per_pass)
        for pass_index, quality in enumerate(outcome.psnr_per_pass, start=1):
            rows.append((minbits, pass_index, round(quality, 2)))
    return ExperimentResult(
        experiment_id="fig27",
        description=f"PSNR vs recomputation passes ({kernel})",
        headers=("minbits", "pass", "PSNR_dB"),
        rows=rows,
        data={"psnr": data},
    )


# -- Table 2: tuned QoS policies --------------------------------------------------------------


@_artifact("table2")
def table2_qos(
    profile_ids: Sequence[int] = (1, 2, 3),
    duration_s: float = 10.0,
    seed: int = 5,
) -> ExperimentResult:
    """Table 2: do the tuned policies meet their QoS targets?

    The schedules use the *fine-tuned* deployment controller — the
    paper's programmers iterate a debug-test-modify loop until QoS is
    met, and a more aggressive surplus drawdown (higher-precision
    recompute passes) is part of that tuning.
    """
    from ..core.controller import ApproximationControlUnit

    tuned_control = ApproximationControlUnit(
        comfort_fill=0.15, drawdown_horizon_ticks=12
    )
    rows = []
    data: Dict[str, Dict[str, object]] = {}
    image = test_scene(QUALITY_IMAGE_SIZE, "mixed", seed=7)
    for name, policy in TABLE2_POLICIES.items():
        met_all = True
        measured = []
        for pid in profile_ids:
            trace = _trace(pid, duration_s)
            schedule = schedule_from_trace(
                trace, policy.minbits, 8, control=tuned_control
            )
            kernel = create_kernel(name)
            if name == "jpeg_encode":
                frames = frame_sequence(4, QUALITY_IMAGE_SIZE, seed=7)
                jpeg: JPEGEncodeKernel = kernel
                baseline = jpeg.encode(frames[1], frames[0])
                n = frames[1].size
                window = np.take(schedule, np.arange(n), mode="wrap")
                ctx = ApproxContext(alu_bits=window, seed=seed)
                result = jpeg.encode(frames[1], frames[0], ctx)
                ratio = result.size_ratio(baseline.size_bits)
                measured.append(ratio)
                met_all &= evaluate_qos(policy, size_ratio_value=ratio)
            else:
                rac = RecomputeAndCombine(kernel, policy.minbits, 8, seed=seed)
                outcome = rac.run(image, max(1, policy.recompute_passes + 1), schedule)
                quality = outcome.psnr_per_pass[-1]
                measured.append(quality)
                met_all &= evaluate_qos(policy, psnr_db=quality)
        data[name] = {"measured": measured, "met": met_all}
        rows.append(
            (
                name,
                policy.target.describe(),
                policy.minbits,
                policy.recompute_passes,
                policy.backup_policy,
                round(float(np.mean(measured)), 2),
                met_all,
            )
        )
    return ExperimentResult(
        experiment_id="table2",
        description="fine-tuned incidental policies vs QoS targets",
        headers=("kernel", "target", "minbits", "recompute", "backup", "measured", "met"),
        rows=rows,
        data=data,
    )


# -- Figure 28: overall incidental FP gain ------------------------------------------------------


@_artifact("fig28")
def fig28_overall_gain(
    kernel_names: Sequence[str] = KERNEL_NAMES,
    profile_ids: Sequence[int] = (1, 2, 3, 4, 5),
    duration_s: float = 10.0,
    frame_size: int = 16,
    frame_period_ticks: int = 2_500,
) -> ExperimentResult:
    """Figure 28: FP gain of incidental computing & backup per kernel.

    Each kernel runs the incidental executive with its Table 2 policy
    (default: minbits 3, linear) against a backlog-saturated frame
    stream, compared to a precise 8-bit NVP with the same instruction
    mix.
    """
    def task_for(name: str, pid: int) -> engine.ExecutiveTask:
        return _tuned_task(
            name, pid, duration_s,
            frame_size=frame_size, frame_period_ticks=frame_period_ticks,
        )

    points = [(name, pid) for name in kernel_names for pid in profile_ids]
    grid = engine.run_executive_grid(task_for(name, pid) for name, pid in points)
    baselines = engine.run_grid(
        _fixed_task(pid, duration_s, name) for name, pid in points
    )
    rows = []
    per_kernel: Dict[str, List[float]] = {}
    for name in kernel_names:
        gains = []
        for pid in profile_ids:
            result = grid.result_for(task_for(name, pid))
            base = baselines.result_for(_fixed_task(pid, duration_s, name))
            gains.append(result.useful_progress / max(1, base.forward_progress))
        per_kernel[name] = gains
        rows.append((name, *[round(g, 2) for g in gains], round(float(np.mean(gains)), 2)))
    all_gains = [g for gains in per_kernel.values() for g in gains]
    average = float(np.mean(all_gains)) if all_gains else 0.0
    rows.append(("ALL-AVERAGE", *[""] * len(profile_ids), round(average, 2)))
    return ExperimentResult(
        experiment_id="fig28",
        description="incidental FP gain over precise NVP",
        headers=("kernel", *[f"p{p}" for p in profile_ids], "mean"),
        rows=rows,
        data={"per_kernel": per_kernel, "average": average},
    )


# -- Section 7: frame-rate validation --------------------------------------------------------------


@_artifact("sec7")
def sec7_frame_rates(
    kernel_names: Sequence[str] = ("susan_corners", "susan_edges", "jpeg_encode"),
    profile_id: int = 1,
    duration_s: float = 10.0,
    frame_elements: int = 256 * 256,
) -> ExperimentResult:
    """Section 7: seconds per frame for the three execution paradigms.

    Extrapolates each paradigm's measured instruction throughput to the
    paper's 256x256 frames: wait-compute < plain NVP < incidental, with
    the same ordering the paper reports (1.65 s -> 0.97 s -> 0.3 s for
    susan.corners etc.).
    """
    trace = _trace(profile_id, duration_s)
    nvp_grid = engine.run_grid(
        _fixed_task(profile_id, duration_s, name) for name in kernel_names
    )
    inc_grid = engine.run_executive_grid(
        _tuned_task(name, profile_id, duration_s) for name in kernel_names
    )
    rows = []
    data: Dict[str, Tuple[float, float, float]] = {}
    for name, nvp, inc in zip(kernel_names, nvp_grid.results, inc_grid.results):
        kernel = create_kernel(name)
        frame_instr = frame_elements * kernel.instructions_per_element
        mix = kernel_mix(name)

        # A full frame cannot be banked by any realistic ESD on these
        # profiles, so the wait-compute paradigm's *sustained rate* is
        # probed with a bankable sub-unit and extrapolated (optimistic
        # in wait-compute's favour: larger units only lose more energy
        # to ESD leakage and top-off inefficiency).
        probe_unit = 5_000
        wait = WaitComputeSimulator(probe_unit, mix=mix, init_instructions=0).run(trace)
        wait_rate = (
            wait.forward_progress / trace.duration_s if wait.forward_progress else 0.0
        )
        nvp_rate = nvp.forward_progress / trace.duration_s
        inc_rate = inc.useful_progress / trace.duration_s

        def seconds_per_frame(rate: float) -> float:
            return frame_instr / rate if rate > 0 else float("inf")

        triple = (
            seconds_per_frame(wait_rate),
            seconds_per_frame(nvp_rate),
            seconds_per_frame(inc_rate),
        )
        data[name] = triple
        rows.append((name, *[round(t, 2) for t in triple]))
    return ExperimentResult(
        experiment_id="sec7",
        description="seconds per 256x256 frame: wait-compute / NVP / incidental",
        headers=("kernel", "wait_s", "nvp_s", "incidental_s"),
        rows=rows,
        data={"rates": data},
    )


# -- Ablations: isolating the design choices DESIGN.md calls out ---------------


def _ablation_task(
    profile_id: int,
    duration_s: float,
    frame_size: int = 16,
    **executive_kwargs,
) -> engine.ExecutiveTask:
    """One ablation or seed-robustness point (linear, minbits 2, 12 frames)."""
    kwargs = dict(
        kernel="median",
        frame_period_ticks=2_500,
        retention_time_scale=RETENTION_TIME_SCALE,
        seed=0,
    )
    kwargs.update(executive_kwargs)
    return engine.ExecutiveTask(
        policy="linear",
        profile_id=profile_id,
        minbits=2,
        duration_s=duration_s,
        frame_size=frame_size,
        n_frames=12,
        **kwargs,
    )


@_artifact("ablation-mechanisms")
def ablation_mechanisms(
    profile_id: int = 1, duration_s: float = 10.0
) -> ExperimentResult:
    """Ablation: which incidental mechanism buys how much FP gain.

    Compares the full incidental NVP against versions with SIMD lanes
    disabled, roll-forward disabled, and precise (unshaped) backups,
    all normalised to the precise 8-bit NVP baseline.
    """
    (base,) = engine.run_grid([_fixed_task(profile_id, duration_s, "median")]).results
    variants = [
        ("full incidental", {}),
        ("no SIMD lanes", {"enable_simd": False}),
        ("no roll-forward", {"enable_rollforward": False}),
        ("precise backups", {"precise_backup": True}),
        ("no SIMD + precise backups", {"enable_simd": False, "precise_backup": True}),
    ]
    grid = engine.run_executive_grid(
        _ablation_task(profile_id, duration_s, **kwargs) for _, kwargs in variants
    )
    rows = []
    gains = {}
    for (name, _), result in zip(variants, grid.results):
        gain = result.useful_progress / max(1, base.forward_progress)
        gains[name] = gain
        rows.append(
            (
                name,
                round(gain, 2),
                result.sim.backup_count,
                round(result.sim.backup_energy_share, 3),
            )
        )
    return ExperimentResult(
        experiment_id="ablation-mechanisms",
        description=f"incidental mechanism ablation (median, profile {profile_id})",
        headers=("variant", "FP_gain", "backups", "backup_share"),
        rows=rows,
        data={"gains": gains},
    )


@_artifact("ablation-buffer")
def ablation_buffer_capacity(
    profile_id: int = 1,
    duration_s: float = 10.0,
    capacities: Sequence[int] = (1, 2, 3, 4),
) -> ExperimentResult:
    """Ablation: resume-buffer depth vs incidental progress.

    The paper fixed the nonvolatile PC buffer at four entries; this
    sweep shows how much of the SIMD benefit each entry buys (lane
    width is bounded by pending suspended computations).
    """
    (base,) = engine.run_grid([_fixed_task(profile_id, duration_s, "median")]).results
    grid = engine.run_executive_grid(
        _ablation_task(profile_id, duration_s, resume_buffer_capacity=capacity)
        for capacity in capacities
    )
    rows = []
    gains = {}
    for capacity, result in zip(capacities, grid.results):
        gain = result.useful_progress / max(1, base.forward_progress)
        gains[capacity] = gain
        mean_lanes = float(
            np.mean(result.sim.lane_schedule[result.sim.lane_schedule > 0])
        )
        rows.append((capacity, round(gain, 2), round(mean_lanes, 2)))
    return ExperimentResult(
        experiment_id="ablation-buffer",
        description="resume-buffer capacity vs incidental FP gain",
        headers=("capacity", "FP_gain", "mean_lanes"),
        rows=rows,
        data={"gains": gains},
    )


@_artifact("ablation-retention-scale")
def ablation_retention_scale(
    profile_id: int = 1,
    duration_s: float = 10.0,
    scales: Sequence[float] = (1.0, 4.0, 8.0, 16.0),
) -> ExperimentResult:
    """Ablation: retention-curve stretch vs quality and backup cost.

    The cadence-matching choice of DESIGN.md §5.2: a short (unscaled)
    curve is cheap to write but decays across our long outages; longer
    scales protect quality at growing backup energy.
    """
    grid = engine.run_executive_grid(
        _ablation_task(
            profile_id,
            duration_s,
            frame_size=12,
            frame_period_ticks=15_000,
            retention_time_scale=scale,
        )
        for scale in scales
    )
    rows = []
    data = {}
    for scale, (task, result) in zip(scales, grid):
        scores = engine.executive_frame_quality(task, result, min_coverage=0.999)
        mean_psnr = (
            float(np.mean([s.psnr_db for s in scores])) if scores else float("nan")
        )
        backup_uj = result.sim.backup_energy_uj / max(1, result.sim.backup_count)
        data[scale] = (mean_psnr, backup_uj)
        rows.append(
            (scale, len(scores), round(mean_psnr, 1), round(backup_uj, 4))
        )
    return ExperimentResult(
        experiment_id="ablation-retention-scale",
        description="retention time_scale vs frame quality and backup cost",
        headers=("time_scale", "frames", "mean_PSNR_dB", "uJ_per_backup"),
        rows=rows,
        data={"by_scale": data},
    )


# -- Table 2's JPEG frame-rate metric: fraction of frames meeting QoS ----------


@_artifact("table2-jpeg-frames")
def jpeg_frame_qos(
    profile_ids: Sequence[int] = (1, 2, 3),
    duration_s: float = 10.0,
    n_frames: int = 40,
    seed: int = 13,
) -> ExperimentResult:
    """Table 2's JPEG accounting: % of encoded frames within 150% size.

    The paper streams 25 000 frames and reports 97% meeting the size
    target at minbits 3 under dynamic bitwidth; we stream ``n_frames``
    consecutive frame pairs per profile with the schedule windows the
    profile actually produced.
    """
    policy = TABLE2_POLICIES["jpeg_encode"]
    kernel: JPEGEncodeKernel = create_kernel("jpeg_encode")
    frames = frame_sequence(n_frames + 1, 32, seed=7, step=2)
    rows = []
    fractions = {}
    for pid in profile_ids:
        trace = _trace(pid, duration_s)
        schedule = schedule_from_trace(trace, policy.minbits, 8)
        met = 0
        worst = 1.0
        offset = 0
        for index in range(n_frames):
            prev_frame, frame = frames[index], frames[index + 1]
            n = frame.size
            window = np.take(schedule, np.arange(offset, offset + n), mode="wrap")
            offset += n
            baseline = kernel.encode(frame, prev_frame)
            approx = kernel.encode(
                frame, prev_frame, ApproxContext(alu_bits=window, seed=seed + index)
            )
            ratio = approx.size_ratio(baseline.size_bits)
            worst = max(worst, ratio)
            if policy.target.met_by_size_ratio(ratio):
                met += 1
        fraction = met / n_frames
        fractions[pid] = fraction
        rows.append((pid, n_frames, round(100 * fraction, 1), round(worst, 2)))
    return ExperimentResult(
        experiment_id="table2-jpeg-frames",
        description="JPEG frames meeting the 150% size QoS (minbits 3, dynamic)",
        headers=("profile", "frames", "met_%", "worst_ratio"),
        rows=rows,
        data={"fractions": fractions},
    )


# -- Extension: incidental gains across ambient energy sources -----------------


@_artifact("ablation-sources")
def ablation_harvester_sources(
    duration_s: float = 10.0,
    seed: int = 99,
) -> ExperimentResult:
    """Extension: does incidental computing help beyond the wristwatch?

    The paper's platform is a rotational harvester, but its Figure 1
    front end lists solar, RF and thermal sources too (and Section 6
    discusses how recover-point placement should follow the source's
    interrupt rate). This sweep runs the incidental executive on a
    synthetic trace from each source model.
    """
    from ..energy.harvester import (
        RFHarvester,
        SolarHarvester,
        ThermalHarvester,
        WristwatchRingHarvester,
    )
    from ..energy.traces import PowerTrace

    sources = [
        ("wristwatch", WristwatchRingHarvester()),
        ("solar", SolarHarvester()),
        ("rf", RFHarvester()),
        ("thermal", ThermalHarvester()),
    ]
    n_samples = int(duration_s / TICK_S)
    baseline_task = engine.TraceTask(bits=8, kernel="median")
    task = engine.ExecutiveTraceTask(
        kernel="median",
        policy="linear",
        minbits=2,
        n_frames=12,
        frame_size=16,
        frame_period_ticks=2_500,
        retention_time_scale=RETENTION_TIME_SCALE,
    )
    rows = []
    gains = {}
    for name, model in sources:
        rng = np.random.default_rng(seed)
        trace = PowerTrace(model.generate(n_samples, rng), name=name)
        (result,) = engine.run_executive_on_trace(trace, [task])
        (baseline,) = engine.run_on_trace(trace, [baseline_task])
        gain = result.useful_progress / max(1, baseline.forward_progress)
        gains[name] = gain
        rows.append(
            (
                name,
                round(trace.mean_power_uw, 1),
                baseline.forward_progress,
                result.sim.total_progress,
                round(gain, 2),
            )
        )
    return ExperimentResult(
        experiment_id="ablation-sources",
        description="incidental FP gain per ambient energy source (median)",
        headers=("source", "mean_uW", "precise_FP", "incidental_FP", "gain"),
        rows=rows,
        data={"gains": gains},
    )


@_artifact("ablation-recover-placement")
def ablation_recover_placement(
    duration_s: float = 10.0,
    seed: int = 77,
) -> ExperimentResult:
    """Section 6: where to put ``incidental_recover_from``.

    Compares inner-loop vs per-frame recover points on a slow-interrupt
    source (solar) and a fast-interrupt one (RF). The paper's guidance:
    inner-loop placement only pays off when power interrupts are much
    shorter than a frame (WiFi-class sources); per-frame placement is
    recommended for solar/thermal.
    """
    from ..energy.harvester import RFHarvester, SolarHarvester
    from ..energy.traces import PowerTrace

    n_samples = int(duration_s / TICK_S)
    placement_tasks = [
        engine.ExecutiveTraceTask(
            kernel="median",
            policy="linear",
            minbits=2,
            n_frames=12,
            frame_size=8,
            frame_period_ticks=10_000,
            retention_time_scale=RETENTION_TIME_SCALE,
            recover_placement=placement,
        )
        for placement in ("frame", "inner")
    ]
    sources = [
        # A steady indoor-light source with long on-stretches: power
        # interrupts are rare relative to a frame's processing time.
        ("solar", SolarHarvester(mean_burst_ticks=900.0, mean_quiet_ticks=100.0,
                                 dead_probability=0.004, burst_median_uw=220.0)),
        # WiFi-class RF: interrupts far shorter than a frame.
        ("rf", RFHarvester()),
    ]
    rows = []
    data = {}
    for source_name, model in sources:
        rng = np.random.default_rng(seed)
        trace = PowerTrace(model.generate(n_samples, rng), name=source_name)
        results = engine.run_executive_on_trace(trace, placement_tasks)
        for task, result in zip(placement_tasks, results):
            placement = task.recover_placement
            data[(source_name, placement)] = (
                result.frames_completed,
                result.sim.total_progress,
            )
            rows.append(
                (
                    source_name,
                    placement,
                    result.frames_completed,
                    result.frames_abandoned,
                    result.sim.total_progress,
                )
            )
    return ExperimentResult(
        experiment_id="ablation-recover-placement",
        description="recover_from placement (Section 6): frame vs inner loop",
        headers=("source", "placement", "completed", "abandoned", "FP_total"),
        rows=rows,
        data={"outcomes": data},
    )


@_artifact("fig28-robustness")
def fig28_seed_robustness(
    n_seeds: int = 5,
    duration_s: float = 10.0,
    kernel: str = "median",
) -> ExperimentResult:
    """Statistical robustness of the headline gain.

    The paper reports Figure 28 on five fixed traces; this extension
    re-rolls the wristwatch harvester with fresh seeds and reports the
    spread of the incidental FP gain, so the headline number carries a
    confidence band instead of a point estimate.
    """
    tasks = [
        _ablation_task(0, duration_s, kernel=kernel, trace_seed=31_000 + seed)
        for seed in range(n_seeds)
    ]
    grid = engine.run_executive_grid(tasks)
    baselines = engine.run_grid(
        engine.FixedBitTask(
            profile_id=0, bits=8, duration_s=duration_s, kernel=kernel,
            seed=task.trace_seed,
        )
        for task in tasks
    )
    gains = []
    rows = []
    for seed, ((task, result), baseline) in enumerate(zip(grid, baselines.results)):
        trace = task.build_trace()
        gain = result.useful_progress / max(1, baseline.forward_progress)
        gains.append(gain)
        rows.append((seed, round(trace.mean_power_uw, 1), round(gain, 2)))
    mean = float(np.mean(gains))
    std = float(np.std(gains))
    rows.append(("mean±std", "", f"{mean:.2f}±{std:.2f}"))
    return ExperimentResult(
        experiment_id="fig28-robustness",
        description=f"incidental FP gain across re-rolled traces ({kernel})",
        headers=("seed", "mean_uW", "gain"),
        rows=rows,
        data={"gains": gains, "mean": mean, "std": std},
    )


@_artifact("resilience")
def resilience_campaign(
    rates: Sequence[float] = (0.0, 0.05, 0.1, 0.2),
    policies: Sequence[str] = ("linear", "log"),
    kernel: str = "median",
    duration_s: float = 3.0,
) -> ExperimentResult:
    """Quality and availability vs device fault rate.

    An extension beyond the paper: the device fault model of
    :mod:`repro.resilience` (torn backups, STT-RAM SEU flips, brownout
    tails) is swept against the hardened restore path, and each
    ``(kernel, policy, rate)`` point reports the availability (fraction
    of arrived frames completed), the surviving PSNR, and the fallback
    counters of the CRC-guarded restore chain. ``rate=0`` is the
    bit-identical anchor against the fault-free executive.
    """
    from .resilience import ResilienceCampaign

    campaign = ResilienceCampaign(
        kernels=(kernel,),
        policies=tuple(policies),
        rates=tuple(float(r) for r in rates),
        duration_s=duration_s,
    )
    result = campaign.run()
    rows = [
        (
            point.policy,
            f"{point.rate:.3f}",
            f"{point.availability:.3f}",
            "-" if point.mean_psnr_db is None else f"{point.mean_psnr_db:.2f}",
            point.detected_failures,
            point.fallback_previous,
            point.rollforwards,
            point.silent_corruptions,
            point.brownouts,
            point.lost_progress,
        )
        for point in result.points
    ]
    curves = {
        policy: {
            "availability": result.availability_curve(kernel, policy),
            "quality": result.quality_curve(kernel, policy),
        }
        for policy in campaign.policies
    }
    return ExperimentResult(
        experiment_id="resilience",
        description=f"graceful degradation vs device fault rate ({kernel})",
        headers=(
            "policy",
            "rate",
            "avail",
            "psnr_db",
            "detected",
            "fb_prev",
            "rollfwd",
            "silent",
            "brownouts",
            "lost",
        ),
        rows=rows,
        data={
            "points": [point.to_dict() for point in result.points],
            "curves": curves,
        },
    )


@_artifact("fleet")
def fleet_campaign(
    n_devices: int = 200,
    seed: int = 0,
    duration_s: float = 1.0,
) -> ExperimentResult:
    """Fleet-scale availability and forward-progress distributions.

    An extension beyond the paper: :mod:`repro.fleet` expands a
    weighted archetype mixture (solar sensors, RF scavengers, thermal
    wearables with manufacturing spread) into ``n_devices`` seeded
    device tasks and runs them through the chunk-sharded batch tier.
    Rows summarise each archetype plus the fleet-wide percentile
    spread; ``data`` carries the full distributions for the test suite
    and the report.
    """
    from ..fleet import FleetSpec, run_fleet

    result = run_fleet(
        FleetSpec(n_devices=n_devices, seed=seed, duration_s=duration_s)
    )
    rows: List[Tuple] = [
        (
            name,
            int(summary["devices"]),
            f"{summary['median_progress_per_s']:.0f}",
            f"{summary['mean_availability']:.3f}",
            f"{summary['stalled_fraction']:.3f}",
        )
        for name, summary in sorted(result.per_archetype.items())
    ]
    for level in ("p5", "p50", "p95"):
        rows.append(
            (
                f"fleet {level}",
                n_devices,
                f"{result.progress_rate_percentiles[level]:.0f}",
                f"{result.availability_percentiles[level]:.3f}",
                "-",
            )
        )
    return ExperimentResult(
        experiment_id="fleet",
        description=(
            f"fleet of {n_devices} heterogeneous harvesters ({duration_s:g}s)"
        ),
        headers=("archetype", "devices", "fp_per_s", "avail", "stalled"),
        rows=rows,
        data={
            "progress_percentiles": result.progress_percentiles,
            "progress_rate_percentiles": result.progress_rate_percentiles,
            "availability_percentiles": result.availability_percentiles,
            "availability_cdf": result.availability_cdf,
            "energy_per_progress_percentiles": (
                result.energy_per_progress_percentiles
            ),
            "per_archetype": result.per_archetype,
            "metrics": result.metrics,
        },
    )


@_artifact("runtable")
def runtable_stats(
    n_reps: int = 8,
    base_seed: int = 0,
    duration_s: float = 2.0,
) -> ExperimentResult:
    """Repetition statistics over the canonical run table.

    A small seeded sweep — precise vs linear retention at 4 and 8 bits
    on profile 1, ``n_reps`` harvester re-rolls each — flattened by
    :mod:`repro.analysis.runtable` and compared with the
    :mod:`repro.analysis.stats` pass: bootstrap CI per slice plus
    Mann-Whitney U and Cliff's delta for precise vs linear total
    progress. Fully deterministic for a given ``base_seed`` (trace
    seeds and bootstrap streams both derive from it), so the artifact
    regenerates identically anywhere.
    """
    from .engine import FixedBitTask
    from .runtable import SCHEMA_VERSION
    from .stats import compare_slices, repetition_sweep

    tasks = [
        FixedBitTask(
            profile_id=1,
            bits=bits,
            duration_s=duration_s,
            policy=policy,
        )
        for policy in ("precise", "linear")
        for bits in (4, 8)
    ]
    table = repetition_sweep(
        "fixed", tasks, n_reps=n_reps, base_seed=base_seed
    )
    comparison = compare_slices(
        table.rows,
        "total_progress",
        {"policy": "precise"},
        {"policy": "linear"},
        seed=base_seed,
    )
    rows: List[Tuple] = []
    for label, side in (("precise", comparison["a"]),
                        ("linear", comparison["b"])):
        rows.append(
            (
                label,
                side["n"],
                f"{side['mean']:.0f}",
                f"{side['ci_lo']:.0f}",
                f"{side['ci_hi']:.0f}",
            )
        )
    mw = comparison["mann_whitney"]
    delta = comparison["cliffs_delta"]
    rows.append(
        (
            "precise vs linear",
            len(table),
            f"p={mw['p_value']:.4f}",
            f"d={delta['delta']:+.3f}",
            delta["magnitude"],
        )
    )
    return ExperimentResult(
        experiment_id="runtable",
        description=(
            f"run-table repetition statistics ({n_reps} trace re-rolls "
            f"per config, schema v{SCHEMA_VERSION})"
        ),
        headers=("slice", "n", "mean_fp", "ci_lo", "ci_hi"),
        rows=rows,
        data={
            "n_rows": len(table),
            "comparison": comparison,
        },
    )
