"""The 0.1 ms-tick NVP system simulator (Figure 10, system layer).

Each tick the simulator: converts the trace's harvested power through
the front end, integrates the on-chip capacitor (income, load,
leakage), and advances the OFF / RESTORE / RUN / BACKUP state machine:

* **OFF** — the NVP is unpowered (nonvolatile state needs nothing);
  when the capacitor reaches the *start threshold* (restore energy +
  backup reserve + a minimum run budget) the system restores.
* **RUN** — a :class:`BitAllocator` chooses the per-lane reliable-bit
  budgets for the tick (fixed for the baseline NVP; power-tracking for
  dynamic bitwidth; surplus-driven multi-lane for incidental SIMD).
  If finishing the tick would drop the capacitor below the backup
  reserve for the *current* lane configuration, a power emergency is
  declared and the state is backed up instead.
* **RESTORE** / **BACKUP** — occupy one tick each and spend their
  energy atomically.

The per-tick lane-0 bit budget is recorded as the *bit schedule*, which
couples this simulation to kernel output quality (Figures 17-19).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional

import numpy as np

from .._validation import check_int_in_range
from ..energy.frontend import DualChannelFrontend
from ..energy.management import derive_thresholds
from ..energy.traces import TICK_S, PowerTrace
from ..errors import SimulationError
from ..nvm.retention import RetentionPolicy
from ..nvp.isa import DEFAULT_MIX, InstructionMix
from ..nvp.processor import NonvolatileProcessor
from ..obs.metrics import BITWIDTH_BUCKETS, OUTAGE_TICKS_BUCKETS
from ..obs.tracer import resolve_tracer
from ..resilience import ResilienceConfig, RestoreOutcome
from .batchsim import FixedLaneSpec, run_fixed_batch
from .config import SystemConfig
from .metrics import SimulationResult
from .states import SystemState

__all__ = [
    "BitAllocator",
    "FixedBitAllocator",
    "NVPSystemSimulator",
    "simulate_fixed_bits",
]


class BitAllocator(ABC):
    """Strategy choosing per-tick lane bit budgets.

    The system simulator is agnostic to *why* a configuration runs with
    a given precision; baselines use :class:`FixedBitAllocator`, while
    the paper's contribution plugs in the dynamic and incidental
    allocators from :mod:`repro.core.controller`.
    """

    #: Whether the simulator may drop trailing SIMD lanes when the
    #: backup reserve would be violated. Incidental allocators opt in
    #: (their lanes are opportunistic); fixed-width baselines must not
    #: have their configuration silently narrowed.
    allow_lane_narrowing: bool = False

    @abstractmethod
    def start_lane_bits(self) -> List[int]:
        """Cheapest viable lane configuration.

        Used to derive the system start threshold: the system wakes as
        soon as it can afford to run in this configuration, which is
        why aggressive ``minbits`` pragmas lower the start threshold
        (Figure 9).
        """

    @abstractmethod
    def allocate(self, income_uw: float, stored_uj: float, tick: int) -> List[int]:
        """Lane budgets for this tick given income and stored energy."""

    def notify_backup(self, tick: int) -> None:
        """Hook: the system backed up at ``tick`` (stateful allocators)."""

    def notify_restore(self, tick: int) -> None:
        """Hook: the system restored at ``tick``."""

    def notify_executed(self, tick: int, lane_bits: List[int], instructions_per_lane: int) -> None:
        """Hook: a run tick completed with these lanes (stateful allocators)."""

    def notify_degraded_restore(self, tick: int, outcome: RestoreOutcome) -> None:
        """Hook: restore-time validation degraded (fallback/rollforward/
        silent corruption). Stateful allocators discard or distrust the
        progress the lost checkpoint epoch covered; the default is a
        no-op because stateless allocators carry no resumable state."""


class FixedBitAllocator(BitAllocator):
    """Always run ``simd_width`` lanes at ``bits`` reliable bits.

    ``FixedBitAllocator(8)`` is the paper's precise baseline NVP;
    ``FixedBitAllocator(8, simd_width=4)`` is the "4-SIMD NVP" of
    Figure 9.
    """

    def __init__(self, bits: int, simd_width: int = 1, word_bits: int = 8) -> None:
        self.bits = check_int_in_range(bits, "bits", 1, word_bits)
        self.simd_width = check_int_in_range(simd_width, "simd_width", 1, 4)

    def start_lane_bits(self) -> List[int]:
        return [self.bits] * self.simd_width

    def allocate(self, income_uw: float, stored_uj: float, tick: int) -> List[int]:
        return [self.bits] * self.simd_width


def _fold_run_metrics(tracer, bit_schedule, lane_schedule, on_ticks, n) -> None:
    """Fold end-of-run schedule distributions into the tracer's metrics
    (histograms are derived from the recorded schedules, not from
    loop-side counters)."""
    metrics = tracer.metrics
    run_mask = bit_schedule > 0
    bits = np.bincount(bit_schedule[run_mask], minlength=9)
    widths = np.bincount(lane_schedule[run_mask], minlength=9)
    bits_hist = metrics.histogram("lane0.bits", BITWIDTH_BUCKETS)
    width_hist = metrics.histogram("simd.width", BITWIDTH_BUCKETS)
    for value in range(1, min(9, len(bits))):
        if bits[value]:
            bits_hist.observe(value, int(bits[value]))
    for value in range(1, min(9, len(widths))):
        if widths[value]:
            width_hist.observe(value, int(widths[value]))
    metrics.inc("sim.on_ticks", int(on_ticks))
    metrics.inc("sim.total_ticks", int(n))
    metrics.set_gauge("sim.on_fraction", on_ticks / n if n else 0.0)


class NVPSystemSimulator:
    """Drives a :class:`NonvolatileProcessor` over one power trace."""

    def __init__(
        self,
        trace: PowerTrace,
        processor: NonvolatileProcessor,
        allocator: BitAllocator,
        config: Optional[SystemConfig] = None,
    ) -> None:
        self.trace = trace
        self.processor = processor
        self.allocator = allocator
        self.config = config if config is not None else SystemConfig()

    def run(self) -> SimulationResult:
        """Simulate the whole trace; returns the collected metrics."""
        cfg = self.config
        proc = self.processor
        proc.reset_counters()
        cap = cfg.build_capacitor()
        # Observability: the processor's tracer covers the whole device,
        # so the system layer and the capacitor report into it too. All
        # hooks are guarded by the hoisted flags below; with the default
        # NULL_TRACER every guard is False and the loop is unchanged.
        tracer = proc.tracer
        t_enabled = tracer.enabled
        t_events = tracer.events
        cap.attach_tracer(tracer)
        frontend = cfg.build_frontend()
        samples = self.trace.samples_uw
        converted = frontend.convert_trace(samples)
        # Dual-channel front end (§2.2): while the load runs, income
        # arrives through the bypass channel at its flat efficiency
        # instead of the storage round-trip. (Surplus beyond the load is
        # also banked at bypass efficiency — marginally optimistic, but
        # surplus-while-running is rare on these profiles.)
        direct = None
        if isinstance(frontend, DualChannelFrontend):
            direct = samples * frontend.bypass_efficiency
            direct[samples < frontend.min_input_uw] = 0.0
        n = len(samples)

        start_lanes = self.allocator.start_lane_bits()
        thresholds = derive_thresholds(
            backup_energy_uj=proc.backup_energy_uj(start_lanes),
            restore_energy_uj=proc.restore_energy_uj(start_lanes),
            run_power_uw=proc.run_power_uw(start_lanes) * proc.mix.mean_energy_weight,
            min_run_ticks=cfg.min_run_ticks,
            backup_margin=cfg.backup_margin,
        )
        # Bounded-range charging (Ma et al. [24]): bank a real run
        # buffer before starting, not just the bare viability threshold.
        start_level_uj = max(
            thresholds.start_energy_uj,
            cfg.start_fill_fraction * cfg.capacitor_uj,
        )
        if start_level_uj > cfg.capacitor_uj:
            raise SimulationError(
                f"start level {start_level_uj:.2f} uJ exceeds capacitor "
                f"capacity {cfg.capacitor_uj:.2f} uJ; this configuration "
                "can never start"
            )

        state = SystemState.OFF
        on_ticks = 0
        backup_ticks: List[int] = []
        bit_schedule = np.zeros(n, dtype=np.int16)
        lane_schedule = np.zeros(n, dtype=np.int16)
        mix_weight = proc.mix.mean_energy_weight
        resilience = proc.resilience
        outage_start = 0
        run_start = 0
        prev_lanes: Optional[List[int]] = None

        for tick in range(n):
            if t_enabled:
                tracer.tick = tick
            if direct is not None and state is SystemState.RUN:
                cap.charge(direct[tick])
            else:
                cap.charge(converted[tick])
            cap.leak()

            if state is SystemState.OFF:
                cap.drain_power(cfg.off_leakage_uw)
                if cap.energy_uj >= start_level_uj:
                    # RESTORE occupies this tick.
                    lanes = self.allocator.start_lane_bits()
                    restore_cost = proc.restore_energy_uj(lanes)
                    if resilience is not None and resilience.restore_blocked(tick):
                        # Brownout tail: the NVM read/wake-up silently
                        # fails. The attempt's energy is spent (which
                        # naturally stretches the outage) but the
                        # device stays OFF.
                        cap.draw(restore_cost)
                        resilience.telemetry.wasted_restore_energy_uj += restore_cost
                        continue
                    if not cap.draw(restore_cost):
                        raise SimulationError(
                            "start threshold did not cover restore energy"
                        )
                    proc.restore(lanes)
                    outcome = (
                        resilience.on_restore(tick)
                        if resilience is not None
                        else None
                    )
                    self.allocator.notify_restore(tick)
                    if outcome is not None and outcome.degraded:
                        self.allocator.notify_degraded_restore(tick, outcome)
                    state = SystemState.RUN
                    on_ticks += 1
                    if t_enabled:
                        tracer.span("outage", outage_start, tick, cat="system")
                        tracer.metrics.observe(
                            "outage.ticks", tick - outage_start, OUTAGE_TICKS_BUCKETS
                        )
                        run_start = tick
                        prev_lanes = None
                continue

            # state is RUN
            income_now = (
                direct[tick] if direct is not None else converted[tick]
            )
            lanes = self.allocator.allocate(income_now, cap.energy_uj, tick)
            requested_lanes = len(lanes) if t_events else 0
            run_power = proc.run_power_uw(lanes) * mix_weight
            tick_energy = run_power * TICK_S
            backup_reserve = proc.backup_energy_uj(lanes) * (1.0 + cfg.backup_margin)
            # The controller never widens SIMD into a configuration it
            # could not back up: drop lanes until the reserve invariant
            # holds (or only the current lane remains).
            while (
                self.allocator.allow_lane_narrowing
                and len(lanes) > 1
                and cap.energy_uj - tick_energy < backup_reserve
            ):
                lanes = lanes[:-1]
                run_power = proc.run_power_uw(lanes) * mix_weight
                tick_energy = run_power * TICK_S
                backup_reserve = proc.backup_energy_uj(lanes) * (1.0 + cfg.backup_margin)
            if t_events and requested_lanes > len(lanes):
                tracer.instant(
                    "lanes.narrowed",
                    tick=tick,
                    cat="system",
                    args={"requested": requested_lanes, "granted": len(lanes)},
                )

            if cap.energy_uj - tick_energy < backup_reserve:
                # Power emergency: back up with the reserved charge.
                # If the allocator just raised the bit budget past what
                # the remaining charge can persist, only the affordable
                # reliable slice of the state is backed up.
                backup_lanes = list(lanes)
                backup_cost = proc.backup_energy_uj(backup_lanes)
                while backup_lanes[0] > 1 and backup_cost > cap.energy_uj:
                    backup_lanes[0] -= 1
                    backup_cost = proc.backup_energy_uj(backup_lanes)
                if not cap.draw(backup_cost):
                    raise SimulationError("backup reserve was not available")
                if t_events and backup_lanes[0] < lanes[0]:
                    tracer.instant(
                        "backup.narrowed",
                        tick=tick,
                        cat="system",
                        args={"requested_bits": lanes[0], "granted_bits": backup_lanes[0]},
                    )
                lanes = backup_lanes
                proc.backup(tick, lanes)
                self.allocator.notify_backup(tick)
                backup_ticks.append(tick)
                state = SystemState.OFF
                on_ticks += 1
                if t_enabled:
                    tracer.span("run", run_start, tick, cat="system")
                    outage_start = tick
                continue

            shortfall = cap.drain_power(run_power)
            if shortfall > 0.0:
                raise SimulationError("run tick drained past available charge")
            executed = proc.execute_tick(lanes)
            self.allocator.notify_executed(tick, lanes, executed // len(lanes))
            bit_schedule[tick] = lanes[0]
            lane_schedule[tick] = len(lanes)
            on_ticks += 1
            if t_events and lanes != prev_lanes:
                tracer.instant(
                    "lanes",
                    tick=tick,
                    cat="system",
                    args={"bits": list(lanes), "width": len(lanes)},
                )
                prev_lanes = list(lanes)

        if t_enabled:
            if state is SystemState.OFF:
                tracer.span("outage", outage_start, n, cat="system")
            else:
                tracer.span("run", run_start, n, cat="system")
            _fold_run_metrics(tracer, bit_schedule, lane_schedule, on_ticks, n)

        return SimulationResult(
            total_ticks=n,
            forward_progress=proc.forward_progress,
            incidental_progress=proc.incidental_progress,
            backup_count=proc.backup_count,
            restore_count=proc.backup_engine.restore_count,
            on_ticks=on_ticks,
            income_energy_uj=self.trace.total_energy_uj,
            converted_energy_uj=float(converted.sum() * TICK_S),
            run_energy_uj=proc.run_energy_uj,
            backup_energy_uj=proc.backup_engine.total_backup_energy_uj,
            restore_energy_uj=proc.backup_engine.total_restore_energy_uj,
            bit_schedule=bit_schedule,
            lane_schedule=lane_schedule,
            backup_ticks=tuple(backup_ticks),
        )


def simulate_fixed_bits(
    trace: PowerTrace,
    bits: int,
    simd_width: int = 1,
    policy: Optional[RetentionPolicy] = None,
    mix: InstructionMix = DEFAULT_MIX,
    config: Optional[SystemConfig] = None,
    engine: str = "auto",
    resilience: Optional[ResilienceConfig] = None,
    tracer=None,
) -> SimulationResult:
    """Convenience: simulate a fixed-bitwidth NVP over ``trace``.

    This is the workhorse behind Figures 15, 16 and 25: sweep ``bits``
    from 8 down to 1 (and ``policy`` across retention shapes) and
    compare forward progress and backup counts.

    ``engine`` selects the implementation: ``"auto"`` replays the run
    as a one-lane plan through the compiled kernel of
    :mod:`repro.system.batchsim` (the default — results are identical
    by contract, enforced by ``tests/test_engine_equivalence.py``);
    ``"reference"`` forces the per-tick loop of
    :class:`NVPSystemSimulator`.

    The kernel models neither device faults nor tracing, so a
    ``resilience`` config (a device fault model + hardened restore
    path) or an enabled ``tracer`` takes the reference loop, and so
    does any lane the kernel refuses: no compiler on the host, a
    configuration that can never start, a nonzero kernel status. The
    reference then raises whatever error the configuration deserves.
    Tracing only reads device state, so a traced run returns the
    untraced result (``tests/test_obs_differential.py``).
    """
    if engine not in ("auto", "reference"):
        raise SimulationError(
            f"engine must be 'auto' or 'reference', got {engine!r}"
        )
    if (
        engine != "reference"
        and resilience is None
        and not resolve_tracer(tracer).enabled
    ):
        spec = FixedLaneSpec(
            trace, bits, simd_width=simd_width, policy=policy, mix=mix,
            config=config,
        )
        outcome = run_fixed_batch([spec])[0]
        if outcome.result is not None:
            return outcome.result
    processor = NonvolatileProcessor(
        policy=policy, mix=mix, resilience=resilience, tracer=tracer
    )
    allocator = FixedBitAllocator(bits, simd_width=simd_width)
    return NVPSystemSimulator(trace, processor, allocator, config=config).run()
