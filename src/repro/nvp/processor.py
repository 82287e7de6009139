"""The behavioral nonvolatile processor (Figure 6).

``NonvolatileProcessor`` composes the energy model, pipeline sizing
and backup engine into the object the system-level simulator drives:
"run this many cycles with these lane bit-budgets", "back up now",
"restore now". It tracks committed instructions per lane — lane 0 is
the current (newest-data) computation and lanes 1-3 are incidental
SIMD lanes — which is exactly the forward progress accounting the
paper's metrics need.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .._validation import check_int_in_range
from ..errors import ProcessorError
from ..nvm.retention import RetentionPolicy
from ..obs.tracer import NULL_TRACER
from ..resilience import DeviceResilience, ResilienceConfig
from .backup import BackupEngine
from .energy_model import CYCLES_PER_TICK, EnergyModel
from .isa import DEFAULT_MIX, InstructionMix
from .pipeline import PipelineModel

__all__ = ["NonvolatileProcessor"]


class NonvolatileProcessor:
    """Energy- and progress-accounting model of the incidental NVP.

    Parameters
    ----------
    energy_model:
        Calibrated power/energy model (defaults provided).
    policy:
        Retention policy for approximate backups; ``None`` = precise.
    mix:
        Instruction mix of the running kernel (affects energy/instr).
    max_simd_width:
        Hardware lane limit (4 in the paper).
    resilience:
        Optional :class:`~repro.resilience.ResilienceConfig`; when
        given, the processor owns a :class:`DeviceResilience` instance
        that injects device faults into backups/restores and runs the
        hardened fallback chain. ``None`` (the default) keeps the
        idealized atomic-persistence behavior bit-identical.
    tracer:
        Optional observability :class:`~repro.obs.Tracer`; threaded into
        the backup engine and the resilience model. ``None`` (the
        default) binds the free NULL_TRACER everywhere.
    """

    def __init__(
        self,
        energy_model: Optional[EnergyModel] = None,
        policy: Optional[RetentionPolicy] = None,
        mix: InstructionMix = DEFAULT_MIX,
        max_simd_width: int = 4,
        resilience: Optional[ResilienceConfig] = None,
        tracer=None,
    ) -> None:
        self.energy_model = energy_model if energy_model is not None else EnergyModel()
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.pipeline = PipelineModel(word_bits=self.energy_model.word_bits)
        self.resilience: Optional[DeviceResilience] = (
            DeviceResilience(resilience) if resilience is not None else None
        )
        if self.resilience is not None:
            self.resilience.tracer = self.tracer
        guard_bits = (
            self.resilience.priced_guard_bits if self.resilience is not None else 0
        )
        self.backup_engine = BackupEngine(
            self.energy_model,
            self.pipeline,
            policy=policy,
            guard_bits=guard_bits,
            tracer=self.tracer,
        )
        self.mix = mix
        self.max_simd_width = check_int_in_range(max_simd_width, "max_simd_width", 1, 4)
        # Committed instructions per lane slot.
        self.committed_per_lane: List[int] = [0, 0, 0, 0]
        self.pc = 0
        self.run_energy_uj = 0.0
        self.run_ticks = 0
        # Fractional-instruction carry so multi-cycle instructions that
        # straddle tick boundaries are not lost to truncation.
        self._instruction_residue = 0.0

    # -- power queries (used by the system layer for thresholds) ----------

    def run_power_uw(self, lane_bits: Sequence[int]) -> float:
        """Chip power (µW) while executing with the given lane budgets."""
        self._check_lanes(lane_bits)
        return self.energy_model.run_power_uw(lane_bits)

    def backup_energy_uj(self, lane_bits: Sequence[int]) -> float:
        """Cost of a backup under the current policy and lane budgets."""
        self._check_lanes(lane_bits)
        return self.backup_engine.backup_energy_uj(lane_bits)

    def restore_energy_uj(self, lane_bits: Sequence[int]) -> float:
        """Cost of a restore for the given lane budgets."""
        self._check_lanes(lane_bits)
        return self.backup_engine.restore_energy_uj(lane_bits)

    def _check_lanes(self, lane_bits: Sequence[int]) -> None:
        lanes = list(lane_bits)
        if not 1 <= len(lanes) <= self.max_simd_width:
            raise ProcessorError(
                f"lane count must be 1-{self.max_simd_width}, got {len(lanes)}"
            )
        for b in lanes:
            check_int_in_range(
                b, "lane bits", 1, self.energy_model.word_bits, exc=ProcessorError
            )

    # -- execution ----------------------------------------------------------

    def execute_tick(self, lane_bits: Sequence[int]) -> int:
        """Run one 0.1 ms tick (100 cycles at 1 MHz) on the given lanes.

        Returns the number of lane-instructions committed this tick and
        accumulates run energy and per-lane progress. Lane order is
        [current, incidental_1, incidental_2, incidental_3].
        """
        self._check_lanes(lane_bits)
        lanes = list(lane_bits)
        exact = CYCLES_PER_TICK / self.mix.mean_cycles + self._instruction_residue
        instructions_per_lane = int(exact)
        self._instruction_residue = exact - instructions_per_lane
        for lane, _bits in enumerate(lanes):
            self.committed_per_lane[lane] += instructions_per_lane
        power = self.energy_model.run_power_uw(lanes) * self.mix.mean_energy_weight
        self.run_energy_uj += power * 1.0e-4  # one tick = 1e-4 s
        self.run_ticks += 1
        self.pc = (self.pc + instructions_per_lane) & 0xFFFF
        committed = instructions_per_lane * len(lanes)
        if self.resilience is not None:
            self.resilience.note_executed(committed)
        return committed

    # -- persistence ----------------------------------------------------------

    def backup(self, tick: int, lane_bits: Sequence[int]) -> float:
        """Take a backup; returns its energy (µJ).

        With a resilience model attached, the fault model decides
        whether this backup tears mid-write; the record carries the
        outcome and the checkpoint store receives the (possibly torn,
        CRC-guarded) image the restore path will later validate.
        """
        self._check_lanes(lane_bits)
        aborted = False
        if self.resilience is not None:
            aborted = self.resilience.on_backup(
                tick, self.pipeline.state_bits(lane_bits)
            )
        record = self.backup_engine.record_backup(tick, lane_bits, aborted=aborted)
        if self.resilience is not None:
            self.resilience.note_guard_energy(record.energy_uj, record.state_bits)
        return record.energy_uj

    def restore(self, lane_bits: Sequence[int]) -> float:
        """Restore after an outage; returns its energy (µJ)."""
        self._check_lanes(lane_bits)
        return self.backup_engine.record_restore(lane_bits)

    # -- progress metrics --------------------------------------------------------

    @property
    def forward_progress(self) -> int:
        """Committed instructions on the current-data lane (lane 0)."""
        return self.committed_per_lane[0]

    @property
    def incidental_progress(self) -> int:
        """Committed instructions on incidental lanes (lanes 1-3)."""
        return int(sum(self.committed_per_lane[1:]))

    @property
    def total_progress(self) -> int:
        """All committed lane-instructions (the paper's incidental FP)."""
        return self.forward_progress + self.incidental_progress

    @property
    def backup_count(self) -> int:
        """Backups taken so far."""
        return self.backup_engine.backup_count

    @property
    def aborted_backup_count(self) -> int:
        """Backups interrupted mid-write so far."""
        return self.backup_engine.aborted_backup_count

    def reset_counters(self) -> None:
        """Zero progress/energy counters (state sizing is untouched)."""
        self.committed_per_lane = [0, 0, 0, 0]
        self.run_energy_uj = 0.0
        self.run_ticks = 0
        self.pc = 0
        self._instruction_residue = 0.0
        self.backup_engine.backups.clear()
        self.backup_engine.restore_count = 0
        self.backup_engine.total_backup_energy_uj = 0.0
        self.backup_engine.total_restore_energy_uj = 0.0
        if self.resilience is not None:
            self.resilience.reset()
