"""Simulation output metrics.

The paper's two headline "execution metrics" are *forward progress*
(persistently committed instructions) and the *number of backups*
(Figures 15-16, 20-21, 25, 28), with system-on time appearing in the
Figure 9 analysis. :class:`SimulationResult` carries those plus the
energy ledger and the per-tick bit schedule that couples the system
simulation to kernel output quality (Figures 17-19).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..errors import SimulationError

__all__ = ["SimulationResult"]

#: Sentinel in the bit schedule for "system off this tick".
OFF_BITS: int = 0


@dataclass(frozen=True)
class SimulationResult:
    """Everything one system-level simulation run produced.

    Attributes
    ----------
    forward_progress:
        Committed instructions on the current-data lane (lane 0). For a
        non-incidental NVP this is the paper's forward progress metric.
    incidental_progress:
        Committed instructions on incidental SIMD lanes (lanes 1-3);
        the paper's incidental FP counts these too.
    bit_schedule:
        Per-tick reliable-bit budget of lane 0 (``0`` = system off) —
        the series plotted in Figure 18.
    lane_schedule:
        Per-tick active lane count (0 when off).
    """

    total_ticks: int
    forward_progress: int
    incidental_progress: int
    backup_count: int
    restore_count: int
    on_ticks: int
    income_energy_uj: float
    converted_energy_uj: float
    run_energy_uj: float
    backup_energy_uj: float
    restore_energy_uj: float
    bit_schedule: np.ndarray
    lane_schedule: np.ndarray
    backup_ticks: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.total_ticks <= 0:
            raise SimulationError("total_ticks must be positive")
        if len(self.bit_schedule) != self.total_ticks:
            raise SimulationError("bit_schedule length must equal total_ticks")
        if len(self.lane_schedule) != self.total_ticks:
            raise SimulationError("lane_schedule length must equal total_ticks")

    # -- headline metrics ---------------------------------------------------

    @property
    def total_progress(self) -> int:
        """Current-lane plus incidental-lane committed instructions."""
        return self.forward_progress + self.incidental_progress

    @property
    def system_on_fraction(self) -> float:
        """Fraction of ticks spent powered (RESTORE/RUN/BACKUP)."""
        return self.on_ticks / self.total_ticks

    @property
    def backup_energy_share(self) -> float:
        """Backup energy as a share of converted income energy.

        Section 3.2 reports 20.1-33 % for a precise NVP on the
        wristwatch profiles.
        """
        if self.converted_energy_uj <= 0.0:
            return 0.0
        return self.backup_energy_uj / self.converted_energy_uj

    # -- bit-utilisation series (Figures 17-18) ----------------------------

    def bit_utilization(self, word_bits: int = 8) -> Dict[int, float]:
        """Fraction of ticks at each bit level, 0 meaning OFF.

        Reproduces the right-hand distribution of Figure 18 (e.g.
        "OFF 59.7 %, 8 bits 19.8 %, sparse middle").
        """
        schedule = np.asarray(self.bit_schedule)
        out: Dict[int, float] = {}
        for level in range(0, word_bits + 1):
            out[level] = float(np.mean(schedule == level))
        return out

    def mean_active_bits(self) -> float:
        """Mean lane-0 bit budget over powered ticks (0 if never on)."""
        schedule = np.asarray(self.bit_schedule)
        active = schedule[schedule > 0]
        if active.size == 0:
            return 0.0
        return float(active.mean())

    def active_bit_series(self) -> np.ndarray:
        """Bit budgets of powered ticks only, in time order.

        This is the per-element bit schedule handed to kernels under
        dynamic bitwidth: element ``k`` of a frame is computed during
        the ``k``-th powered tick's budget.
        """
        schedule = np.asarray(self.bit_schedule)
        return schedule[schedule > 0].astype(np.int64)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"FP={self.forward_progress} (+{self.incidental_progress} incidental), "
            f"backups={self.backup_count}, on={100 * self.system_on_fraction:.1f}%, "
            f"backup-energy={100 * self.backup_energy_share:.1f}% of income"
        )
