"""System-level configuration (the simulator inputs of Figure 10).

The paper lists the system simulator's inputs as: "the system capacitor
size, capacitor leakage, chip leakage, front-end circuit efficiency,
system start threshold, backup energy threshold, and recovery
threshold". :class:`SystemConfig` carries exactly those knobs (the
thresholds being derived per-configuration from backup/restore energies
via :func:`repro.energy.management.derive_thresholds`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .._validation import check_int_in_range, check_non_negative, check_positive
from ..energy.capacitor import Capacitor
from ..energy.frontend import DualChannelFrontend, RectifierFrontend
from ..errors import ConfigurationError

__all__ = ["SystemConfig"]


@dataclass(frozen=True)
class SystemConfig:
    """Knobs of the NVP system simulation.

    Defaults are jointly calibrated (DESIGN.md §5.3) against the
    published system behaviour: backup energy share of 20-33 % for a
    precise NVP, several hundred to ~1200 backups per 10 s trace, and
    the Figure 15/16 scaling trends.
    """

    #: On-chip capacitor capacity (µJ) — small, per the NVP paradigm.
    capacitor_uj: float = 4.5
    #: Fraction of capacity the cap must reach before a start (on top
    #: of the derived start threshold): the bounded-range charging
    #: policy of Ma et al. [24], which banks a real run buffer instead
    #: of starting the instant the bare threshold is met.
    start_fill_fraction: float = 0.35
    #: Proportional capacitor self-discharge (fraction per second).
    capacitor_leak_per_s: float = 0.02
    #: Constant parasitic draw from the cap while charged (µW).
    capacitor_leak_floor_uw: float = 0.5
    #: Front-end asymptotic conversion efficiency.
    frontend_eta_max: float = 0.82
    #: Front-end half-efficiency input power (µW).
    frontend_half_power_uw: float = 12.0
    #: Front-end cold-start minimum input (µW).
    frontend_min_input_uw: float = 2.0
    #: Guaranteed execution burst after a start (ticks).
    min_run_ticks: int = 10
    #: Safety margin on the backup-energy reserve.
    backup_margin: float = 0.25
    #: Chip leakage while the NVP is off (µW); NV state needs none,
    #: this covers the power-detection circuitry.
    off_leakage_uw: float = 0.2
    #: Dual-channel front end (Sheng et al. [57], discussed in §2.2):
    #: while the NVP runs, income bypasses the storage round-trip and
    #: reaches the load at ``dual_channel_efficiency``.
    dual_channel: bool = False
    dual_channel_efficiency: float = 0.92

    def __post_init__(self) -> None:
        check_positive(self.capacitor_uj, "capacitor_uj")
        check_positive(self.start_fill_fraction, "start_fill_fraction")
        if self.start_fill_fraction > 1.0:
            raise ConfigurationError("start_fill_fraction must not exceed 1")
        check_non_negative(self.capacitor_leak_per_s, "capacitor_leak_per_s")
        check_non_negative(self.capacitor_leak_floor_uw, "capacitor_leak_floor_uw")
        check_positive(self.frontend_eta_max, "frontend_eta_max")
        check_positive(self.frontend_half_power_uw, "frontend_half_power_uw")
        check_non_negative(self.frontend_min_input_uw, "frontend_min_input_uw")
        check_int_in_range(self.min_run_ticks, "min_run_ticks", 1)
        check_non_negative(self.backup_margin, "backup_margin")
        check_non_negative(self.off_leakage_uw, "off_leakage_uw")
        if not 0.0 < self.dual_channel_efficiency <= 1.0:
            raise ConfigurationError("dual_channel_efficiency must be in (0, 1]")

    def build_capacitor(self) -> Capacitor:
        """Instantiate the configured on-chip capacitor (empty)."""
        return Capacitor(
            capacity_uj=self.capacitor_uj,
            leakage_fraction_per_s=self.capacitor_leak_per_s,
            leakage_floor_uw=self.capacitor_leak_floor_uw,
        )

    def build_frontend(self) -> RectifierFrontend:
        """Instantiate the configured AC-DC front end."""
        if self.dual_channel:
            return DualChannelFrontend(
                eta_max=self.frontend_eta_max,
                half_power_uw=self.frontend_half_power_uw,
                min_input_uw=self.frontend_min_input_uw,
                bypass_efficiency=self.dual_channel_efficiency,
            )
        return RectifierFrontend(
            eta_max=self.frontend_eta_max,
            half_power_uw=self.frontend_half_power_uw,
            min_input_uw=self.frontend_min_input_uw,
        )
