"""STT-RAM write current / pulse width / retention model (Figure 4).

The paper observes (citing Smullen et al. [58], Jog et al. [12] and
Swaminathan et al. [63]) that relaxing an STT-RAM cell's retention time
dramatically reduces its write energy: "77% of write energy can be
saved ... by reducing the retention time from 1 day to 10 ms".

We use the standard thermal-stability formulation:

* retention time ``t_ret = tau0 * exp(Delta)`` with ``tau0 = 1 ns``,
  so the thermal-stability factor is ``Delta = ln(t_ret / tau0)``;
* the critical switching current scales with a power of the (relative)
  thermal stability, ``Ic0(Delta) = i_ref * (Delta / Delta_ref)**p``;
* for a finite write pulse of width ``t_p`` the required current is
  ``I(t_p) = Ic0 * (1 + t_char / t_p)`` (precessional penalty for short
  pulses);
* write energy is ``E = V * I * t_p``.

The exponent ``p`` is calibrated (p = 1.6) so that the minimum-energy
write point for 10 ms retention costs ~23 % of the 1-day point — the
paper's 77 % saving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from .._validation import check_positive
from ..errors import NVMError

__all__ = ["STTRAMModel", "RETENTION_ONE_DAY_S", "RETENTION_10MS_S"]

#: One day, in seconds — the paper's "reliable" retention reference.
RETENTION_ONE_DAY_S: float = 86_400.0

#: Ten milliseconds — the paper's most-relaxed example retention.
RETENTION_10MS_S: float = 0.010

#: Attempt period of the free magnetic layer (seconds).
_TAU0_S: float = 1.0e-9


@dataclass(frozen=True)
class STTRAMModel:
    """Analytic STT-RAM cell model for dynamic-retention writes.

    Parameters
    ----------
    i_ref_ua:
        Critical current (µA) for the reference retention (1 day) at an
        infinitely long pulse.
    stability_exponent:
        Exponent ``p`` in ``Ic0 ∝ (Delta/Delta_ref)^p``; calibrated to
        reproduce the 77 % write-energy saving of Figure 4.
    t_char_ns:
        Characteristic precessional time constant (ns): the pulse-width
        penalty scale.
    write_voltage_v:
        Write voltage across the cell (V).
    max_current_ua:
        Largest current the write driver can source (the Figure 4 axis
        tops out at 250 µA).
    min_pulse_ns / max_pulse_ns:
        Feasible write-pulse range of the driver and timing counter.
    """

    i_ref_ua: float = 100.0
    stability_exponent: float = 1.65
    t_char_ns: float = 1.0
    write_voltage_v: float = 1.2
    max_current_ua: float = 250.0
    min_pulse_ns: float = 0.25
    max_pulse_ns: float = 10.0

    def __post_init__(self) -> None:
        check_positive(self.i_ref_ua, "i_ref_ua", exc=NVMError)
        check_positive(self.stability_exponent, "stability_exponent", exc=NVMError)
        check_positive(self.t_char_ns, "t_char_ns", exc=NVMError)
        check_positive(self.write_voltage_v, "write_voltage_v", exc=NVMError)
        check_positive(self.max_current_ua, "max_current_ua", exc=NVMError)
        check_positive(self.min_pulse_ns, "min_pulse_ns", exc=NVMError)
        if self.max_pulse_ns <= self.min_pulse_ns:
            raise NVMError("max_pulse_ns must exceed min_pulse_ns")

    # -- thermal stability ---------------------------------------------

    @staticmethod
    def thermal_stability(retention_s: float) -> float:
        """Thermal-stability factor ``Delta = ln(t_ret / tau0)``."""
        retention = check_positive(retention_s, "retention_s", exc=NVMError)
        if retention <= _TAU0_S:
            raise NVMError(
                f"retention_s must exceed the attempt period {_TAU0_S} s"
            )
        return math.log(retention / _TAU0_S)

    @property
    def reference_stability(self) -> float:
        """``Delta`` of the 1-day reference retention."""
        return self.thermal_stability(RETENTION_ONE_DAY_S)

    def critical_current_ua(self, retention_s: float) -> float:
        """Long-pulse critical current for the requested retention (µA)."""
        delta = self.thermal_stability(retention_s)
        ratio = delta / self.reference_stability
        return self.i_ref_ua * ratio ** self.stability_exponent

    # -- the Figure 4 surface --------------------------------------------

    def write_current_ua(self, pulse_ns: float, retention_s: float) -> float:
        """Required write current (µA) for a pulse of ``pulse_ns``.

        This is the family of curves in Figure 4: current falls with
        pulse width and rises with retention time.
        """
        pulse = check_positive(pulse_ns, "pulse_ns", exc=NVMError)
        ic0 = self.critical_current_ua(retention_s)
        return ic0 * (1.0 + self.t_char_ns / pulse)

    def write_energy_pj(self, pulse_ns: float, retention_s: float) -> float:
        """Write energy (pJ) at the given pulse width and retention.

        ``E = V * I * t_p`` with I in µA and t_p in ns gives femtojoules
        scaled by the voltage; we return picojoules.
        """
        current = self.write_current_ua(pulse_ns, retention_s)
        return self.write_voltage_v * current * float(pulse_ns) * 1.0e-3

    def optimal_write_point(self, retention_s: float) -> Tuple[float, float, float]:
        """Minimum-energy feasible write point for ``retention_s``.

        Returns ``(pulse_ns, current_ua, energy_pj)`` — the "best write
        energy box" of Figure 4. Since ``E = V*Ic0*(t_p + t_char)`` is
        increasing in ``t_p``, the optimum sits at the shortest pulse
        whose required current the driver can still source.
        """
        ic0 = self.critical_current_ua(retention_s)
        if ic0 >= self.max_current_ua:
            raise NVMError(
                f"retention {retention_s} s needs critical current {ic0:.0f} uA, "
                f"beyond the {self.max_current_ua:.0f} uA driver limit"
            )
        pulse_at_imax = self.t_char_ns / (self.max_current_ua / ic0 - 1.0)
        pulse = min(max(pulse_at_imax, self.min_pulse_ns), self.max_pulse_ns)
        current = self.write_current_ua(pulse, retention_s)
        if current > self.max_current_ua + 1e-9:
            raise NVMError(
                f"no feasible write pulse for retention {retention_s} s"
            )
        return pulse, current, self.write_energy_pj(pulse, retention_s)

    def optimal_write_energy_pj(self, retention_s: float) -> float:
        """Energy (pJ) at the minimum-energy feasible write point."""
        return self.optimal_write_point(retention_s)[2]

    def energy_saving_fraction(self, from_retention_s: float, to_retention_s: float) -> float:
        """Fractional write-energy saving when relaxing retention.

        ``energy_saving_fraction(1 day, 10 ms)`` reproduces the paper's
        headline 77 % saving.
        """
        base = self.optimal_write_energy_pj(from_retention_s)
        relaxed = self.optimal_write_energy_pj(to_retention_s)
        return 1.0 - relaxed / base

    def current_sweep(
        self, pulse_widths_ns: Sequence[float], retention_s: float
    ) -> Tuple[Tuple[float, float], ...]:
        """Tabulate (pulse_ns, current_ua) pairs — one Figure 4 curve."""
        return tuple(
            (float(p), self.write_current_ua(p, retention_s)) for p in pulse_widths_ns
        )
