"""Capacitor / energy-storage-device models.

Two storage models appear in the paper's Section 2.2 comparison:

* :class:`Capacitor` — the small on-chip capacitor of an NVP system,
  sized just large enough to guarantee a backup operation plus a little
  cycle-level smoothing. Modelled in the energy domain with a
  proportional leakage term.

* :class:`StorageCapacitor` — the large energy-storage device (ESD) of
  a conventional *wait-compute* platform (e.g. the CAP-XX GZ115 class
  supercapacitor the paper cites), which additionally suffers a
  minimum charging current, a charging-efficiency penalty, and a
  slow charging curve as it approaches capacity.

Both expose the same tick-level interface (``charge`` / ``draw`` /
``leak``) so the two system simulators can share code.
"""

from __future__ import annotations

from .._validation import check_in_range, check_non_negative, check_positive
from ..errors import EnergyError
from ..obs.tracer import NULL_TRACER
from .traces import TICK_S

__all__ = ["Capacitor", "StorageCapacitor"]


class Capacitor:
    """A small on-chip capacitor modelled in the energy domain.

    Parameters
    ----------
    capacity_uj:
        Maximum stored energy (µJ).
    leakage_fraction_per_s:
        Proportional self-discharge per second (dimensionless).
    leakage_floor_uw:
        Constant parasitic draw (µW) applied whenever any charge is
        stored (models always-on detection circuitry fed by the cap).
    initial_energy_uj:
        Energy stored at construction time (defaults to empty).
    """

    __slots__ = (
        "capacity_uj",
        "leakage_fraction_per_s",
        "leakage_floor_uw",
        "_energy",
        "_tracer",
    )

    def __init__(
        self,
        capacity_uj: float,
        leakage_fraction_per_s: float = 0.01,
        leakage_floor_uw: float = 0.0,
        initial_energy_uj: float = 0.0,
    ) -> None:
        self.capacity_uj = check_positive(capacity_uj, "capacity_uj", exc=EnergyError)
        self.leakage_fraction_per_s = check_non_negative(
            leakage_fraction_per_s, "leakage_fraction_per_s", exc=EnergyError
        )
        self.leakage_floor_uw = check_non_negative(
            leakage_floor_uw, "leakage_floor_uw", exc=EnergyError
        )
        initial = check_in_range(
            initial_energy_uj, "initial_energy_uj", 0.0, self.capacity_uj, exc=EnergyError
        )
        self._energy = float(initial)
        self._tracer = NULL_TRACER

    def attach_tracer(self, tracer) -> None:
        """Attach an observability tracer (the simulator does this once
        per run); the default :data:`NULL_TRACER` makes every hook free."""
        self._tracer = NULL_TRACER if tracer is None else tracer

    @property
    def energy_uj(self) -> float:
        """Currently stored energy (µJ)."""
        return self._energy

    @property
    def fill_fraction(self) -> float:
        """Stored energy as a fraction of capacity, in [0, 1]."""
        return self._energy / self.capacity_uj

    def charge(self, power_uw: float, dt_s: float = TICK_S) -> float:
        """Add ``power_uw`` for ``dt_s`` seconds; returns energy accepted (µJ).

        Energy beyond capacity is discarded (the harvester front end
        clamps the cap voltage), mirroring the charge the paper says is
        "wasted" when storage is already full.
        """
        power = check_non_negative(power_uw, "power_uw", exc=EnergyError)
        dt = check_positive(dt_s, "dt_s", exc=EnergyError)
        incoming = power * dt
        accepted = min(incoming, self.capacity_uj - self._energy)
        self._energy += accepted
        if self._tracer.enabled and incoming > accepted:
            self._tracer.metrics.inc("cap.wasted_uj", incoming - accepted)
        return accepted

    def draw(self, energy_uj: float) -> bool:
        """Atomically withdraw ``energy_uj``; returns ``False`` if short.

        The withdrawal is all-or-nothing: a backup operation either has
        its full energy reserve or must not start.
        """
        amount = check_non_negative(energy_uj, "energy_uj", exc=EnergyError)
        if amount > self._energy + 1e-12:
            return False
        self._energy = max(0.0, self._energy - amount)
        return True

    def drain_power(self, power_uw: float, dt_s: float = TICK_S) -> float:
        """Continuously drain ``power_uw`` for ``dt_s``; returns shortfall (µJ).

        Unlike :meth:`draw`, a continuous drain consumes whatever is
        available; the unmet remainder is returned so the caller can
        detect brown-out.
        """
        power = check_non_negative(power_uw, "power_uw", exc=EnergyError)
        dt = check_positive(dt_s, "dt_s", exc=EnergyError)
        demand = power * dt
        met = min(demand, self._energy)
        self._energy -= met
        shortfall = demand - met
        if self._tracer.enabled and shortfall > 0.0:
            self._tracer.metrics.inc("cap.shortfall_uj", shortfall)
            # Per-tick instants only at debug level: a fully drained cap
            # emits one shortfall every tick of a long outage.
            if self._tracer.debug:
                self._tracer.instant(
                    "cap.brownout",
                    cat="energy",
                    args={"shortfall_uj": shortfall, "demand_uj": demand},
                )
        return shortfall

    def leak(self, dt_s: float = TICK_S) -> float:
        """Apply self-discharge for ``dt_s``; returns energy lost (µJ)."""
        dt = check_positive(dt_s, "dt_s", exc=EnergyError)
        proportional = self._energy * self.leakage_fraction_per_s * dt
        floor = self.leakage_floor_uw * dt if self._energy > 0.0 else 0.0
        loss = min(self._energy, proportional + floor)
        self._energy -= loss
        if self._tracer.enabled and loss > 0.0:
            self._tracer.metrics.inc("cap.leak_uj", loss)
        return loss

    def reset(self, energy_uj: float = 0.0) -> None:
        """Set the stored energy (used when starting a new simulation)."""
        self._energy = check_in_range(
            energy_uj, "energy_uj", 0.0, self.capacity_uj, exc=EnergyError
        )


class StorageCapacitor(Capacitor):
    """A large ESD with the pathologies of Section 2.2.

    On top of the base capacitor model this adds:

    * ``min_charging_power_uw`` — income below this level cannot charge
      the device at all (the GZ115's 20 µA minimum charging current at
      ~1 V translates to roughly this order);
    * ``charging_efficiency`` — a flat conversion penalty for moving
      charge *into* the ESD;
    * a *slow charging curve*: acceptance degrades linearly to
      ``topoff_efficiency`` as the device approaches capacity.
    """

    __slots__ = ("min_charging_power_uw", "charging_efficiency", "topoff_efficiency")

    def __init__(
        self,
        capacity_uj: float,
        leakage_fraction_per_s: float = 0.002,
        leakage_floor_uw: float = 1.0,
        min_charging_power_uw: float = 25.0,
        charging_efficiency: float = 0.60,
        topoff_efficiency: float = 0.25,
        initial_energy_uj: float = 0.0,
    ) -> None:
        super().__init__(
            capacity_uj,
            leakage_fraction_per_s=leakage_fraction_per_s,
            leakage_floor_uw=leakage_floor_uw,
            initial_energy_uj=initial_energy_uj,
        )
        self.min_charging_power_uw = check_non_negative(
            min_charging_power_uw, "min_charging_power_uw", exc=EnergyError
        )
        self.charging_efficiency = check_in_range(
            charging_efficiency, "charging_efficiency", 0.0, 1.0, exc=EnergyError
        )
        self.topoff_efficiency = check_in_range(
            topoff_efficiency, "topoff_efficiency", 0.0, self.charging_efficiency, exc=EnergyError
        )

    def charge(self, power_uw: float, dt_s: float = TICK_S) -> float:
        """Charge through the ESD's lossy path; returns energy accepted (µJ)."""
        power = check_non_negative(power_uw, "power_uw", exc=EnergyError)
        if power < self.min_charging_power_uw:
            return 0.0
        # Efficiency degrades from charging_efficiency (empty) down to
        # topoff_efficiency (full): the slow charging curve.
        efficiency = self.charging_efficiency - (
            (self.charging_efficiency - self.topoff_efficiency) * self.fill_fraction
        )
        return super().charge(power * efficiency, dt_s=dt_s)

    def ticks_to_charge(self, target_uj: float, income_uw: float) -> int:
        """Estimate ticks needed to reach ``target_uj`` at constant income.

        Returns ``-1`` when the target is unreachable (income below the
        minimum charging current, or leakage exceeds net charging) —
        the "may take arbitrarily long" failure mode of wait-compute.
        """
        target = check_in_range(target_uj, "target_uj", 0.0, self.capacity_uj, exc=EnergyError)
        income = check_non_negative(income_uw, "income_uw", exc=EnergyError)
        probe = StorageCapacitor(
            self.capacity_uj,
            leakage_fraction_per_s=self.leakage_fraction_per_s,
            leakage_floor_uw=self.leakage_floor_uw,
            min_charging_power_uw=self.min_charging_power_uw,
            charging_efficiency=self.charging_efficiency,
            topoff_efficiency=self.topoff_efficiency,
            initial_energy_uj=self._energy,
        )
        # A generous horizon: if it has not charged in 10 minutes of
        # model time, treat the target as unreachable.
        horizon = int(600.0 / TICK_S)
        for tick in range(horizon):
            if probe.energy_uj >= target:
                return tick
            before = probe.energy_uj
            probe.charge(income)
            probe.leak()
            if probe.energy_uj <= before + 1e-15 and probe.energy_uj < target:
                return -1
        return -1
