"""The approximation control unit and its bit allocators (Figure 6).

"A control unit dynamically controls whether approximation should be
used and, if so, how. The main task of this unit is to set the number
of precise and approximate bits for SIMD for different hardware
components based on the available power level."

Three allocators plug into the system simulator:

* :class:`repro.system.simulator.FixedBitAllocator` — the baselines;
* :class:`DynamicBitAllocator` — single-lane dynamic bitwidth tracking
  the power profile within ``[minbits, maxbits]`` (Figures 17-21);
* :class:`IncidentalAllocator` — the full incidental NVP: a current
  lane plus up to three surplus-powered incidental SIMD lanes whose
  demand is driven by the executive's resume buffer.
"""

from __future__ import annotations

from typing import List, Optional

from .._validation import check_in_range, check_int_in_range
from ..nvp.energy_model import EnergyModel

__all__ = ["ApproximationControlUnit", "DynamicBitAllocator", "IncidentalAllocator"]

# Import here to avoid a circular import at package-init time: the
# system package must not import repro.core.
from ..system.simulator import BitAllocator  # noqa: E402


class ApproximationControlUnit:
    """Maps available power to bit budgets.

    Parameters
    ----------
    energy_model:
        The calibrated power model whose per-bit lane costs the unit
        inverts.
    comfort_fill:
        Stored-energy level (as a fraction of capacity) above which the
        unit spends surplus charge on extra precision; below
        ``reserve_fill`` it falls back to ``minbits``.
    drawdown_horizon_ticks:
        Ticks over which the unit plans to spend stored surplus.
    """

    def __init__(
        self,
        energy_model: Optional[EnergyModel] = None,
        comfort_fill: float = 0.25,
        reserve_fill: float = 0.1,
        drawdown_horizon_ticks: int = 40,
        mix_weight: float = 1.0,
    ) -> None:
        self.energy_model = energy_model if energy_model is not None else EnergyModel()
        self.comfort_fill = check_in_range(comfort_fill, "comfort_fill", 0.0, 1.0)
        self.reserve_fill = check_in_range(reserve_fill, "reserve_fill", 0.0, self.comfort_fill)
        self.drawdown_horizon_ticks = check_int_in_range(
            drawdown_horizon_ticks, "drawdown_horizon_ticks", 1
        )
        self.mix_weight = check_in_range(mix_weight, "mix_weight", 0.1, 10.0)
        #: Global approximation enable (the AC_EN register). A running
        #: program may clear it to force full-precision execution.
        self.ac_enabled = True

    def power_budget_uw(self, income_uw: float, stored_uj: float, capacity_uj: float) -> float:
        """Spendable power this tick: income plus planned drawdown."""
        budget = max(0.0, float(income_uw))
        comfort = self.comfort_fill * capacity_uj
        if stored_uj > comfort:
            # Spend the surplus over the planning horizon (1 tick = 1e-4 s).
            budget += (stored_uj - comfort) / (self.drawdown_horizon_ticks * 1.0e-4)
        elif stored_uj < self.reserve_fill * capacity_uj:
            budget = 0.0
        return budget

    def bits_for_budget(
        self, budget_uw: float, minbits: int, maxbits: int, base_lanes: Optional[List[int]] = None
    ) -> int:
        """Largest budget-affordable bit count in ``[minbits, maxbits]``.

        ``base_lanes`` holds lanes already committed; the candidate
        lane's *incremental* cost must fit in the remaining budget.
        When even ``maxbits`` is unaffordable the unit still returns
        ``minbits`` — the guaranteed minimum quality of the pragma.
        """
        minbits = check_int_in_range(minbits, "minbits", 1, self.energy_model.word_bits)
        maxbits = check_int_in_range(maxbits, "maxbits", minbits, self.energy_model.word_bits)
        if not self.ac_enabled:
            return maxbits
        base = list(base_lanes) if base_lanes else []
        base_power = (
            self.energy_model.run_power_uw(base) * self.mix_weight if base else 0.0
        )
        for bits in range(maxbits, minbits - 1, -1):
            total = self.energy_model.run_power_uw(base + [bits]) * self.mix_weight
            if total - base_power <= budget_uw or (not base and total <= budget_uw):
                return bits
        return minbits

    def lane_affordable(
        self, budget_uw: float, base_lanes: List[int], minbits: int
    ) -> bool:
        """Whether an extra lane at ``minbits`` fits the budget."""
        base_power = self.energy_model.run_power_uw(base_lanes) * self.mix_weight
        with_lane = (
            self.energy_model.run_power_uw(base_lanes + [minbits]) * self.mix_weight
        )
        return with_lane - base_power <= budget_uw


class DynamicBitAllocator(BitAllocator):
    """Single-lane dynamic bitwidth (Section 8.3, Figures 17-21).

    The lane's bit budget tracks the power profile each tick within
    ``[minbits, maxbits]``; the system starts as soon as it can afford
    ``minbits``, which is the lower activation threshold the paper
    credits for dynamic bitwidth's extra duty cycle.
    """

    def __init__(
        self,
        minbits: int,
        maxbits: int = 8,
        control: Optional[ApproximationControlUnit] = None,
        capacity_uj: float = 4.5,
    ) -> None:
        if control is None:
            # A single dynamic lane spends banked surplus on *its own*
            # precision (there are no SIMD lanes to feed), so its
            # drawdown is more aggressive than the incidental
            # controller's: full precision right after a start,
            # degrading toward minbits as the capacitor drains — the
            # bimodal utilisation of Figure 18.
            control = ApproximationControlUnit(
                comfort_fill=0.2, drawdown_horizon_ticks=17
            )
        self.control = control
        word_bits = self.control.energy_model.word_bits
        self.minbits = check_int_in_range(minbits, "minbits", 1, word_bits)
        self.maxbits = check_int_in_range(maxbits, "maxbits", self.minbits, word_bits)
        self.capacity_uj = float(capacity_uj)

    def start_lane_bits(self) -> List[int]:
        return [self.minbits]

    def allocate(self, income_uw: float, stored_uj: float, tick: int) -> List[int]:
        budget = self.control.power_budget_uw(income_uw, stored_uj, self.capacity_uj)
        return [self.control.bits_for_budget(budget, self.minbits, self.maxbits)]


class IncidentalAllocator(BitAllocator):
    """Current lane plus surplus-powered incidental SIMD lanes.

    The executive sets :attr:`pending_lanes` to the number of suspended
    computations waiting in the resume buffer; each tick the allocator
    attaches as many of them as the surplus power affords, at the
    highest affordable bits within the pragma's ``[minbits, maxbits]``.

    ``current_minbits``/``current_maxbits`` describe the newest-data
    lane: Table 2's configurations run it at full precision (8, 8);
    Figure 9's (a1,b) and (a2,b) run it dynamically at (2, 8) and
    (6, 8).
    """

    allow_lane_narrowing = True

    def __init__(
        self,
        lane_minbits: int,
        lane_maxbits: int = 8,
        current_minbits: int = 8,
        current_maxbits: int = 8,
        control: Optional[ApproximationControlUnit] = None,
        capacity_uj: float = 4.5,
        max_width: int = 4,
    ) -> None:
        self.control = control if control is not None else ApproximationControlUnit()
        word_bits = self.control.energy_model.word_bits
        self.lane_minbits = check_int_in_range(lane_minbits, "lane_minbits", 1, word_bits)
        self.lane_maxbits = check_int_in_range(
            lane_maxbits, "lane_maxbits", self.lane_minbits, word_bits
        )
        self.current_minbits = check_int_in_range(
            current_minbits, "current_minbits", 1, word_bits
        )
        self.current_maxbits = check_int_in_range(
            current_maxbits, "current_maxbits", self.current_minbits, word_bits
        )
        self.capacity_uj = float(capacity_uj)
        self.max_width = check_int_in_range(max_width, "max_width", 1, 4)
        #: Incidental lane demand, maintained by the executive.
        self.pending_lanes = 0

    def start_lane_bits(self) -> List[int]:
        """Start when current + one incidental lane are affordable.

        This is why the incidental configurations of Figure 9 carry a
        *higher* start threshold than the plain 8-bit NVP: waking up
        commits the machine to the widened datapath.
        """
        lanes = [self.current_minbits]
        if self.max_width > 1:
            lanes.append(self.lane_minbits)
        return lanes

    def allocate(self, income_uw: float, stored_uj: float, tick: int) -> List[int]:
        budget = self.control.power_budget_uw(income_uw, stored_uj, self.capacity_uj)
        current = self.control.bits_for_budget(
            budget, self.current_minbits, self.current_maxbits
        )
        lanes = [current]
        # Attach every pending old computation the hardware can hold;
        # SIMD lane-ops are cheaper than sequential ops (shared fetch),
        # so width costs run *duration*, never efficiency. The income
        # power level sets each lane's precision (Section 3.1) — at the
        # pragma's minbits floor when power is scarce — and the system
        # simulator narrows the width again if the backup reserve would
        # be violated.
        pending = min(self.pending_lanes, self.max_width - 1)
        if stored_uj < self.control.reserve_fill * self.capacity_uj:
            pending = 0
        if pending:
            # "Divide power and resources": the surplus beyond the
            # current lane is split fairly across the attached lanes,
            # and each lane's precision is what its share affords.
            current_power = (
                self.control.energy_model.run_power_uw(lanes) * self.control.mix_weight
            )
            share = max(0.0, budget - current_power) / pending
            for _ in range(pending):
                bits = self.control.bits_for_budget(
                    share, self.lane_minbits, self.lane_maxbits, base_lanes=lanes
                )
                lanes.append(bits)
        return lanes
