"""Tests for the system-level simulator and its state machine."""

import numpy as np
import pytest

from repro.energy.traces import PowerTrace
from repro.errors import SimulationError
from repro.nvm.retention import LinearRetention
from repro.system.config import SystemConfig
from repro.system.simulator import (
    FixedBitAllocator,
    NVPSystemSimulator,
    simulate_fixed_bits,
)
from repro.nvp.processor import NonvolatileProcessor


class TestDegenerateTraces:
    def test_dead_trace_never_starts(self, dead_trace):
        result = simulate_fixed_bits(dead_trace, 8)
        assert result.forward_progress == 0
        assert result.backup_count == 0
        assert result.system_on_fraction == 0.0

    def test_constant_strong_power_runs_continuously(self, constant_trace):
        result = simulate_fixed_bits(constant_trace, 8)
        assert result.forward_progress > 0
        # After the initial charge-up it should essentially never stop.
        assert result.backup_count <= 2
        assert result.system_on_fraction > 0.5

    def test_weak_constant_power_never_starts(self):
        trace = PowerTrace(np.full(5_000, 5.0))  # below frontend knee
        result = simulate_fixed_bits(trace, 8)
        assert result.forward_progress == 0


class TestStateMachineInvariants:
    def test_every_restore_has_a_prior_backup_or_start(self, trace1):
        result = simulate_fixed_bits(trace1, 8)
        # Restores = starts; each backup sends the system OFF, needing
        # one more restore to resume, so restores >= backups.
        assert result.restore_count >= result.backup_count

    def test_energy_conservation(self, trace1):
        result = simulate_fixed_bits(trace1, 8)
        spent = (
            result.run_energy_uj
            + result.backup_energy_uj
            + result.restore_energy_uj
        )
        assert spent <= result.converted_energy_uj + 1e-6

    def test_converted_below_income(self, trace1):
        result = simulate_fixed_bits(trace1, 8)
        assert result.converted_energy_uj < result.income_energy_uj

    def test_bit_schedule_matches_on_time(self, trace1):
        result = simulate_fixed_bits(trace1, 8)
        running_ticks = int(np.count_nonzero(result.bit_schedule))
        # On-time additionally counts restore and backup ticks.
        overhead = result.backup_count + result.restore_count
        assert running_ticks + overhead == result.on_ticks

    def test_fixed_allocator_schedule_is_flat(self, trace1):
        result = simulate_fixed_bits(trace1, 5)
        active = result.bit_schedule[result.bit_schedule > 0]
        assert set(np.unique(active)) == {5}

    def test_lane_schedule_matches_width(self, trace1):
        result = simulate_fixed_bits(trace1, 8, simd_width=4)
        active = result.lane_schedule[result.lane_schedule > 0]
        if active.size:
            assert set(np.unique(active)) == {4}


class TestBitwidthTrends:
    """The Figure 15/16 shape drivers, on a short trace."""

    def test_lower_bits_more_progress(self, trace1):
        fp8 = simulate_fixed_bits(trace1, 8).forward_progress
        fp1 = simulate_fixed_bits(trace1, 1).forward_progress
        assert fp1 > 1.4 * fp8

    def test_lower_bits_more_on_time(self, trace1):
        on8 = simulate_fixed_bits(trace1, 8).system_on_fraction
        on1 = simulate_fixed_bits(trace1, 1).system_on_fraction
        assert on1 > on8

    def test_backup_energy_share_band(self):
        """Section 3.2: precise backups cost 20-33% of income energy."""
        from repro.energy.traces import standard_profile

        trace = standard_profile(1, duration_s=10.0)
        result = simulate_fixed_bits(trace, 8)
        assert 0.15 <= result.backup_energy_share <= 0.40

    def test_shaped_policy_more_progress(self, trace1):
        precise = simulate_fixed_bits(trace1, 8)
        shaped = simulate_fixed_bits(trace1, 8, policy=LinearRetention())
        assert shaped.forward_progress > precise.forward_progress
        assert shaped.backup_energy_uj < precise.backup_energy_uj


class TestSimdBaseline:
    def test_four_simd_higher_threshold_lower_on_time(self, trace1):
        single = simulate_fixed_bits(trace1, 8)
        quad = simulate_fixed_bits(trace1, 8, simd_width=4)
        assert quad.system_on_fraction < single.system_on_fraction

    def test_four_simd_counts_all_lanes(self, trace1):
        quad = simulate_fixed_bits(trace1, 8, simd_width=4)
        assert quad.incidental_progress == 3 * quad.forward_progress


class TestConfigValidation:
    def test_infeasible_start_level_raises(self, constant_trace):
        config = SystemConfig(capacitor_uj=0.3)  # cannot hold the start level
        proc = NonvolatileProcessor()
        sim = NVPSystemSimulator(constant_trace, proc, FixedBitAllocator(8), config=config)
        with pytest.raises(SimulationError):
            sim.run()

    def test_bad_fill_fraction(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            SystemConfig(start_fill_fraction=1.5)

    def test_config_factories(self):
        config = SystemConfig()
        cap = config.build_capacitor()
        assert cap.capacity_uj == config.capacitor_uj
        fe = config.build_frontend()
        assert fe.eta_max == config.frontend_eta_max


class TestDeterminism:
    def test_same_inputs_same_outputs(self, trace1):
        a = simulate_fixed_bits(trace1, 4)
        b = simulate_fixed_bits(trace1, 4)
        assert a.forward_progress == b.forward_progress
        assert a.backup_count == b.backup_count
        np.testing.assert_array_equal(a.bit_schedule, b.bit_schedule)
