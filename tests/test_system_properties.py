"""Hypothesis property tests on system-simulator invariants.

Random harvester parameterisations and random bit configurations must
never break the simulator's physical invariants: energy conservation,
bounded capacitor state, consistent accounting between progress,
backups and restores.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy.harvester import HarvesterModel
from repro.energy.traces import PowerTrace
from repro.system.simulator import simulate_fixed_bits


def _random_trace(seed: int, burst_median: float, quiet_median: float) -> PowerTrace:
    model = HarvesterModel(
        burst_median_uw=burst_median,
        mean_quiet_ticks=quiet_median,
    )
    samples = model.generate(6_000, np.random.default_rng(seed))
    return PowerTrace(samples, name=f"random-{seed}")


@st.composite
def _sim_cases(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    burst = draw(st.floats(min_value=60.0, max_value=900.0))
    quiet = draw(st.floats(min_value=10.0, max_value=80.0))
    bits = draw(st.integers(min_value=1, max_value=8))
    width = draw(st.integers(min_value=1, max_value=2))
    return seed, burst, quiet, bits, width


class TestSimulatorInvariants:
    @given(_sim_cases())
    @settings(max_examples=25, deadline=None)
    def test_energy_conservation(self, case):
        seed, burst, quiet, bits, width = case
        result = simulate_fixed_bits(
            _random_trace(seed, burst, quiet), bits, simd_width=width
        )
        spent = (
            result.run_energy_uj
            + result.backup_energy_uj
            + result.restore_energy_uj
        )
        assert spent <= result.converted_energy_uj + 1e-6
        assert result.converted_energy_uj <= result.income_energy_uj + 1e-6

    @given(_sim_cases())
    @settings(max_examples=25, deadline=None)
    def test_accounting_consistency(self, case):
        seed, burst, quiet, bits, width = case
        result = simulate_fixed_bits(
            _random_trace(seed, burst, quiet), bits, simd_width=width
        )
        # Each backup needs a start; each start is a restore.
        assert result.restore_count >= result.backup_count
        assert result.restore_count <= result.backup_count + 1
        # Schedule bookkeeping matches the on-time counter.
        running = int(np.count_nonzero(result.bit_schedule))
        assert running + result.backup_count + result.restore_count == result.on_ticks
        # Lane accounting: incidental progress is (width-1) x lane 0.
        assert result.incidental_progress == (width - 1) * result.forward_progress

    @given(_sim_cases())
    @settings(max_examples=25, deadline=None)
    def test_schedule_levels_match_configuration(self, case):
        seed, burst, quiet, bits, width = case
        result = simulate_fixed_bits(
            _random_trace(seed, burst, quiet), bits, simd_width=width
        )
        active = result.bit_schedule[result.bit_schedule > 0]
        if active.size:
            assert set(np.unique(active)) == {bits}
        assert result.system_on_fraction <= 1.0

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_lower_bits_never_lose_progress(self, seed):
        trace = _random_trace(seed, 300.0, 40.0)
        fp1 = simulate_fixed_bits(trace, 1).forward_progress
        fp8 = simulate_fixed_bits(trace, 8).forward_progress
        assert fp1 >= fp8
