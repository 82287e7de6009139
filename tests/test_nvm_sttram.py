"""Tests for the STT-RAM write model (Figure 4)."""

import pytest

from repro.errors import NVMError
from repro.nvm.sttram import RETENTION_10MS_S, RETENTION_ONE_DAY_S, STTRAMModel


@pytest.fixture(scope="module")
def cell():
    return STTRAMModel()


class TestThermalStability:
    def test_one_day_reference(self, cell):
        delta = cell.thermal_stability(RETENTION_ONE_DAY_S)
        assert 30.0 < delta < 35.0  # ln(86400 / 1e-9) ~ 32.1

    def test_monotone_in_retention(self, cell):
        assert cell.thermal_stability(1.0) < cell.thermal_stability(60.0)

    def test_rejects_sub_attempt_period(self, cell):
        with pytest.raises(NVMError):
            cell.thermal_stability(1e-10)


class TestWriteCurrent:
    def test_decreases_with_pulse_width(self, cell):
        """Figure 4: every retention curve falls with pulse width."""
        for retention in (RETENTION_10MS_S, 1.0, 60.0, RETENTION_ONE_DAY_S):
            currents = [cell.write_current_ua(p, retention) for p in (1, 2, 4, 8)]
            assert currents == sorted(currents, reverse=True)

    def test_increases_with_retention(self, cell):
        """Figure 4: longer retention needs more current at equal pulse."""
        currents = [
            cell.write_current_ua(4.0, r)
            for r in (RETENTION_10MS_S, 1.0, 60.0, RETENTION_ONE_DAY_S)
        ]
        assert currents == sorted(currents)

    def test_current_sweep_matches_scalar(self, cell):
        sweep = cell.current_sweep((1.0, 2.0), 1.0)
        assert sweep[0][1] == pytest.approx(cell.write_current_ua(1.0, 1.0))

    def test_rejects_nonpositive_pulse(self, cell):
        with pytest.raises(NVMError):
            cell.write_current_ua(0.0, 1.0)


class TestWriteEnergy:
    def test_headline_saving(self, cell):
        """The 77% saving from 1 day -> 10 ms retention (Section 3.2)."""
        saving = cell.energy_saving_fraction(RETENTION_ONE_DAY_S, RETENTION_10MS_S)
        assert 0.70 <= saving <= 0.82

    def test_optimal_energy_monotone_in_retention(self, cell):
        energies = [
            cell.optimal_write_energy_pj(r)
            for r in (RETENTION_10MS_S, 1.0, 60.0, RETENTION_ONE_DAY_S)
        ]
        assert energies == sorted(energies)

    def test_optimal_point_feasible(self, cell):
        pulse, current, energy = cell.optimal_write_point(1.0)
        assert cell.min_pulse_ns <= pulse <= cell.max_pulse_ns
        assert current <= cell.max_current_ua + 1e-9
        assert energy > 0.0

    def test_energy_formula(self, cell):
        energy = cell.write_energy_pj(2.0, 1.0)
        expected = cell.write_voltage_v * cell.write_current_ua(2.0, 1.0) * 2.0e-3
        assert energy == pytest.approx(expected)


class TestModelValidation:
    def test_rejects_bad_pulse_range(self):
        with pytest.raises(NVMError):
            STTRAMModel(min_pulse_ns=5.0, max_pulse_ns=2.0)

    def test_rejects_nonpositive_reference_current(self):
        with pytest.raises(NVMError):
            STTRAMModel(i_ref_ua=0.0)
