"""Tests for the regime-switching harvester models."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.energy.harvester import (
    HarvesterModel,
    RFHarvester,
    SolarHarvester,
    ThermalHarvester,
    WristwatchRingHarvester,
)
from repro.energy.traces import STANDARD_PROFILE_IDS, standard_profile
from repro.errors import ConfigurationError


class TestHarvesterValidation:
    def test_rejects_negative_quiet_power(self):
        with pytest.raises(ConfigurationError):
            HarvesterModel(quiet_power_uw=-1.0)

    def test_rejects_zero_burst_median(self):
        with pytest.raises(ConfigurationError):
            HarvesterModel(burst_median_uw=0.0)

    def test_rejects_bad_dead_probability(self):
        with pytest.raises(ConfigurationError):
            HarvesterModel(dead_probability=1.5)

    def test_frozen(self):
        model = HarvesterModel()
        with pytest.raises(AttributeError):
            model.quiet_power_uw = 1.0


class TestGeneration:
    def test_length(self):
        rng = np.random.default_rng(0)
        out = HarvesterModel().generate(5_000, rng)
        assert out.shape == (5_000,)

    def test_zero_samples(self):
        rng = np.random.default_rng(0)
        assert HarvesterModel().generate(0, rng).size == 0

    def test_non_negative_and_clipped(self):
        rng = np.random.default_rng(1)
        out = HarvesterModel(peak_power_uw=500.0).generate(20_000, rng)
        assert out.min() >= 0.0
        assert out.max() <= 500.0

    def test_deterministic_given_rng_seed(self):
        a = HarvesterModel().generate(1_000, np.random.default_rng(7))
        b = HarvesterModel().generate(1_000, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_has_bursts_and_quiet(self):
        rng = np.random.default_rng(2)
        out = WristwatchRingHarvester().generate(50_000, rng)
        assert (out > 100.0).mean() > 0.02   # real burst content
        assert (out < 33.0).mean() > 0.5     # mostly below threshold

    def test_dead_periods_present(self):
        rng = np.random.default_rng(3)
        out = WristwatchRingHarvester().generate(100_000, rng)
        # A dead period is an exact-zero run.
        assert (out == 0.0).mean() > 0.1


class TestSourceCharacters:
    """The four ambient sources must differ in the documented ways."""

    def test_solar_steadier_than_watch(self):
        rng = np.random.default_rng(4)
        solar = SolarHarvester().generate(50_000, rng)
        rng = np.random.default_rng(4)
        watch = WristwatchRingHarvester().generate(50_000, rng)
        cv_solar = solar.std() / max(solar.mean(), 1e-9)
        cv_watch = watch.std() / max(watch.mean(), 1e-9)
        assert cv_solar < cv_watch

    def test_rf_has_fastest_switching(self):
        def toggle_rate(samples):
            above = samples >= 33.0
            return np.count_nonzero(np.diff(above.astype(int))) / samples.size

        rng = np.random.default_rng(5)
        rf = RFHarvester().generate(50_000, rng)
        rng = np.random.default_rng(5)
        thermal = ThermalHarvester().generate(50_000, rng)
        assert toggle_rate(rf) > toggle_rate(thermal)

    def test_thermal_low_amplitude(self):
        rng = np.random.default_rng(6)
        thermal = ThermalHarvester().generate(50_000, rng)
        assert np.percentile(thermal, 99) < 500.0

    def test_names(self):
        assert WristwatchRingHarvester().name == "wristwatch-ring"
        assert SolarHarvester().name == "solar"
        assert RFHarvester().name == "rf"
        assert ThermalHarvester().name == "thermal"

    def test_overrides_apply(self):
        model = WristwatchRingHarvester(burst_median_uw=999.0)
        assert model.burst_median_uw == 999.0


#: sha256 of the generated samples' bytes per golden case.
_GOLDEN_SHA256 = json.loads(
    (Path(__file__).with_name("golden") / "harvester_traces.json").read_text()
)

_FACTORIES = {
    "wristwatch": WristwatchRingHarvester,
    "solar": SolarHarvester,
    "rf": RFHarvester,
    "thermal": ThermalHarvester,
}

#: ``(source, seed) -> length`` at which the trace ends halfway through
#: its third burst of four or more ticks, so the final burst's envelope
#: is cut short.
_TRUNCATING_LENGTHS = {
    ("wristwatch", 0): 1986,
    ("wristwatch", 2026): 1686,
    ("solar", 0): 1581,
    ("solar", 2026): 1744,
    ("rf", 0): 150,
    ("rf", 2026): 144,
    ("thermal", 0): 1537,
    ("thermal", 2026): 578,
}


def _golden_cases():
    cases = [f"profile/{pid}/{d}" for pid in STANDARD_PROFILE_IDS for d in (10.0, 0.5)]
    for (source, seed), truncating in sorted(_TRUNCATING_LENGTHS.items()):
        cases += [f"{source}/{seed}/{n}" for n in (10_000, truncating)]
    return cases


class TestGoldenBytes:
    """Every sample of the standard profiles and of each source is
    pinned byte for byte: a faster generator must reproduce these
    digests exactly."""

    @pytest.mark.parametrize("case", _golden_cases())
    def test_golden_sha256(self, case):
        source, a, b = case.split("/")
        if source == "profile":
            samples = standard_profile(int(a), float(b)).samples_uw
        else:
            samples = _FACTORIES[source]().generate(
                int(b), np.random.default_rng(int(a))
            )
        digest = hashlib.sha256(samples.tobytes()).hexdigest()
        assert digest == _GOLDEN_SHA256[case]

    def test_golden_manifest_matches_cases(self):
        assert sorted(_GOLDEN_SHA256) == sorted(_golden_cases())
