"""Tests for power traces and the five standard profiles (Figure 2)."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.energy.traces import (
    OPERATING_THRESHOLD_UW,
    STANDARD_PROFILE_IDS,
    TICK_S,
    PowerTrace,
    _at_or_below_quantile,
    _box_smooth,
    _coarse_noise,
    _solar_samples,
    standard_profile,
    standard_profiles,
)
from repro.errors import TraceError


class TestPowerTraceBasics:
    def test_length_and_duration(self):
        trace = PowerTrace([1.0, 2.0, 3.0])
        assert len(trace) == 3
        assert trace.duration_s == pytest.approx(3 * TICK_S)

    def test_mean_and_peak(self):
        trace = PowerTrace([0.0, 10.0, 20.0])
        assert trace.mean_power_uw == pytest.approx(10.0)
        assert trace.peak_power_uw == pytest.approx(20.0)

    def test_total_energy(self):
        trace = PowerTrace([100.0] * 10)
        assert trace.total_energy_uj == pytest.approx(100.0 * 10 * TICK_S)

    def test_samples_are_read_only(self):
        trace = PowerTrace([1.0, 2.0])
        with pytest.raises(ValueError):
            trace.samples_uw[0] = 5.0

    def test_iteration_and_indexing(self):
        trace = PowerTrace([1.0, 2.0, 3.0])
        assert list(trace) == [1.0, 2.0, 3.0]
        assert trace[1] == 2.0

    def test_repr_mentions_name(self):
        assert "mytrace" in repr(PowerTrace([1.0], name="mytrace"))

    def test_rejects_empty(self):
        with pytest.raises(TraceError):
            PowerTrace([])

    def test_rejects_negative_power(self):
        with pytest.raises(TraceError):
            PowerTrace([1.0, -0.5])

    def test_rejects_nan(self):
        with pytest.raises(TraceError):
            PowerTrace([1.0, float("nan")])

    def test_rejects_2d(self):
        with pytest.raises(TraceError):
            PowerTrace(np.ones((2, 2)))


class TestTraceQueries:
    def test_fraction_above(self):
        trace = PowerTrace([0.0, 50.0, 100.0, 10.0])
        assert trace.fraction_above(50.0) == pytest.approx(0.5)

    def test_emergency_count_counts_falling_edges(self):
        # above, below, above, below -> two falling edges
        trace = PowerTrace([100.0, 1.0, 100.0, 1.0])
        assert trace.emergency_count(OPERATING_THRESHOLD_UW) == 2

    def test_emergency_count_constant_trace(self):
        assert PowerTrace([100.0] * 10).emergency_count() == 0

    def test_segment(self):
        trace = PowerTrace([1.0, 2.0, 3.0, 4.0])
        sub = trace.segment(1, 3)
        assert list(sub) == [2.0, 3.0]

    def test_segment_bounds_checked(self):
        trace = PowerTrace([1.0, 2.0])
        with pytest.raises(TraceError):
            trace.segment(0, 5)

    def test_scaled(self):
        trace = PowerTrace([1.0, 2.0]).scaled(2.0)
        assert list(trace) == [2.0, 4.0]

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(TraceError):
            PowerTrace([1.0]).scaled(0.0)

    def test_repeated(self):
        trace = PowerTrace([1.0, 2.0]).repeated(3)
        assert len(trace) == 6
        assert list(trace)[2:4] == [1.0, 2.0]

    def test_high_activity_window_finds_burst(self):
        samples = np.zeros(100)
        samples[40:50] = 1000.0
        start, window = PowerTrace(samples).high_activity_window(10)
        assert start == 40
        assert window.mean_power_uw == pytest.approx(1000.0)


class TestStandardProfiles:
    def test_five_profiles(self):
        assert STANDARD_PROFILE_IDS == (1, 2, 3, 4, 5)
        assert len(standard_profiles(duration_s=0.5)) == 5

    def test_deterministic(self):
        a = standard_profile(1, duration_s=0.5)
        b = standard_profile(1, duration_s=0.5)
        np.testing.assert_array_equal(a.samples_uw, b.samples_uw)

    def test_profiles_differ(self):
        a = standard_profile(1, duration_s=0.5)
        b = standard_profile(2, duration_s=0.5)
        assert not np.array_equal(a.samples_uw, b.samples_uw)

    def test_unknown_profile_rejected(self):
        with pytest.raises(TraceError):
            standard_profile(7)

    def test_sample_count(self):
        trace = standard_profile(1, duration_s=1.0)
        assert len(trace) == 10_000

    @pytest.mark.parametrize("pid", STANDARD_PROFILE_IDS)
    def test_mean_power_band(self, pid):
        """Section 2.2: averages in the ~10-40 uW band."""
        trace = standard_profile(pid, duration_s=10.0)
        assert 8.0 <= trace.mean_power_uw <= 45.0

    @pytest.mark.parametrize("pid", STANDARD_PROFILE_IDS)
    def test_peak_power_clipped(self, pid):
        """Figure 2: spikes saturate near 2000 uW."""
        trace = standard_profile(pid, duration_s=10.0)
        assert trace.peak_power_uw <= 2000.0
        assert trace.peak_power_uw > 500.0

    @pytest.mark.parametrize("pid", STANDARD_PROFILE_IDS)
    def test_emergency_rate(self, pid):
        """Section 2.2: hundreds to ~2000 emergencies per 10 s window."""
        trace = standard_profile(pid, duration_s=10.0)
        assert 300 <= trace.emergency_count() <= 2000


class TestPropertyBased:
    @given(
        st.lists(st.floats(min_value=0.0, max_value=2000.0), min_size=1, max_size=200)
    )
    @settings(max_examples=50, deadline=None)
    def test_energy_consistent_with_mean(self, samples):
        trace = PowerTrace(samples)
        expected = trace.mean_power_uw * trace.duration_s
        assert trace.total_energy_uj == pytest.approx(expected, rel=1e-9, abs=1e-12)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=2000.0), min_size=2, max_size=100),
        st.floats(min_value=0.1, max_value=3000.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_fraction_above_monotone(self, samples, threshold):
        trace = PowerTrace(samples)
        assert trace.fraction_above(threshold) >= trace.fraction_above(threshold * 2)

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=2, max_value=50))
    @settings(max_examples=20, deadline=None)
    def test_segments_tile_the_trace(self, pid_mod, split):
        trace = standard_profile(1 + (pid_mod % 5), duration_s=0.1)
        split = min(split, len(trace) - 1)
        left = trace.segment(0, split)
        right = trace.segment(split, len(trace))
        assert len(left) + len(right) == len(trace)
        total = left.total_energy_uj + right.total_energy_uj
        assert total == pytest.approx(trace.total_energy_uj, rel=1e-9)


#: sha256 of ``synthesize_trace(...).samples_uw.tobytes()`` per golden case.
_GOLDEN_SHA256 = json.loads(
    (Path(__file__).with_name("golden") / "synth_traces.json").read_text()
)

#: ``duration_s -> ticks`` for the golden pins: 1-3 ticks reach the
#: degenerate smoothing and quantile cases, 17 the smoothing-window cap,
#: 500 a short device and 10 000 a one-second fleet device.
_PIN_DURATIONS = {1e-4: 1, 2e-4: 2, 3e-4: 3, 17e-4: 17, 0.05: 500, 1.0: 10_000}

#: ``(mode, seed, duration_s, params)`` golden cases that reach every
#: generator path at scale 1.0. At the default 60 s period, seed 0's
#: solar window is dark and seed 2026's is lit.
_PIN_OVERRIDES = (
    ("solar", 0, 1.0, {"diurnal_period_s": 1e6}),  # dark throughout
    ("solar", 2026, 1.0, {"diurnal_period_s": 1e6}),  # lit throughout
    ("solar", 2026, 1.0, {"diurnal_period_s": 2.0}),  # lit, then dark
    ("solar", 0, 1.0, {"diurnal_period_s": 0.05}),  # crosses 20 times
    ("solar", 0, 1.0, {"floor_uw": 0.0}),  # dark on a zero floor
) + tuple(
    (mode, seed, duration_s, {knob: q})
    for mode, knob in (("solar", "shadow_quantile"), ("thermal", "dropout_quantile"))
    for seed in (0, 2026)
    for duration_s in (2e-4, 0.05, 1.0)
    for q in (0.0, 1.0)
)


def _pin_cases():
    """``case id -> (mode, seed, duration_s, scale, params, ticks)``."""
    cases = {}
    for mode in ("rf", "solar", "thermal"):
        durations = dict(_PIN_DURATIONS)
        if mode == "rf":
            durations[30.0] = 300_000  # an RF gateway
        for seed in (0, 1, 2026):
            for duration_s, ticks in durations.items():
                for scale in (1.0, 1.37):
                    cases[f"{mode}/{seed}/{ticks}/{scale}"] = (
                        mode, seed, duration_s, scale, {}, ticks
                    )
    for mode, seed, duration_s, params in _PIN_OVERRIDES:
        ticks = _PIN_DURATIONS[duration_s]
        label = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
        cases[f"{mode}/{seed}/{ticks}/1.0/{label}"] = (
            mode, seed, duration_s, 1.0, params, ticks
        )
    return cases


_PIN_CASES = _pin_cases()


@pytest.mark.fleet
class TestSyntheticTraces:
    """Seeded vectorized generator modes (fleet-scale synthesis)."""

    def _synth(self, mode, seed, **kw):
        from repro.energy.traces import synthesize_trace

        return synthesize_trace(mode, seed, **kw)

    def test_modes_registry(self):
        from repro.energy.traces import SYNTH_TRACE_MODES

        assert SYNTH_TRACE_MODES == ("rf", "solar", "thermal")

    @pytest.mark.parametrize("mode", ["solar", "rf", "thermal"])
    def test_deterministic_for_seed(self, mode):
        a = self._synth(mode, seed=123, duration_s=1.5, scale=1.25)
        b = self._synth(mode, seed=123, duration_s=1.5, scale=1.25)
        assert np.array_equal(a.samples_uw, b.samples_uw)
        assert a.name == b.name == f"{mode}-123"

    @pytest.mark.parametrize("mode", ["solar", "rf", "thermal"])
    def test_seed_sensitivity(self, mode):
        a = self._synth(mode, seed=1, duration_s=1.0)
        b = self._synth(mode, seed=2, duration_s=1.0)
        assert not np.array_equal(a.samples_uw, b.samples_uw)

    @pytest.mark.parametrize("mode", ["solar", "rf", "thermal"])
    @pytest.mark.parametrize("duration_s", [0.01, 0.5, 10.0])
    def test_length_matches_synth_trace_ticks(self, mode, duration_s):
        from repro.energy.traces import synth_trace_ticks

        trace = self._synth(mode, seed=5, duration_s=duration_s)
        assert len(trace) == synth_trace_ticks(duration_s)

    @pytest.mark.parametrize("mode", ["solar", "rf", "thermal"])
    def test_nonnegative_and_not_all_zero(self, mode):
        # Regression: over-long smoothing windows once collapsed the
        # dropout quantile to a constant and zeroed whole short traces.
        for duration_s in (0.25, 1.0, 4.0):
            trace = self._synth(mode, seed=9, duration_s=duration_s)
            samples = trace.samples_uw
            assert np.all(samples >= 0.0)
            assert np.mean(samples > 0.0) > 0.5
            assert np.mean(samples) > 1.0

    def test_scale_multiplies_samples(self):
        base = self._synth("thermal", seed=4, duration_s=1.0)
        scaled = self._synth("thermal", seed=4, duration_s=1.0, scale=2.5)
        assert np.allclose(scaled.samples_uw, 2.5 * base.samples_uw)

    def test_unknown_mode_raises(self):
        with pytest.raises(TraceError, match="unknown synthetic trace mode"):
            self._synth("tidal", seed=0)

    def test_bad_scale_raises(self):
        with pytest.raises(TraceError):
            self._synth("solar", seed=0, scale=0.0)

    def test_generator_params_pass_through(self):
        quiet = self._synth("rf", seed=7, duration_s=1.0, mean_gap_ticks=5000.0)
        busy = self._synth("rf", seed=7, duration_s=1.0, mean_gap_ticks=10.0)
        assert busy.mean_power_uw > quiet.mean_power_uw

    def test_synth_trace_ticks_floor(self):
        from repro.energy.traces import synth_trace_ticks

        assert synth_trace_ticks(TICK_S / 10) == 1
        assert synth_trace_ticks(1.0) == round(1.0 / TICK_S)

    @pytest.mark.parametrize("case", sorted(_PIN_CASES))
    def test_golden_sha256(self, case):
        # Every sample of every fleet device is pinned byte for byte: a
        # faster generator must reproduce these digests exactly.
        mode, seed, duration_s, scale, params, ticks = _PIN_CASES[case]
        trace = self._synth(mode, seed, duration_s=duration_s, scale=scale, **params)
        assert len(trace) == ticks
        digest = hashlib.sha256(trace.samples_uw.tobytes()).hexdigest()
        assert digest == _GOLDEN_SHA256[case]

    def test_golden_manifest_matches_cases(self):
        assert sorted(_GOLDEN_SHA256) == sorted(_PIN_CASES)


# -- exactness of the synthesis primitives -----------------------------------
#
# The oracles below are the formulas the faster primitives replaced, kept
# verbatim; results are compared as bytes, never with a tolerance.


def _box_smooth_oracle(x, window):
    """The fancy-indexed moving average, for every position at once."""
    if window <= 1 or x.size <= 1:
        return x
    n = x.size
    cs = np.concatenate(([0.0], np.cumsum(x)))
    pos = np.arange(n)
    hi = np.minimum(pos + window // 2 + 1, n)
    lo = np.maximum(pos - (window - window // 2 - 1), 0)
    return (cs[hi] - cs[lo]) / (hi - lo)


def _solar_oracle(
    rng,
    n,
    *,
    peak_uw=140.0,
    floor_uw=2.0,
    diurnal_period_s=60.0,
    cloud_depth=1.1,
    shadow_quantile=0.06,
):
    """The solar generator with no dark-window skip and a quantile sort."""
    phase = rng.uniform(0.0, 2.0 * np.pi)
    t = np.arange(n, dtype=np.float64) * (TICK_S / diurnal_period_s)
    envelope = np.clip(np.sin(phase + 2.0 * np.pi * t), 0.0, 1.0) ** 1.5
    clouds = np.exp(-cloud_depth * np.maximum(_coarse_noise(rng, n, 64, 4096), 0.0))
    shade = _coarse_noise(rng, n, 64, 8192)
    jitter = 1.0 + 0.05 * _coarse_noise(rng, n, 16, 32)
    samples = (floor_uw + peak_uw * envelope * clouds) * jitter
    if n > 1:
        cut = np.quantile(shade, shadow_quantile)
        samples[shade <= cut] = 0.0
    return samples


@st.composite
def _smoothing_inputs(draw):
    """A staircase like ``_coarse_noise`` smooths, or arbitrary floats."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 5000))
        stride = draw(st.sampled_from([1, 8, 16, 64, 128]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        x = np.repeat(rng.standard_normal(n // stride + 2), stride)[:n]
    else:
        values = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
        x = np.array(draw(st.lists(values, min_size=1, max_size=60)))
    window = draw(st.integers(1, 2 * x.size + 3))
    return x, window


@st.composite
def _cut_inputs(draw):
    """Arrays with ties, signed zeros and repeated staircases, plus a quantile."""
    n = draw(st.integers(1, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["ties", "zeros", "staircase", "smooth"]))
    if kind == "ties":
        x = rng.integers(-3, 4, size=n).astype(np.float64)
    elif kind == "zeros":
        x = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        x[rng.random(n) < 0.1] = 1.0
    elif kind == "staircase":
        stride = draw(st.integers(1, 64))
        steps = np.repeat(rng.standard_normal(draw(st.integers(1, 20))), stride)
        x = np.tile(steps, n // steps.size + 1)[:n]
    else:
        x = _coarse_noise(rng, n, 64, 8192)
    k = draw(st.integers(0, max(n - 1, 0)))
    q = draw(
        st.one_of(
            st.sampled_from([0.0, 1.0, 0.02, 0.06, 0.5]),
            st.floats(0.0, 1.0),
            # gamma exactly 0 or 0.5, where the interpolation switches form
            st.sampled_from([0.0, 0.5]).map(lambda g: min((k + g) / max(n - 1, 1), 1.0)),
        )
    )
    return x, q


@pytest.mark.fleet
class TestSynthesisExactness:
    @given(_smoothing_inputs())
    @settings(max_examples=150, deadline=None)
    def test_box_smooth_matches_fancy_index_formula(self, case):
        x, window = case
        got = _box_smooth(x, window)
        want = _box_smooth_oracle(x, window)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @given(_cut_inputs())
    @settings(max_examples=200, deadline=None)
    def test_partition_cut_matches_quantile_mask(self, case):
        x, q = case
        got = _at_or_below_quantile(x, q)
        want = x <= np.quantile(x, q)
        assert got.tobytes() == want.tobytes()

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 3000),
        stretch=st.floats(1.0, 1e4),
        floor_uw=st.sampled_from([2.0, 0.5, 0.0, -0.0]),
        peak_uw=st.floats(-500.0, 500.0),
        cloud_depth=st.floats(0.0, 5.0),
        shadow_quantile=st.floats(0.0, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_dark_solar_window_matches_unskipped(
        self, seed, n, stretch, floor_uw, peak_uw, cloud_depth, shadow_quantile
    ):
        phase = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi)
        assume(phase > np.pi)
        # A period long enough that the window stays in the dark half-cycle.
        period = n * TICK_S * 2.0 * np.pi / (2.0 * np.pi - phase) * stretch
        t = np.arange(n, dtype=np.float64) * (TICK_S / period)
        assume(np.sin(phase + 2.0 * np.pi * t).max() <= 0.0)
        params = dict(
            peak_uw=peak_uw,
            floor_uw=floor_uw,
            diurnal_period_s=period,
            cloud_depth=cloud_depth,
            shadow_quantile=shadow_quantile,
        )
        got = _solar_samples(np.random.default_rng(seed), n, **params)
        want = _solar_oracle(np.random.default_rng(seed), n, **params)
        assert got.tobytes() == want.tobytes()
