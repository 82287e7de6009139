"""Tests for outage extraction and statistics (Figure 3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy.outages import Outage, find_outages, outage_statistics
from repro.energy.traces import PowerTrace, standard_profile
from repro.errors import TraceError


def _trace_from_mask(mask, high=100.0, low=1.0):
    """Build a trace where True means above-threshold power."""
    return PowerTrace([high if m else low for m in mask])


class TestFindOutages:
    def test_no_outages_when_always_high(self):
        assert find_outages(_trace_from_mask([True] * 5)) == []

    def test_single_outage(self):
        outages = find_outages(_trace_from_mask([True, False, False, True]))
        assert outages == [Outage(start_tick=1, duration_ticks=2)]

    def test_outage_at_start(self):
        outages = find_outages(_trace_from_mask([False, True]))
        assert outages[0].start_tick == 0

    def test_open_outage_at_end_is_truncated(self):
        outages = find_outages(_trace_from_mask([True, False, False]))
        assert outages == [Outage(start_tick=1, duration_ticks=2)]

    def test_multiple_outages(self):
        mask = [True, False, True, False, False, True, False]
        outages = find_outages(_trace_from_mask(mask))
        assert [o.duration_ticks for o in outages] == [1, 2, 1]

    def test_all_below(self):
        outages = find_outages(_trace_from_mask([False] * 4))
        assert outages == [Outage(start_tick=0, duration_ticks=4)]

    def test_threshold_validated(self):
        with pytest.raises(TraceError):
            find_outages(_trace_from_mask([True]), threshold_uw=0.0)

    def test_outage_properties(self):
        outage = Outage(start_tick=5, duration_ticks=10)
        assert outage.end_tick == 15
        assert outage.duration_s == pytest.approx(10e-4)


class TestOutageStatistics:
    def test_counts(self):
        stats = outage_statistics(_trace_from_mask([True, False, True, False]))
        assert stats.count == 2
        assert stats.durations_ticks == (1, 1)

    def test_empty_statistics(self):
        stats = outage_statistics(_trace_from_mask([True] * 3))
        assert stats.count == 0
        assert stats.mean_duration_ticks == 0.0
        assert stats.max_duration_ticks == 0
        assert stats.outage_fraction == 0.0

    def test_mean_median_max(self):
        mask = [True] + [False] * 3 + [True] + [False] * 1 + [True]
        stats = outage_statistics(_trace_from_mask(mask))
        assert stats.mean_duration_ticks == pytest.approx(2.0)
        assert stats.median_duration_ticks == pytest.approx(2.0)
        assert stats.max_duration_ticks == 3

    def test_outage_fraction(self):
        stats = outage_statistics(_trace_from_mask([True, False, False, True]))
        assert stats.outage_fraction == pytest.approx(0.5)

    def test_emergencies_per_window_scaling(self):
        trace = _trace_from_mask([True, False] * 500)  # 1000 ticks = 0.1 s
        stats = outage_statistics(trace)
        assert stats.emergencies_per_window(10.0) == pytest.approx(stats.count * 100)

    def test_histogram(self):
        mask = [True, False, True, False, False, False, True]
        stats = outage_statistics(_trace_from_mask(mask))
        counts, edges = stats.histogram([0, 2, 10])
        assert counts.tolist() == [1, 1]

    def test_histogram_needs_two_edges(self):
        stats = outage_statistics(_trace_from_mask([True, False]))
        with pytest.raises(TraceError):
            stats.histogram([5])

    def test_longer_than(self):
        mask = [True] + [False] * 5 + [True, False, True]
        stats = outage_statistics(_trace_from_mask(mask))
        assert stats.longer_than(1) == 1
        assert stats.longer_than(0) == 2
        assert stats.longer_than(10) == 0


class TestFigure3Shape:
    """The outage-duration distribution of the standard profiles."""

    def test_short_outages_dominate(self):
        stats = outage_statistics(standard_profile(1, duration_s=10.0))
        # Figure 3: the mass sits at a few ms.
        assert stats.median_duration_ticks < 200

    def test_long_tail_exists(self):
        stats = outage_statistics(standard_profile(1, duration_s=10.0))
        # Figure 3's tail reaches hundreds of ms.
        assert stats.max_duration_ticks > 1000

    @pytest.mark.parametrize("pid", [1, 2, 3, 4, 5])
    def test_histogram_decreasing_overall(self, pid):
        stats = outage_statistics(standard_profile(pid, duration_s=10.0))
        counts, _ = stats.histogram([0, 50, 400, 100_000])
        assert counts[0] > counts[2]


class TestOutageProperties:
    @given(st.lists(st.booleans(), min_size=1, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_durations_sum_to_below_time(self, mask):
        trace = _trace_from_mask(mask)
        stats = outage_statistics(trace)
        below = sum(1 for m in mask if not m)
        assert sum(stats.durations_ticks) == below

    @given(st.lists(st.booleans(), min_size=1, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_outages_disjoint_and_ordered(self, mask):
        outages = find_outages(_trace_from_mask(mask))
        for first, second in zip(outages, outages[1:]):
            assert first.end_tick < second.start_tick
