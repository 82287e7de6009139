"""Tests for SimulationResult metrics and its pickled form."""

import dataclasses
import io
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.engine import simulation_payload_error, simulation_results_equal
from repro.errors import SimulationError
from repro.system.metrics import SimulationResult


def _result(**overrides):
    n = overrides.pop("total_ticks", 10)
    defaults = dict(
        total_ticks=n,
        forward_progress=100,
        incidental_progress=40,
        backup_count=2,
        restore_count=2,
        on_ticks=5,
        income_energy_uj=10.0,
        converted_energy_uj=8.0,
        run_energy_uj=5.0,
        backup_energy_uj=2.0,
        restore_energy_uj=0.5,
        bit_schedule=np.array([0, 0, 8, 8, 4, 0, 2, 0, 0, 0][:n]),
        lane_schedule=np.array([0, 0, 1, 2, 1, 0, 1, 0, 0, 0][:n]),
    )
    defaults.update(overrides)
    return SimulationResult(**defaults)


class TestDerivedMetrics:
    def test_total_progress(self):
        assert _result().total_progress == 140

    def test_system_on_fraction(self):
        assert _result().system_on_fraction == pytest.approx(0.5)

    def test_backup_energy_share(self):
        assert _result().backup_energy_share == pytest.approx(0.25)

    def test_backup_share_zero_income(self):
        result = _result(converted_energy_uj=0.0)
        assert result.backup_energy_share == 0.0

    def test_describe_mentions_key_numbers(self):
        text = _result().describe()
        assert "FP=100" in text
        assert "backups=2" in text


class TestBitUtilisation:
    def test_distribution_sums_to_one(self):
        util = _result().bit_utilization()
        assert sum(util.values()) == pytest.approx(1.0)

    def test_off_level(self):
        util = _result().bit_utilization()
        assert util[0] == pytest.approx(0.6)
        assert util[8] == pytest.approx(0.2)

    def test_mean_active_bits(self):
        assert _result().mean_active_bits() == pytest.approx((8 + 8 + 4 + 2) / 4)

    def test_mean_active_bits_when_never_on(self):
        result = _result(
            bit_schedule=np.zeros(10, dtype=int),
            lane_schedule=np.zeros(10, dtype=int),
            on_ticks=0,
        )
        assert result.mean_active_bits() == 0.0

    def test_active_series_preserves_order(self):
        series = _result().active_bit_series()
        assert series.tolist() == [8, 8, 4, 2]


class TestValidation:
    def test_schedule_length_checked(self):
        with pytest.raises(SimulationError):
            _result(bit_schedule=np.zeros(3))

    def test_positive_ticks(self):
        with pytest.raises(SimulationError):
            _result(
                total_ticks=0,
                bit_schedule=np.zeros(0),
                lane_schedule=np.zeros(0),
            )


# -- pickling -------------------------------------------------------------------


@st.composite
def _schedule_pair(draw):
    """Two equal-length schedules built from runs of (bit, lane) pairs,
    each of a drawn integer dtype, either owned or a strided view."""
    runs = draw(
        st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 4), st.integers(1, 40)),
            min_size=1,
            max_size=30,
        )
    )
    lengths = [n for _, _, n in runs]

    def schedule(values):
        dtype = draw(st.sampled_from([np.int8, np.int16, np.int64]))
        step = draw(st.sampled_from([1, 2, -1, -3]))
        values = np.repeat(values, lengths)
        out = np.zeros(len(values) * abs(step), dtype=dtype)[::step]
        out[:] = values
        return out

    return (
        schedule([b for b, _, _ in runs]),
        schedule([lane for _, lane, _ in runs]),
    )


def _round_trip(result):
    return pickle.loads(pickle.dumps(result))


class TestPickling:
    @settings(max_examples=60, deadline=None)
    @given(pair=_schedule_pair())
    @example(pair=(np.arange(50, dtype=np.int16) % 9, np.arange(50) % 5))
    @example(pair=(np.array([3], dtype=np.int8), np.array([1], dtype=np.int8)))
    @example(pair=(np.full(500, 8, dtype=np.int16), np.ones(500, dtype=np.int16)))
    def test_round_trip_is_exact(self, pair):
        bits, lanes = pair
        result = _result(total_ticks=len(bits), bit_schedule=bits, lane_schedule=lanes)
        copy = _round_trip(result)
        assert simulation_results_equal(copy, result)
        for name in ("bit_schedule", "lane_schedule"):
            array = getattr(copy, name)
            assert array.flags.owndata and array.flags.writeable
            assert not np.shares_memory(array, getattr(result, name))
        assert not np.shares_memory(copy.bit_schedule, copy.lane_schedule)

    def test_schedules_travel_as_runs(self):
        n = 10_000
        result = _result(
            total_ticks=n,
            bit_schedule=np.repeat(np.array([0, 8, 4, 0], dtype=np.int16), n // 4),
            lane_schedule=np.repeat(np.array([0, 1, 2, 0], dtype=np.int16), n // 4),
        )
        assert len(pickle.dumps(result)) < 1000

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_every_protocol_round_trips(self, protocol):
        result = _result()
        copy = pickle.loads(pickle.dumps(result, protocol))
        assert simulation_results_equal(copy, result)


def _malformed(**fields):
    """A result built without ``__post_init__``, as a faulty worker's
    payload unpickles."""
    result = object.__new__(SimulationResult)
    result.__dict__.update(
        {f.name: getattr(_result(), f.name) for f in dataclasses.fields(result)},
        **fields,
    )
    return result


class _DefaultPickler(pickle.Pickler):
    """Pickles a SimulationResult as if it had no reducer of its own."""

    def reducer_override(self, obj):
        if type(obj) is SimulationResult:
            return object.__reduce_ex__(obj, pickle.DEFAULT_PROTOCOL)
        return NotImplemented


def _default_pickle(obj):
    buffer = io.BytesIO()
    _DefaultPickler(buffer, pickle.DEFAULT_PROTOCOL).dump(obj)
    return buffer.getvalue()


class TestMalformedPayloads:
    @pytest.mark.parametrize(
        "fields, fault",
        [
            (
                {"bit_schedule": np.zeros(7, dtype=np.int16)},
                "bit_schedule length does not match total_ticks",
            ),
            (
                {"bit_schedule": np.zeros((5, 2), dtype=np.int16)},
                "bit_schedule length does not match total_ticks",
            ),
            (
                {"bit_schedule": list(range(10))},
                "bit_schedule is not an integer ndarray",
            ),
            (
                {"bit_schedule": np.zeros(10)},
                "bit_schedule is not an integer ndarray",
            ),
        ],
    )
    def test_pickles_as_default_and_keeps_its_fault(self, fields, fault):
        bad = _malformed(**fields)
        assert pickle.dumps(bad) == _default_pickle(bad)
        assert simulation_payload_error(bad) == fault
        assert simulation_payload_error(_round_trip(bad)) == fault

    @pytest.mark.parametrize(
        "fields, fault",
        [
            (
                {
                    "bit_schedule": np.zeros(7, dtype=np.int16),
                    "lane_schedule": np.zeros(7, dtype=np.int16),
                },
                "bit_schedule length does not match total_ticks",
            ),
            (
                {"bit_schedule": np.full(10, 99, dtype=np.int16)},
                "bit_schedule outside [0, 8]",
            ),
            ({"forward_progress": -1}, "forward_progress is negative"),
        ],
    )
    def test_runs_round_trip_without_checks(self, fields, fault):
        # Equal-length 1-D schedules travel as runs; the rebuild skips
        # __post_init__, so the engine's payload check still sees the
        # fault instead of the unpickler raising.
        bad = _malformed(**fields)
        assert pickle.dumps(bad) != _default_pickle(bad)
        assert simulation_payload_error(_round_trip(bad)) == fault
