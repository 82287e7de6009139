"""Tests for the retention-shaping policies (Equations 1-3, Figure 5)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy.traces import TICK_S
from repro.errors import NVMError, RetentionPolicyError
from repro.nvm import retention as retention_mod
from repro.nvm.retention import (
    LinearRetention,
    LogRetention,
    ParabolaRetention,
    STANDARD_POLICY_NAMES,
    UniformRetention,
    WRITE_ENERGY_MEMO_SIZE,
    policy_by_name,
)
from repro.nvm.sttram import RETENTION_ONE_DAY_S, STTRAMModel


class TestEquationValues:
    def test_linear_equation_1(self):
        policy = LinearRetention()
        for bit in range(1, 9):
            assert policy.retention_ticks(bit) == pytest.approx(427.0 * bit)

    def test_parabola_equation_3(self):
        policy = ParabolaRetention()
        for bit in range(1, 9):
            expected = 61 * bit**2 + 976 * bit - 905
            assert policy.retention_ticks(bit) == pytest.approx(expected)

    def test_log_equation_2(self):
        policy = LogRetention()
        assert policy.retention_ticks(1) == pytest.approx(9.0)
        assert policy.retention_ticks(2) == pytest.approx(435.0)
        assert policy.retention_ticks(8) == pytest.approx(426.0 * 7**0.25 + 9.0)


class TestShapes:
    @pytest.mark.parametrize("policy_cls", [LinearRetention, LogRetention, ParabolaRetention])
    def test_monotone_lsb_to_msb(self, policy_cls):
        """Figure 5: retention grows toward the MSB."""
        profile = policy_cls().retention_profile_ticks()
        assert all(profile[i] < profile[i + 1] for i in range(7))

    def test_log_is_lowest_curve(self):
        """The log policy relaxes retention the most (Figure 5)."""
        log, linear, parabola = LogRetention(), LinearRetention(), ParabolaRetention()
        for bit in range(1, 9):
            assert log.retention_ticks(bit) <= linear.retention_ticks(bit)
            assert log.retention_ticks(bit) <= parabola.retention_ticks(bit)

    def test_parabola_most_conservative_for_upper_bits(self):
        """Parabola protects high-order bits hardest (Section 3.2)."""
        linear, parabola = LinearRetention(), ParabolaRetention()
        for bit in range(5, 9):
            assert parabola.retention_ticks(bit) > linear.retention_ticks(bit)

    def test_clamped_at_device_maximum(self):
        policy = LinearRetention(time_scale=1e9)
        assert policy.retention_ticks(8) == pytest.approx(RETENTION_ONE_DAY_S / TICK_S)

    def test_retention_seconds_consistent(self):
        policy = LinearRetention()
        assert policy.retention_seconds(1) == pytest.approx(427.0 * TICK_S)


class TestTimeScale:
    def test_scales_linearly(self):
        base = LinearRetention()
        scaled = LinearRetention(time_scale=8.0)
        assert scaled.retention_ticks(3) == pytest.approx(8.0 * base.retention_ticks(3))

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(RetentionPolicyError):
            LinearRetention(time_scale=0.0)

    def test_scaled_policy_costs_more_energy(self):
        cell = STTRAMModel()
        base = LinearRetention().word_write_energy_pj(cell)
        scaled = LinearRetention(time_scale=8.0).word_write_energy_pj(cell)
        assert scaled > base


class TestWriteEnergy:
    def test_all_shaped_policies_save_energy(self):
        """Section 3.2: shaping reduces backup write energy a lot."""
        cell = STTRAMModel()
        for name in STANDARD_POLICY_NAMES:
            relative = policy_by_name(name).relative_write_energy(cell)
            assert 0.1 < relative < 0.6

    def test_log_saves_most(self):
        """Figure 25: 'the log policy frees the greatest amount of energy'."""
        cell = STTRAMModel()
        log = LogRetention().relative_write_energy(cell)
        linear = LinearRetention().relative_write_energy(cell)
        parabola = ParabolaRetention().relative_write_energy(cell)
        assert log < linear
        assert log < parabola

    def test_parabola_saves_least(self):
        """Figure 25: '... and the parabola policy the least'."""
        cell = STTRAMModel()
        linear = LinearRetention().relative_write_energy(cell)
        parabola = ParabolaRetention().relative_write_energy(cell)
        assert parabola > linear

    def test_uniform_one_day_is_the_unit(self):
        cell = STTRAMModel()
        baseline = UniformRetention(RETENTION_ONE_DAY_S)
        assert baseline.relative_write_energy(cell) == pytest.approx(1.0)


class TestRegistry:
    def test_lookup_by_name(self):
        assert isinstance(policy_by_name("linear"), LinearRetention)
        assert isinstance(policy_by_name("log"), LogRetention)
        assert isinstance(policy_by_name("parabola"), ParabolaRetention)

    def test_unknown_name_rejected(self):
        with pytest.raises(RetentionPolicyError):
            policy_by_name("cubic")

    def test_time_scale_forwarded(self):
        policy = policy_by_name("linear", time_scale=4.0)
        assert policy.time_scale == 4.0

    def test_bit_index_bounds(self):
        policy = LinearRetention()
        with pytest.raises(RetentionPolicyError):
            policy.retention_ticks(0)
        with pytest.raises(RetentionPolicyError):
            policy.retention_ticks(9)

    def test_repr(self):
        assert "word_bits=8" in repr(LinearRetention())
        assert "retention_s" in repr(UniformRetention(1.0))


class TestPolicyProperties:
    @given(
        st.sampled_from(STANDARD_POLICY_NAMES),
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=0.5, max_value=32.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_scaled_retention_never_exceeds_device_max(self, name, bit, scale):
        policy = policy_by_name(name, time_scale=scale)
        assert policy.retention_ticks(bit) <= RETENTION_ONE_DAY_S / TICK_S + 1e-6

    @given(st.sampled_from(STANDARD_POLICY_NAMES))
    @settings(max_examples=10, deadline=None)
    def test_word_energy_is_sum_of_bits(self, name):
        cell = STTRAMModel()
        policy = policy_by_name(name)
        total = sum(
            cell.optimal_write_energy_pj(policy.retention_seconds(b))
            for b in range(1, 9)
        )
        assert policy.word_write_energy_pj(cell) == pytest.approx(total)


#: Default and non-default cells; every one can write a 1-day bit.
_CELLS = (
    STTRAMModel(),
    STTRAMModel(stability_exponent=1.4, max_current_ua=300.0),
    STTRAMModel(i_ref_ua=120.0, t_char_ns=2.0, write_voltage_v=1.0),
)


def _fresh_ratio(policy, cell):
    """``policy``'s ratio computed with the memo cleared."""
    retention_mod._WRITE_ENERGY_MEMO.clear()
    return policy.relative_write_energy(cell)


def _policy_grid():
    """Fresh instances of every policy across widths and time scales."""
    for word_bits in (4, 8, 12):
        for scale in (0.5, 1.0, 3.0):
            for name in STANDARD_POLICY_NAMES:
                yield policy_by_name(name, word_bits=word_bits, time_scale=scale)
            yield UniformRetention(0.05, word_bits=word_bits, time_scale=scale)


class TestWriteEnergyMemo:
    @pytest.fixture(autouse=True)
    def _empty_memo(self):
        retention_mod._WRITE_ENERGY_MEMO.clear()
        yield
        retention_mod._WRITE_ENERGY_MEMO.clear()

    def test_memoised_ratio_equals_fresh_computation(self):
        for cell in _CELLS:
            for policy in _policy_grid():
                policy.relative_write_energy(cell)
        # One entry per (policy, width, scale, cell): 4 x 3 x 3 x 3.
        assert len(retention_mod._WRITE_ENERGY_MEMO) == 4 * 3 * 3 * len(_CELLS)
        # Served from the memo to other, equal instances ...
        memoised = [
            policy.relative_write_energy(cell)
            for cell in _CELLS
            for policy in _policy_grid()
        ]
        # ... and bit-for-bit what a cleared memo computes.
        fresh = [
            _fresh_ratio(policy, cell)
            for cell in _CELLS
            for policy in _policy_grid()
        ]
        assert memoised == fresh

    @pytest.mark.parametrize(
        "a, b",
        [
            ((LinearRetention(time_scale=1.0), _CELLS[0]),
             (LinearRetention(time_scale=2.0), _CELLS[0])),
            ((UniformRetention(0.01), _CELLS[0]),
             (UniformRetention(0.02), _CELLS[0])),
            ((LogRetention(), _CELLS[0]), (LogRetention(), _CELLS[2])),
            ((LinearRetention(), _CELLS[0]), (ParabolaRetention(), _CELLS[0])),
        ],
        ids=["time_scale", "retention_s", "cell", "policy"],
    )
    def test_distinct_values_never_share_an_entry(self, a, b):
        ratio_a = a[0].relative_write_energy(a[1])
        ratio_b = b[0].relative_write_energy(b[1])
        assert len(retention_mod._WRITE_ENERGY_MEMO) == 2
        assert ratio_a != ratio_b
        assert ratio_a == _fresh_ratio(*a)
        assert ratio_b == _fresh_ratio(*b)

    def test_mutated_policy_is_priced_afresh(self):
        cell = STTRAMModel()
        policy = LinearRetention()
        before = policy.relative_write_energy(cell)
        policy.time_scale = 4.0
        after = policy.relative_write_energy(cell)
        assert after > before
        assert after == _fresh_ratio(LinearRetention(time_scale=4.0), cell)

    def test_infeasible_retention_raises_every_call(self):
        # A 1-day write needs i_ref_ua of current, above max_current_ua.
        cell = STTRAMModel(i_ref_ua=300.0)
        for _ in range(3):
            with pytest.raises(NVMError):
                LinearRetention().relative_write_energy(cell)
        assert not retention_mod._WRITE_ENERGY_MEMO

    def test_memo_stays_within_its_bound(self):
        cell = STTRAMModel()
        first = LinearRetention(time_scale=1.0).relative_write_energy(cell)
        for i in range(1, WRITE_ENERGY_MEMO_SIZE + 40):
            LinearRetention(time_scale=1.0 + i / 64).relative_write_energy(cell)
            assert len(retention_mod._WRITE_ENERGY_MEMO) <= WRITE_ENERGY_MEMO_SIZE
        assert len(retention_mod._WRITE_ENERGY_MEMO) == WRITE_ENERGY_MEMO_SIZE
        # The evicted first entry is recomputed, identically.
        assert LinearRetention(time_scale=1.0).relative_write_energy(cell) == first
