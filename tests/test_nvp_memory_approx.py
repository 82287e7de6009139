"""Tests for the approximate memory's truncation semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProcessorError
from repro.nvp.memory_approx import memory_truncate_bits


class TestTruncation:
    def test_full_precision_identity(self):
        values = np.arange(256)
        np.testing.assert_array_equal(memory_truncate_bits(values, 8), values)

    def test_low_bits_zeroed(self):
        out = memory_truncate_bits(np.array([0xFF]), 4)
        assert out[0] == 0xF0

    def test_truncation_is_floor(self):
        """Truncation biases downward — the MSE asymmetry driver."""
        values = np.arange(256)
        out = memory_truncate_bits(values, 3)
        assert np.all(out <= values)

    def test_idempotent(self):
        values = np.arange(256)
        once = memory_truncate_bits(values, 3)
        twice = memory_truncate_bits(once, 3)
        np.testing.assert_array_equal(once, twice)

    def test_per_element_bits(self):
        out = memory_truncate_bits(np.array([0xFF, 0xFF]), np.array([8, 1]))
        assert out.tolist() == [0xFF, 0x80]

    def test_rejects_floats(self):
        with pytest.raises(ProcessorError):
            memory_truncate_bits(np.ones(4), 4)

    @given(
        st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=64),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_error_bounded_and_negative(self, values, bits):
        arr = np.array(values)
        out = memory_truncate_bits(arr, bits)
        quantum = 1 << (8 - bits)
        assert np.all(arr - out >= 0)
        assert np.all(arr - out < quantum)
