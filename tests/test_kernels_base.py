"""Tests for the kernel abstraction and approximation context."""

import numpy as np
import pytest

from repro.errors import KernelError
from repro.kernels.base import ApproxContext, exact_context
from repro.kernels import MedianKernel


class TestApproxContextValidation:
    def test_scalar_bits_accepted(self):
        ctx = ApproxContext(alu_bits=4, mem_bits=6)
        assert ctx.alu_bits == 4
        assert ctx.mem_bits == 6

    def test_bits_out_of_range(self):
        with pytest.raises(KernelError):
            ApproxContext(alu_bits=0)
        with pytest.raises(KernelError):
            ApproxContext(mem_bits=9)

    def test_schedule_accepted(self):
        ctx = ApproxContext(alu_bits=np.array([1, 2, 8]))
        assert isinstance(ctx.alu_bits, np.ndarray)

    def test_schedule_must_be_integer(self):
        with pytest.raises(KernelError):
            ApproxContext(alu_bits=np.array([1.5, 2.0]))

    def test_schedule_values_bounded(self):
        with pytest.raises(KernelError):
            ApproxContext(alu_bits=np.array([0, 4]))

    def test_empty_schedule_rejected(self):
        with pytest.raises(KernelError):
            ApproxContext(alu_bits=np.array([], dtype=int))

    def test_is_exact(self):
        assert exact_context().is_exact
        assert not ApproxContext(alu_bits=7).is_exact
        assert not ApproxContext(alu_bits=np.array([8, 8])).is_exact


class TestScheduleLayout:
    def test_scalar_passthrough(self):
        ctx = ApproxContext(alu_bits=5)
        assert ctx.alu_bits_for((4, 4)) == 5

    def test_schedule_tiles_over_shape(self):
        ctx = ApproxContext(alu_bits=np.array([1, 2]))
        laid = ctx.alu_bits_for((2, 3))
        assert laid.shape == (2, 3)
        assert laid.ravel().tolist() == [1, 2, 1, 2, 1, 2]

    def test_long_schedule_truncated(self):
        ctx = ApproxContext(alu_bits=np.arange(1, 9))
        laid = ctx.alu_bits_for((2, 2))
        assert laid.ravel().tolist() == [1, 2, 3, 4]

    def test_mean_bits(self):
        assert ApproxContext(alu_bits=4).mean_bits() == 4.0
        ctx = ApproxContext(alu_bits=np.array([2, 6]))
        assert ctx.mean_bits() == 4.0


class TestContextPrimitives:
    def test_load_truncates(self):
        ctx = ApproxContext(mem_bits=4)
        out = ctx.load(np.array([0xFF]))
        assert out[0] == 0xF0

    def test_alu_result_preserves_top_bits(self):
        ctx = ApproxContext(alu_bits=4, seed=1)
        values = np.arange(256)
        out = ctx.alu_result(values)
        np.testing.assert_array_equal(out >> 4, values >> 4)

    def test_exact_context_is_identity(self):
        ctx = exact_context()
        values = np.arange(256)
        np.testing.assert_array_equal(ctx.load(values), values)
        np.testing.assert_array_equal(ctx.alu_result(values), values)


class TestKernelBase:
    def test_run_exact_uses_full_precision(self, image32):
        kernel = MedianKernel()
        a = kernel.run_exact(image32)
        b = kernel.run(image32, exact_context())
        np.testing.assert_array_equal(a, b)

    def test_output_elements(self, image32):
        assert MedianKernel().output_elements(image32) == 32 * 32

    def test_instructions_per_frame(self, image32):
        kernel = MedianKernel()
        expected = 32 * 32 * kernel.instructions_per_element
        assert kernel.instructions_per_frame(image32) == expected

    def test_input_validation(self):
        kernel = MedianKernel()
        with pytest.raises(KernelError):
            kernel.run_exact(np.ones((2, 2), dtype=np.int64))  # too small
        with pytest.raises(KernelError):
            kernel.run_exact(np.ones((8, 8)))  # float dtype
        with pytest.raises(KernelError):
            kernel.run_exact(np.full((8, 8), 300))  # out of range
        with pytest.raises(KernelError):
            kernel.run_exact(np.ones((8, 8, 3), dtype=np.int64))  # not gray
