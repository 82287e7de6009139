"""Metamorphic property tests on the kernels.

Each asserts a structural invariant the kernel's algorithm must have —
independent of any reference implementation — under hypothesis-chosen
inputs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.kernels import (
    IntegralKernel,
    MedianKernel,
    SobelKernel,
    SusanSmoothingKernel,
    Tiff2BWKernel,
)

_images = arrays(
    np.int64, (12, 12), elements=st.integers(min_value=0, max_value=255)
)


class TestMedianProperties:
    @given(_images)
    @settings(max_examples=40, deadline=None)
    def test_idempotent_on_flat_images(self, image):
        flat = np.full_like(image, int(image[0, 0]))
        out = MedianKernel().run_exact(flat)
        np.testing.assert_array_equal(out, flat)

    @given(_images)
    @settings(max_examples=40, deadline=None)
    def test_output_within_input_range(self, image):
        out = MedianKernel().run_exact(image)
        assert out.min() >= image.min()
        assert out.max() <= image.max()

    @given(_images, st.integers(min_value=1, max_value=50))
    @settings(max_examples=40, deadline=None)
    def test_commutes_with_brightness_shift(self, image, shift):
        kernel = MedianKernel()
        shifted_input = np.clip(image + shift, 0, 255)
        a = kernel.run_exact(shifted_input)
        b = np.clip(kernel.run_exact(np.clip(image, 0, 255 - shift)) + shift, 0, 255)
        # Where no clipping occurred the two paths agree.
        unclipped = (image + shift <= 255).all()
        if unclipped:
            np.testing.assert_array_equal(a, b)


class TestSobelProperties:
    @given(_images)
    @settings(max_examples=40, deadline=None)
    def test_invariant_to_constant_offset(self, image):
        kernel = SobelKernel()
        capped = np.clip(image, 0, 205)
        a = kernel.run_exact(capped)
        b = kernel.run_exact(capped + 50)
        np.testing.assert_array_equal(a, b)  # gradients ignore DC

    @given(_images)
    @settings(max_examples=40, deadline=None)
    def test_transpose_symmetry(self, image):
        """|Gx|+|Gy| magnitude is symmetric under transposition."""
        kernel = SobelKernel()
        a = kernel.run_exact(image)
        b = kernel.run_exact(np.ascontiguousarray(image.T))
        np.testing.assert_array_equal(a.T, b)


class TestIntegralProperties:
    @given(_images)
    @settings(max_examples=40, deadline=None)
    def test_mean_preserved_on_flat(self, image):
        flat = np.full_like(image, int(image[3, 3]))
        out = IntegralKernel(window=4).run_exact(flat)
        np.testing.assert_array_equal(out, flat)

    @given(_images)
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_input(self, image):
        kernel = IntegralKernel(window=4)
        brighter = np.clip(image + 10, 0, 255)
        a = kernel.run_exact(image)
        b = kernel.run_exact(brighter)
        assert np.all(b >= a)


class TestSusanProperties:
    @given(_images)
    @settings(max_examples=30, deadline=None)
    def test_smoothing_stays_in_range(self, image):
        out = SusanSmoothingKernel().run_exact(image)
        assert out.min() >= 0 and out.max() <= 255


class TestTiffProperties:
    @given(
        arrays(np.int64, (8, 8, 3), elements=st.integers(min_value=0, max_value=255))
    )
    @settings(max_examples=40, deadline=None)
    def test_luminance_monotone_per_channel(self, rgb):
        kernel = Tiff2BWKernel()
        base = kernel.run_exact(rgb)
        brighter = rgb.copy()
        brighter[..., 1] = np.clip(brighter[..., 1] + 20, 0, 255)
        out = kernel.run_exact(brighter)
        assert np.all(out >= base)
