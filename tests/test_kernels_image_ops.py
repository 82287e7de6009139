"""Tests for sobel, median, integral and the SUSAN kernels."""

import numpy as np
import pytest

from repro.errors import KernelError
from repro.kernels import (
    ApproxContext,
    IntegralKernel,
    MedianKernel,
    SobelKernel,
    SusanCornersKernel,
    SusanEdgesKernel,
    SusanSmoothingKernel,
)
from repro.quality import psnr


class TestSobel:
    def test_flat_image_has_no_edges(self):
        flat = np.full((16, 16), 100, dtype=np.int64)
        out = SobelKernel().run_exact(flat)
        assert out.max() == 0

    def test_step_edge_detected(self):
        image = np.zeros((16, 16), dtype=np.int64)
        image[:, 8:] = 200
        out = SobelKernel().run_exact(image)
        assert out[:, 7:9].max() > 50
        assert out[:, 2].max() == 0

    def test_output_shape_and_range(self, image32):
        out = SobelKernel().run_exact(image32)
        assert out.shape == image32.shape
        assert out.min() >= 0 and out.max() <= 255

    def test_fragile_under_alu_noise(self, image64):
        """Figure 12: sobel quality collapses below ~6 bits."""
        kernel = SobelKernel()
        ref = kernel.run_exact(image64)
        good = psnr(ref, kernel.run(image64, ApproxContext(alu_bits=7, seed=1)))
        bad = psnr(ref, kernel.run(image64, ApproxContext(alu_bits=2, seed=1)))
        assert good > 40.0
        assert bad < 25.0


class TestMedian:
    def test_removes_salt_noise(self):
        image = np.full((16, 16), 100, dtype=np.int64)
        image[8, 8] = 255  # a single hot pixel
        out = MedianKernel().run_exact(image)
        assert out[8, 8] == 100

    def test_preserves_flat_regions(self):
        flat = np.full((16, 16), 42, dtype=np.int64)
        out = MedianKernel().run_exact(flat)
        np.testing.assert_array_equal(out, flat)

    def test_output_values_come_from_neighbourhood(self, image32):
        """Even under approximation, outputs are real input pixels."""
        kernel = MedianKernel()
        out = kernel.run(image32, ApproxContext(alu_bits=1, seed=3))
        padded = np.pad(image32, 1, mode="edge")
        for r, c in [(0, 0), (5, 9), (31, 31)]:
            window = padded[r : r + 3, c : c + 3]
            assert out[r, c] in window

    def test_robust_at_one_bit(self, image64):
        """Figure 12: median stays above 20 dB even at 1 bit."""
        kernel = MedianKernel()
        ref = kernel.run_exact(image64)
        out = kernel.run(image64, ApproxContext(alu_bits=1, seed=1))
        assert psnr(ref, out) > 20.0


class TestIntegral:
    def test_flat_image_box_mean_is_value(self):
        flat = np.full((16, 16), 50, dtype=np.int64)
        out = IntegralKernel(window=4).run_exact(flat)
        np.testing.assert_array_equal(out, flat)

    def test_smooths_impulses(self):
        image = np.zeros((16, 16), dtype=np.int64)
        image[8, 8] = 255
        out = IntegralKernel(window=4).run_exact(image)
        assert out.max() <= 255 // 16 + 1

    def test_window_validated(self):
        with pytest.raises(KernelError):
            IntegralKernel(window=0)

    def test_noise_averages_out(self, image64):
        """Figure 12: integral reaches 40 dB by 4 bits."""
        kernel = IntegralKernel()
        ref = kernel.run_exact(image64)
        out = kernel.run(image64, ApproxContext(alu_bits=4, seed=1))
        assert psnr(ref, out) > 40.0


class TestSusan:
    def test_smoothing_preserves_flat(self):
        flat = np.full((16, 16), 77, dtype=np.int64)
        out = SusanSmoothingKernel().run_exact(flat)
        np.testing.assert_array_equal(out, flat)

    def test_smoothing_preserves_edges_better_than_blur(self):
        image = np.zeros((16, 16), dtype=np.int64)
        image[:, 8:] = 200
        out = SusanSmoothingKernel().run_exact(image)
        # A structure-preserving smoother keeps the step sharp.
        assert out[:, 6].max() <= 10
        assert out[:, 9].min() >= 190

    def test_edges_fire_on_step(self):
        image = np.zeros((16, 16), dtype=np.int64)
        image[:, 8:] = 200
        out = SusanEdgesKernel().run_exact(image)
        assert out[:, 7:9].max() > 0
        assert out[5, 2] == 0

    def test_corners_fire_on_corner_not_edge_interior(self):
        image = np.zeros((24, 24), dtype=np.int64)
        image[10:, 10:] = 200
        out = SusanCornersKernel().run_exact(image)
        corner_response = out[8:13, 8:13].max()
        flat_response = out[2:6, 2:6].max()
        assert corner_response > 0
        assert flat_response == 0

    def test_edge_interior_weaker_than_corner(self):
        image = np.zeros((24, 24), dtype=np.int64)
        image[10:, 10:] = 200
        corners = SusanCornersKernel().run_exact(image)
        # Mid-edge (far from the corner) should respond less than the
        # corner region under the tight geometric threshold.
        assert corners[20, 9:11].max() <= corners[8:13, 8:13].max()

    def test_threshold_validated(self):
        with pytest.raises(KernelError):
            SusanSmoothingKernel(brightness_threshold=0)

    def test_mask_is_pseudocircular(self):
        kernel = SusanSmoothingKernel()
        assert 20 <= kernel.max_area <= 24
        assert (0, 0) not in kernel._OFFSETS

    def test_susan_variants_rank_consistently(self, image64):
        """Smoothing (averaging) tolerates approximation far better
        than the edge/corner responses (thresholded counts)."""
        scores = {}
        for kernel in (SusanSmoothingKernel(), SusanEdgesKernel(), SusanCornersKernel()):
            ref = kernel.run_exact(image64)
            out = kernel.run(image64, ApproxContext(alu_bits=4, seed=1))
            scores[kernel.name] = psnr(ref, out)
        assert scores["susan_smoothing"] > scores["susan_edges"]
        assert scores["susan_smoothing"] > scores["susan_corners"]
