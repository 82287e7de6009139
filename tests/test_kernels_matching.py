"""Tests for the template-matching extension kernel."""

import numpy as np
import pytest

from repro.errors import KernelError
from repro.kernels import ApproxContext, TemplateMatchKernel, create_kernel


def _embed(template, size=40, at=(12, 20), seed=2):
    rng = np.random.default_rng(seed)
    image = rng.integers(0, 80, (size, size))
    r, c = at
    th, tw = template.shape
    image[r : r + th, c : c + tw] = template
    return image.astype(np.int64)


@pytest.fixture(scope="module")
def template():
    return (np.arange(36).reshape(6, 6) * 7 % 256).astype(np.int64)


class TestExactMatching:
    def test_perfect_match_peaks_at_location(self, template):
        kernel = TemplateMatchKernel(template)
        image = _embed(template, at=(12, 20))
        response = kernel.run_exact(image)
        assert kernel.best_match(response) == (12, 20)
        assert response[12, 20] == 255

    def test_no_match_scores_low(self, template):
        kernel = TemplateMatchKernel(template)
        flat = np.zeros((32, 32), dtype=np.int64)
        response = kernel.run_exact(flat)
        # A zero image vs a textured template: weak response everywhere.
        assert response.max() < 255

    def test_out_of_window_positions_zero(self, template):
        kernel = TemplateMatchKernel(template)
        image = _embed(template)
        response = kernel.run_exact(image)
        assert response[-1, -1] == 0  # window would fall off the edge

    def test_stride_skips_positions(self, template):
        kernel = TemplateMatchKernel(template, stride=4)
        image = _embed(template, at=(12, 20))
        response = kernel.run_exact(image)
        assert kernel.best_match(response) == (12, 20)


class TestApproximateMatching:
    def test_low_bits_keep_the_peak_nearby(self, template):
        """The detection survives approximation; the map blurs."""
        kernel = TemplateMatchKernel(template)
        image = _embed(template, at=(12, 20))
        response = kernel.run(image, ApproxContext(alu_bits=3, seed=1))
        r, c = kernel.best_match(response)
        assert abs(r - 12) <= 2 and abs(c - 20) <= 2

    def test_quality_degrades_monotonically(self, template):
        from repro.quality import psnr

        kernel = TemplateMatchKernel(template)
        image = _embed(template)
        ref = kernel.run_exact(image)
        high = psnr(ref, kernel.run(image, ApproxContext(alu_bits=6, seed=1)))
        low = psnr(ref, kernel.run(image, ApproxContext(alu_bits=1, seed=1)))
        assert high >= low


class TestValidation:
    def test_registry_entry(self):
        kernel = create_kernel("template_match")
        assert kernel.name == "template_match"

    def test_template_validation(self):
        with pytest.raises(KernelError):
            TemplateMatchKernel(np.zeros((1, 5), dtype=np.int64))
        with pytest.raises(KernelError):
            TemplateMatchKernel(np.zeros((4, 4)))  # float dtype

    def test_template_larger_than_image(self, template):
        kernel = TemplateMatchKernel(template)
        with pytest.raises(KernelError):
            kernel.run_exact(np.zeros((4, 4), dtype=np.int64))

    def test_default_template(self):
        kernel = TemplateMatchKernel()
        assert kernel.template.shape == (6, 6)
