"""Row-wise fixed-point FFT kernel (MiBench `FFT`).

Each image row is treated as a real signal; a radix-2
decimation-in-time FFT with Q7 twiddle factors and per-stage scaling
(the classic overflow-safe embedded formulation) produces a magnitude
spectrum, log-compressed into the 8-bit output range. This is the
"spectrum analysis" workload of the paper's gas-sensing / water-quality
motivation.

Approximation enters every butterfly: the add/sub/multiply results
carry low-bit datapath noise (signed, one quantum wide). Because the
noise is injected log2(N) times per sample and the spectrum spans a
large dynamic range, FFT sits mid-field in approximation tolerance —
the paper recommends the *linear* retention policy for FFT-like
kernels (Section 3.2).
"""

from __future__ import annotations

import numpy as np

from ..errors import KernelError
from .base import ApproxContext, Kernel

__all__ = ["FFTKernel"]


def _bit_reverse_permutation(n: int) -> np.ndarray:
    """Index permutation for in-order radix-2 DIT input shuffling."""
    bits = n.bit_length() - 1
    indices = np.arange(n)
    reversed_indices = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        reversed_indices |= ((indices >> b) & 1) << (bits - 1 - b)
    return reversed_indices


class FFTKernel(Kernel):
    """Row-wise radix-2 fixed-point FFT with log-magnitude output."""

    name = "fft"
    # log2(N) stages x (1 complex MAC + 2 adds) per sample.
    instructions_per_element = 72

    #: Q-format of the twiddle factors.
    TWIDDLE_SHIFT = 7

    def run(self, image: np.ndarray, ctx: ApproxContext) -> np.ndarray:
        """Log-magnitude row spectra, same shape as the input."""
        image = self._check_gray(image)
        h, w = image.shape
        if w & (w - 1):
            raise KernelError(f"row length must be a power of two, got {w}")
        loaded = ctx.load(image)
        bits = ctx.alu_bits_for((h, w))

        perm = _bit_reverse_permutation(w)
        real = loaded[:, perm].astype(np.int64)
        imag = np.zeros_like(real)

        scale = 1 << self.TWIDDLE_SHIFT
        half = w // 2
        stage_size = 2
        while stage_size <= w:
            m = stage_size // 2
            angles = -2.0 * np.pi * np.arange(m) / stage_size
            tw_re = np.round(np.cos(angles) * scale).astype(np.int64)
            tw_im = np.round(np.sin(angles) * scale).astype(np.int64)

            starts = np.arange(0, w, stage_size)
            top = (starts[:, None] + np.arange(m)[None, :]).ravel()
            bottom = top + m

            # Twiddle multiply of the bottom inputs (Q7 fixed point).
            br, bi = real[:, bottom], imag[:, bottom]
            tr = np.tile(tw_re, starts.size)
            ti = np.tile(tw_im, starts.size)
            prod_re = (br * tr - bi * ti) >> self.TWIDDLE_SHIFT
            prod_im = (br * ti + bi * tr) >> self.TWIDDLE_SHIFT

            stage_bits = bits[:, : top.size] if isinstance(bits, np.ndarray) else bits
            prod_re = ctx.alu.add_signed_noise(prod_re, stage_bits)
            prod_im = ctx.alu.add_signed_noise(prod_im, stage_bits)

            ar, ai = real[:, top], imag[:, top]
            # Per-stage >>1 scaling keeps the fixed-point range bounded.
            real[:, top] = (ar + prod_re) >> 1
            imag[:, top] = (ai + prod_im) >> 1
            real[:, bottom] = (ar - prod_re) >> 1
            imag[:, bottom] = (ai - prod_im) >> 1
            stage_size *= 2

        magnitude = np.sqrt(real.astype(np.float64) ** 2 + imag.astype(np.float64) ** 2)
        # Log compression into the display byte, as the testbench's
        # output stage does.
        compressed = np.log1p(magnitude) * (255.0 / np.log1p(255.0))
        out = np.clip(np.round(compressed), 0, 255).astype(np.int64)
        return ctx.alu_result(out)
