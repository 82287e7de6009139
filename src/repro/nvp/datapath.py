"""Approximate ALU semantics (Section 8.1, Figures 11-12).

"The N-bit reduced-quality ALU preserves the upper N bits and produces
random outputs for the lower 8-N bits" — the behavioral consequence of
running the low-order bit slices of a gradient-VDD adder [8, 75] below
their reliable operating voltage.

:func:`alu_reduce_bits` is the vectorised primitive used by every
kernel; :class:`ApproximateALU` wraps it with operation counting so the
executive can charge energy per operation.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .._validation import check_int_in_range
from ..errors import ProcessorError

__all__ = ["alu_reduce_bits", "ApproximateALU"]


def alu_reduce_bits(
    values: np.ndarray,
    bits: Union[int, np.ndarray],
    rng: np.random.Generator,
    word_bits: int = 8,
) -> np.ndarray:
    """Apply N-bit ALU approximation to ``values``.

    The top ``bits`` bits of each ``word_bits``-wide value are
    preserved; the remaining low-order bits are replaced with uniform
    random bits (noise, not truncation — this is what distinguishes the
    approximate ALU from the approximate memory in the paper's quality
    study).

    ``bits`` may be a scalar or an array broadcastable to
    ``values.shape`` (per-element bit budgets arise under dynamic
    bitwidth, Figure 18).
    """
    values = np.asarray(values)
    if not np.issubdtype(values.dtype, np.integer):
        raise ProcessorError("alu_reduce_bits expects integer values")
    word_bits = check_int_in_range(word_bits, "word_bits", 1, 32, exc=ProcessorError)
    bits_arr = np.asarray(bits, dtype=np.int64)
    if np.any(bits_arr < 1) or np.any(bits_arr > word_bits):
        raise ProcessorError(f"bits must lie in [1, {word_bits}]")
    if np.all(bits_arr >= word_bits):
        return values.astype(np.int64)

    bits_arr = np.broadcast_to(bits_arr, values.shape)
    noise_width = (word_bits - bits_arr).astype(np.int64)
    keep_mask = (~((np.int64(1) << noise_width) - np.int64(1))) & (
        (np.int64(1) << word_bits) - np.int64(1)
    )
    noise = rng.integers(0, 1 << word_bits, size=values.shape, dtype=np.int64)
    clipped = np.clip(values.astype(np.int64), 0, (1 << word_bits) - 1)
    return (clipped & keep_mask) | (noise & ~keep_mask)


class ApproximateALU:
    """A bit-budgeted ALU with operation accounting.

    Parameters
    ----------
    word_bits:
        Native datapath width (8 for the 8051-class NVP).
    seed:
        Seed for the low-bit noise source. Experiments fix this so the
        injected approximation error is reproducible.
    """

    def __init__(self, word_bits: int = 8, seed: int = 0) -> None:
        self.word_bits = check_int_in_range(word_bits, "word_bits", 1, 32, exc=ProcessorError)
        self._rng = np.random.default_rng(seed)
        self.op_count = 0

    def _approx(self, result: np.ndarray, bits: Union[int, np.ndarray]) -> np.ndarray:
        self.op_count += int(np.asarray(result).size)
        return alu_reduce_bits(result, bits, self._rng, word_bits=self.word_bits)

    # Arithmetic results saturate to the word range before noise
    # injection, matching an 8-bit datapath with a carry-out drop.

    def add(self, a: np.ndarray, b: np.ndarray, bits: Union[int, np.ndarray]) -> np.ndarray:
        """Approximate saturating add."""
        exact = np.clip(np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64), 0, (1 << self.word_bits) - 1)
        return self._approx(exact, bits)

    def sub(self, a: np.ndarray, b: np.ndarray, bits: Union[int, np.ndarray]) -> np.ndarray:
        """Approximate saturating subtract (clamped at zero)."""
        exact = np.clip(np.asarray(a, dtype=np.int64) - np.asarray(b, dtype=np.int64), 0, (1 << self.word_bits) - 1)
        return self._approx(exact, bits)

    def mul_shift(self, a: np.ndarray, b: np.ndarray, shift: int, bits: Union[int, np.ndarray]) -> np.ndarray:
        """Approximate fixed-point multiply: ``(a * b) >> shift``."""
        shift = check_int_in_range(shift, "shift", 0, 31, exc=ProcessorError)
        exact = (np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64)) >> shift
        exact = np.clip(exact, 0, (1 << self.word_bits) - 1)
        return self._approx(exact, bits)

    def compare_values(
        self, a: np.ndarray, b: np.ndarray, bits: Union[int, np.ndarray]
    ) -> np.ndarray:
        """Approximate comparison: ``approx(a) > approx(b)``.

        Rank-based kernels (median, SUSAN thresholding) route their
        comparisons through here; the *selected element* stays an exact
        stored value even when the comparison itself is noisy — which
        is why median tolerates tiny bit budgets (Figure 12).
        """
        a_noisy = self._approx(np.asarray(a, dtype=np.int64), bits)
        b_noisy = self._approx(np.asarray(b, dtype=np.int64), bits)
        return a_noisy > b_noisy

    def passthrough(self, values: np.ndarray, bits: Union[int, np.ndarray]) -> np.ndarray:
        """Route stored values through the approximate datapath once."""
        exact = np.clip(np.asarray(values, dtype=np.int64), 0, (1 << self.word_bits) - 1)
        return self._approx(exact, bits)

    def add_signed_noise(
        self, values: np.ndarray, bits: Union[int, np.ndarray]
    ) -> np.ndarray:
        """Inject b-bit datapath noise into *signed* intermediates.

        Fixed-point kernels (FFT butterflies) carry signed values wider
        than the 8-bit storage word; their low-order datapath slices
        misbehave identically, which at the value level is additive
        noise of one quantum ``2**(word_bits - bits)`` centred on zero.
        Full-precision budgets inject nothing.
        """
        values = np.asarray(values, dtype=np.int64)
        bits_arr = np.asarray(bits, dtype=np.int64)
        if np.any(bits_arr < 1) or np.any(bits_arr > self.word_bits):
            raise ProcessorError(f"bits must lie in [1, {self.word_bits}]")
        self.op_count += int(values.size)
        if np.all(bits_arr >= self.word_bits):
            return values.copy()
        quantum = np.int64(1) << (self.word_bits - np.broadcast_to(bits_arr, values.shape))
        span = self._rng.random(values.shape) - 0.5
        noise = np.round(span * (quantum - 1)).astype(np.int64)
        return values + noise
