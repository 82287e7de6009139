"""Approximate-memory truncation semantics (Section 8.1, Figures 13-14).

"The non-preserved bits in the reduced quality memory are truncated,
and the operations using their values are treated as shifted N-bit
operations."

Truncation *loses information* (a systematic, signal-dependent error)
whereas the approximate ALU *adds noise*; the paper observes that this
makes the memory path's MSE degrade faster while PSNR behaves
similarly. Keeping plain floor-truncation (no midpoint reconstruction)
preserves exactly that asymmetry.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .._validation import check_int_in_range
from ..errors import ProcessorError

__all__ = ["memory_truncate_bits"]


def memory_truncate_bits(
    values: np.ndarray,
    bits: Union[int, np.ndarray],
    word_bits: int = 8,
) -> np.ndarray:
    """Truncate ``values`` to their top ``bits`` bits (low bits zeroed).

    The returned values remain in the full ``word_bits`` range: the low
    bits read back as zero, which is how downstream shifted-N-bit
    operations observe them.
    """
    values = np.asarray(values)
    if not np.issubdtype(values.dtype, np.integer):
        raise ProcessorError("memory_truncate_bits expects integer values")
    word_bits = check_int_in_range(word_bits, "word_bits", 1, 32, exc=ProcessorError)
    bits_arr = np.asarray(bits, dtype=np.int64)
    if np.any(bits_arr < 1) or np.any(bits_arr > word_bits):
        raise ProcessorError(f"bits must lie in [1, {word_bits}]")
    bits_arr = np.broadcast_to(bits_arr, values.shape)
    shift = (word_bits - bits_arr).astype(np.int64)
    clipped = np.clip(values.astype(np.int64), 0, (1 << word_bits) - 1)
    return (clipped >> shift) << shift
