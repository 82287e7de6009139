"""Kernel abstraction and the approximation context.

Every kernel exposes ``run(image, ctx)`` where ``ctx`` is an
:class:`ApproxContext` carrying the two bit budgets of Section 8.1:

* ``alu_bits`` — reliable bits of the datapath; the low bits of each
  ALU result are *noise* (gradient-VDD model, Figures 11-12);
* ``mem_bits`` — reliable bits of the data memory; the low bits of
  stored values are *truncated* (Figures 13-14).

Either budget may be a scalar (fixed-bitwidth study) or a 1-D schedule
that is laid out over the kernel's element processing order (dynamic
bitwidth, Figures 17-19): element ``k`` of the output is computed with
the budget that was available during the ``k``-th powered tick.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Union

import numpy as np

from .._validation import check_int_in_range
from ..errors import KernelError
from ..nvp.datapath import ApproximateALU
from ..nvp.memory_approx import memory_truncate_bits

__all__ = ["ApproxContext", "Kernel", "exact_context"]

_BitSpec = Union[int, np.ndarray]


class ApproxContext:
    """Bit budgets and noise source for one approximate kernel run.

    Parameters
    ----------
    alu_bits / mem_bits:
        Scalar budget in ``[1, word_bits]``, or a 1-D array of budgets
        (a schedule) that is tiled over the kernel's elements in
        processing order.
    seed:
        Seed of the ALU low-bit noise; fixed per experiment so results
        are reproducible.
    """

    def __init__(
        self,
        alu_bits: _BitSpec = 8,
        mem_bits: _BitSpec = 8,
        word_bits: int = 8,
        seed: int = 0,
    ) -> None:
        self.word_bits = check_int_in_range(word_bits, "word_bits", 1, 32, exc=KernelError)
        self.alu_bits = self._check_bits(alu_bits, "alu_bits")
        self.mem_bits = self._check_bits(mem_bits, "mem_bits")
        self.alu = ApproximateALU(word_bits=self.word_bits, seed=seed)
        self.seed = int(seed)

    def _check_bits(self, bits: _BitSpec, name: str) -> _BitSpec:
        if isinstance(bits, (int, np.integer)) and not isinstance(bits, bool):
            return check_int_in_range(int(bits), name, 1, self.word_bits, exc=KernelError)
        arr = np.asarray(bits)
        if arr.ndim != 1 or arr.size == 0:
            raise KernelError(f"{name} schedule must be a non-empty 1-D array")
        if not np.issubdtype(arr.dtype, np.integer):
            raise KernelError(f"{name} schedule must hold integers")
        if arr.min() < 1 or arr.max() > self.word_bits:
            raise KernelError(f"{name} schedule values must lie in [1, {self.word_bits}]")
        return arr.astype(np.int64)

    @property
    def is_exact(self) -> bool:
        """True when both budgets are the full word width."""
        return (
            isinstance(self.alu_bits, int)
            and isinstance(self.mem_bits, int)
            and self.alu_bits == self.word_bits
            and self.mem_bits == self.word_bits
        )

    def _layout(self, bits: _BitSpec, shape) -> _BitSpec:
        """Lay a budget out over an output of ``shape``.

        Scalars pass through; schedules are tiled (the buffered frame
        is processed element-by-element in raster order, wrapping if
        the schedule is shorter than the frame — the system keeps
        running into the next frame with whatever power comes next).
        """
        if isinstance(bits, (int, np.integer)):
            return int(bits)
        n = int(np.prod(shape))
        reps = -(-n // bits.size)  # ceil division
        tiled = np.tile(bits, reps)[:n]
        return tiled.reshape(shape)

    def alu_bits_for(self, shape) -> _BitSpec:
        """Per-element ALU budget for an output of ``shape``."""
        return self._layout(self.alu_bits, shape)

    def mem_bits_for(self, shape) -> _BitSpec:
        """Per-element memory budget for an output of ``shape``."""
        return self._layout(self.mem_bits, shape)

    # -- the two approximation primitives, shape-aware -------------------

    def load(self, values: np.ndarray) -> np.ndarray:
        """Read ``values`` through the approximate memory (truncation)."""
        values = np.asarray(values, dtype=np.int64)
        return memory_truncate_bits(
            values, self.mem_bits_for(values.shape), word_bits=self.word_bits
        )

    def alu_result(self, values: np.ndarray) -> np.ndarray:
        """Pass an exact intermediate through the approximate ALU once."""
        values = np.asarray(values, dtype=np.int64)
        return self.alu.passthrough(values, self.alu_bits_for(values.shape))

    def mean_bits(self) -> float:
        """Mean of the ALU budget (scalar or schedule)."""
        if isinstance(self.alu_bits, (int, np.integer)):
            return float(self.alu_bits)
        return float(np.mean(self.alu_bits))


def exact_context(word_bits: int = 8) -> ApproxContext:
    """A full-precision context (the 8-bit non-approximate baseline)."""
    return ApproxContext(alu_bits=word_bits, mem_bits=word_bits, word_bits=word_bits)


class Kernel(ABC):
    """A workload kernel with approximate-execution hooks.

    Subclasses implement :meth:`run`; the base class supplies the exact
    baseline, iteration structure (for the incidental executive) and
    instruction-cost estimates (for the system simulator).
    """

    #: Registry name, e.g. ``"sobel"``.
    name: str = "abstract"
    #: Estimated committed instructions per output element on the
    #: 8051-class NVP (drives frame-time and energy accounting).
    instructions_per_element: int = 40

    @abstractmethod
    def run(self, image: np.ndarray, ctx: ApproxContext) -> np.ndarray:
        """Execute the kernel under the given approximation context."""

    def run_exact(self, image: np.ndarray) -> np.ndarray:
        """Full-precision reference output (the quality baseline)."""
        return self.run(image, exact_context())

    # -- structure used by the incidental executive -----------------------

    def output_elements(self, image: np.ndarray) -> int:
        """Number of output elements one frame produces."""
        image = np.asarray(image)
        return int(image.shape[0] * image.shape[1])

    def instructions_per_frame(self, image: np.ndarray) -> int:
        """Estimated instructions to process one frame."""
        return self.output_elements(image) * self.instructions_per_element

    @staticmethod
    def _check_gray(image: np.ndarray) -> np.ndarray:
        """Validate and convert a grayscale uint8-range image."""
        image = np.asarray(image)
        if image.ndim != 2:
            raise KernelError(f"expected a 2-D grayscale image, got shape {image.shape}")
        if image.shape[0] < 4 or image.shape[1] < 4:
            raise KernelError("image must be at least 4x4")
        if not np.issubdtype(image.dtype, np.integer):
            raise KernelError("image must have an integer dtype")
        if image.min() < 0 or image.max() > 255:
            raise KernelError("image values must lie in [0, 255]")
        return image.astype(np.int64)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
