"""Five-stage pipeline model with nonvolatile flip-flops (Figure 6).

The paper's NVP is a simple 5-stage pipeline (IF/ID, ID/EX, EX/MEM,
MEM/WB latches plus PC) where every pipeline flip-flop is nonvolatile,
enabling in-situ distributed backup. This module sizes that state —
which is what the backup engine prices — and provides snapshot and
restore of the architectural+microarchitectural state the simulator
tracks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .._validation import check_int_in_range
from ..errors import ProcessorError

__all__ = ["PipelineModel", "StateSnapshot", "STAGE_NAMES"]

#: Latch boundaries of the five-stage pipeline, in order.
STAGE_NAMES: Tuple[str, ...] = ("IF/ID", "ID/EX", "EX/MEM", "MEM/WB")


@dataclass(frozen=True)
class StateSnapshot:
    """A backup image of the processor's volatile-equivalent state."""

    pc: int
    stage_words: Dict[str, int]
    register_banks: np.ndarray
    tick: int

    @property
    def total_words(self) -> int:
        """Number of words captured in the snapshot."""
        return 1 + len(self.stage_words) + int(self.register_banks.size)


class PipelineModel:
    """Sizes and snapshots the NVP's distributed nonvolatile state.

    Parameters
    ----------
    word_bits:
        Datapath width (8).
    n_regs:
        Architectural registers per lane bank.
    latch_words_per_stage:
        Pipeline-latch payload per stage boundary, in words (operands,
        control, destination tags).
    control_state_bits:
        Lane-independent control state: PC (16 bits), the 2-byte x 4
        nonvolatile resume-point PC buffer (Section 4), approximation
        control registers, state-machine bits.
    """

    def __init__(
        self,
        word_bits: int = 8,
        n_regs: int = 16,
        latch_words_per_stage: int = 5,
        control_state_bits: int = 128,
    ) -> None:
        self.word_bits = check_int_in_range(word_bits, "word_bits", 1, 32, exc=ProcessorError)
        self.n_regs = check_int_in_range(n_regs, "n_regs", 1, 64, exc=ProcessorError)
        self.latch_words_per_stage = check_int_in_range(
            latch_words_per_stage, "latch_words_per_stage", 1, 64, exc=ProcessorError
        )
        self.control_state_bits = check_int_in_range(
            control_state_bits, "control_state_bits", 0, 4096, exc=ProcessorError
        )

    # -- state sizing (what backup must persist) ---------------------------

    @property
    def base_state_bits(self) -> int:
        """Lane-independent state: PC, resume buffer, control."""
        # 16-bit PC + 4 x 16-bit resume-point buffer + control.
        return 16 + 4 * 16 + self.control_state_bits

    @property
    def lane_state_bits(self) -> int:
        """Per-lane full-precision state: registers + pipeline latches."""
        latch_bits = len(STAGE_NAMES) * self.latch_words_per_stage * self.word_bits
        reg_bits = self.n_regs * self.word_bits
        return latch_bits + reg_bits

    def state_bits(self, lane_bits: Sequence[int]) -> int:
        """Total nonvolatile bits to persist for the given lane budgets.

        A lane running with ``b`` reliable bits only persists the top
        ``b`` bit-slices of its registers and latches reliably.
        """
        lanes = list(lane_bits)
        if not 1 <= len(lanes) <= 4:
            raise ProcessorError(f"1-4 lanes supported, got {len(lanes)}")
        total = float(self.base_state_bits)
        for b in lanes:
            b = check_int_in_range(b, "lane bits", 1, self.word_bits, exc=ProcessorError)
            total += self.lane_state_bits * (b / self.word_bits)
        return int(round(total))

    def state_fraction(self, lane_bits: Sequence[int]) -> float:
        """State size relative to a single full-precision lane."""
        full = self.base_state_bits + self.lane_state_bits
        return self.state_bits(lane_bits) / full

    # -- snapshotting ---------------------------------------------------------

    def snapshot(
        self,
        pc: int,
        register_banks: np.ndarray,
        tick: int,
        stage_words: Dict[str, int] = None,
    ) -> StateSnapshot:
        """Capture a :class:`StateSnapshot` of the live state."""
        pc = check_int_in_range(pc, "pc", 0, (1 << 16) - 1, exc=ProcessorError)
        tick = check_int_in_range(tick, "tick", 0, exc=ProcessorError)
        if stage_words is None:
            stage_words = {name: 0 for name in STAGE_NAMES}
        unknown = set(stage_words) - set(STAGE_NAMES)
        if unknown:
            raise ProcessorError(f"unknown pipeline stages: {sorted(unknown)}")
        return StateSnapshot(
            pc=pc,
            stage_words=dict(stage_words),
            register_banks=np.array(register_banks, copy=True),
            tick=tick,
        )
