"""The nonvolatile resume-point buffer (Section 4).

"An additional circular nonvolatile buffer within the controller
records the PC of the last N (four, in our implementation)
resume-points from which the SIMD operation can begin. ... The oldest
value is overwritten (discarded in FIFO order)."

Each entry records where an abandoned (incidental) computation stopped:
the resume PC, the frame it belonged to, and how far through the frame
it had progressed. The incidental executive runs the buffered
computations as incidental SIMD lanes, and removes an entry when its
frame completes or resumes as the current computation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from .._validation import check_int_in_range
from ..errors import ReproError

__all__ = ["ResumePoint", "ResumePointBuffer"]


@dataclass(frozen=True)
class ResumePoint:
    """One suspended computation recorded in the nonvolatile buffer."""

    pc: int
    frame_id: int
    elements_done: int
    register_version: int

    def __post_init__(self) -> None:
        check_int_in_range(self.pc, "pc", 0, (1 << 16) - 1, exc=ReproError)
        check_int_in_range(self.frame_id, "frame_id", 0, exc=ReproError)
        check_int_in_range(self.elements_done, "elements_done", 0, exc=ReproError)
        check_int_in_range(self.register_version, "register_version", 0, 3, exc=ReproError)


class ResumePointBuffer:
    """A FIFO of at most ``capacity`` (4) resume points.

    The hardware is a 2 byte x 4 buffer of nonvolatile flip-flops: tiny
    and persistent across outages, so no push or eviction is ever lost
    to a power failure.
    """

    def __init__(self, capacity: int = 4) -> None:
        self.capacity = check_int_in_range(capacity, "capacity", 1, 4, exc=ReproError)
        self._entries: List[ResumePoint] = []
        self.evicted_count = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    @property
    def is_full(self) -> bool:
        """Whether a push would evict the oldest entry."""
        return len(self._entries) >= self.capacity

    def push(self, point: ResumePoint) -> Optional[ResumePoint]:
        """Record a resume point; returns the evicted entry, if any.

        Eviction is FIFO: the *oldest* abandoned computation is dropped
        — its data's importance has decayed the furthest (Section 3.1).
        """
        if not isinstance(point, ResumePoint):
            raise ReproError("push expects a ResumePoint")
        evicted = None
        if self.is_full:
            evicted = self._entries.pop(0)
            self.evicted_count += 1
        self._entries.append(point)
        return evicted

    def entries_for_frame(self, frame_id: int) -> List[ResumePoint]:
        """All entries belonging to one frame (usually 0 or 1)."""
        return [e for e in self._entries if e.frame_id == frame_id]

    def remove(self, entry: ResumePoint) -> None:
        """Clear an entry whose computation was adopted as a SIMD lane.

        "SIMD width is increased and the buffer storing the SIMDed
        resume-point PC is cleared."
        """
        try:
            self._entries.remove(entry)
        except ValueError:
            raise ReproError("resume point is not in the buffer") from None

    def update(self, entry: ResumePoint, **changes) -> ResumePoint:
        """Replace an entry in place (e.g. progress advanced)."""
        index = self._entries.index(entry) if entry in self._entries else -1
        if index < 0:
            raise ReproError("resume point is not in the buffer")
        new_entry = replace(entry, **changes)
        self._entries[index] = new_entry
        return new_entry

    def oldest(self) -> Optional[ResumePoint]:
        """The entry next in line for FIFO eviction."""
        return self._entries[0] if self._entries else None

    def clear(self) -> None:
        """Drop every entry (program restart)."""
        self._entries.clear()

    def state_bits(self) -> int:
        """Nonvolatile storage footprint: 2 bytes x capacity of PC."""
        return 16 * self.capacity
