"""Annotated programs: kernels plus pragmas, and the compiler's role.

Section 5 splits responsibilities: the *programmer* marks approximable
data (``incidental``), the roll-forward point
(``incidental_recover_from``), and any recompute/assemble intent; the
*compiler* turns those marks into hardware state — AC bits for the
marked variables and the recovery program counter.

:class:`AnnotatedProgram` performs that compiler role for a kernel:
it validates the pragma set, resolves the retention policy and assigns
the (behavioral) recovery PC.
"""

from __future__ import annotations

import re
from typing import List, Optional, Sequence, Union

from ..errors import PragmaError
from ..kernels.base import Kernel
from ..nvm.retention import RetentionPolicy, policy_by_name
from .pragmas import (
    AssemblePragma,
    IncidentalPragma,
    RecomputePragma,
    RecoverFromPragma,
    parse_pragma,
)

__all__ = ["AnnotatedProgram"]

_Pragma = Union[IncidentalPragma, RecoverFromPragma, RecomputePragma, AssemblePragma]

#: Behavioral recovery PC: the instruction that begins a new frame
#: iteration (the paper's "instruction that begins the update of the
#: induction variable 'frame'").
FRAME_LOOP_PC: int = 0x0100


class AnnotatedProgram:
    """A kernel with its ``#pragma ac`` annotations, compiled.

    Parameters
    ----------
    kernel:
        The workload the program's frame loop runs.
    pragmas:
        The annotation set. At most one ``incidental`` per variable and
        at most one ``incidental_recover_from`` are allowed; programs
        meant for the incidental executive need both at least once.
    """

    def __init__(
        self,
        kernel: Kernel,
        pragmas: Sequence[_Pragma],
        loop_carried: bool = False,
        frame_loop_bound: Optional[int] = None,
    ) -> None:
        self.kernel = kernel
        self.pragmas: List[_Pragma] = list(pragmas)
        #: Section 5: "Our current implementation does not support
        #: incidental SIMD optimizations for programs with loop-carried
        #: dependencies" — the compiler flags them and the hardware
        #: falls back to single-lane execution.
        self.loop_carried = bool(loop_carried)
        #: Iteration count of the frame loop, when the source declares
        #: one (Figure 8's ``frame < 3000``).
        self.frame_loop_bound = frame_loop_bound
        self._validate()

    #: Recognises the frame loop header of the Figure 8 listing and
    #: extracts its bound, e.g. ``for (unsigned int frame=0; frame < 3000; frame ++)``.
    _FRAME_LOOP_RE = re.compile(
        r"for\s*\(.*?(\w+)\s*=\s*0\s*;\s*\1\s*<\s*(\d+)\s*;", re.DOTALL
    )

    @classmethod
    def from_source(
        cls,
        kernel: Kernel,
        source_lines: Sequence[str],
        loop_carried: bool = False,
    ) -> "AnnotatedProgram":
        """Build a program from C-form source lines (Figure 8 style).

        Parses the ``#pragma ac`` annotations and, when present, the
        frame loop's iteration bound.
        """
        pragmas = [
            parse_pragma(line)
            for line in source_lines
            if line.strip().startswith("#pragma")
        ]
        bound = None
        match = cls._FRAME_LOOP_RE.search("\n".join(source_lines))
        if match:
            bound = int(match.group(2))
        return cls(
            kernel,
            pragmas,
            loop_carried=loop_carried,
            frame_loop_bound=bound,
        )

    def _validate(self) -> None:
        seen_vars = set()
        recover_count = 0
        for pragma in self.pragmas:
            if isinstance(pragma, IncidentalPragma):
                if pragma.src in seen_vars:
                    raise PragmaError(
                        f"variable {pragma.src!r} has more than one incidental pragma"
                    )
                seen_vars.add(pragma.src)
            elif isinstance(pragma, RecoverFromPragma):
                recover_count += 1
        if recover_count > 1:
            raise PragmaError("at most one incidental_recover_from is allowed")

    # -- pragma accessors ---------------------------------------------------

    @property
    def incidental(self) -> Optional[IncidentalPragma]:
        """The first ``incidental`` pragma (the frame-buffer variable)."""
        for pragma in self.pragmas:
            if isinstance(pragma, IncidentalPragma):
                return pragma
        return None

    @property
    def recover_from(self) -> Optional[RecoverFromPragma]:
        """The ``incidental_recover_from`` pragma, if present."""
        for pragma in self.pragmas:
            if isinstance(pragma, RecoverFromPragma):
                return pragma
        return None

    @property
    def recompute_pragmas(self) -> List[RecomputePragma]:
        """All ``recompute`` pragmas."""
        return [p for p in self.pragmas if isinstance(p, RecomputePragma)]

    @property
    def assemble_pragmas(self) -> List[AssemblePragma]:
        """All ``assemble`` pragmas."""
        return [p for p in self.pragmas if isinstance(p, AssemblePragma)]

    @property
    def supports_incidental_execution(self) -> bool:
        """Whether the executive can run this program incidentally.

        Needs both the approximable data mark and a roll-forward point
        (Section 6's example carries exactly those two).
        """
        return self.incidental is not None and self.recover_from is not None

    # -- compiled artefacts ----------------------------------------------------

    @property
    def minbits(self) -> int:
        """Lower bit bound of the incidental data (8 when unmarked)."""
        pragma = self.incidental
        return pragma.minbits if pragma is not None else 8

    @property
    def maxbits(self) -> int:
        """Upper bit bound of the incidental data (8 when unmarked)."""
        pragma = self.incidental
        return pragma.maxbits if pragma is not None else 8

    def retention_policy(self, time_scale: float = 1.0) -> Optional[RetentionPolicy]:
        """The backup retention policy the pragma selected.

        ``time_scale`` matches the shaping curve to the platform's
        backup cadence (see
        :class:`repro.nvm.retention.RetentionPolicy`).
        """
        pragma = self.incidental
        if pragma is None:
            return None
        return policy_by_name(pragma.policy, time_scale=time_scale)

    @property
    def recovery_pc(self) -> int:
        """The compiled roll-forward restart PC."""
        if self.recover_from is None:
            raise PragmaError("program has no incidental_recover_from pragma")
        return FRAME_LOOP_PC

    def source_form(self) -> List[str]:
        """The pragma block as C source lines."""
        return [pragma.source_form() for pragma in self.pragmas]

    def __repr__(self) -> str:
        return (
            f"AnnotatedProgram(kernel={self.kernel.name!r}, "
            f"pragmas={len(self.pragmas)})"
        )
