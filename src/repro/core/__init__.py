"""Incidental computing — the paper's primary contribution.

This subpackage implements, on top of the substrates, everything
Sections 3-6 describe: the four ``#pragma ac`` annotations and their
"compiler" (:mod:`repro.core.program`), the nonvolatile resume-point
buffer (:mod:`repro.core.resume_buffer`), the approximation control
unit that turns income power into per-lane bit budgets
(:mod:`repro.core.controller`), per-element precision metadata and the
``assemble`` merge engines (:mod:`repro.core.precision`,
:mod:`repro.core.merge`), recompute-and-combine
(:mod:`repro.core.recompute`), and the
:class:`~repro.core.executive.IncidentalExecutive` that runs an
annotated program over a power trace with roll-forward recovery and
incidental SIMD lanes.
"""

from .pragmas import (
    IncidentalPragma,
    RecoverFromPragma,
    RecomputePragma,
    AssemblePragma,
    parse_pragma,
)
from .program import AnnotatedProgram
from .resume_buffer import ResumePoint, ResumePointBuffer
from .precision import PrecisionMap
from .merge import assemble_arrays
from .controller import (
    ApproximationControlUnit,
    DynamicBitAllocator,
    IncidentalAllocator,
)
from .recompute import RecomputeAndCombine, RecomputeOutcome
from .executive import IncidentalExecutive, ExecutiveResult, FrameRecord

__all__ = [
    "IncidentalPragma",
    "RecoverFromPragma",
    "RecomputePragma",
    "AssemblePragma",
    "parse_pragma",
    "AnnotatedProgram",
    "ResumePoint",
    "ResumePointBuffer",
    "PrecisionMap",
    "assemble_arrays",
    "ApproximationControlUnit",
    "DynamicBitAllocator",
    "IncidentalAllocator",
    "RecomputeAndCombine",
    "RecomputeOutcome",
    "IncidentalExecutive",
    "ExecutiveResult",
    "FrameRecord",
]
