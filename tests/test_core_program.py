"""Tests for AnnotatedProgram (the compiler role, Section 5)."""

import pytest

from repro.core.pragmas import (
    AssemblePragma,
    IncidentalPragma,
    RecomputePragma,
    RecoverFromPragma,
)
from repro.core.program import FRAME_LOOP_PC, AnnotatedProgram
from repro.errors import PragmaError
from repro.kernels import MedianKernel, SobelKernel
from repro.nvm.retention import LinearRetention


class TestConstruction:
    def test_figure8_program(self, median_program):
        assert median_program.supports_incidental_execution
        assert median_program.minbits == 2
        assert median_program.maxbits == 8

    def test_from_source(self):
        program = AnnotatedProgram.from_source(
            MedianKernel(),
            [
                "#pragma ac incidental (src,2,8,linear);",
                "unsigned char src[RowSize][ColSize];",
                "#pragma ac incidental_recover_from(frame);",
                "for (unsigned int frame=0; frame < 3000; frame ++)",
            ],
        )
        assert program.supports_incidental_execution
        assert program.incidental.policy == "linear"

    def test_duplicate_incidental_rejected(self):
        with pytest.raises(PragmaError):
            AnnotatedProgram(
                MedianKernel(),
                [
                    IncidentalPragma("src", 2, 8, "linear"),
                    IncidentalPragma("src", 4, 8, "log"),
                ],
            )

    def test_two_recover_from_rejected(self):
        with pytest.raises(PragmaError):
            AnnotatedProgram(
                MedianKernel(),
                [RecoverFromPragma("frame"), RecoverFromPragma("n")],
            )

    def test_bare_program_does_not_support_incidental(self):
        program = AnnotatedProgram(SobelKernel(), [])
        assert not program.supports_incidental_execution
        assert program.incidental is None
        assert program.recover_from is None
        assert program.minbits == 8  # unmarked data stays precise


class TestCompiledArtefacts:
    def test_retention_policy_resolved(self, median_program):
        policy = median_program.retention_policy()
        assert isinstance(policy, LinearRetention)

    def test_retention_policy_time_scale(self, median_program):
        scaled = median_program.retention_policy(time_scale=8.0)
        assert scaled.time_scale == 8.0

    def test_no_policy_without_incidental(self):
        program = AnnotatedProgram(SobelKernel(), [])
        assert program.retention_policy() is None

    def test_recovery_pc(self, median_program):
        assert median_program.recovery_pc == FRAME_LOOP_PC

    def test_recovery_pc_requires_pragma(self):
        program = AnnotatedProgram(SobelKernel(), [])
        with pytest.raises(PragmaError):
            _ = program.recovery_pc

    def test_pragma_accessors(self):
        program = AnnotatedProgram(
            MedianKernel(),
            [
                IncidentalPragma("src", 2, 8, "linear"),
                RecoverFromPragma("frame"),
                RecomputePragma("buf", 4),
                AssemblePragma("buf", "higherbits"),
            ],
        )
        assert len(program.recompute_pragmas) == 1
        assert len(program.assemble_pragmas) == 1

    def test_source_form_lists_all(self, median_program):
        lines = median_program.source_form()
        assert len(lines) == 2
        assert all(line.startswith("#pragma ac") for line in lines)

    def test_repr(self, median_program):
        assert "median" in repr(median_program)


class TestCompilerExtras:
    def test_frame_loop_bound_extracted(self):
        program = AnnotatedProgram.from_source(
            MedianKernel(),
            [
                "#pragma ac incidental (src,2,8,linear);",
                "#pragma ac incidental_recover_from(frame);",
                "for (unsigned int frame=0; frame < 3000; frame ++)",
            ],
        )
        assert program.frame_loop_bound == 3000

    def test_no_loop_header_means_no_bound(self, median_program):
        assert median_program.frame_loop_bound is None

    def test_loop_carried_flag(self):
        program = AnnotatedProgram(
            MedianKernel(),
            [
                IncidentalPragma("src", 2, 8, "linear"),
                RecoverFromPragma("frame"),
            ],
            loop_carried=True,
        )
        assert program.loop_carried

    def test_loop_carried_disables_simd_in_executive(self, trace1):
        from repro.core.executive import IncidentalExecutive
        from repro.kernels import frame_sequence

        program = AnnotatedProgram(
            MedianKernel(),
            [
                IncidentalPragma("src", 2, 8, "linear"),
                RecoverFromPragma("frame"),
            ],
            loop_carried=True,
        )
        executive = IncidentalExecutive(
            program, trace1, frame_sequence(4, 16), frame_period_ticks=4_000
        )
        result = executive.run()
        assert result.sim.incidental_progress == 0
