"""End-to-end integration scenarios across the whole stack."""

import numpy as np
import pytest

from repro import (
    AnnotatedProgram,
    IncidentalExecutive,
    RecomputeAndCombine,
    simulate_fixed_bits,
    standard_profile,
)
from repro.core.pragmas import IncidentalPragma, RecoverFromPragma
from repro.core.recompute import schedule_from_trace
from repro.kernels import (
    IntegralKernel,
    JPEGEncodeKernel,
    MedianKernel,
    create_kernel,
    frame_sequence,
)
from repro.nvp.isa import KERNEL_MIXES
from repro.quality import TABLE2_POLICIES, evaluate_qos


class TestFullIncidentalPipeline:
    """The paper's whole story on one profile, end to end."""

    @pytest.fixture(scope="class")
    def pipeline(self):
        program = AnnotatedProgram(
            MedianKernel(),
            [
                IncidentalPragma("src", 2, 8, "linear"),
                RecoverFromPragma("frame"),
            ],
        )
        trace = standard_profile(1, duration_s=5.0)
        executive = IncidentalExecutive(
            program,
            trace,
            frame_sequence(8, 12),
            frame_period_ticks=8_000,
            seed=1,
        )
        return program, trace, executive, executive.run()

    def test_progress_beats_precise_baseline(self, pipeline):
        program, trace, _executive, result = pipeline
        baseline = simulate_fixed_bits(trace, 8, mix=KERNEL_MIXES["median"])
        assert result.useful_progress > baseline.forward_progress

    def test_backup_energy_saved(self, pipeline):
        program, trace, _executive, result = pipeline
        baseline = simulate_fixed_bits(trace, 8, mix=KERNEL_MIXES["median"])
        assert result.sim.backup_energy_share < baseline.backup_energy_share

    def test_some_frames_complete_with_quality(self, pipeline):
        _program, _trace, executive, result = pipeline
        assert result.frames_completed > 0
        scores = executive.frame_quality(result)
        assert scores
        assert all(s.psnr_db > 8.0 for s in scores)

    def test_recompute_rescues_an_incidental_frame(self, pipeline):
        """The RAC loop lifts a low-quality incidental output."""
        _program, trace, executive, result = pipeline
        scores = executive.frame_quality(result)
        incidental = [s for s in scores if s.completed_incidentally]
        if not incidental:
            pytest.skip("no incidental completions on this configuration")
        worst = min(incidental, key=lambda s: s.psnr_db)
        image = executive.images[worst.frame_id % len(executive.images)]
        schedule = schedule_from_trace(trace, 4, 8)
        outcome = RecomputeAndCombine(MedianKernel(), 4, 8, seed=2).run(
            image, passes=4, schedule=schedule
        )
        assert outcome.psnr_per_pass[-1] > worst.psnr_db


class TestQoSWorkflow:
    """The programmer's debug-test-modify loop (Section 8.6)."""

    def test_integral_meets_table2_with_parabola(self):
        policy = TABLE2_POLICIES["integral"]
        trace = standard_profile(2, duration_s=4.0)
        schedule = schedule_from_trace(trace, policy.minbits, 8)
        kernel = IntegralKernel()
        image = frame_sequence(1, 32)[0]
        out = RecomputeAndCombine(kernel, policy.minbits, 8, seed=3).run(
            image, 1, schedule
        )
        assert evaluate_qos(policy, psnr_db=out.psnr_per_pass[-1])

    def test_jpeg_size_qos(self):
        policy = TABLE2_POLICIES["jpeg_encode"]
        frames = frame_sequence(2, 32, seed=5, step=2)
        kernel = JPEGEncodeKernel()
        base = kernel.encode(frames[1], frames[0])
        from repro.kernels import ApproxContext

        approx = kernel.encode(
            frames[1], frames[0], ApproxContext(alu_bits=policy.minbits, seed=4)
        )
        assert evaluate_qos(
            policy, size_ratio_value=approx.size_ratio(base.size_bits)
        )


class TestAblation:
    """Isolating the contribution of each incidental mechanism."""

    def _gain(self, trace, **executive_kwargs):
        program = AnnotatedProgram(
            MedianKernel(),
            [IncidentalPragma("src", 2, 8, "linear"), RecoverFromPragma("frame")],
        )
        executive = IncidentalExecutive(
            program,
            trace,
            frame_sequence(8, 16),
            frame_period_ticks=2_500,
            **executive_kwargs,
        )
        result = executive.run()
        baseline = simulate_fixed_bits(trace, 8, mix=KERNEL_MIXES["median"])
        return result.useful_progress / max(1, baseline.forward_progress)

    def test_simd_is_the_dominant_gain(self):
        trace = standard_profile(1, duration_s=5.0)
        with_simd = self._gain(trace, enable_simd=True)
        without = self._gain(trace, enable_simd=False)
        assert with_simd > 1.5 * without

    def test_public_api_imports(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_every_kernel_runs_under_the_executive(self):
        """Cross-module sanity: all ten kernels drive the full stack."""
        trace = standard_profile(1, duration_s=2.0)
        for name in ("sobel", "fft", "susan_corners"):
            program = AnnotatedProgram(
                create_kernel(name),
                [
                    IncidentalPragma("src", 3, 8, "linear"),
                    RecoverFromPragma("frame"),
                ],
            )
            executive = IncidentalExecutive(
                program, trace, frame_sequence(4, 16), frame_period_ticks=4_000
            )
            result = executive.run()
            assert result.sim.total_progress > 0


class TestCrossValidation:
    """The two NVP layers must agree on instruction economics."""

    def test_mcu_cpi_within_behavioral_band(self):
        """The behavioral model assumes a kernel-mix CPI; real assembly
        programs on the interpreter must land in the same band."""
        from repro.nvp import MCU8051
        from repro.nvp import programs as P
        from repro.nvp.isa import DEFAULT_MIX

        rng = np.random.default_rng(11)
        cases = [
            (P.vector_add_program(24), {P.INPUT_A: rng.integers(0, 256, 24),
                                        P.INPUT_B: rng.integers(0, 256, 24)}),
            (P.threshold_count_program(48, 100), {P.INPUT_A: rng.integers(0, 256, 48)}),
            (P.sad_program(24), {P.INPUT_A: rng.integers(0, 256, 24),
                                 P.INPUT_B: rng.integers(0, 256, 24)}),
        ]
        for program, loads in cases:
            machine = MCU8051(program)
            for address, data in loads.items():
                machine.load_xram(address, data)
            outcome = machine.run()
            cpi = outcome.cycles / outcome.instructions
            # The behavioral layer prices work at the mix CPI; the real
            # instruction streams must sit in the same 12-26 band.
            assert 12.0 <= cpi <= 26.0
            assert abs(cpi - DEFAULT_MIX.mean_cycles) / DEFAULT_MIX.mean_cycles < 0.35

    def test_mcu_energy_consistent_with_system_power(self):
        """Interpreter energy = behavioral run power x time, exactly."""
        from repro.nvp import MCU8051
        from repro.nvp import programs as P
        from repro.nvp.energy_model import EnergyModel

        machine = MCU8051(P.saturating_sum_program(30))
        machine.load_xram(P.INPUT_A, np.arange(30))
        outcome = machine.run()
        expected = EnergyModel().uniform_run_power_uw(8) * outcome.seconds
        assert outcome.energy_uj == pytest.approx(expected)
