"""Conformance suite: batched grid replay is bit-exact, or it refuses.

The batch tier (:mod:`repro.system.batchsim`,
:mod:`repro.core.batchexec`) replays whole grids through compiled C
kernels. Its only contract is exactness: every lane it accepts must be
field-for-field identical — floats, int16 schedules, backup-tick
tuples, frame records, exposures — to the per-tick reference
simulators. This suite arbitrates that contract over randomized grids
(mixed lane lengths, mixed configs), the degenerate shapes (one lane,
all lanes identical), and lane-permutation invariance. Every lane of
every grid is checked against the reference loop. (The tests named
``..._vs_fastsim`` / ``..._vs_fastexec`` keep the ids they had when
the oracle was a per-task numpy replay, since deleted.)

Skipped wholesale when the accelerator cannot build on this host — the
engine then never selects the batch tier, so there is nothing to
arbitrate.
"""

import random

import numpy as np
import pytest

from repro.analysis.engine import (
    ExecutiveTask,
    executive_results_equal,
    simulation_results_equal,
)
from repro.core.batchexec import run_executive_batch
from repro.energy.traces import PowerTrace, standard_profile
from repro.errors import SimulationError
from repro.kernels.registry import kernel_mix
from repro.nvm.retention import STANDARD_POLICY_NAMES, policy_by_name
from repro.system.batchsim import FixedLaneSpec, batch_available, run_fixed_batch
from repro.system.config import SystemConfig
from repro.system.simulator import simulate_fixed_bits

pytestmark = [
    pytest.mark.batch,
    pytest.mark.skipif(not batch_available(), reason="accelerator unavailable"),
]

_TRACES = {}


def _trace(profile_id: int, duration_s: float) -> PowerTrace:
    key = (profile_id, duration_s)
    if key not in _TRACES:
        _TRACES[key] = standard_profile(profile_id, duration_s=duration_s)
    return _TRACES[key]


def _random_config(rng: random.Random) -> SystemConfig:
    return SystemConfig(
        capacitor_uj=rng.choice((3.0, 4.5, 6.0)),
        start_fill_fraction=rng.choice((0.25, 0.35, 0.5)),
        backup_margin=rng.choice((0.1, 0.25, 0.4)),
        min_run_ticks=rng.choice((5, 10, 20)),
        dual_channel=rng.random() < 0.5,
    )


def _random_fixed_spec(rng: random.Random) -> FixedLaneSpec:
    kwargs = {}
    if rng.random() < 0.5:
        kwargs["policy"] = policy_by_name(rng.choice(STANDARD_POLICY_NAMES))
    if rng.random() < 0.4:
        kwargs["mix"] = kernel_mix(rng.choice(("median", "sobel", "fft")))
    if rng.random() < 0.5:
        kwargs["config"] = _random_config(rng)
    return FixedLaneSpec(
        trace=_trace(rng.randint(1, 5), rng.choice((0.5, 0.8, 1.1, 1.4))),
        bits=rng.randint(1, 8),
        simd_width=rng.randint(1, 4),
        **kwargs,
    )


def _fixed_reference(spec: FixedLaneSpec):
    return simulate_fixed_bits(
        spec.trace,
        spec.bits,
        simd_width=spec.simd_width,
        policy=spec.policy,
        mix=spec.mix,
        config=spec.config,
        engine="reference",
    )


def _assert_fixed_lane_matches(spec: FixedLaneSpec, outcome) -> None:
    assert outcome.refused is None, outcome.refused
    assert simulation_results_equal(outcome.result, _fixed_reference(spec))


class TestFixedRandomizedGrids:
    """Randomized fixed-bit grids, every lane checked against the
    per-tick reference loop."""

    @pytest.mark.parametrize("seed", range(36))
    def test_grid_bit_exact_vs_fastsim(self, seed):
        rng = random.Random(1000 + seed)
        specs = [_random_fixed_spec(rng) for _ in range(rng.randint(2, 6))]
        outcomes = run_fixed_batch(specs)
        assert len(outcomes) == len(specs)
        for spec, outcome in zip(specs, outcomes):
            _assert_fixed_lane_matches(spec, outcome)

    @pytest.mark.parametrize("seed", range(8))
    def test_grid_lane_bit_exact_vs_reference(self, seed):
        """One lane per grid against the per-tick reference loop."""
        rng = random.Random(2000 + seed)
        spec = _random_fixed_spec(rng)
        _assert_fixed_lane_matches(spec, run_fixed_batch([spec])[0])


class TestFixedDegenerateGrids:
    def test_single_lane_grid(self):
        spec = FixedLaneSpec(trace=_trace(1, 1.1), bits=6, simd_width=2)
        _assert_fixed_lane_matches(spec, run_fixed_batch([spec])[0])

    def test_all_lanes_identical(self):
        spec = FixedLaneSpec(
            trace=_trace(3, 0.8), bits=4, policy=policy_by_name("linear")
        )
        outcomes = run_fixed_batch([spec] * 5)
        for outcome in outcomes:
            _assert_fixed_lane_matches(spec, outcome)
        first = outcomes[0].result
        for outcome in outcomes[1:]:
            assert simulation_results_equal(outcome.result, first)

    def test_mixed_lane_lengths(self):
        specs = [
            FixedLaneSpec(trace=_trace(1, d), bits=b)
            for d, b in ((0.5, 8), (1.4, 3), (0.8, 1), (1.1, 5))
        ]
        for spec, outcome in zip(specs, run_fixed_batch(specs)):
            _assert_fixed_lane_matches(spec, outcome)

    def test_lane_permutation_invariance(self):
        rng = random.Random(77)
        specs = [_random_fixed_spec(rng) for _ in range(6)]
        base = run_fixed_batch(specs)
        order = list(range(len(specs)))
        rng.shuffle(order)
        shuffled = run_fixed_batch([specs[i] for i in order])
        for position, original in enumerate(order):
            assert simulation_results_equal(
                shuffled[position].result, base[original].result
            )

    def test_dead_trace_lane(self, dead_trace):
        spec = FixedLaneSpec(trace=dead_trace, bits=8)
        _assert_fixed_lane_matches(spec, run_fixed_batch([spec])[0])

    def test_constant_trace_lane(self, constant_trace):
        spec = FixedLaneSpec(trace=constant_trace, bits=8, simd_width=4)
        _assert_fixed_lane_matches(spec, run_fixed_batch([spec])[0])

    def test_impossible_start_refused_like_fastsim(self):
        """A config the reference rejects is refused, not silently wrong."""
        config = SystemConfig(capacitor_uj=0.2, start_fill_fraction=0.1)
        spec = FixedLaneSpec(trace=_trace(1, 0.5), bits=8, config=config)
        outcome = run_fixed_batch([spec])[0]
        assert outcome.result is None
        assert "setup raised" in outcome.refused
        with pytest.raises(SimulationError, match="can never start"):
            _fixed_reference(spec)


def _random_executive_task(rng: random.Random) -> ExecutiveTask:
    return ExecutiveTask(
        kernel=rng.choice(("median", "sobel", "fft")),
        policy=rng.choice(("linear", "log", "parabola")),
        profile_id=rng.randint(1, 5),
        minbits=rng.randint(2, 6),
        duration_s=rng.choice((1.0, 1.5, 2.0)),
        frame_period_ticks=rng.choice((2_500, 7_500, 15_000)),
        frame_size=rng.choice((8, 12)),
        enable_simd=rng.random() < 0.75,
        enable_rollforward=rng.random() < 0.75,
        precise_backup=rng.random() < 0.2,
        recover_placement=rng.choice(("inner", "frame")),
        resume_buffer_capacity=rng.randint(1, 4),
        retention_time_scale=rng.choice((2.0, 8.0)),
        current_minbits=rng.choice((4, 8)),
    )


def _executive_reference(task: ExecutiveTask):
    return task.build_executive().run(engine="reference")


class TestExecutiveRandomizedGrids:
    """Randomized executive grids, every lane checked against the
    per-tick reference loop."""

    @pytest.mark.parametrize("seed", range(26))
    def test_grid_bit_exact_vs_fastexec(self, seed):
        rng = random.Random(3000 + seed)
        tasks = [_random_executive_task(rng) for _ in range(rng.randint(2, 4))]
        outcomes = run_executive_batch([t.build_executive() for t in tasks])
        assert len(outcomes) == len(tasks)
        for task, outcome in zip(tasks, outcomes):
            assert outcome.refused is None, outcome.refused
            assert executive_results_equal(
                outcome.result, _executive_reference(task)
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_lane_bit_exact_vs_reference(self, seed):
        rng = random.Random(4000 + seed)
        task = _random_executive_task(rng)
        outcome = run_executive_batch([task.build_executive()])[0]
        assert outcome.refused is None, outcome.refused
        assert executive_results_equal(
            outcome.result, _executive_reference(task)
        )


class TestExecutiveDegenerateGrids:
    def test_single_lane_grid(self):
        task = ExecutiveTask(
            kernel="median", policy="linear", profile_id=1, minbits=4,
            duration_s=1.5,
        )
        outcome = run_executive_batch([task.build_executive()])[0]
        assert outcome.refused is None
        assert executive_results_equal(
            outcome.result, _executive_reference(task)
        )

    def test_all_lanes_identical(self):
        task = ExecutiveTask(
            kernel="sobel", policy="log", profile_id=2, minbits=3,
            duration_s=1.0,
        )
        outcomes = run_executive_batch(
            [task.build_executive() for _ in range(4)]
        )
        reference = _executive_reference(task)
        for outcome in outcomes:
            assert outcome.refused is None
            assert executive_results_equal(outcome.result, reference)

    def test_lane_permutation_invariance(self):
        rng = random.Random(88)
        tasks = [_random_executive_task(rng) for _ in range(5)]
        base = run_executive_batch([t.build_executive() for t in tasks])
        order = list(range(len(tasks)))
        rng.shuffle(order)
        shuffled = run_executive_batch(
            [tasks[i].build_executive() for i in order]
        )
        for position, original in enumerate(order):
            assert executive_results_equal(
                shuffled[position].result, base[original].result
            )

    def test_mixed_lane_lengths(self):
        tasks = [
            ExecutiveTask(
                kernel="median", policy="linear", profile_id=pid,
                minbits=4, duration_s=d,
            )
            for pid, d in ((1, 0.7), (2, 1.9), (3, 1.2))
        ]
        outcomes = run_executive_batch([t.build_executive() for t in tasks])
        for task, outcome in zip(tasks, outcomes):
            assert outcome.refused is None
            assert executive_results_equal(
                outcome.result, _executive_reference(task)
            )

    def test_resilience_lane_refused(self):
        from repro.resilience import ResilienceConfig

        task = ExecutiveTask(
            kernel="median", policy="linear", profile_id=1, minbits=4,
            duration_s=0.5,
        )
        outcome = run_executive_batch(
            [task.build_executive(resilience=ResilienceConfig())]
        )[0]
        assert outcome.result is None
        assert "resilience" in outcome.refused

    def test_frame_bound_lane_refused(self):
        task = ExecutiveTask(
            kernel="median", policy="linear", profile_id=1, minbits=4,
            duration_s=2.0, frame_period_ticks=10,
        )
        outcome = run_executive_batch([task.build_executive()])[0]
        assert outcome.result is None
        assert "frame bound" in outcome.refused
