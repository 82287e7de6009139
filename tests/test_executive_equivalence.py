"""Differential suite: the fast executive must be bit-exact vs the reference.

``IncidentalExecutive.run(engine="auto")`` replays one executive as a
one-lane plan through the compiled kernel (:mod:`repro.core.batchexec`),
and it is only allowed to do so because of this file: every randomized
configuration below runs the incidental executive both through that
path and the per-tick reference loop (``engine="reference"``) and
asserts the two :class:`ExecutiveResult` objects are identical **field
for field** — the embedded :class:`SimulationResult`, every per-frame
element-bit schedule, every exposure tuple, and the idle-instruction
total. Any divergence, however small, is a bug in the kernel (or an
un-mirrored change to the reference executive). Refused lanes, and
every lane on a host without a C compiler, take the reference loop.

The sweep mirrors ``tests/test_engine_equivalence.py`` for the fixed-bit
fast path; corner cases cover the ablation switches, dead/constant
traces, error-message parity and the O(1) frame-arrival frontier.
"""

import numpy as np
import pytest

from repro.analysis.engine import executive_results_equal
from repro.core.executive import IncidentalExecutive
from repro.core.pragmas import IncidentalPragma, RecoverFromPragma
from repro.core.program import AnnotatedProgram
from repro.energy.traces import PowerTrace, standard_profile
from repro.errors import SimulationError
from repro.kernels import create_kernel, frame_sequence
from repro.kernels.registry import KERNEL_NAMES
from repro.nvm.retention import STANDARD_POLICY_NAMES
from repro.system.config import SystemConfig

_TRACE_CACHE = {}


def _trace(profile_id, duration_s):
    key = (profile_id, duration_s)
    if key not in _TRACE_CACHE:
        _TRACE_CACHE[key] = standard_profile(profile_id, duration_s=duration_s)
    return _TRACE_CACHE[key]


def _program(kernel, minbits, maxbits, policy):
    return AnnotatedProgram(
        create_kernel(kernel),
        [
            IncidentalPragma("src", minbits, maxbits, policy),
            RecoverFromPragma("frame"),
        ],
    )


def _executive(trace, kernel="median", minbits=2, maxbits=8, policy="linear",
               n_frames=6, frame_size=10, **kwargs):
    kwargs.setdefault("frame_period_ticks", 1_500)
    return IncidentalExecutive(
        _program(kernel, minbits, maxbits, policy),
        trace,
        frame_sequence(n_frames, frame_size),
        **kwargs,
    )


def _assert_identical(make_executive):
    """Build the executive twice (one run each) and diff the engines."""
    ref = make_executive().run(engine="reference")
    fast = make_executive().run(engine="auto")
    assert executive_results_equal(ref, fast), (
        "fast executive diverged:"
        f" ref frames={len(ref.frames)} fast frames={len(fast.frames)}"
        f" ref backups={ref.sim.backup_count} fast backups={fast.sim.backup_count}"
        f" ref idle={ref.idle_instructions} fast idle={fast.idle_instructions}"
    )
    # Belt and braces on the headline fields the figures consume.
    assert fast.useful_progress == ref.useful_progress
    assert fast.frames_completed == ref.frames_completed
    assert fast.frames_abandoned == ref.frames_abandoned
    assert fast.sim.forward_progress == ref.sim.forward_progress
    assert fast.sim.backup_ticks == ref.sim.backup_ticks
    assert np.array_equal(fast.sim.bit_schedule, ref.sim.bit_schedule)
    assert np.array_equal(fast.sim.lane_schedule, ref.sim.lane_schedule)
    for a, b in zip(ref.frames, fast.frames):
        assert a.frame_id == b.frame_id
        assert a.exposures == b.exposures
        assert a.element_bits.dtype == b.element_bits.dtype
        assert np.array_equal(a.element_bits, b.element_bits)
    return ref, fast


# -- randomized property-style sweep (44 configurations) ----------------------

_rng = np.random.default_rng(20260807)
_RANDOM_CASES = []
for _i in range(44):
    profile_id = int(_rng.integers(1, 6))
    kernel = KERNEL_NAMES[int(_rng.integers(0, len(KERNEL_NAMES)))]
    minbits = int(_rng.integers(1, 7))
    maxbits = int(_rng.integers(minbits, 9))
    policy = STANDARD_POLICY_NAMES[int(_rng.integers(0, len(STANDARD_POLICY_NAMES)))]
    placement = ("inner", "frame")[int(_rng.integers(0, 2))]
    capacity = int(_rng.integers(1, 5))
    simd = bool(_rng.integers(0, 2))
    rollforward = bool(_rng.integers(0, 2))
    precise = bool(_rng.integers(0, 4) == 0)
    period = int(_rng.choice([800, 1_500, 4_000]))
    duration_s = float(_rng.choice([0.3, 0.4, 0.5]))
    seed = int(_rng.integers(0, 1_000))
    _RANDOM_CASES.append(
        pytest.param(
            profile_id, kernel, minbits, maxbits, policy, placement,
            capacity, simd, rollforward, precise, period, duration_s, seed,
            id=f"p{profile_id}-{kernel}-b{minbits}.{maxbits}-{policy}"
            f"-{placement}-c{capacity}"
            f"-{'simd' if simd else 'nosimd'}"
            f"-{'rf' if rollforward else 'norf'}"
            f"-{'precise' if precise else 'shaped'}-t{period}-{duration_s}s-{_i}",
        )
    )


@pytest.mark.parametrize(
    "profile_id,kernel,minbits,maxbits,policy,placement,capacity,"
    "simd,rollforward,precise,period,duration_s,seed",
    _RANDOM_CASES,
)
def test_randomized_config_is_bit_exact(
    profile_id, kernel, minbits, maxbits, policy, placement, capacity,
    simd, rollforward, precise, period, duration_s, seed,
):
    trace = _trace(profile_id, duration_s)
    _assert_identical(
        lambda: _executive(
            trace,
            kernel=kernel,
            minbits=minbits,
            maxbits=maxbits,
            policy=policy,
            recover_placement=placement,
            resume_buffer_capacity=capacity,
            enable_simd=simd,
            enable_rollforward=rollforward,
            precise_backup=precise,
            frame_period_ticks=period,
            seed=seed,
        )
    )


# -- corner cases -------------------------------------------------------------


def test_dead_trace_never_starts():
    trace = PowerTrace(np.zeros(2_000), name="dead")
    ref, fast = _assert_identical(lambda: _executive(trace))
    assert ref.sim.forward_progress == 0
    assert ref.frames_completed == 0


def test_constant_power_trace():
    trace = PowerTrace(np.full(3_000, 140.0), name="flat")
    ref, _ = _assert_identical(lambda: _executive(trace))
    assert ref.sim.forward_progress > 0


def test_narrow_current_bit_range():
    trace = _trace(2, 0.4)
    _assert_identical(
        lambda: _executive(trace, current_minbits=2, current_maxbits=6)
    )


def test_single_frame_stream():
    trace = _trace(3, 0.3)
    _assert_identical(lambda: _executive(trace, n_frames=1))


def test_engine_argument_is_validated():
    executive = _executive(_trace(1, 0.3))
    for engine in ("warp", "fast"):
        with pytest.raises(SimulationError, match="engine must be"):
            executive.run(engine=engine)


def test_auto_engine_matches_reference():
    trace = _trace(1, 0.3)
    ref = _executive(trace).run(engine="reference")
    auto = _executive(trace).run(engine="auto")
    assert executive_results_equal(ref, auto)


def test_impossible_start_raises_identically():
    config = SystemConfig(capacitor_uj=0.05, start_fill_fraction=0.05)
    trace = _trace(1, 0.3)
    with pytest.raises(SimulationError) as ref_exc:
        _executive(trace, config=config).run(engine="reference")
    with pytest.raises(SimulationError) as fast_exc:
        _executive(trace, config=config).run(engine="auto")
    assert str(ref_exc.value) == str(fast_exc.value)


# -- the O(1) newest-unstarted frontier ---------------------------------------


class _LegacyScanExecutive(IncidentalExecutive):
    """The pre-optimisation executive: rescan every frame record per call.

    This is the exact O(frames) implementation the incremental frontier
    replaced; any semantic drift in the frontier shows up as a diff
    against this oracle. To keep `_pick_current`'s frontier pop (which
    assumes the frontier produced the candidate) consistent, the pop is
    replayed as a removal of the scanned id.
    """

    def _newest_unstarted(self):
        buffered = {e.frame_id for e in self.buffer}
        for record in reversed(self.records):
            if (
                not record.completed
                and not record.abandoned
                and record.frame_id not in buffered
                and record.element_bits.max(initial=0) == 0
                and record.frame_id != self._current
            ):
                return record.frame_id
        return None

    def _pick_current(self):
        before = self._current
        super()._pick_current()
        # super() popped the incremental frontier; the oracle ignores
        # that list entirely, so only assert they agreed on the pick.
        if self._current is not None and self._current != before:
            assert self._current not in self._unstarted


def _frontier_executive(cls, trace, period):
    return cls(
        _program("median", 2, 8, "linear"),
        trace,
        frame_sequence(4, 8),
        frame_period_ticks=period,
    )


@pytest.mark.parametrize("duration_s,period", [(0.3, 400), (1.5, 120)])
def test_frontier_matches_legacy_scan(duration_s, period):
    """Incremental frontier == full rescan, on short AND long traces."""
    trace = _trace(1, duration_s)
    legacy = _frontier_executive(_LegacyScanExecutive, trace, period).run(
        engine="reference"
    )
    current = _frontier_executive(IncidentalExecutive, trace, period).run(
        engine="reference"
    )
    assert executive_results_equal(legacy, current)


def test_frontier_long_trace_fast_path_bit_exact():
    """A long, arrival-heavy run stays bit-exact through the fast path."""
    trace = _trace(2, 1.5)
    _assert_identical(lambda: _executive(trace, frame_period_ticks=150, n_frames=5))
