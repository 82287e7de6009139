"""Property tests for the ragged batch-plan representation.

:func:`repro.system.batchsim.build_trace_plan` stores per-(trace,
config) precomputation — converted income, bypass series, the
sticky-zero outage mask, the sorted outage/income skip schedules — as
one exact-length array per slot. These tests pin the representation
itself: every slot array must round-trip exactly against the per-task
formulas ``fast_fixed_run`` uses (same IEEE-754 ops) and be exactly as
long as its data, with the dtype and layout the kernels read;
deduplication must key on (trace identity, config); and degenerate
income patterns — zero-outage, all-outage, back-to-back bursts — must
produce the masks the scalar replay expects. No compiled kernel is
needed: the plan is pure numpy, so this suite runs even where the
accelerator cannot build.
"""

import random

import numpy as np
import pytest

from repro.energy.frontend import DualChannelFrontend
from repro.energy.traces import TICK_S, PowerTrace, standard_profile
from repro.system.batchsim import build_trace_plan
from repro.system.config import SystemConfig

pytestmark = pytest.mark.batch


def _expected_precompute(trace, config):
    """The per-task fastsim precompute, restated independently."""
    samples = trace.samples_uw
    frontend = config.build_frontend()
    converted = frontend.convert_trace(samples)
    direct = None
    if isinstance(frontend, DualChannelFrontend):
        direct = samples * frontend.bypass_efficiency
        direct[samples < frontend.min_input_uw] = 0.0
    dt = TICK_S
    inc0 = np.minimum(converted * dt, float(config.capacitor_uj))
    loss0 = np.minimum(
        inc0,
        inc0 * float(config.capacitor_leak_per_s) * dt
        + float(config.capacitor_leak_floor_uw) * dt,
    )
    sticky = (inc0 - loss0) <= float(config.off_leakage_uw) * dt
    return {
        "converted": converted,
        "direct": direct,
        "sticky": sticky,
        "nonsticky": np.flatnonzero(~sticky),
        "income": np.flatnonzero(converted > 0.0),
    }


def _assert_exact(array, expected, dtype):
    """``array`` holds exactly ``expected``, as contiguous ``dtype``."""
    assert array.dtype == dtype
    assert array.flags.c_contiguous
    assert array.shape == np.shape(expected)
    np.testing.assert_array_equal(array, expected)


def _assert_slot_round_trips(plan, slot, trace, config):
    expected = _expected_precompute(trace, config)
    assert int(plan.lengths[slot]) == len(trace)
    _assert_exact(plan.conv[slot], expected["converted"], np.float64)
    _assert_exact(plan.sticky[slot], expected["sticky"].astype(np.uint8), np.uint8)
    _assert_exact(plan.nonsticky[slot], expected["nonsticky"], np.int64)
    _assert_exact(plan.income[slot], expected["income"], np.int64)
    if expected["direct"] is None:
        assert plan.direct[slot] is None
    else:
        _assert_exact(plan.direct[slot], expected["direct"], np.float64)


def _bursty_trace(rng, n, name):
    """Random on/off power: bursts separated by dead spans."""
    samples = np.zeros(n)
    t = 0
    while t < n:
        burst = rng.randint(1, 200)
        level = rng.uniform(0.0, 900.0)
        samples[t : t + burst] = level
        t += burst + rng.randint(0, 300)
    return PowerTrace(samples, name=name)


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_outage_patterns(self, seed):
        rng = random.Random(500 + seed)
        entries = []
        for i in range(rng.randint(2, 5)):
            trace = _bursty_trace(rng, rng.randint(500, 4_000), f"b{seed}-{i}")
            config = SystemConfig(dual_channel=rng.random() < 0.5)
            entries.append((trace, config))
        plan = build_trace_plan(entries)
        for lane, (trace, config) in enumerate(entries):
            _assert_slot_round_trips(plan, int(plan.slot_of[lane]), trace, config)

    @pytest.mark.parametrize("profile_id", (1, 2, 3, 4, 5))
    def test_standard_profiles(self, profile_id):
        trace = standard_profile(profile_id, duration_s=0.8)
        config = SystemConfig()
        plan = build_trace_plan([(trace, config)])
        _assert_slot_round_trips(plan, 0, trace, config)

    def test_zero_outage_lane(self, constant_trace):
        """Constant income: no sticky tick, every tick in both schedules."""
        config = SystemConfig()
        plan = build_trace_plan([(constant_trace, config)])
        n = len(constant_trace)
        assert not plan.sticky[0].any()
        np.testing.assert_array_equal(plan.nonsticky[0], np.arange(n))
        _assert_slot_round_trips(plan, 0, constant_trace, config)

    def test_all_outage_lane(self, dead_trace):
        """Dead trace: every tick sticky, both schedules empty."""
        config = SystemConfig()
        plan = build_trace_plan([(dead_trace, config)])
        assert plan.sticky[0].all()
        assert len(plan.nonsticky[0]) == 0
        assert len(plan.income[0]) == 0
        _assert_slot_round_trips(plan, 0, dead_trace, config)

    def test_back_to_back_outages(self):
        """Alternating single-tick bursts and dead ticks survive intact."""
        samples = np.zeros(1_000)
        samples[::2] = 600.0
        trace = PowerTrace(samples, name="alternating")
        config = SystemConfig()
        plan = build_trace_plan([(trace, config)])
        _assert_slot_round_trips(plan, 0, trace, config)
        expected = _expected_precompute(trace, config)
        # The mask alternates with the income: dead ticks are sticky.
        assert expected["sticky"][1::2].all()
        assert plan.sticky[0][1::2].all()
        assert not plan.sticky[0][::2].any()


class TestExactLengths:
    def test_slot_arrays_have_exact_lengths(self):
        """Mixed lengths: no slot grows to the longest slot's length."""
        config = SystemConfig(dual_channel=True)
        traces = [
            PowerTrace(np.full(n, 400.0), name=f"n{n}") for n in (100, 700, 350)
        ]
        plan = build_trace_plan([(t, config) for t in traces])
        np.testing.assert_array_equal(plan.lengths, [100, 700, 350])
        for slot, trace in enumerate(traces):
            n = len(trace)
            for array in (plan.conv, plan.sticky, plan.direct):
                assert array[slot].shape == (n,)
            _assert_slot_round_trips(plan, slot, trace, config)


class TestDeduplication:
    def test_same_trace_and_config_share_a_slot(self, trace1):
        config = SystemConfig()
        plan = build_trace_plan([(trace1, config)] * 4)
        assert plan.n_slots == 1
        assert np.all(plan.slot_of == 0)

    def test_distinct_configs_get_distinct_slots(self, trace1):
        plan = build_trace_plan(
            [
                (trace1, SystemConfig()),
                (trace1, SystemConfig(capacitor_uj=6.0)),
                (trace1, SystemConfig()),
            ]
        )
        assert plan.n_slots == 2
        assert plan.slot_of[0] == plan.slot_of[2] != plan.slot_of[1]

    def test_entry_permutation_permutes_slot_of(self, trace1, trace2):
        config = SystemConfig()
        entries = [(trace1, config), (trace2, config), (trace1, config)]
        plan = build_trace_plan(entries)
        swapped = build_trace_plan(entries[::-1])
        for lane, (trace, cfg) in enumerate(entries[::-1]):
            _assert_slot_round_trips(swapped, int(swapped.slot_of[lane]), trace, cfg)
        assert plan.n_slots == swapped.n_slots == 2
