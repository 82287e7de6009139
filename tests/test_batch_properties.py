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
produce the masks the scalar replay expects. The per-lane constants
get the same treatment: lanes that share a processor (bits, SIMD
width, policy, mix) share its memoised terms within one batch, and
each lane's ``dp`` and backup-cost table must still equal a fresh
per-lane computation bit for bit. No compiled kernel is needed except
for the one refusal check that runs a whole batch: the plan is pure
numpy, so the rest of this suite runs even where the accelerator
cannot build.
"""

import random

import numpy as np
import pytest

from repro.energy.frontend import DualChannelFrontend
from repro.energy.management import derive_thresholds
from repro.energy.traces import TICK_S, PowerTrace, standard_profile
from repro.errors import SimulationError
from repro.nvm.retention import LinearRetention, LogRetention
from repro.nvp.energy_model import CYCLES_PER_TICK
from repro.nvp.processor import NonvolatileProcessor
from repro.system.batchsim import (
    FixedLaneSpec,
    _fixed_lane_setup,
    batch_available,
    build_trace_plan,
    run_fixed_batch,
)
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


def _reference_lane_constants(spec):
    """A lane's ``(dp, backup_cost)`` computed afresh (the unmemoised setup)."""
    cfg = spec.resolved_config()
    proc = NonvolatileProcessor(policy=spec.policy, mix=spec.mix)
    bits = spec.bits
    lanes = [bits] * spec.simd_width

    mix_weight = proc.mix.mean_energy_weight
    thresholds = derive_thresholds(
        backup_energy_uj=proc.backup_energy_uj(lanes),
        restore_energy_uj=proc.restore_energy_uj(lanes),
        run_power_uw=proc.run_power_uw(lanes) * mix_weight,
        min_run_ticks=cfg.min_run_ticks,
        backup_margin=cfg.backup_margin,
    )
    start_level = max(
        thresholds.start_energy_uj,
        cfg.start_fill_fraction * cfg.capacitor_uj,
    )
    if start_level > cfg.capacitor_uj:
        raise SimulationError("start level exceeds capacitor capacity")

    dt = TICK_S
    run_power = proc.run_power_uw(lanes) * mix_weight
    backup_cost = np.zeros(bits + 1, dtype=np.float64)
    for b0 in range(1, bits + 1):
        backup_cost[b0] = proc.backup_energy_uj([b0] + lanes[1:])

    dp = np.array(
        [
            dt,
            float(cfg.capacitor_uj),
            float(cfg.capacitor_leak_per_s),
            float(cfg.capacitor_leak_floor_uw) * dt,
            float(cfg.off_leakage_uw) * dt,
            run_power * dt,
            proc.backup_energy_uj(lanes) * (1.0 + cfg.backup_margin),
            proc.restore_energy_uj(lanes),
            start_level,
            CYCLES_PER_TICK / proc.mix.mean_cycles,
            run_power * 1.0e-4,
        ],
        dtype=np.float64,
    )
    return dp, backup_cost


def _lane_specs(trace, capacitors, **fields):
    return [
        FixedLaneSpec(trace=trace, config=SystemConfig(capacitor_uj=c), **fields)
        for c in capacitors
    ]


def _setups(specs, memo):
    plan = build_trace_plan([(spec.trace, spec.resolved_config()) for spec in specs])
    return [
        _fixed_lane_setup(spec, int(plan.slot_of[lane]), plan, memo=memo)
        for lane, spec in enumerate(specs)
    ]


class TestLaneConstants:
    #: A fleet-like capacitor spread: distinct configs, one processor.
    CAPACITORS = (3.0, 2.25, 3.75, 4.5, 5.6219, 6.7718, 9.0)

    @pytest.mark.parametrize(
        "fields",
        [
            {"bits": 8},
            {"bits": 6, "simd_width": 2},
            {"bits": 8, "policy": LogRetention()},
            {"bits": 5, "simd_width": 4, "policy": LinearRetention(time_scale=8.0)},
            {"bits": 3, "dual": True},
        ],
        ids=["precise", "simd2", "log", "linear-simd4", "dual-channel"],
    )
    def test_memoised_lanes_match_fresh_setup(self, short_trace, fields):
        fields = dict(fields)
        dual = fields.pop("dual", False)
        specs = [
            FixedLaneSpec(
                trace=short_trace,
                config=SystemConfig(capacitor_uj=c, dual_channel=dual),
                **fields,
            )
            for c in self.CAPACITORS
        ]
        memo = {}
        setups = _setups(specs, memo)
        assert len(memo) == 1  # one processor, so one entry for every lane
        for spec, setup in zip(specs, setups):
            dp, backup_cost = _reference_lane_constants(spec)
            assert setup.dp.tobytes() == dp.tobytes()
            assert setup.backup_cost.tobytes() == backup_cost.tobytes()

    def test_unstartable_capacitor_refuses_from_the_memo(self, short_trace):
        policy = LogRetention()
        specs = _lane_specs(short_trace, (4.5, 0.05), bits=8, policy=policy)
        plan = build_trace_plan([(spec.trace, spec.resolved_config()) for spec in specs])
        memo = {}
        _fixed_lane_setup(specs[0], int(plan.slot_of[0]), plan, memo=memo)
        assert len(memo) == 1
        with pytest.raises(SimulationError, match=r"start level .* exceeds capacitor"):
            _fixed_lane_setup(specs[1], int(plan.slot_of[1]), plan, memo=memo)
        assert len(memo) == 1  # the refused lane read the entry, added none

    @pytest.mark.skipif(not batch_available(), reason="accelerator unavailable")
    def test_unstartable_capacitor_refuses_in_a_batch(self, short_trace):
        specs = _lane_specs(short_trace, (4.5, 0.05, 3.0), bits=6, simd_width=2)
        outcomes = run_fixed_batch(specs)
        assert outcomes[0].result is not None and outcomes[2].result is not None
        assert outcomes[1].result is None
        assert outcomes[1].refused.startswith("setup raised: start level ")
        assert "exceeds capacitor" in outcomes[1].refused

    def test_same_name_policies_never_share_an_entry(self, short_trace):
        # Two "log" policies with different time scales price backups
        # differently; keyed by name they would wrongly share terms.
        slow, fast = LogRetention(time_scale=1.0), LogRetention(time_scale=8.0)
        assert slow.name == fast.name
        specs = _lane_specs(short_trace, (4.5,), bits=8, policy=slow) + _lane_specs(
            short_trace, (4.5,), bits=8, policy=fast
        )
        memo = {}
        setups = _setups(specs, memo)
        assert len(memo) == 2
        assert setups[0].backup_cost.tobytes() != setups[1].backup_cost.tobytes()
        for spec, setup in zip(specs, setups):
            dp, backup_cost = _reference_lane_constants(spec)
            assert setup.dp.tobytes() == dp.tobytes()
            assert setup.backup_cost.tobytes() == backup_cost.tobytes()
