"""A batch chunk replays one trace slot at a time.

``FIXED.batch`` / ``EXECUTIVE.batch`` group a chunk's lanes by trace
slot and build, plan, replay and drop one slot before the next. The
contract under test: a chunk whose lanes interleave slots builds one
one-slot plan per slot, and its outcomes come back in lane order, each
the reference loop's result (or a refusal where the reference raises);
while the chunk runs it holds little beyond its results and the
trace memo; and its outcomes pickle, as a pool worker sends them back,
to a small fraction of their schedules' bytes.
"""

import pickle
import tracemalloc
from dataclasses import dataclass

import pytest

from repro.analysis import engine as engine_mod
from repro.analysis.engine import (
    ExecutiveTask,
    executive_results_equal,
    simulation_results_equal,
)
from repro.core import batchexec
from repro.core.executive import IncidentalExecutive
from repro.errors import SimulationError
from repro.fleet import FleetSpec
from repro.fleet.spec import FleetDeviceTask
from repro.system import batchsim
from repro.system.batchsim import batch_available
from repro.system.config import SystemConfig

pytestmark = [
    pytest.mark.batch,
    pytest.mark.skipif(not batch_available(), reason="accelerator unavailable"),
]

#: A capacitor no configuration can start from: the batch refuses the
#: lane at setup, and the reference loop raises.
UNSTARTABLE_UJ = 0.05


@pytest.fixture(autouse=True)
def _fresh_engine():
    engine_mod.reset()
    yield
    engine_mod.reset()


def _record_plans(monkeypatch, module):
    """Record every plan ``module``'s runner builds."""
    plans = []
    original = module.build_trace_plan

    def recording(entries):
        plans.append(original(entries))
        return plans[-1]

    monkeypatch.setattr(module, "build_trace_plan", recording)
    return plans


# -- fixed tier ----------------------------------------------------------------


def _device(device_id, mode, seed, capacitor_uj, **fields):
    return FleetDeviceTask(
        device_id=device_id,
        archetype="slot-order",
        mode=mode,
        trace_seed=seed,
        duration_s=0.3,
        capacitor_uj=capacitor_uj,
        **fields,
    )


A = {"mode": "solar", "seed": 11, "capacitor_uj": 4.5}
B = {"mode": "rf", "seed": 12, "capacitor_uj": 6.0}
C = {"mode": "thermal", "seed": 13, "capacitor_uj": 3.0}

#: Lanes in slot order A B A C B A' A C, where A' is A's trace on an
#: unstartable capacitor (a slot of its own, and a refused lane).
FIXED_CHUNK = (
    _device(0, **A, bits=8),
    _device(1, **B, bits=6),
    _device(2, **A, bits=4, policy="log"),
    _device(3, **C, bits=8, simd_width=2),
    _device(4, **B, bits=8, kernel="median"),
    _device(5, **{**A, "capacitor_uj": UNSTARTABLE_UJ}, bits=6, simd_width=2),
    _device(6, **A, bits=6, simd_width=4),
    _device(7, **C, bits=3, policy="linear"),
)


def test_fixed_chunk_plans_each_slot_once_and_matches_the_reference(monkeypatch):
    plans = _record_plans(monkeypatch, batchsim)
    chunked = engine_mod.FIXED.batch(FIXED_CHUNK)
    n_slots = len({task.trace_signature() for task in FIXED_CHUNK})
    assert n_slots == 4
    assert [plan.n_slots for plan in plans] == [1] * n_slots
    monkeypatch.undo()

    assert len(chunked) == len(FIXED_CHUNK)
    assert chunked[5].result is None
    assert chunked[5].refused.startswith("setup raised: start level ")
    for task, outcome in zip(FIXED_CHUNK, chunked):
        if outcome.result is None:
            with pytest.raises(SimulationError, match="exceeds capacitor"):
                task.run(engine="reference")
        else:
            reference = task.run(engine="reference")
            assert simulation_results_equal(outcome.result, reference)


# -- executive tier -------------------------------------------------------------


@dataclass(frozen=True)
class _ExecutiveLane:
    """An executive task's program, trace and frames on a capacitor of
    its own, so one lane of the chunk can be unstartable."""

    task: ExecutiveTask
    capacitor_uj: float = SystemConfig().capacitor_uj

    def trace_signature(self):
        return (self.task.trace_signature(), self.capacitor_uj)

    def build_executive(self):
        task = self.task
        return IncidentalExecutive(
            task.build_program(),
            task.build_trace(),
            task.build_frames(),
            frame_period_ticks=task.frame_period_ticks,
            config=SystemConfig(capacitor_uj=self.capacitor_uj),
            seed=task.seed,
        )


def _executive(profile_id=1, trace_seed=None, **fields):
    fields = {"kernel": "median", "policy": "linear", "minbits": 4, **fields}
    return ExecutiveTask(
        profile_id=profile_id,
        trace_seed=trace_seed,
        duration_s=0.6,
        frame_period_ticks=2000,
        **fields,
    )


#: Slot order A B A C B A' C, A' again an unstartable capacitor.
EXECUTIVE_CHUNK = (
    _ExecutiveLane(_executive(1)),
    _ExecutiveLane(_executive(2, kernel="sobel", policy="log", minbits=3)),
    _ExecutiveLane(_executive(1, kernel="fft", minbits=2)),
    _ExecutiveLane(_executive(3, trace_seed=5, policy="parabola")),
    _ExecutiveLane(_executive(2, minbits=6)),
    _ExecutiveLane(_executive(1), capacitor_uj=UNSTARTABLE_UJ),
    _ExecutiveLane(_executive(3, trace_seed=5, kernel="sobel", minbits=2)),
)


def test_executive_chunk_plans_each_slot_once_and_matches_the_reference(
    monkeypatch,
):
    plans = _record_plans(monkeypatch, batchexec)
    chunked = engine_mod.EXECUTIVE.batch(EXECUTIVE_CHUNK)
    n_slots = len({lane.trace_signature() for lane in EXECUTIVE_CHUNK})
    assert n_slots == 4
    assert [plan.n_slots for plan in plans] == [1] * n_slots
    monkeypatch.undo()

    assert len(chunked) == len(EXECUTIVE_CHUNK)
    assert chunked[5].result is None
    assert chunked[5].refused.startswith("setup raised: start level ")
    for lane, outcome in zip(EXECUTIVE_CHUNK, chunked):
        if outcome.result is None:
            with pytest.raises(SimulationError, match="exceeds capacitor"):
                lane.build_executive().run(engine="reference")
        else:
            reference = lane.build_executive().run(engine="reference")
            assert executive_results_equal(outcome.result, reference)


# -- memory -----------------------------------------------------------------------

#: What a chunk may hold at its peak beyond its results, the trace memo
#: and two slots' plans: one slot's synthesis temporaries, lane setup
#: arrays, scratch buffers and the outcome objects.
ALLOWANCE_BYTES = 1 << 20


#: 64 devices, each on a trace of its own.
FLEET_TASKS = FleetSpec(n_devices=64, seed=3, duration_s=0.5).tasks()


def _schedule_bytes(outcomes):
    return sum(
        o.result.bit_schedule.nbytes + o.result.lane_schedule.nbytes
        for o in outcomes
    )


def _one_slot_plan_bytes(task):
    """Bytes of the one-slot plan the fixed runner builds for ``task``."""
    plan = batchsim.build_trace_plan([(task.build_trace(), task.system_config())])
    per_slot = plan.conv + plan.direct + plan.sticky + plan.nonsticky + plan.income
    arrays = [plan.lengths, plan.slot_of, *per_slot]
    return sum(a.nbytes for a in arrays if a is not None)


def test_a_fleet_chunk_holds_one_slot_at_a_time():
    tasks = FLEET_TASKS
    assert len({task.trace_signature() for task in tasks}) == len(tasks)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        outcomes = engine_mod.FIXED.batch(tasks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(outcome.result is not None for outcome in outcomes)
    result_bytes = _schedule_bytes(outcomes)
    two_plans = 2 * _one_slot_plan_bytes(max(tasks, key=lambda t: t.trace_ticks()))
    bound = result_bytes + engine_mod.TRACE_MEMO.charge + two_plans + ALLOWANCE_BYTES
    assert peak - base < bound, (
        f"peak {peak - base} B > {result_bytes} B of results + "
        f"{engine_mod.TRACE_MEMO.charge} B of memoised traces + {two_plans} B "
        f"for two slots' plans + {ALLOWANCE_BYTES} B"
    )


def test_a_fleet_chunk_pickles_to_a_tenth_of_its_schedules():
    # What a pool worker sends back for this chunk: each result's
    # schedules travel as runs, not as two int16 values per tick.
    outcomes = engine_mod.FIXED.batch(FLEET_TASKS)
    assert all(outcome.result is not None for outcome in outcomes)
    schedule_bytes = _schedule_bytes(outcomes)
    pickled = len(pickle.dumps(outcomes))
    assert pickled <= schedule_bytes / 10, (
        f"pickled outcomes take {pickled} B for {schedule_bytes} B of schedules"
    )
