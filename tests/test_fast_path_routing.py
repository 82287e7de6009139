"""Which implementation a single task runs on.

An untraced, fault-free task with ``engine="auto"`` replays as a
one-lane plan through the compiled kernel and never builds the
per-tick :class:`NVPSystemSimulator`. An enabled tracer, a resilience
config or ``engine="reference"`` takes the reference loop without
touching the kernel, and so does any lane the kernel refuses. These
tests count kernel calls and simulator constructions to pin that
routing; the equivalence suites pin that both routes give the same
bytes.
"""

import pytest

from repro import _accel
from repro.analysis.engine import (
    ExecutiveTask,
    FixedBitTask,
    executive_results_equal,
    simulation_results_equal,
)
from repro.core.batchexec import executive_refusal, run_executive_batch
from repro.obs.tracer import Tracer
from repro.resilience import ResilienceConfig
from repro.system import simulator
from repro.system.simulator import simulate_fixed_bits

needs_accel = pytest.mark.skipif(
    not _accel.available(), reason="accelerator unavailable"
)


@pytest.fixture
def calls(monkeypatch):
    """Counts of kernel calls and reference-simulator constructions."""
    counts = {"fixed": 0, "exec": 0, "reference": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        _accel, "fixed_replay", counting("fixed", _accel.fixed_replay)
    )
    monkeypatch.setattr(
        _accel, "exec_replay", counting("exec", _accel.exec_replay)
    )
    sim_cls = simulator.NVPSystemSimulator
    monkeypatch.setattr(
        sim_cls, "__init__", counting("reference", sim_cls.__init__)
    )
    return counts


def _fixed_task():
    return FixedBitTask(profile_id=2, bits=5, duration_s=0.5, simd_width=2)


def _executive_task(**overrides):
    fields = dict(
        kernel="median", policy="linear", profile_id=1, minbits=4,
        duration_s=0.5, frame_period_ticks=1_500,
    )
    fields.update(overrides)
    return ExecutiveTask(**fields)


@needs_accel
@pytest.mark.parametrize("engine", ["auto"])
def test_untraced_fixed_run_takes_the_kernel(calls, engine):
    task = _fixed_task()
    simulate_fixed_bits(task.build_trace(), task.bits,
                        simd_width=task.simd_width, engine=engine)
    assert calls == {"fixed": 1, "exec": 0, "reference": 0}


@needs_accel
def test_untraced_executive_task_takes_the_kernel(calls):
    _executive_task().run()
    assert calls == {"fixed": 0, "exec": 1, "reference": 0}


@pytest.mark.parametrize(
    "kwargs",
    [
        {"engine": "auto", "tracer": Tracer("spans")},
        {"engine": "auto", "resilience": ResilienceConfig()},
        {"engine": "reference"},
    ],
    ids=["tracer", "resilience", "reference"],
)
def test_fixed_reference_routes_skip_the_kernel(calls, kwargs):
    task = _fixed_task()
    simulate_fixed_bits(task.build_trace(), task.bits,
                        simd_width=task.simd_width, **kwargs)
    assert calls == {"fixed": 0, "exec": 0, "reference": 1}


@pytest.mark.parametrize(
    "build,engine",
    [
        ({"tracer": Tracer("spans")}, "auto"),
        ({"resilience": ResilienceConfig()}, "auto"),
        ({}, "reference"),
    ],
    ids=["tracer", "resilience", "reference"],
)
def test_executive_reference_routes_skip_the_kernel(calls, build, engine):
    _executive_task().build_executive(**build).run(engine=engine)
    assert calls == {"fixed": 0, "exec": 0, "reference": 1}


def test_without_accelerator_auto_equals_reference(calls, monkeypatch):
    monkeypatch.setattr(_accel, "available", lambda: False)
    fixed, executive = _fixed_task(), _executive_task()
    assert simulation_results_equal(
        fixed.run(engine="auto"), fixed.run(engine="reference")
    )
    assert executive_results_equal(
        executive.run(engine="auto"), executive.run(engine="reference")
    )
    assert calls == {"fixed": 0, "exec": 0, "reference": 4}


def test_frame_bound_refusal_leaves_the_executive_untouched(calls):
    # 2 s at a 10-tick frame period is 2000 arrivals, past the kernel's
    # frame bound: the lane is refused and the same executive then runs
    # the reference loop, which must match a fresh reference run.
    task = _executive_task(duration_s=2.0, frame_period_ticks=10)
    executive = task.build_executive()
    assert "frame bound" in executive_refusal(executive)
    assert run_executive_batch([executive])[0].result is None
    auto = executive.run(engine="auto")
    fresh = task.build_executive().run(engine="reference")
    assert executive_results_equal(auto, fresh)
    assert calls == {"fixed": 0, "exec": 0, "reference": 2}
