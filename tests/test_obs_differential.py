"""Differential guarantees of the observability layer.

The tracer only ever *reads* simulated state, so enabling it at any
level must leave every simulated result bit-identical to an untraced
run — for the fixed-bit layer, the incidental executive and the
resilience path. A traced run always takes the reference loop, so with
``engine="auto"`` this compares the reference against the untraced C
replay. Separately, the event stream itself must be deterministic: two
traced runs of the same configuration produce byte-identical events.
"""

import pytest

from repro.analysis.engine import (
    ExecutiveTask,
    FixedBitTask,
    executive_results_equal,
    simulation_results_equal,
)
from repro.analysis.resilience import ResilienceTask
from repro.obs.tracer import Tracer


def _fixed_task():
    return FixedBitTask(profile_id=1, bits=6, duration_s=2.0, simd_width=2)


def _executive_task():
    return ExecutiveTask(
        kernel="median",
        policy="linear",
        profile_id=1,
        minbits=2,
        duration_s=2.0,
    )


class TestTracedEqualsUntraced:
    @pytest.mark.parametrize("engine", ["auto", "reference"])
    def test_fixed_bit(self, engine):
        task = _fixed_task()
        untraced = task.run(engine=engine)
        traced = task.run(engine=engine, tracer=Tracer("debug"))
        assert simulation_results_equal(untraced, traced)

    @pytest.mark.parametrize("engine", ["auto", "reference"])
    def test_executive(self, engine):
        task = _executive_task()
        untraced = task.run(engine=engine)
        traced = task.run(engine=engine, tracer=Tracer("debug"))
        assert executive_results_equal(untraced, traced)

    def test_resilience_rate_zero(self):
        task = ResilienceTask(base=_executive_task(), rate=0.0)
        untraced = task.run()
        traced = task.run(tracer=Tracer("debug"))
        assert untraced == traced

    @pytest.mark.parametrize("level", ["spans", "events", "debug"])
    def test_every_level_is_result_neutral(self, level):
        task = _fixed_task()
        untraced = task.run(engine="auto")
        traced = task.run(engine="auto", tracer=Tracer(level))
        assert simulation_results_equal(untraced, traced)


class TestTraceDeterminism:
    @pytest.mark.parametrize("engine", ["auto", "reference"])
    def test_fixed_events_repeat_exactly(self, engine):
        task = _fixed_task()
        first, second = Tracer("debug"), Tracer("debug")
        task.run(engine=engine, tracer=first)
        task.run(engine=engine, tracer=second)
        assert first.records == second.records
        assert first.metrics.to_dict() == second.metrics.to_dict()

    @pytest.mark.parametrize("engine", ["auto", "reference"])
    def test_executive_events_repeat_exactly(self, engine):
        task = _executive_task()
        first, second = Tracer("debug"), Tracer("debug")
        task.run(engine=engine, tracer=first)
        task.run(engine=engine, tracer=second)
        assert first.records == second.records
        assert first.metrics.to_dict() == second.metrics.to_dict()

    def test_trace_actually_recorded(self):
        # Guards the differential suite against vacuous passes: the
        # instrumented layers must emit real spans and metrics.
        tracer = Tracer("debug")
        _fixed_task().run(engine="auto", tracer=tracer)
        names = {r["name"] for r in tracer.records}
        assert "outage" in names or "run" in names
        assert tracer.metrics.counters.get("sim.total_ticks", 0) > 0

    def test_metrics_match_across_engines(self):
        # A traced run takes the reference loop whatever the engine, so
        # every metric -- the capacitor counters included -- is the
        # reference's.
        task = _fixed_task()
        fast, ref = Tracer("debug"), Tracer("debug")
        task.run(engine="auto", tracer=fast)
        task.run(engine="reference", tracer=ref)
        assert fast.metrics.to_dict() == ref.metrics.to_dict()
        assert any(name.startswith("cap.") for name in ref.metrics.counters)
