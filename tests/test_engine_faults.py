"""Differential fault-injection suite: faulted grids stay bit-exact.

Every test runs a grid twice — once clean, once under a seeded
:class:`~repro.analysis.faults.FaultPlan` — and asserts the results are
bit-for-bit equal while the recorded
:class:`~repro.analysis.telemetry.RunReport` matches the injected
schedule exactly.
"""

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import engine, faults, telemetry
from repro.errors import ConfigurationError, EngineExecutionError

pytestmark = pytest.mark.fault_injection


@pytest.fixture(autouse=True)
def _fresh_engine():
    """Isolated engine/telemetry/fault state, with memoisation off and
    retries that do not back off."""
    engine.reset()
    telemetry.reset()
    faults.clear()
    engine.configure(use_cache=False, retry_backoff_s=0.0)
    yield
    faults.clear()
    telemetry.reset()
    engine.reset()


SPEC = engine.GridSpec(
    profile_ids=(1, 2), bits=(8, 3), kernels=("median",), duration_s=0.4
)


def _executive_tasks():
    return [
        engine.ExecutiveTask(
            kernel="median",
            policy="linear",
            profile_id=profile_id,
            minbits=2,
            duration_s=0.4,
            frame_period_ticks=1_500,
        )
        for profile_id in (1, 2)
    ]


def _assert_counters_match(report, plan):
    counts = plan.counts()
    assert report.crashes == counts["crash"]
    assert report.corrupt_payloads == counts["corrupt"]
    assert report.retries == len(plan)
    assert report.failed == 0


# -- plan construction ---------------------------------------------------------


def test_seeded_plan_is_deterministic():
    a = faults.FaultPlan.seeded(7, n_tasks=10, crashes=2, corrupts=1)
    b = faults.FaultPlan.seeded(7, n_tasks=10, crashes=2, corrupts=1)
    assert dict(a.faults) == dict(b.faults)
    assert a.counts() == {"crash": 2, "hang": 0, "corrupt": 1}
    assert len(a) == 3
    # Each fault lands on a distinct task index.
    assert len({index for index, _ in a.faults}) == 3


def test_seeded_plan_validation():
    with pytest.raises(ConfigurationError):
        faults.FaultPlan.seeded(0, n_tasks=2, crashes=3)
    with pytest.raises(ConfigurationError):
        faults.FaultSpec("melt")
    with pytest.raises(ConfigurationError):
        faults.FaultSpec("hang", hang_s=-1.0)


def test_plan_scope_and_attempt_addressing():
    plan = faults.FaultPlan(
        faults={(0, 0): faults.FaultSpec("crash")}, scope="fixed"
    )
    assert plan.fault_for("fixed", 0, 0) is not None
    assert plan.fault_for("executive", 0, 0) is None
    assert plan.fault_for("fixed", 0, 1) is None  # retry runs clean
    assert plan.fault_for("fixed", 1, 0) is None


def test_injected_context_manager_clears_plan():
    plan = faults.FaultPlan.seeded(1, n_tasks=4, crashes=1)
    assert faults.active() is None
    with faults.injected(plan) as installed:
        assert installed is plan
        assert faults.active() is plan
    assert faults.active() is None


# -- fixed-bit grids -----------------------------------------------------------


def test_fixed_grid_serial_bit_exact_under_crash_and_corrupt():
    clean = engine.run_grid(SPEC, workers=1)
    plan = faults.FaultPlan.seeded(
        11, n_tasks=len(SPEC.tasks()), crashes=1, corrupts=1, scope="fixed"
    )
    with faults.injected(plan):
        faulty = engine.run_grid(SPEC, workers=1)
    assert clean.equal(faulty)
    report = telemetry.last_report(kind="fixed")
    _assert_counters_match(report, plan)
    assert not report.degraded


def test_fixed_grid_pool_bit_exact_under_faults():
    clean = engine.run_grid(SPEC, workers=1)
    plan = faults.FaultPlan.seeded(
        5, n_tasks=len(SPEC.tasks()), crashes=1, corrupts=1, scope="fixed"
    )
    with faults.injected(plan):
        faulty = engine.run_grid(SPEC, workers=3)
    assert clean.equal(faulty)
    report = telemetry.last_report(kind="fixed")
    _assert_counters_match(report, plan)
    # Crashes and bad payloads retry inside the pool; no degradation.
    assert not report.degraded
    assert report.pool_failures == 0


def test_fixed_grid_pool_hang_degrades_and_stays_bit_exact():
    clean = engine.run_grid(SPEC, workers=1)
    plan = faults.FaultPlan.seeded(
        3, n_tasks=len(SPEC.tasks()), hangs=1, hang_s=30.0, scope="fixed"
    )
    engine.configure(task_timeout_s=0.75)
    with faults.injected(plan):
        faulty = engine.run_grid(SPEC, workers=2)
    assert clean.equal(faulty)
    report = telemetry.last_report(kind="fixed")
    assert report.timeouts == 1
    assert report.pool_failures == 1
    assert report.degraded
    assert report.failed == 0


def test_abandoned_pool_does_not_hold_the_process_open():
    # concurrent.futures joins every worker at interpreter exit, so an
    # abandoned pool's hung worker would keep this process alive for
    # the whole 60 s hang unless the engine kills it.
    script = textwrap.dedent(
        """
        from repro.analysis import engine, faults, telemetry
        engine.configure(use_cache=False, retry_backoff_s=0.0)
        spec = engine.GridSpec(
            profile_ids=(1, 2), bits=(8, 3), kernels=("median",), duration_s=0.4
        )
        clean = engine.run_grid(spec, workers=1)
        plan = faults.FaultPlan.seeded(
            3, n_tasks=len(spec.tasks()), hangs=1, hang_s=60.0, scope="fixed"
        )
        engine.configure(task_timeout_s=0.5)
        with faults.injected(plan):
            faulty = engine.run_grid(spec, workers=2)
        assert clean.equal(faulty)
        assert telemetry.last_report(kind="fixed").degraded
        print("ok")
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=20)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and its workers
        proc.communicate()
        raise
    assert proc.returncode == 0, err
    assert out == "ok\n"


def test_out_of_scope_plan_never_fires():
    plan = faults.FaultPlan.seeded(
        2, n_tasks=len(SPEC.tasks()), crashes=2, scope="executive"
    )
    with faults.injected(plan):
        engine.run_grid(SPEC, workers=1)
    report = telemetry.last_report(kind="fixed")
    assert report.crashes == 0
    assert report.retries == 0


def test_exhausted_retries_raise_engine_execution_error():
    # The same task crashes on every allowed attempt (0, 1): the runner
    # surfaces a structured failure instead of a partial grid.
    plan = faults.FaultPlan(
        faults={
            (0, 0): faults.FaultSpec("crash"),
            (0, 1): faults.FaultSpec("crash"),
        },
        scope="fixed",
    )
    engine.configure(retries=1)
    with faults.injected(plan):
        with pytest.raises(EngineExecutionError):
            engine.run_grid(SPEC, workers=1)
    report = telemetry.last_report(kind="fixed")
    assert report.failed == 1
    assert report.crashes == 2


# -- executive grids -----------------------------------------------------------


def test_executive_grid_serial_bit_exact_under_faults():
    tasks = _executive_tasks()
    clean = engine.run_executive_grid(tasks, workers=1)
    plan = faults.FaultPlan.seeded(
        13, n_tasks=len(tasks), crashes=1, corrupts=1, scope="executive"
    )
    with faults.injected(plan):
        faulty = engine.run_executive_grid(tasks, workers=1)
    assert clean.equal(faulty)
    report = telemetry.last_report(kind="executive")
    _assert_counters_match(report, plan)


def test_executive_grid_pool_bit_exact_under_faults():
    tasks = _executive_tasks()
    clean = engine.run_executive_grid(tasks, workers=1)
    plan = faults.FaultPlan.seeded(
        17, n_tasks=len(tasks), corrupts=1, scope="executive"
    )
    with faults.injected(plan):
        faulty = engine.run_executive_grid(tasks, workers=2)
    assert clean.equal(faulty)
    report = telemetry.last_report(kind="executive")
    _assert_counters_match(report, plan)


# -- explicit-trace runs -------------------------------------------------------


def test_trace_run_bit_exact_under_crash():
    trace = engine.trace_for(1, duration_s=0.4)
    tasks = [engine.TraceTask(bits=bits, kernel="median") for bits in (8, 4)]
    clean = engine.run_on_trace(trace, tasks, workers=1)
    plan = faults.FaultPlan.seeded(
        19, n_tasks=len(tasks), crashes=1, scope="trace"
    )
    with faults.injected(plan):
        faulty = engine.run_on_trace(trace, tasks, workers=1)
    assert len(clean) == len(faulty)
    for a, b in zip(clean, faulty):
        assert engine.simulation_results_equal(a, b)
    report = telemetry.last_report(kind="trace")
    assert report.crashes == 1
    assert report.retries == 1
    assert report.failed == 0
