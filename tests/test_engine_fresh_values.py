"""No value the engine hands out is shared with another.

The engine keeps no values in process: a computed lane allocates its
own arrays, and every cache read, hot-tier hits included, decodes into
new ones. So a caller may mutate what it gets. Each test below spoils
every array and list of each result a path hands out, as a
badly-behaved caller would, and checks that the results handed out
after it still equal the reference loop's: the rest of the same call
(the other copy of a task listed twice, too) and two later calls.
"""

import pytest

from repro.analysis import engine, telemetry
from repro.system.batchsim import batch_available

FIXED_TASKS = (
    engine.FixedBitTask(profile_id=1, bits=4, kernel="median", duration_s=0.3),
    engine.FixedBitTask(profile_id=2, bits=8, kernel="median", duration_s=0.3),
)
EXECUTIVE_TASKS = tuple(
    engine.ExecutiveTask(
        kernel="median", policy="linear", profile_id=profile_id, minbits=2,
        duration_s=0.3, frame_period_ticks=1_500,
    )
    for profile_id in (1, 2)
)
TASKS = {"fixed": FIXED_TASKS, "executive": EXECUTIVE_TASKS}
EQUAL = {
    "fixed": engine.simulation_results_equal,
    "executive": engine.executive_results_equal,
}
SINGLE = {
    "fixed": lambda task: engine.run_grid([task]).results[0],
    "executive": lambda task: engine.run_executive_grid([task]).results[0],
}

by_kind = pytest.mark.parametrize(
    "kind", [engine.FIXED, engine.EXECUTIVE], ids=["fixed", "executive"]
)


@pytest.fixture(autouse=True)
def _fresh_engine():
    engine.reset()
    telemetry.reset()
    yield
    telemetry.reset()
    engine.reset()


def _spoil(result) -> None:
    """Overwrite every array and list ``result`` carries."""
    sim = getattr(result, "sim", result)
    sim.bit_schedule[:] = 99
    sim.lane_schedule[:] = 99
    for frame in getattr(result, "frames", ()):
        frame.element_bits[:] = 99
        frame.exposures.append((-1, -1))


def _check_unshared(kind, tasks, serve) -> None:
    """Three calls of ``serve(tasks)``; every result equals the
    reference though every result before it was spoiled."""
    expected = [task.run(engine="reference") for task in tasks]
    for _ in range(3):
        results = serve(tasks)
        assert len(results) == len(tasks)
        for result, want in zip(results, expected):
            assert EQUAL[kind.name](result, want)
            _spoil(result)


def _grid(kind, **kwargs):
    return lambda tasks: engine.run_tasks(tasks, kind, **kwargs)


def _executed_in(kind):
    return {task.executed_in for task in telemetry.last_report(kind=kind.name).tasks}


@by_kind
@pytest.mark.skipif(not batch_available(), reason="accelerator unavailable")
def test_batch_lanes_are_not_shared(kind):
    engine.configure(use_cache=False)
    _check_unshared(kind, TASKS[kind.name], _grid(kind))
    assert _executed_in(kind) == {"batch"}


@by_kind
def test_per_task_runs_are_not_shared(kind):
    engine.configure(use_cache=False)
    _check_unshared(kind, TASKS[kind.name], _grid(kind, engine="reference"))
    assert _executed_in(kind) == {"serial"}


@by_kind
def test_disk_hits_are_not_shared(tmp_path, kind):
    engine.configure(cache_dir=tmp_path)
    _check_unshared(kind, TASKS[kind.name], _grid(kind))
    cache = engine.default_cache()
    assert cache.hot is None
    assert cache.hits == 2 * len(TASKS[kind.name])


@by_kind
def test_hot_tier_hits_are_not_shared(tmp_path, kind):
    cache = engine.ShardedResultCache(tmp_path)
    engine.configure(cache=cache)
    _check_unshared(kind, TASKS[kind.name], _grid(kind))
    assert cache.hot.hits == 2 * len(TASKS[kind.name])


@by_kind
@pytest.mark.parametrize("cached", [True, False], ids=["cache", "no-cache"])
def test_single_task_runs_are_not_shared(tmp_path, kind, cached):
    if cached:
        engine.configure(cache_dir=tmp_path)
    else:
        engine.configure(use_cache=False)
    run = SINGLE[kind.name]
    _check_unshared(
        kind, TASKS[kind.name], lambda tasks: tuple(run(task) for task in tasks)
    )
    if cached:
        assert engine.default_cache().hits == 2 * len(TASKS[kind.name])


@by_kind
@pytest.mark.parametrize("cached", [True, False], ids=["cache", "no-cache"])
def test_a_task_listed_twice_is_not_shared(tmp_path, kind, cached):
    if cached:
        engine.configure(cache_dir=tmp_path)
    else:
        engine.configure(use_cache=False)
    task = TASKS[kind.name][0]
    _check_unshared(kind, (task, task), _grid(kind))
    report = telemetry.last_report(kind=kind.name)
    assert report.cache_hits == (2 if cached else 0)
