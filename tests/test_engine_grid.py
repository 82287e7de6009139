"""Engine tests: grids, parallel determinism, and the result cache."""

import dataclasses

import numpy as np
import pytest

from repro.analysis import engine
from repro.errors import ConfigurationError
from repro.system.metrics import SimulationResult


@pytest.fixture(autouse=True)
def _fresh_engine():
    """Every test starts from engine defaults (and leaves them behind)."""
    engine.reset()
    yield
    engine.reset()


SMALL_SPEC = engine.GridSpec(
    profile_ids=(1, 2), bits=(8, 3), kernels=("median",), duration_s=0.4
)


# -- tasks and grids ----------------------------------------------------------


def test_task_validation():
    with pytest.raises(ConfigurationError):
        engine.FixedBitTask(profile_id=1, bits=0)
    with pytest.raises(ConfigurationError):
        engine.FixedBitTask(profile_id=1, bits=8, simd_width=5)
    with pytest.raises(ConfigurationError):
        engine.FixedBitTask(profile_id=1, bits=8, policy="bogus")
    with pytest.raises(ConfigurationError):
        engine.FixedBitTask(profile_id=1, bits=8, duration_s=0.0)


def test_cache_key_is_stable_and_distinguishing():
    a = engine.FixedBitTask(profile_id=1, bits=8, duration_s=0.4)
    assert a.cache_key() == engine.FixedBitTask(
        profile_id=1, bits=8, duration_s=0.4
    ).cache_key()
    variants = [
        dataclasses.replace(a, bits=7),
        dataclasses.replace(a, profile_id=2),
        dataclasses.replace(a, duration_s=0.5),
        dataclasses.replace(a, policy="linear"),
        dataclasses.replace(a, kernel="fft"),
        dataclasses.replace(a, simd_width=2),
        dataclasses.replace(a, seed=1),
    ]
    keys = {a.cache_key()} | {v.cache_key() for v in variants}
    assert len(keys) == len(variants) + 1


@pytest.mark.parametrize("seed", [None, 7])
@pytest.mark.parametrize("duration_s", [0.3, 0.7, 1.0, 2.3, 10.0])
def test_trace_ticks_matches_built_trace(duration_s, seed):
    # The chunk planner sizes plans from trace_ticks(); standard profiles
    # round duration / TICK_S, so 0.3 s is 3000 ticks, not 2999.
    tasks = (
        engine.FixedBitTask(profile_id=2, bits=8, duration_s=duration_s, seed=seed),
        engine.ExecutiveTask(
            kernel="median",
            policy="linear",
            profile_id=2,
            minbits=4,
            duration_s=duration_s,
            trace_seed=seed,
        ),
    )
    for task in tasks:
        assert task.trace_ticks() == len(task.build_trace())


def test_grid_spec_enumeration_order():
    tasks = SMALL_SPEC.tasks()
    assert [(t.profile_id, t.bits) for t in tasks] == [
        (1, 8),
        (1, 3),
        (2, 8),
        (2, 3),
    ]
    # Enumeration is deterministic across calls.
    assert tasks == SMALL_SPEC.tasks()


def test_derived_seeds_ignore_enumeration_order():
    """Per-task seeds depend on coordinates, not position in the grid."""
    wide = engine.GridSpec(profile_ids=(1, 2, 3), bits=(8, 4), seed=11)
    narrow = engine.GridSpec(profile_ids=(2,), bits=(4,), seed=11)
    by_coord = {(t.profile_id, t.bits): t.seed for t in wide.tasks()}
    (only,) = narrow.tasks()
    assert only.seed == by_coord[(2, 4)]


# -- parallel determinism -----------------------------------------------------


def test_run_grid_workers_1_vs_4_identical():
    serial = engine.run_grid(SMALL_SPEC, workers=1, cache=None)
    engine.reset()
    parallel = engine.run_grid(SMALL_SPEC, workers=4, cache=None)
    assert len(serial) == 4
    assert serial.tasks == parallel.tasks
    assert serial.equal(parallel)


def test_run_grid_seeded_workers_1_vs_4_identical():
    spec = dataclasses.replace(SMALL_SPEC, seed=1234, duration_s=0.3)
    serial = engine.run_grid(spec, workers=1, cache=None)
    engine.reset()
    parallel = engine.run_grid(spec, workers=4, cache=None)
    assert serial.equal(parallel)


def test_run_grid_accepts_explicit_task_list():
    tasks = SMALL_SPEC.tasks()[:2]
    grid = engine.run_grid(tasks, workers=1)
    assert grid.tasks == tasks
    expected_ticks = int(tasks[1].duration_s / 1e-4)
    assert grid.result_for(tasks[1]).total_ticks == expected_ticks
    with pytest.raises(KeyError):
        grid.result_for(engine.FixedBitTask(profile_id=5, bits=1))


def test_run_grid_uses_the_keys_a_caller_hashed(tmp_path):
    """Given keys are used as they are, not hashed again."""
    tasks = SMALL_SPEC.tasks()[:2]
    keys = ["a" * 64, "b" * 64]
    engine.run_grid(tasks, workers=1, cache=engine.ResultCache(tmp_path), keys=keys)
    assert sorted(path.name for path in tmp_path.glob("*.npz")) == [
        f"{key}.npz" for key in keys
    ]
    with pytest.raises(ValueError, match="1 keys for 2 tasks"):
        engine.run_grid(tasks, workers=1, keys=keys[:1])


# -- the on-disk cache --------------------------------------------------------


def test_cache_round_trip_exact(tmp_path):
    cache = engine.ResultCache(tmp_path)
    task = engine.FixedBitTask(profile_id=2, bits=6, duration_s=0.4)
    result = task.run()
    key = task.cache_key()
    assert cache.get(key) is None
    cache.put(key, result)
    loaded = cache.get(key)
    assert engine.simulation_results_equal(result, loaded)
    assert loaded.bit_schedule is not result.bit_schedule
    assert cache.hits == 1 and cache.misses == 1
    assert len(cache) == 1
    assert cache.clear() == 1
    assert cache.get(key) is None


def test_cache_corrupt_entry_is_a_miss(tmp_path):
    cache = engine.ResultCache(tmp_path)
    task = engine.FixedBitTask(profile_id=1, bits=8, duration_s=0.3)
    key = task.cache_key()
    (tmp_path / f"{key}.npz").write_bytes(b"not an npz file")
    assert cache.get(key) is None


def test_run_grid_cache_hit_equals_miss(tmp_path):
    cache = engine.ResultCache(tmp_path)
    cold = engine.run_grid(SMALL_SPEC, workers=1, cache=cache)
    assert cache.misses == len(cold) and cache.hits == 0
    warm = engine.run_grid(SMALL_SPEC, workers=1, cache=cache)
    assert cache.hits == len(warm)
    assert cold.equal(warm)


def _run_one(task):
    """One task through a one-task grid, the experiment runners' path."""
    (result,) = engine.run_grid([task]).results
    return result


def test_cached_fixed_run_disk_and_memo_paths_equal(tmp_path):
    engine.configure(cache_dir=tmp_path)
    task = engine.FixedBitTask(profile_id=1, bits=4, duration_s=0.4)
    computed = _run_one(task)
    disk_hit = _run_one(task)
    again = _run_one(task)
    assert engine.simulation_results_equal(computed, disk_hit)
    assert engine.simulation_results_equal(computed, again)
    assert engine.default_cache().hits == 2


def test_cached_fixed_run_returns_defensive_copies():
    task = engine.FixedBitTask(profile_id=1, bits=8, duration_s=0.4)
    first = _run_one(task)
    first.bit_schedule[:] = 99  # a badly-behaved caller
    second = _run_one(task)
    assert not np.any(second.bit_schedule == 99)
    assert second.bit_schedule.max() == 8


def test_use_cache_false_bypasses_all_caching(tmp_path):
    engine.configure(cache_dir=tmp_path, use_cache=False)
    task = engine.FixedBitTask(profile_id=1, bits=8, duration_s=0.3)
    a = _run_one(task)
    b = _run_one(task)
    assert engine.simulation_results_equal(a, b)
    assert len(list(tmp_path.glob("*.npz"))) == 0


def test_configure_checks_every_argument_before_changing_any(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    before = dict(engine._CONFIG)
    for kwargs in (
        {"workers": 0},
        {"task_timeout_s": -1.0},
        {"task_timeout_s": float("nan")},
        {"retries": -1},
        {"retry_backoff_s": -0.1},
        {"retry_backoff_s": float("nan")},
        # A bad argument after good ones applies none of them.
        {"workers": 4, "use_cache": False, "retries": -1},
        {"workers": 3, "cache_dir": blocker},
        {"retries": 5, "cache": object()},
        {"workers": 2, "cache": engine.ResultCache(tmp_path / "a"),
         "cache_dir": tmp_path / "b"},
    ):
        with pytest.raises(ConfigurationError):
            engine.configure(**kwargs)
        assert engine._CONFIG == before, kwargs


# -- task kinds ---------------------------------------------------------------


def _kind_tasks(kind):
    """Three small, distinct tasks of ``kind``."""
    if kind is engine.FIXED:
        return [
            engine.FixedBitTask(profile_id=p, bits=b, kernel="median", duration_s=0.3)
            for p, b in ((1, 8), (2, 3), (3, 5))
        ]
    executive = [
        engine.ExecutiveTask(
            kernel="median", policy="linear", profile_id=p, minbits=2,
            duration_s=0.3, frame_period_ticks=1_500,
        )
        for p in (1, 2, 3)
    ]
    if kind is engine.EXECUTIVE:
        return executive
    from repro.analysis.resilience import ResilienceTask

    return [
        ResilienceTask(base=task, rate=0.05, device_seed=i)
        for i, task in enumerate(executive)
    ]


_KIND_EQUAL = {
    "fixed": engine.simulation_results_equal,
    "executive": engine.executive_results_equal,
    "resilience": lambda a, b: a == b,
}

_REPORT_COUNTERS = (
    "n_tasks", "cache_hits", "cache_misses", "quarantines",
    "computed", "retries", "crashes", "timeouts", "corrupt_payloads",
    "pool_failures", "degraded", "failed",
)


@pytest.mark.parametrize(
    "kind",
    [engine.FIXED, engine.EXECUTIVE, engine.RESILIENCE],
    ids=lambda kind: kind.name,
)
def test_task_kind_record(tmp_path, kind):
    from repro.analysis import faults, telemetry

    tasks = _kind_tasks(kind)
    equal = _KIND_EQUAL[kind.name]
    value = tasks[0].run()

    # The codec round-trips and is byte-stable.
    data = kind.encode(value)
    decoded = kind.decode(data)
    assert equal(decoded, value)
    assert kind.encode(decoded) == data

    # The validator accepts honest payloads and rejects corrupted ones.
    assert kind.validate(value) is None
    assert kind.validate(kind.corrupt(value)) is not None

    # Entries route to the kind's shard, by filename prefix.
    cache = engine.ShardedResultCache(tmp_path / "sharded", hot_bytes=0)
    key = tasks[0].cache_key()
    cache.put(key, value, kind)
    path = cache._path(key, kind)
    assert path.name == f"{kind.prefix}{key}.npz"
    assert path.parent.name == engine.shard_for_name(path.name) == kind.name
    assert path.read_bytes() == data
    assert equal(cache.get(key, kind), value)
    assert cache.verify() == {"checked": 1, "ok": 1, "quarantined": 0}

    # Any worker count gives the same results and report counters, with
    # a seeded crash retried under the kind's fault scope.
    engine.configure(use_cache=False, retry_backoff_s=0.0)
    runs = []
    for workers in (1, 2):
        plan = faults.FaultPlan.seeded(3, n_tasks=3, crashes=1, scope=kind.name)
        with faults.injected(plan):
            results = engine.run_tasks(
                tasks, kind, workers=workers,
                engine="reference" if kind is engine.RESILIENCE else "auto",
            )
        report = telemetry.last_report(kind=kind.name)
        runs.append((results, {c: getattr(report, c) for c in _REPORT_COUNTERS}))
    (serial, serial_counts), (pooled, pooled_counts) = runs
    assert len(serial) == len(pooled) == 3
    assert all(equal(a, b) for a, b in zip(serial, pooled))
    assert serial_counts == pooled_counts
    assert serial_counts["computed"] == 3
    assert serial_counts["crashes"] == serial_counts["retries"] == 1


def test_cache_key_includes_engine_version(monkeypatch, tmp_path):
    task = engine.FixedBitTask(profile_id=1, bits=8, duration_s=0.3)
    before = task.cache_key()
    monkeypatch.setattr(engine, "ENGINE_CACHE_VERSION", "999-test")
    assert task.cache_key() != before


# -- result helpers -----------------------------------------------------------


def test_simulation_results_equal_detects_every_field_change():
    task = engine.FixedBitTask(profile_id=1, bits=8, duration_s=0.3)
    result = task.run()
    assert engine.simulation_results_equal(result, engine.copy_result(result))
    for f in dataclasses.fields(SimulationResult):
        value = getattr(result, f.name)
        if isinstance(value, np.ndarray):
            mutated = value.copy()
            mutated[0] = mutated[0] + 1
        elif isinstance(value, tuple):
            mutated = value + (12345,)
        else:
            mutated = value + 1
        changed = engine.copy_result(result)
        # Bypass __post_init__ consistency checks: only the comparison
        # helper is under test here, not the result invariants.
        object.__setattr__(changed, f.name, mutated)
        assert not engine.simulation_results_equal(result, changed), f.name
