"""Engine tests for the incidental-executive layer.

Mirrors ``tests/test_engine_grid.py`` for :class:`ExecutiveTask`: cache
keys must cover every semantic knob, grids must be worker-count
invariant, disk round-trips must be exact, warm caches must serve
without recomputation, and the post-hoc quality replay must
match :meth:`IncidentalExecutive.frame_quality` bit for bit.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis import engine
from repro.core.executive import clear_quality_memo
from repro.errors import ConfigurationError, EngineExecutionError

DURATION = 0.4


@pytest.fixture(autouse=True)
def _fresh_engine():
    """Every test starts from engine defaults (and leaves them behind)."""
    engine.reset()
    yield
    engine.reset()


def _task(**overrides):
    base = dict(
        kernel="median", policy="linear", profile_id=1, minbits=2,
        duration_s=DURATION, frame_period_ticks=1_500,
    )
    base.update(overrides)
    return engine.ExecutiveTask(**base)


# -- task validation and cache keys -------------------------------------------


def test_task_validation():
    with pytest.raises(ConfigurationError):
        _task(policy="bogus")
    with pytest.raises(ConfigurationError):
        _task(minbits=0)
    with pytest.raises(ConfigurationError):
        _task(minbits=6, maxbits=3)
    with pytest.raises(ConfigurationError):
        _task(recover_placement="outer")
    with pytest.raises(ConfigurationError):
        _task(resume_buffer_capacity=0)
    with pytest.raises(ConfigurationError):
        _task(duration_s=0.0)
    with pytest.raises(ConfigurationError):
        engine.ExecutiveTraceTask(
            kernel="median", policy="linear", minbits=2, n_frames=0
        )


def test_cache_key_covers_every_semantic_knob():
    a = _task()
    assert a.cache_key() == _task().cache_key()
    variants = [
        dataclasses.replace(a, kernel="fft"),
        dataclasses.replace(a, policy="log"),
        dataclasses.replace(a, profile_id=2),
        dataclasses.replace(a, minbits=3),
        dataclasses.replace(a, maxbits=7),
        dataclasses.replace(a, duration_s=0.5),
        dataclasses.replace(a, current_minbits=4),
        dataclasses.replace(a, current_minbits=4, current_maxbits=7),
        dataclasses.replace(a, frame_size=10),
        dataclasses.replace(a, frame_period_ticks=2_000),
        dataclasses.replace(a, n_frames=3),
        dataclasses.replace(a, enable_simd=False),
        dataclasses.replace(a, enable_rollforward=False),
        dataclasses.replace(a, precise_backup=True),
        dataclasses.replace(a, recover_placement="frame"),
        dataclasses.replace(a, resume_buffer_capacity=2),
        dataclasses.replace(a, retention_time_scale=4.0),
        dataclasses.replace(a, seed=1),
        dataclasses.replace(a, trace_seed=7),
    ]
    keys = {a.cache_key()} | {v.cache_key() for v in variants}
    assert len(keys) == len(variants) + 1


def test_cache_key_cannot_collide_with_fixed_bit_tasks(tmp_path):
    # Executive entries carry their own filename prefix, so even a
    # (vanishingly unlikely) key collision cannot alias result kinds.
    cache = engine.ResultCache(tmp_path)
    task = _task()
    result = task.run()
    cache.put_executive(task.cache_key(), result)
    assert cache.get(task.cache_key()) is None


def test_cache_key_includes_engine_version(monkeypatch):
    a = _task()
    before = a.cache_key()
    monkeypatch.setattr(engine, "ENGINE_CACHE_VERSION", "999-test")
    assert a.cache_key() != before


def test_resolved_n_frames_matches_trace_derivation():
    task = _task()
    trace = task.build_trace()
    expected = min(max(2, int(len(trace) / task.frame_period_ticks) + 1), 16)
    assert task.resolved_n_frames() == expected
    assert _task(n_frames=3).resolved_n_frames() == 3


def test_trace_seed_switches_to_reroll_trace():
    assert _task(trace_seed=5).build_trace().name == "seeded-5"
    assert _task().build_trace().name != "seeded-5"


# -- grids ---------------------------------------------------------------------


def _small_tasks():
    return [
        _task(policy=p, profile_id=pid)
        for p in ("linear", "log")
        for pid in (1, 2)
    ]


def test_executive_grid_workers_1_vs_4_identical():
    tasks = _small_tasks()
    serial = engine.run_executive_grid(tasks, workers=1)
    clear_quality_memo()
    parallel = engine.run_executive_grid(tasks, workers=4)
    assert serial.equal(parallel)
    assert len(serial) == len(tasks)
    for task, result in serial:
        assert engine.executive_results_equal(result, serial.result_for(task))
    with pytest.raises(KeyError):
        serial.result_for(_task(minbits=7))


def test_executive_grid_cache_hit_equals_miss(tmp_path):
    engine.configure(cache_dir=tmp_path)
    tasks = _small_tasks()
    cold = engine.run_executive_grid(tasks)
    clear_quality_memo()
    warm = engine.run_executive_grid(tasks)
    assert cold.equal(warm)


def test_executive_cache_round_trip_exact(tmp_path):
    cache = engine.ResultCache(tmp_path)
    task = _task()
    result = task.run()
    key = task.cache_key()
    assert cache.get_executive(key) is None
    cache.put_executive(key, result)
    loaded = cache.get_executive(key)
    assert loaded is not None
    assert engine.executive_results_equal(result, loaded)
    # Loaded arrays are fresh, never views of the stored entry.
    loaded.frames[0].element_bits[:] = 99
    again = cache.get_executive(key)
    assert engine.executive_results_equal(result, again)


def test_executive_cache_corrupt_entry_is_a_miss(tmp_path):
    cache = engine.ResultCache(tmp_path)
    task = _task()
    key = task.cache_key()
    cache.put_executive(key, task.run())
    cache._path(key, engine.EXECUTIVE).write_bytes(b"not an npz")
    assert cache.get_executive(key) is None


def _run_one(task):
    """One task through a one-task grid, the experiment runners' path."""
    (result,) = engine.run_executive_grid([task]).results
    return result


def test_warm_cache_serves_without_recompute(tmp_path, monkeypatch):
    engine.configure(cache_dir=tmp_path)
    task = _task()
    first = _run_one(task)

    def _boom(*args, **kwargs):
        raise AssertionError("cache miss: task was re-executed")

    # Both the batch tier and the per-task run build the executive.
    monkeypatch.setattr(engine.ExecutiveTask, "build_executive", _boom)
    # Disk hits, also after the exact-reference memo is dropped.
    assert engine.executive_results_equal(first, _run_one(task))
    clear_quality_memo()
    assert engine.executive_results_equal(first, _run_one(task))
    assert engine.default_cache().hits == 2
    # A changed knob is a miss and must try to re-execute.
    with pytest.raises(EngineExecutionError, match="re-executed"):
        _run_one(dataclasses.replace(task, minbits=3))


def test_cached_executive_run_returns_defensive_copies():
    task = _task()
    first = _run_one(task)
    first.frames[0].element_bits[:] = 99
    first.sim.bit_schedule[:] = 0
    second = _run_one(task)
    assert not np.array_equal(
        second.frames[0].element_bits, first.frames[0].element_bits
    )
    assert engine.executive_results_equal(second, task.run())


def test_use_cache_false_bypasses_all_caching(tmp_path):
    engine.configure(cache_dir=tmp_path, use_cache=False)
    task = _task()
    a = _run_one(task)
    b = _run_one(task)
    assert engine.executive_results_equal(a, b)
    assert len(engine.ResultCache(tmp_path)) == 0


# -- trace tasks ---------------------------------------------------------------


def test_run_executive_on_trace_workers_invariant():
    trace = engine._seeded_trace(11, DURATION)
    tasks = [
        engine.ExecutiveTraceTask(
            kernel="median", policy="linear", minbits=2, n_frames=4,
            frame_size=8, frame_period_ticks=800, seed=s,
        )
        for s in (0, 1)
    ]
    serial = engine.run_executive_on_trace(trace, tasks, workers=1)
    parallel = engine.run_executive_on_trace(trace, tasks, workers=4)
    assert all(
        engine.executive_results_equal(a, b) for a, b in zip(serial, parallel)
    )


# -- post-hoc quality replay ---------------------------------------------------


def _quality_tuples(scores):
    return [dataclasses.astuple(s) for s in scores]


def test_executive_frame_quality_matches_inline_replay():
    task = _task(minbits=4, frame_period_ticks=2_500)
    ex = task.build_executive()
    result = ex.run()
    inline = ex.frame_quality(result, min_coverage=0.999)
    replayed = engine.executive_frame_quality(task, result, min_coverage=0.999)
    assert _quality_tuples(inline) == _quality_tuples(replayed)
    # Retention decay off and precise backups both drop the policy.
    no_decay = ex.frame_quality(result, apply_retention_decay=False)
    no_decay_replayed = engine.executive_frame_quality(
        task, result, apply_retention_decay=False
    )
    assert _quality_tuples(no_decay) == _quality_tuples(no_decay_replayed)


def test_quality_replay_frames_are_independent_of_grid_point():
    # Two tasks sharing a prefix of identical frame tuples must score
    # those frames identically (this is what makes memoisation sound).
    a = _task(minbits=4, frame_period_ticks=2_500)
    ra = _run_one(a)
    qa = engine.executive_frame_quality(a, ra, min_coverage=0.999)
    engine.reset()
    qa2 = engine.executive_frame_quality(a, ra, min_coverage=0.999)
    assert _quality_tuples(qa) == _quality_tuples(qa2)
