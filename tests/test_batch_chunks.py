"""Chunk-sharded batch tier: planning properties and invariance.

Chunking is a scheduling concern only — the contract under test is
that ANY partition of a grid into chunks (any lane budget, any tick
budget, any lane order, pooled or in-process dispatch) produces
bit-identical results and byte-identical cache entries versus the
unchunked batch tier, while ``chunk_lane_indices`` itself stays a
deterministic, lane-covering, budget-respecting pure function. The
invariance tests patch the budgets the engine reads
(``batchsim.CHUNK_MAX_LANES`` / ``CHUNK_MAX_TICKS``; ``None`` removes
one).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import telemetry
from repro.analysis import engine as engine_mod
from repro.analysis.engine import (
    ExecutiveTask,
    FixedBitTask,
    ResultCache,
    executive_results_equal,
    run_executive_grid,
    run_grid,
    simulation_results_equal,
)
from repro.fleet import FleetSpec
from repro.system import batchsim
from repro.system.batchsim import (
    _PLAN_BYTES_PER_TICK,
    batch_available,
    chunk_lane_indices,
    estimate_plan_bytes,
)

pytestmark = [pytest.mark.batch, pytest.mark.fleet]


@pytest.fixture(autouse=True)
def _fresh_engine():
    engine_mod.reset()
    engine_mod.configure(use_cache=False)
    yield
    engine_mod.reset()


@pytest.fixture
def budgets(monkeypatch):
    """Set the chunk budgets the engine reads; ``None`` removes one."""

    def set_budgets(lanes, ticks):
        monkeypatch.setattr(batchsim, "CHUNK_MAX_LANES", lanes)
        monkeypatch.setattr(batchsim, "CHUNK_MAX_TICKS", ticks)

    return set_budgets


class TestChunkPlanning:
    def test_no_budgets_single_chunk(self):
        assert chunk_lane_indices([5, 9, 2]) == [[0, 1, 2]]

    def test_empty(self):
        assert chunk_lane_indices([]) == []
        assert chunk_lane_indices([], max_lanes=4) == []

    def test_lane_budget_respected(self):
        chunks = chunk_lane_indices([10, 10, 10, 10, 10], max_lanes=2)
        assert sorted(i for c in chunks for i in c) == [0, 1, 2, 3, 4]
        assert all(len(c) <= 2 for c in chunks)

    def test_byte_budget_respected(self):
        # The tick budget (the former plan-byte budget): 4 lanes x 1000
        # ticks, two lanes per chunk.
        chunks = chunk_lane_indices([1000] * 4, max_ticks=2000)
        assert all(1000 * len(c) <= 2000 for c in chunks)
        assert sorted(i for c in chunks for i in c) == [0, 1, 2, 3]

    def test_oversized_group_still_admitted(self):
        # One lane alone above the tick budget must still get a chunk.
        chunks = chunk_lane_indices([10_000], max_ticks=1)
        assert chunks == [[0]]

    def test_length_similar_lanes_share_chunks(self):
        # Longest-first packing groups lanes of similar length however
        # they are interleaved: the long lanes share one chunk, the
        # short lanes another.
        lengths = [1_000, 100_000, 1_000, 100_000, 1_000, 1_000]
        chunks = chunk_lane_indices(lengths, max_ticks=2 * 100_000)
        assert chunks == [[1, 3], [0, 2, 4, 5]]

    def test_dedup_keys_stay_together(self):
        lengths = [50, 50, 50, 50, 50, 50]
        keys = ["a", "b", "a", "b", "a", "b"]
        chunks = chunk_lane_indices(lengths, keys=keys, max_lanes=3)
        for chunk in chunks:
            assert len({keys[i] for i in chunk}) == 1

    def test_oversized_dedup_group_splits(self):
        chunks = chunk_lane_indices([7] * 5, keys=["k"] * 5, max_lanes=2)
        assert sorted(i for c in chunks for i in c) == [0, 1, 2, 3, 4]
        assert all(len(c) <= 2 for c in chunks)

    def test_deterministic(self):
        lengths = [3, 14, 15, 9, 2, 6, 5, 35]
        a = chunk_lane_indices(lengths, max_lanes=3)
        b = chunk_lane_indices(lengths, max_lanes=3)
        assert a == b

    def test_key_count_mismatch_raises(self):
        with pytest.raises(ValueError, match="keys has"):
            chunk_lane_indices([1, 2], keys=["x"])

    def test_invalid_budgets_raise(self):
        with pytest.raises(Exception):
            chunk_lane_indices([1], max_lanes=0)
        with pytest.raises(Exception):
            chunk_lane_indices([1], max_ticks=0)
        with pytest.raises(Exception):
            chunk_lane_indices([1], max_ticks=1, workers=0)

    def test_estimate_plan_bytes(self):
        # Each slot's ticks are stored once: the sum, not n x longest.
        assert estimate_plan_bytes([]) == 0
        assert estimate_plan_bytes([10, 20, 5]) == 35 * _PLAN_BYTES_PER_TICK

    @given(
        lengths=st.lists(
            st.integers(min_value=1, max_value=5000), min_size=1, max_size=60
        ),
        max_lanes=st.one_of(st.none(), st.integers(min_value=1, max_value=10)),
        max_ticks=st.one_of(
            st.none(), st.integers(min_value=1, max_value=20_000)
        ),
        key_mod=st.integers(min_value=1, max_value=7),
        workers=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_properties(
        self, lengths, max_lanes, max_ticks, key_mod, workers
    ):
        keys = [i % key_mod for i in range(len(lengths))]
        chunks = chunk_lane_indices(
            lengths,
            keys=keys,
            max_lanes=max_lanes,
            max_ticks=max_ticks,
            workers=workers,
        )
        flat = [i for c in chunks for i in c]
        # Every lane exactly once, each chunk sorted.
        assert sorted(flat) == list(range(len(lengths)))
        assert all(c == sorted(c) for c in chunks)
        if max_lanes is not None:
            assert all(len(c) <= max_lanes for c in chunks)
        if max_ticks is not None:
            # The chunk's slot ticks fit the tick budget, unless the
            # chunk holds a single dedup group (a slot is never split).
            for chunk in chunks:
                slot_ticks = {}
                for i in chunk:
                    slot_ticks[keys[i]] = max(slot_ticks.get(keys[i], 0), lengths[i])
                if len(slot_ticks) > 1:
                    assert sum(slot_ticks.values()) <= max_ticks

    @given(
        group_lengths=st.lists(
            st.integers(min_value=500, max_value=1000), min_size=16, max_size=60
        ),
        copies=st.integers(min_value=1, max_value=3),
        workers=st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_pooled_repack_balances_chunks(self, group_lengths, copies, workers):
        lengths = [n for n in group_lengths for _ in range(copies)]
        keys = [g for g in range(len(group_lengths)) for _ in range(copies)]
        total = sum(group_lengths)
        whole = chunk_lane_indices(
            lengths, keys=keys, max_ticks=total, workers=workers
        )
        # A grid the budget leaves whole is never split for the pool.
        assert whole == [list(range(len(lengths)))]
        chunks = chunk_lane_indices(
            lengths, keys=keys, max_ticks=total - 1, workers=workers
        )
        share = -(-total // (2 * workers))
        assert len(chunks) >= 2 * workers
        assert sorted(i for c in chunks for i in c) == list(range(len(lengths)))
        for chunk in chunks:
            groups = {keys[i] for i in chunk}
            # Whole dedup groups only, and within the share unless alone.
            assert len(chunk) == copies * len(groups)
            assert len(groups) == 1 or sum(group_lengths[g] for g in groups) <= share
        # A tick budget below the share still binds every chunk.
        tight = 1000
        for chunk in chunk_lane_indices(
            lengths, keys=keys, max_ticks=tight, workers=workers
        ):
            groups = {keys[i] for i in chunk}
            assert len(groups) == 1 or sum(
                group_lengths[g] for g in groups
            ) <= tight

    @pytest.mark.parametrize("workers, sizes", [
        (1, [813, 187]),
        (2, [250, 250, 250, 250]),
    ])
    def test_default_budgets_split_a_1000_device_fleet(self, workers, sizes):
        # The split the engine makes under the default budgets, from
        # tick counts and signatures alone (no trace is synthesised):
        # 1000 one-second devices hold 10M slot ticks, over the tick
        # budget, so one worker gets two chunks and two workers get
        # 2 * workers equal shares.
        tasks = FleetSpec(n_devices=1000, seed=0, duration_s=1.0).tasks()
        chunks = chunk_lane_indices(
            [t.trace_ticks() for t in tasks],
            [t.trace_signature() for t in tasks],
            batchsim.CHUNK_MAX_LANES,
            batchsim.CHUNK_MAX_TICKS,
            workers=workers,
        )
        assert [len(c) for c in chunks] == sizes


def _grid_tasks():
    # Heterogeneous durations so padding differs across chunkings.
    durations = (0.3, 1.0, 0.3, 0.7, 1.0, 0.5)
    return [
        FixedBitTask(profile_id=1 + (i % 3), bits=8 - i, duration_s=d)
        for i, d in enumerate(durations)
    ]


def _exec_tasks():
    return [
        ExecutiveTask(
            kernel="median",
            policy=policy,
            profile_id=pid,
            minbits=4,
            duration_s=d,
        )
        for policy, pid, d in (
            ("linear", 1, 0.5),
            ("log", 2, 1.0),
            ("linear", 3, 0.5),
            ("parabola", 1, 1.0),
        )
    ]


@pytest.mark.skipif(not batch_available(), reason="accelerator unavailable")
class TestChunkSplitInvariance:
    def _run_fixed(self, budgets, tasks, lanes, ticks, workers=1):
        engine_mod.reset()
        engine_mod.configure(use_cache=False)
        budgets(lanes, ticks)
        return run_grid(tasks, workers=workers)

    def test_any_lane_budget_is_bit_identical(self, budgets):
        tasks = _grid_tasks()
        baseline = self._run_fixed(budgets, tasks, None, None)
        for lanes in (1, 2, 3, 5):
            chunked = self._run_fixed(budgets, tasks, lanes, None)
            for a, b in zip(baseline.results, chunked.results):
                assert simulation_results_equal(a, b)

    def test_byte_budget_is_bit_identical(self, budgets):
        # The tick budget (the former plan-byte budget).
        tasks = _grid_tasks()
        baseline = self._run_fixed(budgets, tasks, None, None)
        chunked = self._run_fixed(budgets, tasks, None, 2 * 10_000)
        for a, b in zip(baseline.results, chunked.results):
            assert simulation_results_equal(a, b)

    def test_permuted_lane_order_is_bit_identical(self, budgets):
        tasks = _grid_tasks()
        baseline = self._run_fixed(budgets, tasks, None, None)
        order = [3, 0, 5, 1, 4, 2]
        permuted = self._run_fixed(budgets, [tasks[i] for i in order], 2, None)
        for pos, i in enumerate(order):
            assert simulation_results_equal(
                baseline.results[i], permuted.results[pos]
            )

    def test_pooled_chunk_dispatch_is_bit_identical(self, budgets):
        tasks = _grid_tasks()
        baseline = self._run_fixed(budgets, tasks, None, None)
        pooled = self._run_fixed(budgets, tasks, 2, None, workers=3)
        report = telemetry.last_report()
        assert report.pool_failures == 0
        for a, b in zip(baseline.results, pooled.results):
            assert simulation_results_equal(a, b)

    def test_chunked_runs_report_batch_chunk_tier(self, budgets):
        # Chunks run in process and chunks run over the pool report the
        # same batch tier as a single plan; no label sets them apart.
        for workers in (1, 3):
            self._run_fixed(budgets, _grid_tasks(), 2, None, workers=workers)
            report = telemetry.last_report()
            tiers = {t.executed_in for t in report.tasks}
            assert tiers == {"batch"}, workers
            assert len(report.tasks) == len(_grid_tasks())

    def test_single_chunk_keeps_plain_batch_tier(self, budgets):
        self._run_fixed(budgets, _grid_tasks(), None, None)
        report = telemetry.last_report()
        assert {t.executed_in for t in report.tasks} == {"batch"}
        assert len(report.tasks) == len(_grid_tasks())

    def test_pool_only_for_several_chunks_and_workers(self, budgets, monkeypatch):
        """The process pool is built only when there is more than one
        chunk and more than one worker, and then exactly once."""
        built = []

        class CountingPool(engine_mod.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(engine_mod, "ProcessPoolExecutor", CountingPool)
        for lanes, workers, pools in ((None, 2, 0), (2, 1, 0), (2, 3, 1)):
            built.clear()
            self._run_fixed(budgets, _grid_tasks(), lanes, None, workers=workers)
            assert len(built) == pools, (lanes, workers, built)

    def test_executive_chunking_is_bit_identical(self, budgets):
        tasks = _exec_tasks()
        default_ticks = batchsim.CHUNK_MAX_TICKS
        budgets(None, None)
        baseline = run_executive_grid(tasks)
        for lanes, workers in ((1, 1), (2, 1), (2, 3)):
            engine_mod.reset()
            engine_mod.configure(use_cache=False)
            budgets(lanes, default_ticks)
            chunked = run_executive_grid(tasks, workers=workers)
            for a, b in zip(baseline.results, chunked.results):
                assert executive_results_equal(a, b)

    def test_chunked_cache_entries_byte_identical_to_unchunked(
        self, budgets, tmp_path
    ):
        tasks = _grid_tasks()
        blobs = {}
        for label, lanes, workers in (
            ("unchunked", None, 1),
            ("chunked", 2, 1),
            ("pooled", 2, 3),
        ):
            engine_mod.reset()
            budgets(lanes, None)
            cache = ResultCache(tmp_path / label)
            run_grid(tasks, workers=workers, cache=cache)
            blobs[label] = {
                p.name: p.read_bytes()
                for p in sorted((tmp_path / label).glob("*.npz"))
            }
        assert blobs["unchunked"].keys() == blobs["chunked"].keys()
        assert blobs["unchunked"].keys() == blobs["pooled"].keys()
        for name, blob in blobs["unchunked"].items():
            assert blobs["chunked"][name] == blob, name
            assert blobs["pooled"][name] == blob, name
