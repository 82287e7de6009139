"""Engine tier selection, mixed-grid splitting, and cache identity.

The batch tier is an optimisation layered *under* the engine's public
contract, and the engine selects it by itself, so these tests pin the
seams: a grid mixing batchable and non-batchable tasks must split
cleanly across tiers (every task computed exactly once, telemetry
recording which tier ran it), the correctness gates (fault plans,
observability capture, ``engine="reference"``) must keep the batch
kernels out, and — the warm-cache guarantee — the same grid replayed
batch vs per-task vs serial reference must leave **byte-identical**
``.npz`` cache entries, so a cache populated by any tier serves every
other. An empty fault plan is the way to reach the per-task one-lane
C path for a whole grid: any active plan turns the batch tier off.
"""

from contextlib import nullcontext

import pytest

from repro.analysis import faults, telemetry
from repro.analysis import engine as engine_mod
from repro.analysis.engine import (
    ExecutiveTask,
    FixedBitTask,
    GridSpec,
    ResultCache,
    executive_results_equal,
    run_executive_grid,
    run_grid,
    simulation_results_equal,
)
from repro.obs import capture as obs_capture
from repro.system import batchsim
from repro.system.batchsim import batch_available

pytestmark = [
    pytest.mark.batch,
    pytest.mark.skipif(not batch_available(), reason="accelerator unavailable"),
]


@pytest.fixture(autouse=True)
def _fresh_engine():
    engine_mod.reset()
    engine_mod.configure(use_cache=False)
    yield
    engine_mod.reset()


def _tiers(report):
    """index -> executed_in for every computed task of a run report."""
    return {
        t.index: t.executed_in for t in report.tasks if t.status == "computed"
    }


SMALL_GRID = GridSpec(profile_ids=(1, 2), bits=(8, 3), duration_s=1.0)


class TestTierSelection:
    def test_default_grid_uses_batch_tier(self):
        run_grid(SMALL_GRID)
        assert set(_tiers(telemetry.last_report()).values()) == {"batch"}

    def test_reference_engine_never_batches(self):
        run_grid(SMALL_GRID, engine="reference")
        assert "batch" not in _tiers(telemetry.last_report()).values()

    def test_active_fault_plan_disables_batch(self):
        plan = faults.FaultPlan(faults={}, scope="fixed")
        with faults.injected(plan):
            result = run_grid(SMALL_GRID)
        assert "batch" not in _tiers(telemetry.last_report()).values()
        clean = run_grid(SMALL_GRID)
        for a, b in zip(result.results, clean.results):
            assert simulation_results_equal(a, b)

    def test_active_capture_disables_batch(self, tmp_path):
        obs_capture.configure(trace_out=tmp_path / "t.json", level="spans")
        try:
            run_grid(SMALL_GRID)
        finally:
            obs_capture.reset()
        assert "batch" not in _tiers(telemetry.last_report()).values()


class TestMixedGridSplit:
    def _mixed_tasks(self):
        # frame_period_ticks=10 over 2 s implies ~2000 frame arrivals,
        # past the batch kernel's bound -> refused to the per-task tier.
        batchable = [
            ExecutiveTask(
                kernel="median", policy="linear", profile_id=pid,
                minbits=4, duration_s=1.0,
            )
            for pid in (1, 2)
        ]
        refused = ExecutiveTask(
            kernel="median", policy="linear", profile_id=3, minbits=4,
            duration_s=2.0, frame_period_ticks=10,
        )
        return [batchable[0], refused, batchable[1]]

    def test_split_runs_every_task_exactly_once(self):
        tasks = self._mixed_tasks()
        grid = run_executive_grid(tasks)
        report = telemetry.last_report()
        computed = [t for t in report.tasks if t.status == "computed"]
        assert sorted(t.index for t in computed) == [0, 1, 2]
        assert len(grid.results) == 3
        tiers = _tiers(report)
        assert tiers[0] == tiers[2] == "batch"
        assert tiers[1] in ("serial", "pool", "degraded")

    def test_split_results_match_unbatched_run(self):
        tasks = self._mixed_tasks()
        split = run_executive_grid(tasks)
        engine_mod.reset()
        engine_mod.configure(use_cache=False)
        reference = run_executive_grid(tasks, engine="reference")
        for a, b in zip(split.results, reference.results):
            assert executive_results_equal(a, b)

    def test_fixed_grid_with_impossible_config_lane(self):
        """A fixed-bit grid through the batch tier equals the reference
        loop, lane for lane."""
        tasks = [
            FixedBitTask(profile_id=1, bits=8, duration_s=1.0),
            FixedBitTask(profile_id=2, bits=8, duration_s=1.0),
        ]
        batched = run_grid(tasks)
        assert set(_tiers(telemetry.last_report()).values()) == {"batch"}
        reference = run_grid(tasks, engine="reference")
        for a, b in zip(batched.results, reference.results):
            assert simulation_results_equal(a, b)


class TestCacheTierIndependence:
    def _fixed_keyed_files(self, cache_dir):
        return {p.name: p.read_bytes() for p in sorted(cache_dir.glob("*.npz"))}

    def test_fixed_cache_entries_byte_identical_across_tiers(
        self, tmp_path, monkeypatch
    ):
        grid = GridSpec(profile_ids=(1, 3), bits=(8, 2), duration_s=1.0)
        dirs = {}
        for tier, chunk_lanes, plan, engine in (
            ("batch", None, None, "auto"),
            ("chunked-batch", 2, None, "auto"),
            ("fast", None, faults.FaultPlan(faults={}), "auto"),
            ("reference", None, None, "reference"),
        ):
            engine_mod.reset()
            engine_mod.configure(use_cache=True)
            monkeypatch.setattr(batchsim, "CHUNK_MAX_LANES", chunk_lanes)
            cache = ResultCache(tmp_path / tier)
            with nullcontext() if plan is None else faults.injected(plan):
                run_grid(grid, cache=cache, engine=engine)
            dirs[tier] = self._fixed_keyed_files(tmp_path / tier)
        assert (
            dirs["batch"].keys()
            == dirs["chunked-batch"].keys()
            == dirs["fast"].keys()
            == dirs["reference"].keys()
        )
        for name in dirs["batch"]:
            assert dirs["batch"][name] == dirs["chunked-batch"][name], name
            assert dirs["batch"][name] == dirs["fast"][name], name
            assert dirs["batch"][name] == dirs["reference"][name], name

    def test_executive_cache_entries_byte_identical_across_tiers(self, tmp_path):
        tasks = [
            ExecutiveTask(
                kernel="median", policy="linear", profile_id=1, minbits=4,
                duration_s=1.0,
            ),
            ExecutiveTask(
                kernel="sobel", policy="log", profile_id=2, minbits=3,
                duration_s=1.0,
            ),
        ]
        dirs = {}
        for tier, plan in (("batch", None), ("fast", faults.FaultPlan(faults={}))):
            engine_mod.reset()
            engine_mod.configure(use_cache=True)
            cache = ResultCache(tmp_path / tier)
            with nullcontext() if plan is None else faults.injected(plan):
                run_executive_grid(tasks, cache=cache)
            dirs[tier] = self._fixed_keyed_files(tmp_path / tier)
        assert dirs["batch"].keys() == dirs["fast"].keys()
        for name in dirs["batch"]:
            assert dirs["batch"][name] == dirs["fast"][name], name

    def test_warm_cache_hits_are_tier_independent(self, tmp_path):
        """A cache written by the batch tier serves a reference run."""
        grid = GridSpec(profile_ids=(2,), bits=(8, 4), duration_s=1.0)
        engine_mod.configure(use_cache=True)
        cache = ResultCache(tmp_path / "warm")
        first = run_grid(grid, cache=cache)
        engine_mod.reset()
        engine_mod.configure(use_cache=True)
        second = run_grid(grid, cache=cache, engine="reference")
        report = telemetry.last_report()
        assert all(t.status == "cache-hit" for t in report.tasks)
        for a, b in zip(first.results, second.results):
            assert simulation_results_equal(a, b)

    def test_result_cache_round_trip(self, tmp_path):
        """put/get through ResultCache preserves a batch-tier result."""
        from repro.system.batchsim import FixedLaneSpec, run_fixed_batch

        trace = FixedBitTask(profile_id=1, bits=5, duration_s=1.0).build_trace()
        outcome = run_fixed_batch([FixedLaneSpec(trace=trace, bits=5)])[0]
        assert outcome.refused is None
        cache = ResultCache(tmp_path / "rt")
        cache.put("k" * 64, outcome.result)
        loaded = cache.get("k" * 64)
        assert loaded is not None
        assert simulation_results_equal(loaded, outcome.result)
