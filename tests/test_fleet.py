"""Fleet-scale simulation: spec expansion, runner, and wiring.

The fleet front-end must be a pure function of its spec (same seed →
same devices → same distributions, regardless of tier or worker
count), and its results must ride the ordinary engine machinery: the
chunk-sharded batch tier, ``fleet-`` prefixed cache entries, and the
``repro-experiments`` artifact registry.
"""

import pytest

from repro.analysis import telemetry
from repro.analysis import engine as engine_mod
from repro.analysis.engine import ResultCache, simulation_results_equal
from repro.errors import ConfigurationError
from repro.fleet import (
    DEFAULT_ARCHETYPES,
    FleetArchetype,
    FleetDeviceTask,
    FleetSpec,
    clear_fleet_trace_memo,
    run_fleet,
)
from repro.system.batchsim import batch_available

pytestmark = pytest.mark.fleet

SMALL = FleetSpec(n_devices=16, seed=11, duration_s=0.4)


@pytest.fixture(autouse=True)
def _fresh_engine():
    engine_mod.reset()
    engine_mod.configure(use_cache=False)
    clear_fleet_trace_memo()
    yield
    engine_mod.reset()


class TestFleetSpec:
    def test_expansion_is_deterministic(self):
        assert SMALL.tasks() == SMALL.tasks()

    def test_device_tasks_survive_resizing(self):
        # Growing the fleet never changes existing devices' tasks.
        small = FleetSpec(n_devices=8, seed=11, duration_s=0.4).tasks()
        assert small == SMALL.tasks()[:8]

    def test_seed_changes_fleet(self):
        other = FleetSpec(n_devices=16, seed=12, duration_s=0.4)
        assert other.tasks() != SMALL.tasks()

    def test_archetype_mixture_covered(self):
        names = {t.archetype for t in FleetSpec(n_devices=64, seed=0).tasks()}
        assert names == {a.name for a in DEFAULT_ARCHETYPES}

    def test_heterogeneity(self):
        tasks = FleetSpec(n_devices=32, seed=3).tasks()
        assert len({t.scale for t in tasks}) > 1
        assert len({t.capacitor_uj for t in tasks}) > 1
        assert len({t.trace_seed for t in tasks}) == len(tasks)

    def test_duration_override(self):
        gateway = FleetArchetype(name="gw", mode="rf", duration_s=2.5)
        tasks = FleetSpec(
            n_devices=4, seed=0, duration_s=0.5, archetypes=(gateway,)
        ).tasks()
        assert all(t.duration_s == 2.5 for t in tasks)

    def test_validation(self):
        with pytest.raises(Exception):
            FleetSpec(n_devices=0)
        with pytest.raises(ConfigurationError):
            FleetSpec(archetypes=())
        with pytest.raises(ConfigurationError):
            FleetArchetype(name="x", mode="tidal")
        with pytest.raises(ConfigurationError):
            FleetArchetype(name="x", capacitor_spread=1.0)
        with pytest.raises(ConfigurationError):
            FleetDeviceTask(
                device_id=0, archetype="a", mode="solar", trace_seed=1,
                policy="nope",
            )

    def test_cache_key_is_fleet_prefixed_and_stable(self):
        task = SMALL.tasks()[0]
        key = task.cache_key()
        assert key.startswith(ResultCache.FLEET_PREFIX)
        assert key == task.cache_key()
        other = SMALL.tasks()[1]
        assert other.cache_key() != key

    def test_trace_ticks_matches_built_trace(self):
        for task in SMALL.tasks()[:4]:
            assert task.trace_ticks() == len(task.build_trace())

    def test_same_device_lanes_share_trace_instance(self):
        # The batch plan dedups slots by object identity.
        task = SMALL.tasks()[0]
        assert task.build_trace() is task.build_trace()

    def test_an_evicted_trace_is_synthesised_again_sample_for_sample(
        self, monkeypatch
    ):
        # A budget below one trace: the newest trace still stays, so a
        # device's lanes keep sharing it, and the shared memo holds one.
        monkeypatch.setattr(engine_mod.TRACE_MEMO, "budget", 1)
        first, second = SMALL.tasks()[:2]
        trace = first.build_trace()
        assert first.build_trace() is trace
        second.build_trace()
        assert len(engine_mod.TRACE_MEMO) == 1
        again = first.build_trace()
        assert again is not trace
        assert again.samples_uw.tobytes() == trace.samples_uw.tobytes()


class TestRunFleet:
    def test_batch_matches_per_task_path(self):
        batched = run_fleet(SMALL)
        if batch_available():
            tiers = {t.executed_in for t in telemetry.last_report().tasks}
            assert tiers == {"batch"}
        reference = run_fleet(SMALL, engine="reference")
        for a, b in zip(batched.results, reference.results):
            assert simulation_results_equal(a, b)
        assert batched.progress_percentiles == reference.progress_percentiles
        assert batched.availability_cdf == reference.availability_cdf

    def test_chunked_matches_unchunked(self):
        engine_mod.configure(batch_chunk_lanes=0, batch_chunk_bytes=0)
        whole = run_fleet(SMALL)
        engine_mod.reset()
        engine_mod.configure(use_cache=False, batch_chunk_lanes=5)
        chunked = run_fleet(SMALL, workers=2)
        for a, b in zip(whole.results, chunked.results):
            assert simulation_results_equal(a, b)

    def test_distribution_shapes(self):
        result = run_fleet(SMALL)
        assert len(result) == SMALL.n_devices
        for pcts in (
            result.progress_percentiles,
            result.progress_rate_percentiles,
            result.availability_percentiles,
            result.energy_per_progress_percentiles,
        ):
            assert set(pcts) == {"p5", "p25", "p50", "p75", "p95", "p99"}
            values = [pcts[k] for k in ("p5", "p25", "p50", "p75", "p95")]
            assert values == sorted(values)
        cdf_values = list(result.availability_cdf.values())
        assert cdf_values == sorted(cdf_values)
        assert cdf_values[-1] == 1.0
        assert sum(
            s["devices"] for s in result.per_archetype.values()
        ) == SMALL.n_devices

    def test_metrics_export_is_mergeable(self):
        from repro.obs.metrics import MetricsRegistry

        result = run_fleet(SMALL)
        registry = MetricsRegistry.from_dict(result.metrics)
        merged = MetricsRegistry.from_dict(result.metrics)
        merged.merge_dict(result.metrics)
        counters = merged.to_dict()["counters"]
        assert counters["fleet.devices"] == 2 * SMALL.n_devices
        assert registry.to_dict() == result.metrics

    def test_fleet_entries_counted_in_cache_info(self, tmp_path):
        engine_mod.reset()
        engine_mod.configure(use_cache=True)
        cache = ResultCache(tmp_path)
        run_fleet(SMALL, cache=cache)
        info = cache.info()
        assert info["fleet"] == SMALL.n_devices
        assert info["fixed"] == 0
        assert info["entries"] == SMALL.n_devices

    def test_warm_cache_serves_fleet_rerun(self, tmp_path):
        from repro.analysis import telemetry

        engine_mod.reset()
        engine_mod.configure(use_cache=True)
        cache = ResultCache(tmp_path)
        first = run_fleet(SMALL, cache=cache)
        engine_mod.clear_memory_cache()
        second = run_fleet(SMALL, cache=cache)
        report = telemetry.last_report()
        assert all(t.status == "cache-hit" for t in report.tasks)
        for a, b in zip(first.results, second.results):
            assert simulation_results_equal(a, b)


class TestFleetArtifact:
    def test_fleet_campaign_runs(self):
        from repro.analysis import experiments as E

        result = E.fleet_campaign(n_devices=12, seed=5, duration_s=0.3)
        assert result.experiment_id == "fleet"
        assert len(result.rows) >= 4  # archetypes + percentile rows
        assert "availability_cdf" in result.data
        assert "metrics" in result.data

    def test_cli_registry_has_fleet(self):
        from repro.cli import EXPERIMENT_RUNNERS

        assert "fleet" in EXPERIMENT_RUNNERS

    def test_make_report_order_has_fleet(self):
        import importlib.util
        import pathlib

        path = (
            pathlib.Path(__file__).parent.parent
            / "scripts"
            / "make_report.py"
        )
        spec = importlib.util.spec_from_file_location("make_report", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert "fleet" in module.ORDER
