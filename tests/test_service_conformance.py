"""Service-level conformance: HTTP results ≡ direct engine runs, in bytes.

The campaign service must add transport, never semantics. Every test
here computes a campaign twice — once directly through the engine
(``run_grid`` / ``run_executive_grid`` / ``run_resilience_grid`` /
``run_fleet``), once through a real HTTP round trip against an
in-thread service — and asserts the streamed result entries are
**byte-identical** to the direct encodings *and* to the ``.npz`` files
the service's sharded cache wrote, cold and warm, for every tier.
"""

import base64
import json

import pytest

from repro.analysis import engine, telemetry
from repro.analysis.engine import (
    ExecutiveTask,
    GridSpec,
    executive_entry_bytes,
    fixed_entry_bytes,
    run_executive_grid,
    run_grid,
    shard_for_name,
)
from repro.analysis.resilience import ResilienceCampaign, run_resilience_grid
from repro.fleet import FleetSpec, run_fleet
from repro.service import (
    http_cache_info,
    http_health,
    http_results,
    http_submit,
    http_wait,
    start_in_thread,
)

pytestmark = pytest.mark.service

GRID_PAYLOAD = {
    "kind": "grid",
    "grid": {
        "kernels": ["median"],
        "bits": [3, 8],
        "profile_ids": [1, 2],
        "duration_s": 0.4,
    },
}

EXECUTIVE_PAYLOAD = {
    "kind": "executive",
    "tasks": [
        {
            "kernel": "median",
            "policy": "linear",
            "profile_id": profile_id,
            "minbits": 2,
            "duration_s": 0.4,
            "frame_period_ticks": 1_500,
        }
        for profile_id in (1, 2)
    ],
}

RESILIENCE_PAYLOAD = {
    "kind": "resilience",
    "campaign": {
        "kernels": ["median"],
        "policies": ["linear"],
        "rates": [0.0, 0.1],
        "duration_s": 0.4,
        "minbits": 2,
    },
}

FLEET_PAYLOAD = {
    "kind": "fleet",
    "fleet": {"n_devices": 6, "seed": 11, "duration_s": 0.4},
}


@pytest.fixture(autouse=True)
def _fresh_engine():
    engine.reset()
    telemetry.reset()
    yield
    telemetry.reset()
    engine.reset()


@pytest.fixture
def service(tmp_path):
    """A live service on an ephemeral port with its own sharded cache."""
    handle = start_in_thread(tmp_path / "service-cache", workers=2)
    try:
        yield handle
    finally:
        handle.close()


@pytest.fixture
def direct_cache(tmp_path):
    """A private cache for direct baseline runs.

    ``cache=None`` resolves to the *configured* default — which, with
    the service fixture active, is the service's shared cache. Direct
    runs must not warm it, or the "cold" assertions would lie.
    """
    return engine.ResultCache(tmp_path / "direct-cache")


def _run_job(handle, payload, timeout=300.0):
    job = http_submit(handle.base_url, payload)
    assert job["status"] in ("queued", "running", "done")
    done = http_wait(handle.base_url, job["id"], timeout=timeout)
    assert done["status"] == "done", done.get("error", done)
    return done, http_results(handle.base_url, job["id"])


def _task_entries(lines):
    """index -> (cache filename, raw entry bytes) for the task lines."""
    out = {}
    for line in lines:
        if line["type"] == "task":
            out[line["index"]] = (
                line["name"],
                base64.b64decode(line["entry"]),
            )
    return out


def _assert_entries_match_disk(handle, entries):
    """Every streamed entry is byte-identical to its on-disk cache file."""
    cache_dir = handle.service.cache.cache_dir
    for name, data in entries.values():
        path = cache_dir / shard_for_name(name) / name
        assert path.exists(), f"{name} missing from {shard_for_name(name)}/"
        assert path.read_bytes() == data


def _direct_fixed_entries(tasks, cache):
    grid = run_grid(tasks, engine="auto", cache=cache)
    return {
        i: (f"{task.cache_key()}.npz", fixed_entry_bytes(result))
        for i, (task, result) in enumerate(grid)
    }


# -- per-tier byte identity, cold and warm -------------------------------------


def test_grid_campaign_byte_identical_cold_and_warm(service, direct_cache):
    tasks = GridSpec(**{
        key: tuple(value) if isinstance(value, list) else value
        for key, value in GRID_PAYLOAD["grid"].items()
    }).tasks()
    expected = _direct_fixed_entries(tasks, direct_cache)

    done, lines = _run_job(service, GRID_PAYLOAD)
    entries = _task_entries(lines)
    assert entries == expected
    assert done["telemetry"]["computed"] == len(tasks)
    assert done["telemetry"]["cache_hits"] == 0
    _assert_entries_match_disk(service, entries)

    warm_done, warm_lines = _run_job(service, GRID_PAYLOAD)
    assert _task_entries(warm_lines) == expected
    assert warm_lines == lines
    assert warm_done["telemetry"]["computed"] == 0
    assert warm_done["telemetry"]["cache_hits"] == len(tasks)


def test_executive_campaign_byte_identical_cold_and_warm(
    service, direct_cache
):
    tasks = tuple(
        ExecutiveTask(**spec) for spec in EXECUTIVE_PAYLOAD["tasks"]
    )
    grid = run_executive_grid(tasks, engine="auto", cache=direct_cache)
    expected = {
        i: (f"exec-{task.cache_key()}.npz", executive_entry_bytes(result))
        for i, (task, result) in enumerate(grid)
    }

    done, lines = _run_job(service, EXECUTIVE_PAYLOAD)
    entries = _task_entries(lines)
    assert entries == expected
    assert done["telemetry"]["computed"] == len(tasks)
    _assert_entries_match_disk(service, entries)
    assert all(
        shard_for_name(name) == "executive" for name, _ in entries.values()
    )

    warm_done, warm_lines = _run_job(service, EXECUTIVE_PAYLOAD)
    assert warm_lines == lines
    assert warm_done["telemetry"]["computed"] == 0
    assert warm_done["telemetry"]["cache_hits"] == len(tasks)


def test_resilience_campaign_points_identical_cold_and_warm(
    service, direct_cache
):
    campaign = ResilienceCampaign(
        **{
            key: tuple(value) if isinstance(value, list) else value
            for key, value in RESILIENCE_PAYLOAD["campaign"].items()
        }
    )
    points = run_resilience_grid(
        campaign.tasks(), engine="reference", cache=direct_cache
    )
    expected = [
        json.dumps(point.to_dict(), sort_keys=True) for point in points
    ]

    done, lines = _run_job(service, RESILIENCE_PAYLOAD)
    got = [
        json.dumps(line["point"], sort_keys=True)
        for line in lines
        if line["type"] == "point"
    ]
    assert got == expected
    assert done["telemetry"]["computed"] == len(points)

    _, warm_lines = _run_job(service, RESILIENCE_PAYLOAD)
    assert warm_lines == lines


def test_fleet_campaign_byte_identical_with_summary(service, direct_cache):
    spec = FleetSpec(**FLEET_PAYLOAD["fleet"])
    fleet = run_fleet(spec, engine="auto", cache=direct_cache)
    expected = {
        i: (f"{task.cache_key()}.npz", fixed_entry_bytes(result))
        for i, (task, result) in enumerate(zip(fleet.tasks, fleet.results))
    }

    done, lines = _run_job(service, FLEET_PAYLOAD)
    entries = _task_entries(lines)
    assert entries == expected
    _assert_entries_match_disk(service, entries)
    assert all(
        shard_for_name(name) == "fleet" for name, _ in entries.values()
    )

    summaries = [line for line in lines if line["type"] == "summary"]
    assert len(summaries) == 1
    direct_percentiles = {
        key: value for key, value in fleet.progress_percentiles.items()
    }
    assert summaries[0]["progress_percentiles"] == direct_percentiles
    assert done["summary"]["fleet"]["n_devices"] == spec.n_devices

    _, warm_lines = _run_job(service, FLEET_PAYLOAD)
    assert warm_lines == lines


# -- protocol-level checks -----------------------------------------------------


def test_result_stream_is_ordered_jsonl(service):
    _, lines = _run_job(service, GRID_PAYLOAD)
    task_lines = [line for line in lines if line["type"] == "task"]
    assert [line["index"] for line in task_lines] == list(
        range(len(task_lines))
    )
    assert lines[-1]["type"] == "end"
    assert lines[-1]["count"] == len(task_lines)


def test_health_and_cache_info_routes(service):
    health = http_health(service.base_url)
    assert health["status"] == "ok"
    assert health["capacity"] >= 1

    _run_job(service, GRID_PAYLOAD)
    info = http_cache_info(service.base_url)
    assert info["sharded"] is True
    assert info["entries"] == info["shards"]["fixed"]
    assert set(info["shards"]) == {
        "fixed",
        "executive",
        "resilience",
        "fleet",
    }


def test_malformed_campaigns_rejected_without_job(service):
    for bad in (
        {"kind": "unknown"},
        {"kind": "grid"},
        {"kind": "grid", "grid": {"kernels": ["median"]}, "tasks": []},
        {"kind": "grid", "grid": {"kernelz": ["median"]}},
        {"kind": "executive", "tasks": []},
        {"kind": "resilience"},
        {"kind": "fleet", "fleet": {"n_devicez": 2}},
        {"kind": "grid", "grid": {"kernels": ["median"]}, "engine": "warp"},
        {"kind": "grid", "grid": {"kernels": ["median"]}, "engine": "fast"},
    ):
        with pytest.raises(RuntimeError, match="HTTP 400"):
            http_submit(service.base_url, bad)
    health = http_health(service.base_url)
    assert health["jobs"] == 0


def test_unknown_job_and_results_before_done(service):
    with pytest.raises(RuntimeError, match="HTTP 404"):
        http_results(service.base_url, "job-999999")
