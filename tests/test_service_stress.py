"""Service stress suite: many clients, one shared sharded cache.

Hammers a live in-thread service with concurrent HTTP clients
submitting identical and overlapping campaigns, and asserts the
sharing invariants that make a shared cache worth having:

* no entry is ever quarantined by concurrent access;
* duplicate computation is bounded (identical campaigns singleflight
  to exactly one computation; overlapping campaigns can race a task at
  most once per concurrently-running job);
* warm repeats are served from the in-memory hot tier and show up in
  ``cache info``;
* a seeded worker crash mid-job retries inside the engine and the
  final streamed payload is bit-exact against a clean direct run.
"""

import base64
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.analysis import engine, faults, telemetry
from repro.analysis.engine import GridSpec, fixed_entry_bytes, run_grid
from repro.errors import JobCancelledError
from repro.service import queue as service_queue
from repro.service import (
    http_cache_info,
    http_health,
    http_metrics,
    http_results,
    http_submit,
    http_wait,
    start_in_thread,
)
from repro.service.queue import JOB_STATES, CampaignQueue

pytestmark = pytest.mark.service

N_CLIENTS = 6
QUEUE_WORKERS = 3


@pytest.fixture(autouse=True)
def _fresh_engine():
    engine.reset()
    telemetry.reset()
    faults.clear()
    yield
    faults.clear()
    telemetry.reset()
    engine.reset()


def _leaked_workers():
    return [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith("campaign-worker") and thread.is_alive()
    ]


@pytest.fixture
def service(tmp_path):
    handle = start_in_thread(
        tmp_path / "shared-cache", capacity=64, workers=QUEUE_WORKERS
    )
    try:
        yield handle
    finally:
        handle.close()
        # close() joins the worker pool; nothing may outlive it.
        assert _leaked_workers() == []


def _grid_payload(bits, profile_ids=(1,)):
    return {
        "kind": "grid",
        "grid": {
            "kernels": ["median"],
            "bits": list(bits),
            "profile_ids": list(profile_ids),
            "duration_s": 0.4,
        },
    }


def _submit_and_wait(handle, payload, timeout=300.0):
    job = http_submit(handle.base_url, payload)
    done = http_wait(handle.base_url, job["id"], timeout=timeout)
    assert done["status"] == "done", done.get("error", done)
    return done


def _fan_out(handle, payloads):
    """Submit every payload from its own client thread; wait for all."""
    with ThreadPoolExecutor(max_workers=len(payloads)) as pool:
        futures = [
            pool.submit(_submit_and_wait, handle, payload)
            for payload in payloads
        ]
        return [future.result() for future in futures]


def _computed(done_jobs):
    return sum(job["telemetry"]["computed"] for job in done_jobs)


def _cache_hits(done_jobs):
    return sum(job["telemetry"]["cache_hits"] for job in done_jobs)


# -- sharing invariants --------------------------------------------------------


def test_identical_concurrent_campaigns_compute_once(service):
    payload = _grid_payload(bits=(3, 5, 8), profile_ids=(1, 2))
    n_tasks = len(
        GridSpec(
            kernels=("median",),
            bits=(3, 5, 8),
            profile_ids=(1, 2),
            duration_s=0.4,
        ).tasks()
    )
    done = _fan_out(service, [payload] * N_CLIENTS)

    # Singleflight: exactly one job computed the campaign; every other
    # concurrent identical submission was served entirely from cache.
    assert _computed(done) == n_tasks
    assert _cache_hits(done) == (N_CLIENTS - 1) * n_tasks

    info = http_cache_info(service.base_url)
    assert info["quarantined"] == 0
    assert info["shards"]["fixed"] == n_tasks


def test_overlapping_campaigns_share_results_with_bounded_duplicates(
    service,
):
    # Four distinct campaigns over three distinct tasks (bits 3/6/8).
    payloads = [
        _grid_payload(bits=(3, 8)),
        _grid_payload(bits=(3, 6)),
        _grid_payload(bits=(6, 8)),
        _grid_payload(bits=(3, 6, 8)),
    ]
    distinct = 3
    done = _fan_out(service, payloads)

    total = _computed(done)
    assert total >= distinct
    # A task can be computed at most once per concurrently-running job
    # that contains it; the queue runs at most QUEUE_WORKERS at once.
    assert total <= distinct * QUEUE_WORKERS
    info = http_cache_info(service.base_url)
    assert info["quarantined"] == 0
    assert info["shards"]["fixed"] == distinct

    # Second wave: everything is already shared; nothing recomputes.
    warm = _fan_out(service, payloads)
    assert _computed(warm) == 0
    assert _cache_hits(warm) == sum(
        len(payload["grid"]["bits"]) for payload in payloads
    )


def test_warm_repeats_hit_the_hot_tier(service):
    payload = _grid_payload(bits=(3, 8))
    _submit_and_wait(service, payload)
    before = http_cache_info(service.base_url)

    done = _fan_out(service, [payload] * N_CLIENTS)
    assert _computed(done) == 0
    after = http_cache_info(service.base_url)
    assert after["hot_entries"] >= 1
    # Every warm hit was served by the in-memory tier, not a disk read.
    assert after["hot_hits"] - before["hot_hits"] >= N_CLIENTS * 2
    assert after["quarantined"] == 0


def test_mixed_tier_storm_keeps_shards_clean(service):
    payloads = [
        _grid_payload(bits=(3, 8)),
        _grid_payload(bits=(3, 8)),
        {
            "kind": "executive",
            "tasks": [
                {
                    "kernel": "median",
                    "policy": "linear",
                    "profile_id": 1,
                    "minbits": 2,
                    "duration_s": 0.4,
                    "frame_period_ticks": 1_500,
                }
            ],
        },
        {
            "kind": "resilience",
            "campaign": {
                "kernels": ["median"],
                "policies": ["linear"],
                "rates": [0.0],
                "duration_s": 0.4,
                "minbits": 2,
            },
        },
        {
            "kind": "fleet",
            "fleet": {"n_devices": 4, "seed": 3, "duration_s": 0.4},
        },
    ]
    done = _fan_out(service, payloads)
    assert all(job["status"] == "done" for job in done)

    info = http_cache_info(service.base_url)
    assert info["quarantined"] == 0
    assert info["shards"]["fixed"] == 2
    assert info["shards"]["executive"] == 1
    assert info["shards"]["resilience"] == 1
    assert info["shards"]["fleet"] == 4
    # The partition is real: shard counts add up to the whole store.
    assert info["entries"] == sum(info["shards"].values())


# -- fault injection through the service --------------------------------------


def test_injected_worker_crash_retries_to_bit_exact_payload(
    service, tmp_path
):
    spec = GridSpec(
        kernels=("median",), bits=(3, 8), profile_ids=(1, 2), duration_s=0.4
    )
    tasks = spec.tasks()
    baseline = run_grid(
        tasks, engine="auto", cache=engine.ResultCache(tmp_path / "direct")
    )
    expected = {
        f"{task.cache_key()}.npz": fixed_entry_bytes(result)
        for task, result in baseline
    }

    plan = faults.FaultPlan.seeded(
        11, n_tasks=len(tasks), crashes=1, corrupts=1, scope="fixed"
    )
    with faults.injected(plan):
        done = _submit_and_wait(
            service, _grid_payload(bits=(3, 8), profile_ids=(1, 2))
        )

    report = done["telemetry"]
    assert report["crashes"] == 1
    assert report["corrupt_payloads"] == 1
    assert report["retries"] == len(plan)
    assert report["computed"] == len(tasks)

    lines = http_results(service.base_url, done["id"])
    got = {
        line["name"]: base64.b64decode(line["entry"])
        for line in lines
        if line["type"] == "task"
    }
    assert got == expected
    assert http_cache_info(service.base_url)["quarantined"] == 0


# -- backpressure and cancellation ---------------------------------------------


def _slow_payload():
    return {
        "kind": "fleet",
        "fleet": {"n_devices": 12, "seed": 9, "duration_s": 0.5},
    }


def test_queue_at_capacity_refuses_with_503(tmp_path):
    handle = start_in_thread(tmp_path / "tiny", capacity=1, workers=1)
    try:
        first = http_submit(handle.base_url, _slow_payload())
        with pytest.raises(RuntimeError, match="HTTP 503"):
            http_submit(handle.base_url, _grid_payload(bits=(3,)))
        done = http_wait(handle.base_url, first["id"], timeout=300)
        assert done["status"] == "done"
        # Capacity freed: the next submission is admitted.
        again = http_submit(handle.base_url, _grid_payload(bits=(3,)))
        assert (
            http_wait(handle.base_url, again["id"], timeout=300)["status"]
            == "done"
        )
    finally:
        handle.close()


def test_queued_job_cancels_immediately(tmp_path):
    import urllib.request

    handle = start_in_thread(tmp_path / "single", capacity=8, workers=1)
    try:
        running = http_submit(handle.base_url, _slow_payload())
        queued = http_submit(handle.base_url, _grid_payload(bits=(3,)))
        request = urllib.request.Request(
            f"{handle.base_url}/jobs/{queued['id']}", method="DELETE"
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            response.read()
        cancelled = http_wait(handle.base_url, queued["id"], timeout=60)
        assert cancelled["status"] == "cancelled"
        assert (
            http_wait(handle.base_url, running["id"], timeout=300)["status"]
            == "done"
        )
    finally:
        handle.close()


def test_close_mid_job_cancels_and_joins_workers(tmp_path):
    """close() must not abandon daemon threads mid-job: it cancels the
    running campaign through the engine's cancel scope and joins every
    worker before returning."""
    handle = start_in_thread(tmp_path / "midjob", capacity=8, workers=2)
    running = http_submit(handle.base_url, _slow_payload())
    queued = http_submit(handle.base_url, _grid_payload(bits=(3,)))
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if http_health(handle.base_url)["jobs_by_state"]["running"]:
            break
        time.sleep(0.01)
    handle.close()
    assert _leaked_workers() == []
    # Neither job was left in an active state by the shutdown.
    for job in (running, queued):
        doc = handle.service.queue.get(job["id"])
        assert doc is not None
        assert doc.status in ("done", "cancelled")


def test_counts_tally_every_job_in_every_state(monkeypatch):
    """``counts()`` and ``len()`` (what ``/healthz`` and ``/metrics``
    read) agree with a tally of the sorted ``jobs()`` listing."""
    started = threading.Event()

    def _blocking_execute(campaign, cancel_event=None):
        started.set()
        if cancel_event is not None and cancel_event.wait(timeout=60.0):
            raise JobCancelledError("cancelled by close")
        return [], {}

    monkeypatch.setattr(service_queue, "execute_campaign", _blocking_execute)
    queue = CampaignQueue(capacity=16, workers=1)
    try:
        jobs = [queue.submit(_grid_payload(bits=(bits,)))[0] for bits in range(1, 8)]
        assert started.wait(timeout=30.0)  # jobs[0] runs, jobs[1] stays queued
        for job, status in zip(
            jobs[2:], ("done", "failed", "cancelled", "requeued", "done")
        ):
            job.status = status
        tally = dict.fromkeys(JOB_STATES, 0)
        for job in queue.jobs():
            tally[job.status] += 1
        assert queue.counts() == tally
        assert tally["running"] == tally["queued"] == 1
        assert len(queue) == len(queue.jobs()) == len(jobs)
    finally:
        assert queue.close() == []


def test_admission_visits_only_live_jobs(monkeypatch):
    """``submit`` checks capacity against the queued and running jobs
    it tracks; finished jobs leave that set, so admission does not slow
    down with uptime, and a capacity-2 queue keeps admitting after 40
    finished jobs."""
    monkeypatch.setattr(
        service_queue, "execute_campaign", lambda campaign, cancel_event=None: ([], {})
    )
    queue = CampaignQueue(capacity=2, workers=1)
    try:
        for _ in range(40):
            job, created = queue.submit(_grid_payload(bits=(3,)))
            assert created
            assert job.done_event.wait(timeout=30.0)
        assert queue.counts()["done"] == 40
        job, created = queue.submit(_grid_payload(bits=(3,)))
        assert created
        assert list(queue._live) == [job.id]
        assert job.done_event.wait(timeout=30.0)
    finally:
        assert queue.close() == []


@pytest.mark.parametrize("scrape", [http_metrics, http_cache_info])
def test_scrapes_do_not_stall_the_event_loop(service, monkeypatch, scrape):
    """``/metrics`` and ``/cache`` walk the whole cache through
    ``cache.info``; that walk runs on a pool thread, so a slow scrape
    never delays another client's request."""
    cache = service.service.cache
    real_info = cache.info
    scraping = threading.Event()

    def _slow_info():
        scraping.set()
        time.sleep(0.3)
        return real_info()

    monkeypatch.setattr(cache, "info", _slow_info)
    with ThreadPoolExecutor(max_workers=1) as pool:
        pending = pool.submit(scrape, service.base_url)
        assert scraping.wait(timeout=10.0)
        t0 = time.perf_counter()
        assert http_health(service.base_url)["status"] == "ok"
        elapsed = time.perf_counter() - t0
        assert pending.result(timeout=10.0)
    assert elapsed < 0.15
