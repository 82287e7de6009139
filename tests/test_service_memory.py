"""A long-running service keeps its memory flat in request count.

The campaign queue keeps only the newest finished jobs and the engine's
trace memo holds a byte budget of traces, so after a warm-up every
request frees about what it allocates. The soak test drives an
in-process service with the mix the benchmark sends (two clients, one
fresh campaign in eleven) under bounds patched down so that they bind
within a few hundred requests, and checks the slope of the traced
heap, not one reading. Without the bounds the heap grows about 17 KB
per request: the jobs' result lines and state, and two re-rolled traces
per fresh campaign.
"""

import gc
import threading
import time
import tracemalloc

import pytest

from repro.analysis import engine, telemetry
from repro.errors import JobCancelledError
from repro.service import (
    http_metrics,
    http_results,
    http_submit,
    http_wait,
    protocol,
    start_in_thread,
)
from repro.service import queue as service_queue
from repro.service.queue import CampaignQueue

pytestmark = pytest.mark.service

CAPACITY = 8
MAX_JOBS = 16
MEMO_BYTES = 256 * 1024
COLD_EVERY = 11
#: Traced-heap growth allowed per request between the two readings.
MAX_GROWTH_PER_REQUEST = 1024


@pytest.fixture(autouse=True)
def _fresh_engine():
    engine.reset()
    telemetry.reset()
    yield
    telemetry.reset()
    engine.reset()


def _campaign(i, seed=None):
    """Two bit levels on one 0.5 s profile; ``seed`` re-rolls the traces."""
    grid = {
        "kernels": ["median"],
        "bits": sorted({3 + i % 6, 3 + (i + 2) % 6}),
        "profile_ids": [1 + i % 2],
        "duration_s": 0.5,
    }
    if seed is not None:
        grid["seed"] = seed
    return {"kind": "grid", "grid": grid}


WARM = [_campaign(i) for i in range(4)]


def _request(base_url, payload):
    job = http_submit(base_url, payload)
    done = http_wait(base_url, job["id"], timeout=120.0)
    assert done["status"] == "done", done
    assert http_results(base_url, job["id"])[-1]["type"] == "end"


def _drive(base_url, start, stop):
    """Requests ``start`` to ``stop`` from two client threads; every
    ``COLD_EVERY``-th is a campaign on traces no one has run."""
    errors = []

    def client(parity):
        try:
            for n in range(start + parity, stop, 2):
                if n % COLD_EVERY == COLD_EVERY - 1:
                    _request(base_url, _campaign(n, seed=n))
                else:
                    _request(base_url, WARM[n % len(WARM)])
        except Exception as exc:  # re-raised on the test thread
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(p,)) for p in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300.0)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors


def _traced_bytes():
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def test_memory_is_flat_in_request_count(tmp_path, monkeypatch):
    # The bounds under test, patched down to bind within the run. The
    # run history and the cache's hot tier have byte budgets of their
    # own; the history is patched down and the hot tier is off, so that
    # neither shows as growth while it fills.
    monkeypatch.setattr(service_queue, "MAX_FINISHED_JOBS", MAX_JOBS)
    monkeypatch.setattr(engine.TRACE_MEMO, "budget", MEMO_BYTES)
    monkeypatch.setattr(telemetry, "HISTORY_LIMIT", 16)
    handle = start_in_thread(
        tmp_path / "cache",
        capacity=CAPACITY,
        hot_bytes=0,
        journal=tmp_path / "journal.jsonl",
    )
    tracemalloc.start()
    try:
        _drive(handle.base_url, 0, 100)
        at_100 = _traced_bytes()
        _drive(handle.base_url, 100, 300)
        at_300 = _traced_bytes()
        queue = handle.service.queue
        assert len(queue) <= MAX_JOBS + CAPACITY
        assert queue.retained() == MAX_JOBS
        assert queue.forgotten == 300 - MAX_JOBS
        assert engine.TRACE_MEMO.charge <= MEMO_BYTES
        metrics = http_metrics(handle.base_url)
    finally:
        tracemalloc.stop()
        handle.close()
    growth = (at_300 - at_100) / 200
    assert growth < MAX_GROWTH_PER_REQUEST, (
        f"traced heap grew {growth:.0f} B per request "
        f"({at_100} B at request 100, {at_300} B at request 300)"
    )
    assert f"repro_service_jobs_retained {MAX_JOBS}" in metrics
    assert f"repro_service_jobs_forgotten_total {300 - MAX_JOBS}" in metrics
    entries = len(engine.TRACE_MEMO)
    assert 0 < entries
    assert f"repro_engine_trace_memo_entries {entries}" in metrics
    assert (
        f"repro_engine_trace_memo_bytes {engine.TRACE_MEMO.charge}" in metrics
    )


# -- what the queue keeps and forgets -------------------------------------------


def _blocking_execute(started):
    """An ``execute_campaign`` stand-in that runs until cancelled."""

    def execute(campaign, cancel_event=None):
        started.set()
        if cancel_event is not None and cancel_event.wait(timeout=60.0):
            raise JobCancelledError("cancelled")
        return [], {}

    return execute


def test_a_forgotten_job_answers_404_and_resubmits_warm(tmp_path, monkeypatch):
    """Past the bound the oldest finished job is forgotten: every route
    answers 404 for it, like an unknown id, and resubmitting its
    campaign is served from the cache with the same entries."""
    monkeypatch.setattr(service_queue, "MAX_FINISHED_JOBS", 2)
    with start_in_thread(tmp_path / "cache") as handle:
        url = handle.base_url
        first = http_submit(url, WARM[0])
        http_wait(url, first["id"], timeout=120.0)
        entries = http_results(url, first["id"])
        for payload in WARM[1:3]:
            _request(url, payload)
        for method, tail in (
            ("GET", ""), ("GET", "/results"), ("GET", "/runtable.csv"),
            ("DELETE", ""),
        ):
            status, _, _ = protocol._request(
                method, f"{url}/jobs/{first['id']}{tail}"
            )
            assert status == 404, (method, tail)
        held = [job.id for job in handle.service.queue.jobs()]
        assert first["id"] not in held and len(held) == 2
        again = http_submit(url, WARM[0])
        done = http_wait(url, again["id"], timeout=120.0)
        assert done["telemetry"]["computed"] == 0
        assert done["telemetry"]["cache_hits"] == 2
        assert http_results(url, again["id"]) == entries


def test_the_newest_finished_job_stays_whatever_its_size(monkeypatch):
    monkeypatch.setattr(service_queue, "MAX_FINISHED_BYTES", 1)
    monkeypatch.setattr(
        service_queue,
        "execute_campaign",
        lambda campaign, cancel_event=None: (["x" * 100], {}),
    )
    queue = CampaignQueue(capacity=4, workers=1)
    try:
        jobs = []
        for payload in WARM[:3]:
            job, _ = queue.submit(payload)
            assert job.done_event.wait(timeout=30.0)
            jobs.append(job)
        assert queue.retained() == 1
        assert queue.forgotten == 2
        assert [queue.get(job.id) for job in jobs] == [None, None, jobs[2]]
        assert jobs[2].result_lines == ["x" * 100]
    finally:
        assert queue.close() == []


def test_cancel_and_close_retire_jobs_through_the_bound(monkeypatch):
    """A cancel while queued and the close sweep end jobs like a worker
    does: each is recorded as finished, and the oldest beyond the bound
    is forgotten."""
    monkeypatch.setattr(service_queue, "MAX_FINISHED_JOBS", 1)
    started = threading.Event()
    monkeypatch.setattr(
        service_queue, "execute_campaign", _blocking_execute(started)
    )
    queue = CampaignQueue(capacity=8, workers=1)
    running = queue.submit(WARM[0])[0]
    assert started.wait(timeout=30.0)
    queued = [queue.submit(payload)[0] for payload in WARM[1:4]]
    queue.cancel(queued[0].id)
    assert queue.retained() == 1 and queue.forgotten == 0
    queue.cancel(queued[1].id)
    assert queue.get(queued[0].id) is None
    assert queue.forgotten == 1
    assert queue.close() == []
    assert running.status == "cancelled" and queued[2].status == "cancelled"
    assert queue.forgotten == 3
    assert [job.id for job in queue.jobs()] == [queued[2].id]


def test_the_drain_sweep_retires_requeued_jobs(monkeypatch):
    started = threading.Event()
    monkeypatch.setattr(
        service_queue, "execute_campaign", _blocking_execute(started)
    )
    queue = CampaignQueue(capacity=8, workers=1)
    running = queue.submit(WARM[0])[0]
    assert started.wait(timeout=30.0)
    queued = queue.submit(WARM[1])[0]
    counts = queue.drain(timeout_s=0.0)
    assert counts["requeued"] == 2
    assert running.status == queued.status == "requeued"
    assert queue.retained() == 2


def test_a_flight_lock_is_dropped_once_no_job_holds_it(monkeypatch):
    started = threading.Event()
    monkeypatch.setattr(
        service_queue, "execute_campaign", _blocking_execute(started)
    )
    queue = CampaignQueue(capacity=8, workers=2)
    try:
        first = queue.submit(WARM[0])[0]
        assert started.wait(timeout=30.0)
        second = queue.submit(WARM[0])[0]
        deadline = time.monotonic() + 30.0
        while queue._flights[first.signature][1] < 2:  # second awaits it
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert second.status == "running"
        assert list(queue._flights) == [first.signature]
    finally:
        assert queue.close() == []
    assert queue._flights == {}
