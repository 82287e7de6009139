"""Long-polls wait on the event loop, not on its pool threads.

``GET /jobs/<id>?wait=S`` once blocked a default-executor thread for up
to ``S`` seconds, and ``POST /jobs``, ``/metrics`` and ``/cache`` run on
that same pool: one more pending poll than the pool has threads held
every submission until a poll ended. A poll now registers a callback
that the job's completion runs through ``call_soon_threadsafe``.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.analysis import engine, telemetry
from repro.errors import JobCancelledError
from repro.service import http_metrics, http_submit, start_in_thread
from repro.service import queue as service_queue

pytestmark = pytest.mark.service

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")

#: The default executor's size, ``ThreadPoolExecutor``'s own default.
POOL_THREADS = min(32, (os.cpu_count() or 1) + 4)

GRID = {
    "kind": "grid",
    "grid": {"kernels": ["median"], "bits": [3], "profile_ids": [1], "duration_s": 0.4},
}


@pytest.fixture(autouse=True)
def _fresh_engine():
    engine.reset()
    telemetry.reset()
    yield
    telemetry.reset()
    engine.reset()


@pytest.fixture
def gate(monkeypatch):
    """Jobs block in ``execute_campaign`` until ``gate.release`` is set
    (a cancel, as a drain overrun sends, raises instead)."""

    class Gate:
        started = threading.Event()
        release = threading.Event()

    def _gated_execute(campaign, cancel_event=None):
        Gate.started.set()
        deadline = time.monotonic() + 60.0
        while not Gate.release.wait(0.01):
            if cancel_event is not None and cancel_event.is_set():
                raise JobCancelledError("cancelled")
            if time.monotonic() > deadline:
                raise RuntimeError("gate never released")
        return [], {}

    monkeypatch.setattr(service_queue, "execute_campaign", _gated_execute)
    yield Gate
    Gate.release.set()


def _poll(base_url, job_id, wait_s, answers):
    """``GET /jobs/<id>?wait=`` on a fresh connection; appends the
    job document, or the exception that ended the request."""
    url = f"{base_url}/jobs/{job_id}?wait={wait_s:g}"
    try:
        with urllib.request.urlopen(url, timeout=wait_s + 30) as response:
            answers.append(json.loads(response.read()))
    except OSError as exc:  # URLError and dropped connections included
        answers.append(exc)


def _start_polls(base_url, job_id, count, wait_s):
    answers = []
    threads = [
        threading.Thread(target=_poll, args=(base_url, job_id, wait_s, answers))
        for _ in range(count)
    ]
    for thread in threads:
        thread.start()
    return threads, answers


def _await_waiters(job, count, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while len(job._done_callbacks) < count:
        assert time.monotonic() < deadline, "polls never registered"
        time.sleep(0.01)


def test_polls_beyond_the_pool_leave_submit_and_scrape_responsive(tmp_path, gate):
    n_polls = POOL_THREADS + 1
    with start_in_thread(tmp_path / "cache", workers=1) as handle:
        job = http_submit(handle.base_url, GRID)
        assert gate.started.wait(timeout=30)
        threads, answers = _start_polls(handle.base_url, job["id"], n_polls, 15.0)
        _await_waiters(handle.service.queue.get(job["id"]), n_polls)

        start = time.monotonic()
        http_submit(handle.base_url, {**GRID, "engine": "reference"})
        submit_s = time.monotonic() - start
        start = time.monotonic()
        http_metrics(handle.base_url)
        scrape_s = time.monotonic() - start

        gate.release.set()
        for thread in threads:
            thread.join(timeout=30)
    assert submit_s < 2.0
    assert scrape_s < 2.0
    assert [doc["status"] for doc in answers] == ["done"] * n_polls


def test_timed_out_polls_leave_no_waiters(tmp_path, gate):
    with start_in_thread(tmp_path / "cache", workers=1) as handle:
        job = http_submit(handle.base_url, GRID)
        assert gate.started.wait(timeout=30)
        for _ in range(3):
            threads, answers = _start_polls(handle.base_url, job["id"], 4, 0.05)
            for thread in threads:
                thread.join(timeout=30)
            assert [doc["status"] for doc in answers] == ["running"] * 4
        queued = handle.service.queue.get(job["id"])
        assert queued._done_callbacks == []
        gate.release.set()
        assert queued.done_event.wait(timeout=30)
        # A poll of a finished job answers at once and registers nothing.
        start = time.monotonic()
        threads, answers = _start_polls(handle.base_url, job["id"], 1, 30.0)
        threads[0].join(timeout=30)
        assert time.monotonic() - start < 2.0
        assert answers[0]["status"] == "done"
        assert queued._done_callbacks == []


@pytest.mark.parametrize("overrun", [False, True], ids=["finishes", "overruns"])
def test_drain_with_polls_pending(tmp_path, gate, overrun):
    """A drain answers pending polls as it did when they held pool
    threads: a job that finishes wakes them at once, and a job the
    drain requeues leaves them to time out on the requeued state."""
    handle = start_in_thread(
        tmp_path / "cache", workers=1, drain_timeout_s=0.2 if overrun else 30.0
    )
    try:
        job = http_submit(handle.base_url, GRID)
        assert gate.started.wait(timeout=30)
        threads, answers = _start_polls(handle.base_url, job["id"], 2, 3.0)
        queued = handle.service.queue.get(job["id"])
        _await_waiters(queued, 2)
        request = urllib.request.Request(f"{handle.base_url}/", method="DELETE")
        with urllib.request.urlopen(request, timeout=10) as response:
            assert json.loads(response.read())["draining"] is True
        if not overrun:
            gate.release.set()
        for thread in threads:
            thread.join(timeout=30)
        expected = "requeued" if overrun else "done"
        assert [doc["status"] for doc in answers] == [expected] * 2
        assert queued._done_callbacks == []
    finally:
        handle.close()
    assert handle.service.queue.counts()[expected] == 1


def test_sigterm_with_polls_pending_drains_and_exits(tmp_path):
    """SIGTERM drains a server whose only job is long-polled; the
    process exits without waiting out the polls."""
    env = dict(os.environ, PYTHONPATH=REPO_SRC, PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--cache-dir", str(tmp_path / "cache"),
            "--journal", str(tmp_path / "journal.jsonl"),
            "--queue-workers", "1", "--drain-timeout", "0.2",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
    )
    try:
        banner = proc.stdout.readline()
        base_url = banner.split(" on ", 1)[1].split(" ", 1)[0]
        # Reference-loop replay of 10 s traces: seconds of work,
        # cancelled between tasks by the drain.
        slow = {
            "kind": "grid",
            "engine": "reference",
            "grid": {"bits": [3, 4, 5, 6], "profile_ids": [1, 2, 3], "duration_s": 10.0},
        }
        job = http_submit(base_url, slow)
        deadline = time.monotonic() + 60
        while True:
            with urllib.request.urlopen(f"{base_url}/jobs/{job['id']}") as response:
                if json.loads(response.read())["status"] == "running":
                    break
            assert time.monotonic() < deadline
            time.sleep(0.01)
        threads, answers = _start_polls(base_url, job["id"], 2, 60.0)
        time.sleep(0.5)  # let both polls reach the server
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0
    assert "drained:" in out and "requeued=1" in out
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
