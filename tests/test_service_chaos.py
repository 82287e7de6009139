"""Chaos suite: kill the campaign service and prove nothing is lost.

The paper's devices survive arbitrary power failure because every
commit point lives in NVM and restore is a guarded fallback chain.
This suite applies the same standard to the serving layer:

* a real server subprocess SIGKILLed mid-campaign and restarted on
  the same journal + cache directories finishes every job it had
  accepted, and the streamed payloads are byte-identical to an
  uninterrupted direct run — with zero quarantined cache entries;
* a journal with a torn final line and a corrupt-CRC line still
  recovers, with the damage skipped-and-counted in ``/healthz`` and
  ``/metrics`` exactly like cache quarantines;
* resubmitting a campaign after a crash lands on the recovered job
  (content-hash idempotency), never a duplicate;
* seeded :class:`~repro.analysis.faults.FaultPlan` worker crashes
  compose with journal recovery — a recovered job that then hits
  injected faults retries to the same bit-exact payload;
* graceful drain (``DELETE /``) refuses new work with 503 +
  ``Retry-After``, finishes running jobs, requeues the remainder
  durably, and a restart completes them;
* cancelling a *running* job over HTTP reaches the engine's cancel
  scope and the cancellation is journaled;
* the retrying client backs off exponentially with jitter and honours
  ``Retry-After``.
"""

import base64
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.analysis import engine, faults, telemetry
from repro.analysis.engine import GridSpec, fixed_entry_bytes, run_grid
from repro.errors import JobCancelledError, ServiceDrainingError
from repro.service import (
    http_cache_info,
    http_health,
    http_metrics,
    http_results,
    http_submit,
    http_wait,
    start_in_thread,
)
from repro.service import protocol as service_protocol
from repro.service import queue as service_queue
from repro.service.journal import (
    JobJournal,
    decode_record,
    encode_record,
)
from repro.service.protocol import (
    MAX_BACKOFF_S,
    _backoff_delay,
    _retrying_request,
    parse_campaign,
)
from repro.service.queue import CampaignQueue

pytestmark = pytest.mark.chaos

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True)
def _fresh_engine():
    engine.reset()
    telemetry.reset()
    faults.clear()
    yield
    faults.clear()
    telemetry.reset()
    engine.reset()


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


def _expected_entries(tmp_path, bits, profile_ids=(1,)):
    """Bit-exact cache entries from an uninterrupted direct run."""
    spec = GridSpec(
        kernels=("median",),
        bits=tuple(bits),
        profile_ids=tuple(profile_ids),
        duration_s=0.4,
    )
    baseline = run_grid(
        spec.tasks(),
        engine="auto",
        cache=engine.ResultCache(tmp_path / "baseline-cache"),
    )
    return {
        f"{task.cache_key()}.npz": fixed_entry_bytes(result)
        for task, result in baseline
    }


def _result_entries(base_url, job_id):
    return {
        line["name"]: base64.b64decode(line["entry"])
        for line in http_results(base_url, job_id)
        if line["type"] == "task"
    }


# -- subprocess server --------------------------------------------------------


_BANNER_RE = re.compile(r"http://127\.0\.0\.1:(\d+)")


def _spawn_server(tmp_path, queue_workers=1, drain_timeout=5.0):
    """Launch ``repro.cli serve`` on an OS-assigned port; parse the banner."""
    env = dict(os.environ, PYTHONPATH=REPO_SRC, PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--journal",
            str(tmp_path / "journal.jsonl"),
            "--queue-workers",
            str(queue_workers),
            "--drain-timeout",
            str(drain_timeout),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
    )
    banner = proc.stdout.readline()
    match = _BANNER_RE.search(banner)
    if not match:
        _kill_server(proc)
        pytest.fail(f"serve banner missing port: {banner!r}")
    return proc, f"http://127.0.0.1:{match.group(1)}"


def _kill_server(proc):
    proc.kill()
    proc.wait()
    proc.stdout.close()


def _poll_status(base_url, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with urllib.request.urlopen(
            f"{base_url}/jobs/{job_id}", timeout=10
        ) as response:
            doc = json.loads(response.read())
        yield doc
        time.sleep(0.01)
    raise TimeoutError(f"job {job_id} did not reach the awaited state")


def test_sigkill_midjob_restart_completes_byte_identical(tmp_path):
    """The tentpole: SIGKILL mid-campaign, restart, nothing lost."""
    expected = {
        "job-000001": _expected_entries(tmp_path, bits=(3, 5, 8)),
        "job-000002": _expected_entries(tmp_path, bits=(4, 6)),
        "job-000003": _expected_entries(tmp_path, bits=(7,)),
    }
    payloads = [
        _grid_payload(bits=(3, 5, 8)),
        _grid_payload(bits=(4, 6)),
        _grid_payload(bits=(7,)),
    ]

    proc, base_url = _spawn_server(tmp_path, queue_workers=1)
    try:
        ids = [http_submit(base_url, p)["id"] for p in payloads]
        assert ids == sorted(expected)
        # Wait until the first job is actually running, then pull the
        # plug — the two behind it are still queued in the journal.
        for doc in _poll_status(base_url, ids[0]):
            if doc["status"] in ("running", "done"):
                break
    finally:
        _kill_server(proc)

    proc, base_url = _spawn_server(tmp_path, queue_workers=1)
    try:
        for job_id in ids:
            done = http_wait(base_url, job_id, timeout=300, retries=2)
            assert done["status"] == "done", done
            assert _result_entries(base_url, job_id) == expected[job_id]
        health = http_health(base_url)
        assert health["journal"]["recovered"] >= 1
        assert health["journal"]["recover_failed"] == 0
        # At most the record being written at SIGKILL time may be torn.
        assert health["journal"]["skipped_torn"] <= 1
        assert health["journal"]["skipped_corrupt"] == 0
        assert http_cache_info(base_url)["quarantined"] == 0
    finally:
        _kill_server(proc)


def test_sigterm_drains_and_exits_cleanly(tmp_path):
    proc, base_url = _spawn_server(tmp_path, queue_workers=1)
    job = http_submit(base_url, _grid_payload(bits=(3,)))
    done = http_wait(base_url, job["id"], timeout=300)
    assert done["status"] == "done"
    proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert "draining campaign service" in out
    assert "drained:" in out


# -- journal damage -----------------------------------------------------------


def _seed_journal(path, payloads, start_event=False):
    """Hand-write submission records as a crashed server would have."""
    journal = JobJournal(path)
    jobs = []
    for index, payload in enumerate(payloads, start=1):
        campaign = parse_campaign(payload)
        job_id = f"job-{index:06d}"
        journal.append(
            "submitted",
            job_id,
            signature=campaign.signature(),
            payload=campaign.payload,
        )
        if start_event:
            journal.append("started", job_id)
        jobs.append(job_id)
    journal.close()
    return jobs


def test_torn_and_corrupt_lines_recover_with_skips(tmp_path):
    journal_path = tmp_path / "journal.jsonl"
    jobs = _seed_journal(
        journal_path,
        [_grid_payload(bits=(3,)), _grid_payload(bits=(4,))],
    )
    with open(journal_path, "ab") as handle:
        # A record whose guard no longer matches its payload (bit rot).
        handle.write(
            b"00000000 "
            + json.dumps({"event": "started", "job": jobs[0]}).encode()
            + b"\n"
        )
        # The write the power cut interrupted: no newline, half a record.
        handle.write(b'deadbeef {"event":"subm')

    handle = start_in_thread(
        tmp_path / "cache", capacity=8, workers=1, journal=str(journal_path)
    )
    try:
        for job_id in jobs:
            done = http_wait(handle.base_url, job_id, timeout=300)
            assert done["status"] == "done"
            assert done["recovered"] is True
        stats = http_health(handle.base_url)["journal"]
        assert stats["recovered"] == 2
        assert stats["skipped_torn"] == 1
        assert stats["skipped_corrupt"] == 1
        assert stats["recover_failed"] == 0
        text = http_metrics(handle.base_url)
        assert "repro_journal_skipped_torn_total 1" in text
        assert "repro_journal_skipped_corrupt_total 1" in text
        assert "repro_journal_recovered_total 2" in text
    finally:
        handle.close()


def test_resubmission_after_crash_lands_on_recovered_job(tmp_path, monkeypatch):
    payload = _grid_payload(bits=(3, 5))
    journal_path = tmp_path / "journal.jsonl"
    (job_id,) = _seed_journal(journal_path, [payload], start_event=True)

    # Dedup applies only to *active* jobs: hold the recovered job until
    # the resubmission is acknowledged, or a fast run could finish it
    # first and the resubmission would rightly get a fresh job.
    acknowledged = threading.Event()
    real_execute = service_queue.execute_campaign

    def _gated_execute(campaign, cancel_event=None):
        acknowledged.wait(timeout=60.0)
        return real_execute(campaign, cancel_event=cancel_event)

    monkeypatch.setattr(service_queue, "execute_campaign", _gated_execute)
    handle = start_in_thread(
        tmp_path / "cache", capacity=8, workers=1, journal=str(journal_path)
    )
    try:
        # A client that never heard its submission acknowledged
        # resubmits blindly; the content hash routes it to the
        # journal-recovered job instead of a duplicate.
        job = http_submit(handle.base_url, payload)
        acknowledged.set()
        assert job["id"] == job_id
        assert job["recovered"] is True
        assert job.get("deduplicated") is True
        done = http_wait(handle.base_url, job_id, timeout=300)
        assert done["status"] == "done"
    finally:
        acknowledged.set()
        handle.close()


def test_faultplan_crashes_compose_with_recovery(tmp_path):
    """A recovered job that then hits injected faults still converges."""
    bits, profile_ids = (3, 8), (1, 2)
    expected = _expected_entries(tmp_path, bits=bits, profile_ids=profile_ids)
    journal_path = tmp_path / "journal.jsonl"
    (job_id,) = _seed_journal(
        journal_path,
        [_grid_payload(bits=bits, profile_ids=profile_ids)],
        start_event=True,
    )

    plan = faults.FaultPlan.seeded(
        11, n_tasks=len(expected), crashes=1, corrupts=1, scope="fixed"
    )
    with faults.injected(plan):
        handle = start_in_thread(
            tmp_path / "cache",
            capacity=8,
            workers=1,
            journal=str(journal_path),
        )
        try:
            done = http_wait(handle.base_url, job_id, timeout=300)
            assert done["status"] == "done"
            assert done["recovered"] is True
            report = done["telemetry"]
            assert report["crashes"] == 1
            assert report["corrupt_payloads"] == 1
            assert report["retries"] == len(plan)
            assert _result_entries(handle.base_url, job_id) == expected
            assert http_cache_info(handle.base_url)["quarantined"] == 0
        finally:
            handle.close()


# -- journal unit behaviour ---------------------------------------------------


def test_journal_record_round_trip():
    record = {
        "event": "submitted",
        "job": "job-000007",
        "signature": "ab" * 32,
        "payload": {"kind": "grid"},
        "ts": 12.5,
    }
    line = encode_record(record)
    assert line.endswith(b"\n")
    assert decode_record(line.rstrip(b"\n")) == record


def test_journal_rejects_flipped_bit():
    line = encode_record({"event": "started", "job": "job-000001"}).rstrip(
        b"\n"
    )
    flipped = bytearray(line)
    flipped[-2] ^= 0x01
    with pytest.raises(ValueError, match="CRC"):
        decode_record(bytes(flipped))


def test_journal_replay_folds_history(tmp_path):
    journal = JobJournal(tmp_path / "j.jsonl")
    journal.append("submitted", "job-000001", signature="s", payload={})
    journal.append("started", "job-000001")
    journal.append("finished", "job-000001", status="done")
    journal.append("submitted", "job-000002", signature="s", payload={})
    journal.append("started", "job-000002")
    # job-000003's submission record was lost: orphaned, unrecoverable.
    journal.append("started", "job-000003")
    journal.close()

    replayer = JobJournal(tmp_path / "j.jsonl")
    pending, max_ordinal = replayer.replay()
    assert [record["job"] for record in pending] == ["job-000002"]
    assert max_ordinal == 3
    assert replayer.stats.completed == 1
    assert replayer.stats.recovered == 0  # queue-level counter
    assert replayer.stats.recover_failed == 1
    replayer.close()


def test_journal_fsync_disabled_still_round_trips(tmp_path):
    journal = JobJournal(tmp_path / "j.jsonl", fsync=False)
    journal.append("submitted", "job-000001", signature="s", payload={})
    journal.close()
    journal.append("started", "job-000001")  # closed: silently ignored
    replayer = JobJournal(tmp_path / "j.jsonl")
    pending, _ = replayer.replay()
    assert [record["job"] for record in pending] == ["job-000001"]
    replayer.close()


# -- graceful drain -----------------------------------------------------------


def test_drain_refuses_then_requeues_then_restart_completes(
    tmp_path, monkeypatch
):
    # Pin the interleaving: the first job is running (not still queued,
    # not already done) when the drain begins, and the second is queued.
    started = threading.Event()
    release = threading.Event()
    real_execute = service_queue.execute_campaign

    def _gated_execute(campaign, cancel_event=None):
        started.set()
        release.wait(timeout=60.0)
        return real_execute(campaign, cancel_event=cancel_event)

    monkeypatch.setattr(service_queue, "execute_campaign", _gated_execute)
    journal_path = tmp_path / "journal.jsonl"
    handle = start_in_thread(
        tmp_path / "cache",
        capacity=8,
        workers=1,
        journal=str(journal_path),
        drain_timeout_s=60.0,
    )
    try:
        finishing = http_submit(handle.base_url, _grid_payload(bits=(3, 5)))
        assert started.wait(timeout=30.0)
        stranded = http_submit(handle.base_url, _grid_payload(bits=(4, 6)))
        request = urllib.request.Request(
            f"{handle.base_url}/", method="DELETE"
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            doc = json.loads(response.read())
        release.set()
        assert doc["draining"] is True

        # While draining, submissions bounce with 503 + Retry-After.
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            body = json.dumps(_grid_payload(bits=(7,))).encode()
            urllib.request.urlopen(
                urllib.request.Request(
                    f"{handle.base_url}/jobs",
                    data=body,
                    headers={"Content-Type": "application/json"},
                ),
                timeout=10,
            )
        assert excinfo.value.code == 503
        assert int(excinfo.value.headers["Retry-After"]) >= 1
        assert json.loads(excinfo.value.read())["draining"] is True
    finally:
        release.set()
        handle.close()

    # The drain let the running job finish and durably requeued the
    # stranded one; a restart on the same journal completes it.
    states = {}
    for line in journal_path.read_bytes().splitlines():
        record = decode_record(line)
        states[record["job"]] = record["event"]
    assert states[finishing["id"]] == "finished"
    assert states[stranded["id"]] == "requeued"

    handle = start_in_thread(
        tmp_path / "cache", capacity=8, workers=1, journal=str(journal_path)
    )
    try:
        done = http_wait(handle.base_url, stranded["id"], timeout=300)
        assert done["status"] == "done"
        assert done["recovered"] is True
        # The job that finished before the restart stayed terminal in
        # the journal: the new queue never re-runs (or re-admits) it.
        with pytest.raises(RuntimeError, match="HTTP 404"):
            http_wait(handle.base_url, finishing["id"], timeout=10)
        assert http_health(handle.base_url)["journal"]["completed"] == 1
    finally:
        handle.close()


def test_drain_overrun_requeues_running_job(tmp_path, monkeypatch):
    """A job still running at the drain deadline is requeued, not lost."""
    release = threading.Event()

    def _blocking_execute(campaign, cancel_event=None):
        release.set()
        if cancel_event is not None and cancel_event.wait(timeout=60.0):
            raise JobCancelledError("cancelled by drain")
        return [], {}

    monkeypatch.setattr(
        service_queue, "execute_campaign", _blocking_execute
    )
    journal = JobJournal(tmp_path / "j.jsonl")
    queue = CampaignQueue(capacity=4, workers=1, journal=journal)
    job, created = queue.submit(_grid_payload(bits=(3,)))
    assert created
    assert release.wait(timeout=30.0)

    summary = queue.drain(timeout_s=0.2)
    assert summary["requeued"] == 1
    assert queue.get(job.id).status == "requeued"
    assert queue.close() == []  # drain already joined every worker

    replayer = JobJournal(tmp_path / "j.jsonl")
    pending, _ = replayer.replay()
    assert [record["job"] for record in pending] == [job.id]
    replayer.close()


def test_drain_then_submit_raises_at_queue_level(tmp_path):
    queue = CampaignQueue(capacity=4, workers=1)
    try:
        queue.drain(timeout_s=0.1)
        with pytest.raises(ServiceDrainingError):
            queue.submit(_grid_payload(bits=(3,)))
    finally:
        queue.close()


# -- cancelling a running job over HTTP ---------------------------------------


def test_cancel_running_job_over_http_is_journaled(tmp_path, monkeypatch):
    release = threading.Event()

    def _blocking_execute(campaign, cancel_event=None):
        release.set()
        if cancel_event is not None and cancel_event.wait(timeout=60.0):
            raise JobCancelledError("cancelled over HTTP")
        return [], {}

    monkeypatch.setattr(
        service_queue, "execute_campaign", _blocking_execute
    )
    journal_path = tmp_path / "journal.jsonl"
    handle = start_in_thread(
        tmp_path / "cache", capacity=8, workers=1, journal=str(journal_path)
    )
    try:
        job = http_submit(handle.base_url, _grid_payload(bits=(3,)))
        assert release.wait(timeout=30.0)
        for _ in range(200):
            if http_health(handle.base_url)["jobs_by_state"]["running"]:
                break
            time.sleep(0.01)
        request = urllib.request.Request(
            f"{handle.base_url}/jobs/{job['id']}", method="DELETE"
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            response.read()
        done = http_wait(handle.base_url, job["id"], timeout=60)
        assert done["status"] == "cancelled"
    finally:
        handle.close()

    events = [
        decode_record(line)
        for line in journal_path.read_bytes().splitlines()
    ]
    assert [record["event"] for record in events] == [
        "submitted",
        "started",
        "cancelled",
    ]


# -- capacity 503 carries Retry-After -----------------------------------------


def test_capacity_503_carries_retry_after(tmp_path, monkeypatch):
    hold = threading.Event()

    def _blocking_execute(campaign, cancel_event=None):
        hold.wait(timeout=60.0)
        return [], {}

    monkeypatch.setattr(
        service_queue, "execute_campaign", _blocking_execute
    )
    handle = start_in_thread(tmp_path / "cache", capacity=1, workers=1)
    try:
        http_submit(handle.base_url, _grid_payload(bits=(3,)))
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            body = json.dumps(_grid_payload(bits=(4,))).encode()
            urllib.request.urlopen(
                urllib.request.Request(
                    f"{handle.base_url}/jobs",
                    data=body,
                    headers={"Content-Type": "application/json"},
                ),
                timeout=10,
            )
        excinfo.value.close()  # the error holds the response's socket
        assert excinfo.value.code == 503
        assert excinfo.value.headers["Retry-After"] == "1"
    finally:
        hold.set()
        handle.close()


# -- retrying client ----------------------------------------------------------


def test_backoff_delay_is_exponential_with_bounded_jitter():
    rng = random.Random(7)
    for attempt in range(6):
        base = min(0.25 * (2 ** attempt), MAX_BACKOFF_S)
        for _ in range(20):
            delay = _backoff_delay(attempt, 0.25, None, rng)
            assert base / 2 <= delay <= base


def test_backoff_delay_honours_retry_after():
    rng = random.Random(7)
    # The server's hint floors the delay even on the first attempt.
    delay = _backoff_delay(0, 0.25, "4", rng)
    assert delay >= 2.0  # jitter lower bound of a 4s base
    # But never beyond the cap.
    delay = _backoff_delay(0, 0.25, "3600", rng)
    assert delay <= MAX_BACKOFF_S
    # Garbage hints fall back to the exponential schedule.
    delay = _backoff_delay(0, 0.25, "soon", rng)
    assert delay <= 0.25


def test_retrying_request_retries_503_then_succeeds(monkeypatch):
    calls = []
    sleeps = []

    def _fake_request(method, url, payload=None, timeout=30.0):
        calls.append(url)
        if len(calls) < 3:
            return 503, b'{"error": "draining"}', {"retry-after": "1"}
        return 200, b'{"ok": true}', {}

    monkeypatch.setattr(service_protocol, "_request", _fake_request)
    monkeypatch.setattr(
        service_protocol.time, "sleep", lambda s: sleeps.append(s)
    )
    status, body, _ = _retrying_request(
        "POST",
        "http://x/jobs",
        {"kind": "grid"},
        retries=3,
        backoff_s=0.25,
        rng=random.Random(3),
    )
    assert status == 200
    assert json.loads(body) == {"ok": True}
    assert len(calls) == 3
    # Both sleeps honoured the 1s Retry-After floor (pre-jitter base 1s).
    assert len(sleeps) == 2
    assert all(0.5 <= s <= 1.0 for s in sleeps)


def test_retrying_request_retries_connection_errors(monkeypatch):
    calls = []

    def _fake_request(method, url, payload=None, timeout=30.0):
        calls.append(url)
        if len(calls) < 2:
            raise urllib.error.URLError(ConnectionRefusedError())
        return 200, b"{}", {}

    monkeypatch.setattr(service_protocol, "_request", _fake_request)
    monkeypatch.setattr(service_protocol.time, "sleep", lambda s: None)
    status, _, _ = _retrying_request(
        "GET", "http://x/healthz", retries=2, rng=random.Random(1)
    )
    assert status == 200
    assert len(calls) == 2


def test_retrying_request_exhausts_budget(monkeypatch):
    def _always_refused(method, url, payload=None, timeout=30.0):
        raise urllib.error.URLError(ConnectionRefusedError())

    monkeypatch.setattr(service_protocol, "_request", _always_refused)
    monkeypatch.setattr(service_protocol.time, "sleep", lambda s: None)
    with pytest.raises(urllib.error.URLError):
        _retrying_request("GET", "http://x/healthz", retries=2)


def test_retrying_request_does_not_retry_client_errors(monkeypatch):
    calls = []

    def _bad_request(method, url, payload=None, timeout=30.0):
        calls.append(url)
        return 400, b'{"error": "bad campaign"}', {}

    monkeypatch.setattr(service_protocol, "_request", _bad_request)
    status, _, _ = _retrying_request("POST", "http://x/jobs", {}, retries=5)
    assert status == 400
    assert len(calls) == 1
