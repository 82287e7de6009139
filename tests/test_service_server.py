"""The HTTP server's read deadline, response writes and held bytes.

One deadline per request covers its head and body: when it expires the
server aborts the connection, so a client that stalls inside a request
is disconnected like an idle one. A response whose body fits in 64 KB
goes out in one write with its head. A run-table CSV that a finished
job memoises counts against the queue's byte bound like its result
lines.
"""

import asyncio
import socket
import time

import pytest

from repro.analysis import engine, telemetry
from repro.analysis.engine import ShardedResultCache
from repro.service import (
    app,
    http_health,
    http_submit,
    http_wait,
    protocol,
    start_in_thread,
)
from repro.service import queue as service_queue

pytestmark = pytest.mark.service


def _grid(bits):
    return {
        "kind": "grid",
        "grid": {
            "kernels": ["median"],
            "bits": list(bits),
            "profile_ids": [1],
            "duration_s": 0.4,
        },
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
    handle = start_in_thread(tmp_path / "cache", workers=1)
    try:
        yield handle
    finally:
        handle.close()


def _disconnected_after(port, sent, timeout_s=20.0):
    """Send ``sent`` on a raw connection; seconds until the server
    drops it (it answers nothing first)."""
    with socket.create_connection(("127.0.0.1", port), timeout_s) as sock:
        t0 = time.monotonic()
        sock.sendall(sent)
        try:
            data = sock.recv(4096)
        except ConnectionResetError:
            data = b""
        assert data == b"", data
        return time.monotonic() - t0


@pytest.mark.parametrize(
    "sent",
    [
        b"POST /jobs HTTP/1.1\r\nContent-Le",
        b"POST /jobs HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"kind\"",
    ],
    ids=["half-a-head", "half-a-body"],
)
def test_a_stalled_request_is_disconnected_at_the_deadline(
    service, monkeypatch, sent
):
    monkeypatch.setattr(app, "READ_TIMEOUT_S", 0.3)
    waited = _disconnected_after(service.port, sent)
    assert 0.2 <= waited < 10.0
    # The server keeps answering everyone else.
    assert http_health(service.base_url)["status"] == "ok"


class _Writer:
    """Records what a response writes."""

    def __init__(self):
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(data))

    async def drain(self):
        pass


@pytest.mark.parametrize("size", [0, 10, 64 * 1024, 200_000])
def test_a_body_up_to_64_kb_goes_out_in_one_write(tmp_path, size):
    service = app.CampaignService(ShardedResultCache(tmp_path), workers=1)
    try:
        writer = _Writer()
        body = bytes(i % 251 for i in range(size))
        asyncio.run(service._send_raw(writer, 200, body, "text/plain"))
    finally:
        assert service.queue.close() == []
    sent = b"".join(writer.writes)
    head, _, got = sent.partition(b"\r\n\r\n")
    assert got == body
    assert f"Content-Length: {size}".encode() in head
    chunks = -(-size // (64 * 1024))
    assert len(writer.writes) == (1 if size <= 64 * 1024 else 1 + chunks)


def test_a_memoised_run_table_counts_against_the_byte_bound(
    service, monkeypatch
):
    url = service.base_url
    queue = service.service.queue
    jobs = []
    for bits in ([3], [4]):
        job = http_submit(url, _grid(bits))
        assert http_wait(url, job["id"], timeout=120.0)["status"] == "done"
        jobs.append(job["id"])
    held = queue._finished_bytes
    # Room for both jobs' result lines, not for a run table on top.
    monkeypatch.setattr(service_queue, "MAX_FINISHED_BYTES", held + 16)
    status, csv, _ = protocol._request("GET", f"{url}/jobs/{jobs[1]}/runtable.csv")
    assert status == 200 and len(csv) > 16
    assert queue.forgotten == 1
    assert protocol._request("GET", f"{url}/jobs/{jobs[0]}")[0] == 404
    lines = sum(len(line) for line in queue.get(jobs[1]).result_lines)
    assert queue._finished_bytes == lines + len(csv)
    # A second fetch serves the stored bytes and charges nothing more.
    again = protocol._request("GET", f"{url}/jobs/{jobs[1]}/runtable.csv")
    assert again[:2] == (200, csv)
    assert queue._finished_bytes == lines + len(csv)
