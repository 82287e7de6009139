"""The HTTP client keeps one connection per thread and server alive.

``protocol._request`` sends every call of a thread to one server over
one kept-alive ``http.client`` connection. A reused connection the
server has closed (idle past its read timeout, a restart, or a
``Connection: close`` answer) is replaced, and the request resent once,
without spending a retry: every test here runs with ``retries=0``, so a
charged retry would raise.
"""

import http.client
import select
import threading

import pytest

from repro.analysis import engine, telemetry
from repro.service import (
    app,
    http_health,
    http_results,
    http_submit,
    http_wait,
    protocol,
    start_in_thread,
)

pytestmark = pytest.mark.service

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
def service(tmp_path):
    handle = start_in_thread(tmp_path / "cache", workers=1)
    try:
        yield handle
    finally:
        handle.close()


@pytest.fixture
def connects(monkeypatch):
    """Every TCP connection ``http.client`` opens, as ``(thread, conn)``."""
    opened = []
    connect = http.client.HTTPConnection.connect

    def counting(conn):
        opened.append((threading.get_ident(), conn))
        return connect(conn)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", counting)
    return opened


def _in_thread(fn, *args):
    """Run ``fn`` on a new thread, so it starts with no connections."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn(*args)))
    thread.start()
    thread.join(timeout=120)
    assert out, "client thread failed"
    return out[0]


def _round_trip(base_url):
    job = http_submit(base_url, GRID)
    done = http_wait(base_url, job["id"], timeout=60)
    assert done["status"] == "done"
    return http_results(base_url, job["id"])


def test_one_thread_opens_one_connection(service, connects):
    lines = _in_thread(_round_trip, service.base_url)
    assert [line["type"] for line in lines] == ["task", "end"]
    assert len(connects) == 1


def test_error_statuses_return_and_keep_the_connection(service, connects):
    def calls(base_url):
        missing = protocol._request("GET", f"{base_url}/jobs/job-999999")
        bad = protocol._request("POST", f"{base_url}/jobs", {"kind": "nope"})
        return missing, bad, http_health(base_url)

    missing, bad, health = _in_thread(calls, service.base_url)
    assert missing[0] == 404 and b"unknown job" in missing[1]
    assert missing[2]["content-type"] == "application/json"
    assert bad[0] == 400
    assert health["status"] == "ok"
    assert len(connects) == 1


def test_threads_never_share_a_connection(service, connects):
    barrier = threading.Barrier(2)
    used = {}

    def client(name):
        barrier.wait(timeout=30)
        _round_trip(service.base_url)
        used[name] = protocol._connection("http", service.base_url[len("http://"):])
        barrier.wait(timeout=30)  # both connections are alive here

    threads = [threading.Thread(target=client, args=(n,)) for n in "ab"]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert used["a"] is not used["b"]
    assert len(connects) == 2
    assert len({thread for thread, _ in connects}) == 2


def test_reused_socket_takes_each_calls_timeout(service):
    def calls(base_url):
        http_health(base_url, timeout=7.0)
        conn = protocol._connection("http", base_url[len("http://"):])
        first = conn.sock.gettimeout()
        http_health(base_url, timeout=3.0)
        return first, conn.sock.gettimeout()

    assert _in_thread(calls, service.base_url) == (7.0, 3.0)


def test_idle_connection_closed_by_the_server_is_replaced(
    service, connects, monkeypatch
):
    monkeypatch.setattr(app, "READ_TIMEOUT_S", 0.2)

    def calls(base_url):
        http_health(base_url)
        conn = protocol._connection("http", base_url[len("http://"):])
        # The server drops the idle connection: its FIN makes the
        # client's socket readable.
        assert select.select([conn.sock], [], [], 30.0)[0]
        return http_health(base_url, retries=0)

    assert _in_thread(calls, service.base_url)["status"] == "ok"
    assert len(connects) == 2


def test_restart_on_the_same_port_is_replaced(tmp_path, connects):
    first = start_in_thread(tmp_path / "cache", workers=1)
    port = first.port
    restarted = None
    try:
        connected = threading.Event()
        restarted_up = threading.Event()
        outcome = []

        def client():
            http_health(first.base_url)
            connected.set()
            assert restarted_up.wait(timeout=60)
            outcome.append(_round_trip(first.base_url))

        thread = threading.Thread(target=client)
        thread.start()
        assert connected.wait(timeout=60)
        first.close()
        restarted = start_in_thread(tmp_path / "cache", workers=1, port=port)
        restarted_up.set()
        thread.join(timeout=120)
        assert outcome and [line["type"] for line in outcome[0]] == ["task", "end"]
        assert len(connects) == 2
    finally:
        first.close()
        if restarted is not None:
            restarted.close()


def test_connection_close_answer_is_honoured(service, connects):
    def calls(base_url):
        conn = protocol._connection("http", base_url[len("http://"):])
        http_health(base_url)
        # A malformed request: the server answers 400 and closes.
        conn.request("POST", "/jobs", body=b"", headers={"Content-Length": "-1"})
        response = conn.getresponse()
        answer = (response.status, response.getheader("Connection"), response.read())
        return answer, conn.sock, http_health(base_url, retries=0)

    (status, connection, _), sock, health = _in_thread(calls, service.base_url)
    assert (status, connection) == (400, "close")
    assert sock is None  # http.client closed it on the close answer
    assert health["status"] == "ok"
    assert len(connects) == 2
