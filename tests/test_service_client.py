"""The HTTP client keeps one connection per thread and server alive.

``protocol._request`` sends every call of a thread to one server over
one kept-alive ``protocol._Connection``. A reused connection the
server has closed (idle past its read timeout, a restart, or a
``Connection: close`` answer) is replaced, and the request resent once,
without spending a retry: every test here runs with ``retries=0``, so a
charged retry would raise. The framing tests answer from a raw-socket
stub server, which writes each response exactly as a test scripts it.
"""

import select
import socket
import threading
import time

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
    """Every TCP connection the client opens, as ``(thread, conn)``."""
    opened = []
    connect = protocol._Connection.connect

    def counting(conn, timeout):
        opened.append((threading.get_ident(), conn))
        return connect(conn, timeout)

    monkeypatch.setattr(protocol._Connection, "connect", counting)
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
        status, body, headers = conn.exchange(
            b"POST /jobs HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 30.0
        )
        answer = (status, headers.get("connection"), body)
        return answer, conn.sock, http_health(base_url, retries=0)

    (status, connection, _), sock, health = _in_thread(calls, service.base_url)
    assert (status, connection) == (400, "close")
    assert sock is None  # the client closed it on the close answer
    assert health["status"] == "ok"
    assert len(connects) == 2


# -- framing, against a raw-socket stub server ----------------------------------


def _read_stub_request(sock):
    """One request's ``(head, body)`` off ``sock``; None at EOF."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(4096)
        if not chunk:
            return None
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    while len(body) < length:
        body += sock.recv(4096)
    return head, body


class _StubServer:
    """Answers each request with the next of ``answers``, in order.

    An answer writes a response to the raw socket and returns whether
    the connection stays open; ``accepted`` counts the connections and
    ``requests`` holds every ``(head, body)`` received.
    """

    def __init__(self, answers):
        self.answers = list(answers)
        self.accepted = 0
        self.requests = []
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(30.0)
        self.netloc = "127.0.0.1:%d" % self.listener.getsockname()[1]
        self.url = f"http://{self.netloc}"
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while self.answers:
            try:
                conn, _ = self.listener.accept()
            except OSError:  # closed, or no client within the timeout
                return
            self.accepted += 1
            with conn:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                while self.answers:
                    request = _read_stub_request(conn)
                    if request is None:
                        break
                    self.requests.append(request)
                    if not self.answers.pop(0)(conn):
                        break

    def close(self):
        self.listener.close()
        self.thread.join(timeout=30)


@pytest.fixture
def stub():
    servers = []

    def make(*answers):
        servers.append(_StubServer(answers))
        return servers[-1]

    yield make
    for server in servers:
        server.close()


def _response(body, *headers):
    head = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    head += f"Content-Length: {len(body)}\r\n"
    head += "".join(f"{header}\r\n" for header in headers)
    return (head + "\r\n").encode("latin-1") + body


def _answer(body=b'{"ok": true}', *headers, keep_open=True):
    def answer(sock):
        sock.sendall(_response(body, *headers))
        return keep_open

    return answer


def test_a_response_in_many_small_segments_is_reassembled(stub):
    body = b'{"status": "ok", "pad": "' + b"x" * 300 + b'"}'
    response = _response(body, "X-Extra:  spaced value ")

    def trickle(sock):
        # Three-byte segments, so CRLFs and the head's end fall across
        # segment boundaries.
        for offset in range(0, len(response), 3):
            sock.sendall(response[offset : offset + 3])
            time.sleep(0.0005)
        return True

    server = stub(trickle)
    status, got, headers = _in_thread(
        protocol._request, "GET", f"{server.url}/healthz"
    )
    assert (status, got) == (200, body)
    assert headers["content-length"] == str(len(body))
    assert headers["x-extra"] == "spaced value"


def test_a_body_over_64_kb_is_read_to_its_content_length(stub):
    body = bytes(i % 251 for i in range(200_000))
    server = stub(_answer(body), _answer())

    def calls(url):
        first = protocol._request("GET", f"{url}/jobs/job-000001/results")
        return first, protocol._request("GET", f"{url}/healthz")

    (status, got, _), (status2, got2, _) = _in_thread(calls, server.url)
    assert (status, got) == (200, body)
    assert (status2, got2) == (200, b'{"ok": true}')
    assert server.accepted == 1


def test_the_request_goes_out_whole_with_its_body(stub):
    server = stub(_answer())
    _in_thread(
        protocol._request, "POST", f"{server.url}/jobs", {"kind": "grid"}
    )
    [(head, body)] = server.requests
    lines = head.decode("latin-1").split("\r\n")
    assert lines[0] == "POST /jobs HTTP/1.1"
    assert f"Host: {server.netloc}" in lines
    assert f"Content-Length: {len(body)}" in lines
    assert body == b'{"kind": "grid"}'


def _answer_and_trail(sock):
    sock.sendall(_response(b"{}") + b"HTTP/1.1 200 OK\r\n")
    return True


@pytest.mark.parametrize(
    "first",
    [_answer(b"{}", "Connection: close", keep_open=False), _answer_and_trail],
    ids=["connection-close", "bytes-past-the-body"],
)
def test_a_closing_answer_opens_a_new_socket_for_the_next_call(stub, first):
    server = stub(first, _answer())

    def calls(url):
        first = protocol._request("GET", f"{url}/healthz")
        conn = protocol._connection("http", url[len("http://"):])
        closed = conn.sock is None
        return first[0], closed, protocol._request("GET", f"{url}/healthz")[0]

    assert _in_thread(calls, server.url) == (200, True, 200)
    assert server.accepted == 2


def _close_mid_body(sock):
    sock.sendall(_response(b"0123456789")[:-4])
    return False


def _close_mid_head(sock):
    sock.sendall(b"HTTP/1.1 200 OK\r\nContent-Le")
    return False


def _no_content_length(sock):
    sock.sendall(b"HTTP/1.1 200 OK\r\n\r\nno length")
    return False


def _bad_status_line(sock):
    sock.sendall(b"HTTP/2 200 OK\r\nContent-Length: 0\r\n\r\n")
    return False


def _endless_head(sock):
    sock.sendall(b"HTTP/1.1 200 OK\r\n" + b"X-Pad: " + b"x" * 70_000)
    return False


@pytest.mark.parametrize(
    "broken",
    [
        _close_mid_body,
        _close_mid_head,
        _no_content_length,
        _bad_status_line,
        _endless_head,
    ],
    ids=[
        "closed-mid-body",
        "closed-mid-head",
        "no-content-length",
        "bad-status-line",
        "endless-head",
    ],
)
def test_a_broken_response_raises_oserror_and_drops_the_connection(
    stub, broken
):
    server = stub(_answer(), broken)

    def calls(url):
        protocol._request("GET", f"{url}/healthz")
        conn = protocol._connection("http", url[len("http://"):])
        try:
            protocol._request("GET", f"{url}/healthz")
        except OSError as exc:
            return exc, conn.sock
        return None, conn.sock

    exc, sock = _in_thread(calls, server.url)
    assert isinstance(exc, protocol.ResponseError), exc
    assert sock is None
    # A response that had begun is not resent.
    assert server.accepted == 1 and len(server.requests) == 2


def test_an_https_url_is_refused():
    with pytest.raises(ValueError, match="not an http URL"):
        protocol._request("GET", "https://127.0.0.1:1/healthz")
    with pytest.raises(ValueError):
        http_health("https://127.0.0.1:1")


def test_a_target_that_would_split_the_request_line_is_refused():
    with pytest.raises(ValueError, match="unsafe"):
        protocol._request("GET", "http://127.0.0.1:1/jobs/a b")
    with pytest.raises(ValueError, match="unsafe"):
        protocol._request("GET", "http://127.0.0.1:1/jobs/a\r\nX: y")


@pytest.mark.parametrize(
    "netloc, address",
    [
        ("127.0.0.1:8787", ("127.0.0.1", 8787)),
        ("localhost", ("localhost", 80)),
        ("[::1]:8080", ("::1", 8080)),
        ("[::1]", ("::1", 80)),
    ],
)
def test_host_and_port_of_a_netloc(netloc, address):
    assert protocol._address(netloc) == address
