"""Check that a long-running campaign service's memory stays flat.

Starts ``repro serve`` with a journal on a fresh cache and sends 3000
submit -> wait -> results round trips from two client threads. One
request in eleven is a campaign on traces no one has run (a cold job);
the rest repeat eight warm campaigns, as the benchmark's service-mixed
workload does. The server's peak RSS (``VmHWM``) is read at the 1500th
and the 3000th request, and the script fails if it grew by more than
5 MB between them::

    PYTHONPATH=src python scripts/service_memory.py

Linux only: it reads ``/proc/<pid>/status``.
"""

import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.service import http_results, http_submit, http_wait

REQUESTS = 3000
MIDDLE = REQUESTS // 2
MAX_GROWTH_MB = 5.0
N_CLIENTS = 2
N_WARM = 8
COLD_EVERY = 11


def campaign(i, seed=None):
    """Two bit levels on one 0.5 s profile; ``seed`` re-rolls the traces."""
    bits = (3, 4, 5, 6, 7, 8)
    grid = {
        "kernels": ["median"],
        "bits": sorted({bits[i % 6], bits[(i + 2) % 6]}),
        "profile_ids": [1 + i % 2],
        "duration_s": 0.5,
    }
    if seed is not None:
        grid["seed"] = seed
    return {"kind": "grid", "grid": grid}


def vm_hwm_mb(pid):
    """Peak resident set size of process ``pid``, in MB."""
    status = Path(f"/proc/{pid}/status").read_text()
    return int(re.search(r"^VmHWM:\s+(\d+) kB", status, re.M).group(1)) / 1024.0


def round_trip(url, payload):
    job = http_submit(url, payload, retries=3)
    done = http_wait(url, job["id"], timeout=120.0)
    if done["status"] != "done":
        raise RuntimeError(f"job {job['id']} ended {done['status']}")
    http_results(url, job["id"])


def start_server(workdir):
    log_path = workdir / "serve.log"
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--cache-dir", str(workdir / "cache"), "--port", "0",
             "--queue-workers", "2", "--journal", str(workdir / "journal.jsonl")],
            stdout=log, stderr=subprocess.STDOUT,
        )
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline and proc.poll() is None:
        match = re.search(r"campaign service on (http://\S+:\d+)", log_path.read_text())
        if match:
            return proc, match.group(1)
        time.sleep(0.05)
    proc.kill()
    proc.wait()
    raise SystemExit(f"server did not start:\n{log_path.read_text()}")


def drive(url, pid):
    """Send every request; returns ``{request count: VmHWM}`` at
    :data:`MIDDLE` and :data:`REQUESTS`."""
    warm = [campaign(i) for i in range(N_WARM)]
    for payload in warm:
        round_trip(url, payload)
    lock = threading.Lock()
    counts = {"sent": 0, "done": 0}
    readings = {}
    errors = []

    def client():
        try:
            while True:
                with lock:
                    n = counts["sent"]
                    if n == REQUESTS:
                        return
                    counts["sent"] += 1
                if n % COLD_EVERY == COLD_EVERY - 1:
                    round_trip(url, campaign(n, seed=1_000_000 + n))
                else:
                    round_trip(url, warm[n % N_WARM])
                with lock:
                    counts["done"] += 1
                    if counts["done"] in (MIDDLE, REQUESTS):
                        readings[counts["done"]] = vm_hwm_mb(pid)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=client) for _ in range(N_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise SystemExit(f"a request failed: {errors[0]!r}")
    return readings


def main():
    workdir = Path(tempfile.mkdtemp(prefix="service-memory-"))
    try:
        proc, url = start_server(workdir)
        try:
            t0 = time.perf_counter()
            readings = drive(url, proc.pid)
            wall_s = time.perf_counter() - t0
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    growth = readings[REQUESTS] - readings[MIDDLE]
    print(
        f"VmHWM {readings[MIDDLE]:.1f} MB at request {MIDDLE}, "
        f"{readings[REQUESTS]:.1f} MB at request {REQUESTS} "
        f"({REQUESTS / wall_s:.0f} requests/s): grew {growth:.1f} MB"
    )
    if growth > MAX_GROWTH_MB:
        raise SystemExit(
            f"VmHWM grew more than {MAX_GROWTH_MB:g} MB between request "
            f"{MIDDLE} and {REQUESTS}"
        )


if __name__ == "__main__":
    main()
