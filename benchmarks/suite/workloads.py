"""One benchmark workload, run in a fresh interpreter by ``run.py``.

Each workload sets up, runs one discarded warm-up operation, then times
operations back to back for ``--seconds`` and checks every output:

* ``grid-cold`` -- Figure 15 + Figure 24 grids from ``engine.reset()``
  into a fresh cache directory each time, like a first CLI run;
* ``grid-warm`` -- the same grids against a cache filled during set-up,
  in-process memo empty;
* ``fleet-1k`` -- ``run_fleet(workers=2)`` over 1000 devices, cache off,
  trace memo cleared before each run;
* ``service-mixed`` -- two closed-loop clients against a
  ``repro-experiments serve`` subprocess (journal on, 2 queue workers).

With ``--trace 1`` operations alternate between untraced and traced;
traced ones run with the layer wrappers of ``spans.py`` installed, and
the spans become per-layer tables (``layers.py``). The service runs its
untraced half against one server and its traced half against a second,
traced server. The result, a JSON document of summary rows, goes to
``--result``.
"""

from __future__ import annotations

import argparse
import base64
import gc
import hashlib
import json
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence

import repro.fleet
from repro import _accel
from repro.analysis import engine, telemetry
from repro.fleet import clear_fleet_trace_memo
from repro.service import protocol

import inputs as inputs_mod
import layers
import spans
import summary

SUITE = Path(__file__).resolve().parent
EXPECTED = SUITE / "expected.json"

#: Layers with a ``<layer>.self_ms`` per-layer metric, in table order.
SELF_LAYERS = (
    "engine.cache_key", "engine.cache_get", "engine.decode",
    "engine.orchestration", "engine.dispatch", "energy.trace",
    "batchsim.plan", "accel.kernel", "batch.lanes", "engine.encode",
    "engine.cache_put", "fleet.expand", "fleet.trace_synth",
    "batchsim.chunk_pack", "fleet.summary", "service.parse",
    "service.admission", "service.journal", "service.engine",
)
#: ``(metric, count key from layers.counts)`` medians per operation.
COUNT_METRICS = (
    ("engine.decode.bytes", "engine.decode.bytes"),
    ("engine.encode.bytes", "engine.encode.bytes"),
    ("engine.cache_put.entries", "engine.cache_put.calls"),
    ("batchsim.plan.calls", "batchsim.plan.calls"),
    ("accel.kernel.calls", "accel.kernel.calls"),
    ("batchsim.chunks", "batchsim.chunk_pack.chunks"),
    ("service.journal.records", "service.journal.calls"),
)
#: Per-layer metrics only the service workload produces.
SERVICE_METRICS = (
    ("client.submit_ms", "ms"), ("client.wait_ms", "ms"),
    ("client.results_ms", "ms"), ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_p99", "ms"), ("service.engine.warm_ms", "ms"),
    ("service.engine.cold_ms", "ms"), ("service.hot_hit_ratio", "ratio"),
    ("service.scrape_ms", "ms"), ("service.cache_info.self_ms", "ms"),
    ("service.cache_entries", "count"), ("service.cpu_ms_per_request", "ms"),
    ("loadgen.cpu_ms_per_request", "ms"),
)

N_CLIENTS = 2
POOL_WORKERS = 2
SCRAPE_EVERY_S = 2.0
#: The service keeps every finished job in memory, so its RSS grows with
#: traffic; it is read after a fixed number of timed requests, not at a
#: time that depends on throughput.
RSS_AFTER_REQUESTS = 1500


def _peak_rss_mb() -> float:
    """Peak RSS of this process and its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _entry_digest(blobs) -> str:
    digest = hashlib.sha256()
    for blob in blobs:
        digest.update(blob)
    return digest.hexdigest()


class Outcome:
    """Attempted/failed tally plus the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self._lock = threading.Lock()

    def record(self, ok: bool, reason: str = "") -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.errors) < 10:
                    self.errors.append(reason)
        return ok


# -- in-process workloads -------------------------------------------------------


class InProcessWorkload:
    """Timed operations in this process; pool workers are forked per run."""

    name = ""

    def __init__(self, data: Dict[str, object], run_dir: Path, seed: int,
                 quick: bool) -> None:
        self.run_dir = run_dir
        self.seed = seed
        self.quick = quick
        self.outcome = Outcome()
        self.recorder = spans.Recorder(spill_dir=run_dir)
        self.reference = None
        self.digests: Dict[str, str] = {}
        self.trace_spans: List[spans.Span] = []
        self.untraced: List[str] = []
        self.process_names = {os.getpid(): f"{self.name} (benchmark)"}

    # Subclasses provide setup, prepare, op, verify, ticks and checks.

    def close(self) -> None:
        pass

    def chrome_spans(self) -> List[spans.Span]:
        return self.trace_spans

    def measure(self, seconds: float, traced: bool) -> Dict[str, object]:
        walls: Dict[bool, List[float]] = {False: [], True: []}
        deadline = time.perf_counter() + seconds
        i = 0
        while time.perf_counter() < deadline:
            # Every operation starts from the same process state: the
            # run-report history (up to 256 reports) would otherwise
            # grow the heap, and the collector's cost with it, over the
            # first hundred operations.
            telemetry.reset()
            gc.collect()
            self.prepare(i)
            use_trace = traced and i % 2 == 1
            try:
                if use_trace:
                    self.recorder.rid = i
                    with spans.installed(self.recorder):
                        root = self.recorder.open(layers.ROOT, rid=i)
                        out = self.op()
                        self.recorder.close(root)
                    wall = root.duration
                else:
                    t0 = time.perf_counter()
                    out = self.op()
                    wall = time.perf_counter() - t0
            except Exception as exc:  # a failed operation is a result
                self.outcome.record(False, f"op {i} raised {type(exc).__name__}: {exc}")
            else:
                reason = self.verify(i, out)
                if self.outcome.record(reason is None, reason or ""):
                    walls[use_trace].append(wall)
            i += 1
        return {"walls": walls, "ops": i}

    def rows(self, measured: Dict[str, object], traced: bool) -> List[Dict[str, object]]:
        walls = measured["walls"]
        ms = [w * 1000.0 for w in walls[False]]
        rows = summary.latency_rows(self.name, "latency_ms", ms, self.seed)
        if ms:
            rows.append(summary.point_row(self.name, "end_to_end", "ops_per_s", "1/s",
                                          1000.0 / statistics.fmean(ms), len(ms)))
            rows.append(summary.point_row(self.name, "end_to_end", "sim_ticks_per_s", "ticks/s",
                                          self.ticks() * 1000.0 / statistics.median(ms), len(ms)))
        rows.append(summary.point_row(self.name, "end_to_end", "peak_rss_mb", "MB", _peak_rss_mb()))
        if traced:
            spans_ = list(self.recorder.spans)
            spans_ += spans.read_spans(sorted(self.run_dir.glob("spans-*.jsonl")))
            trees = layers.build_trees(spans_)
            rows += layer_rows(self.name, trees, walls[False], walls[True], self.seed)
            self.trace_spans = spans_
            self.untraced = sorted(self.recorder.missing)
        return rows


class GridWorkload(InProcessWorkload):
    """Figure 15 + Figure 24 through ``run_grid``/``run_executive_grid``."""

    def __init__(self, data, run_dir, seed, quick, warm: bool) -> None:
        self.name = "grid-warm" if warm else "grid-cold"
        super().__init__(data, run_dir, seed, quick)
        self.warm = warm
        self.fixed = tuple(engine.FixedBitTask(**t) for t in data["fixed"])
        self.executive = tuple(engine.ExecutiveTask(**t) for t in data["executive"])
        self.fill_dir = run_dir / "fill"

    def _cache_dir(self, i: int) -> Path:
        return self.fill_dir if self.warm else self.run_dir / f"cold-{i}"

    def setup(self) -> None:
        _accel.available()
        engine.reset()
        engine.configure(cache_dir=self.fill_dir)
        # A cold run fills the set-up cache; it is also the warm-up of
        # grid-cold. grid-warm adds one warm run as its warm-up.
        self.reference = self.op()
        if self.warm:
            self.prepare(-1)
            reason = self.verify(-1, self.op())
            if reason is not None:
                raise RuntimeError(reason)

    def prepare(self, i: int) -> None:
        engine.reset()
        engine.configure(cache_dir=self._cache_dir(i))

    def op(self):
        return (
            engine.run_grid(self.fixed, workers=1),
            engine.run_executive_grid(self.executive, workers=1),
        )

    def entry_blobs(self, cache_dir: Path):
        for task in self.fixed:
            yield (cache_dir / f"{task.cache_key()}.npz").read_bytes()
        for task in self.executive:
            yield (cache_dir / f"exec-{task.cache_key()}.npz").read_bytes()

    def verify(self, i: int, out) -> Optional[str]:
        fixed, executive = out
        ref_fixed, ref_exec = self.reference
        reason = None
        if not fixed.equal(ref_fixed) or not executive.equal(ref_exec):
            reason = f"op {i}: results differ from the first run"
        elif not self.warm:
            cache_dir = self._cache_dir(i)
            if _entry_digest(self.entry_blobs(cache_dir)) != self.digest():
                reason = f"op {i}: cache entry bytes differ from the first run"
            shutil.rmtree(cache_dir)
        return reason

    def digest(self) -> str:
        if "grid" not in self.digests:
            self.digests["grid"] = _entry_digest(self.entry_blobs(self.fill_dir))
        return self.digests["grid"]

    def ticks(self) -> int:
        return sum(t.trace_ticks() for t in self.fixed + self.executive)

    def checks(self) -> None:
        check_expected(self.outcome, "grid", self.digest(), self.seed, self.quick)
        rng = random.Random(self.seed)
        ref_fixed, ref_exec = self.reference
        for index in sorted(rng.sample(range(len(self.fixed)), min(3, len(self.fixed)))):
            task = self.fixed[index]
            self.outcome.record(
                engine.simulation_results_equal(task.run(engine="reference"), ref_fixed.results[index]),
                f"fixed lane {index} differs from the reference simulator",
            )
        index = rng.randrange(len(self.executive))
        self.outcome.record(
            engine.executive_results_equal(
                self.executive[index].run(engine="reference"), ref_exec.results[index]),
            f"executive lane {index} differs from the reference simulator",
        )


class FleetWorkload(InProcessWorkload):
    """The 1000-device fleet through ``run_fleet(workers=2)``."""

    name = "fleet-1k"

    def __init__(self, data, run_dir, seed, quick) -> None:
        super().__init__(data, run_dir, seed, quick)
        self.spec = inputs_mod.fleet_spec_from_dict(data["spec"])

    def setup(self) -> None:
        _accel.available()
        self.prepare(-1)
        self.reference = self.op()  # the discarded warm-up

    def prepare(self, i: int) -> None:
        engine.reset()
        engine.configure(use_cache=False)
        clear_fleet_trace_memo()

    def op(self):
        return repro.fleet.run_fleet(self.spec, workers=POOL_WORKERS)

    def verify(self, i: int, out) -> Optional[str]:
        if out.tasks != self.reference.tasks or not all(
            engine.simulation_results_equal(a, b)
            for a, b in zip(out.results, self.reference.results)
        ):
            return f"op {i}: fleet results differ from the first run"
        return None

    def ticks(self) -> int:
        return sum(t.trace_ticks() for t in self.reference.tasks)

    def checks(self) -> None:
        digest = _entry_digest(engine.fixed_entry_bytes(r) for r in self.reference.results)
        self.digests["fleet"] = digest
        check_expected(self.outcome, "fleet", digest, self.seed, self.quick)
        rng = random.Random(self.seed)
        tasks = self.reference.tasks
        for index in sorted(rng.sample(range(len(tasks)), 3)):
            self.outcome.record(
                engine.simulation_results_equal(
                    tasks[index].run(engine="reference"), self.reference.results[index]),
                f"fleet device {index} differs from the reference simulator",
            )


def check_expected(outcome: Outcome, key: str, digest: str, seed: int, quick: bool) -> None:
    """Seed 0 at full size must reproduce the recorded digest."""
    if seed != 0 or quick:
        return
    expected = json.loads(EXPECTED.read_text()).get(key)
    outcome.record(digest == expected, f"{key} digest {digest} != expected {expected}")


# -- per-layer rows ---------------------------------------------------------------


def layer_rows(workload: str, trees: Sequence[layers.OpTree], untraced: Sequence[float],
               traced: Sequence[float], seed: int,
               extra: Optional[Dict[str, float]] = None) -> List[Dict[str, object]]:
    """Per-layer metric rows from the traced operations' span trees.

    Every per-layer metric gets a row; a layer the workload never
    crosses reads 0. ``extra`` carries service-only values.
    """
    tables = [layers.self_times(tree) for tree in trees]
    tallies = [layers.counts(tree) for tree in trees]
    rows = []

    def add(metric: str, unit: str, values: Sequence[float]) -> None:
        values = list(values) or [0.0]
        rows.append(summary.row(workload, metric.rsplit(".", 1)[0], metric, unit, values, seed))

    for layer in SELF_LAYERS:
        add(f"{layer}.self_ms", "ms", [t.get(layer, 0.0) * 1000.0 for t in tables])
    for metric, key in COUNT_METRICS:
        unit = "bytes" if metric.endswith("bytes") else "count"
        add(metric, unit, [c.get(key, 0.0) for c in tallies])
    probes = sum(c.get("engine.cache_get.calls", 0.0) for c in tallies)
    hits = sum(c.get("engine.cache_get.hit", 0.0) for c in tallies)
    rows.append(summary.point_row(workload, "engine.cache_get", "engine.cache_get.hit_ratio",
                                  "ratio", hits / probes if probes else 0.0, int(probes)))
    busy = [f for f in (layers.child_busy_frac(tree) for tree in trees) if f is not None]
    add("engine.dispatch.child_busy_frac", "ratio", busy)
    for metric, unit in SERVICE_METRICS:
        rows.append(summary.point_row(workload, metric.rsplit(".", 1)[0], metric, unit,
                                      (extra or {}).get(metric, 0.0)))

    # Validity: tracing overhead and the table-sum check.
    overhead = 0.0
    if untraced and traced:
        base = statistics.median(untraced)
        overhead = (statistics.median(traced) - base) / base * 100.0
    rows.append(summary.point_row(workload, "trace", "trace.overhead_pct", "%", overhead, len(traced)))
    wall = sum(tree.wall for tree in trees)
    table_sum = sum(sum(t.values()) for t in tables)
    rows.append(summary.point_row(workload, "trace", "trace.table_sum_pct", "%",
                                  table_sum / wall * 100.0 if wall else 0.0, len(trees)))
    rows.extend(table_rows(workload, tables, tallies, seed))
    return rows


def table_rows(workload: str, tables, tallies, seed: int) -> List[Dict[str, object]]:
    """The printed layer table: self time per layer and its share."""
    names = sorted({name for table in tables for name in table})
    total = sum(sum(t.values()) for t in tables) or 1.0
    rows = []
    for name in names:
        share = sum(t.get(name, 0.0) for t in tables) / total * 100.0
        rows.append({
            **summary.row(workload, name, "table.self_ms", "ms",
                          [t.get(name, 0.0) * 1000.0 for t in tables], seed),
            "share_pct": share,
            "calls": statistics.median(c.get(f"{name}.calls", 0.0) for c in tallies),
        })
    return rows


# -- the service workload ----------------------------------------------------------


class Server:
    """A ``repro-experiments serve`` subprocess started through serve.py."""

    def __init__(self, run_dir: Path, cache_dir: Path, tag: str,
                 trace_dir: Optional[Path]) -> None:
        self.log_path = run_dir / f"server-{tag}.log"
        cmd = [sys.executable, str(SUITE / "serve.py")]
        if trace_dir is not None:
            cmd += ["--trace-dir", str(trace_dir)]
        cmd += ["--", "serve", "--cache-dir", str(cache_dir), "--port", "0",
                "--queue-workers", "2", "--journal", str(run_dir / f"journal-{tag}.jsonl")]
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT)
        self.url = self._wait_for_port(timeout_s=60.0)

    def _wait_for_port(self, timeout_s: float) -> str:
        deadline = time.monotonic() + timeout_s
        pattern = re.compile(r"campaign service on (http://[\d.]+:\d+)")
        while time.monotonic() < deadline:
            match = pattern.search(self.log_path.read_text())
            if match:
                return match.group(1)
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        self.stop()
        raise RuntimeError(f"service did not start: {self.log_path.read_text()[-500:]}")

    def cpu_s(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def _direct_digest(payload: Dict[str, object]) -> str:
    """Digest of a campaign's entries computed by the engine directly."""
    campaign = protocol.parse_campaign(payload)
    if campaign.kind == "grid":
        grid = engine.run_grid(campaign.tasks, workers=1)
        blobs = [engine.fixed_entry_bytes(r) for r in grid.results]
    else:
        grid = engine.run_executive_grid(campaign.tasks, workers=1)
        blobs = [engine.executive_entry_bytes(r) for r in grid.results]
    return _entry_digest(blobs)


class Request(NamedTuple):
    """One answered service request."""

    end: float
    latency_s: float
    warm_index: Optional[int]  # None for a fresh (cold) campaign
    job: Dict[str, object]  # the final job status document
    payload: Dict[str, object]
    digest: str  # sha256 over the streamed entries, in task order


class _RssAtCount:
    """Reads the server's peak RSS when the phase completes its n-th request."""

    def __init__(self, server: Server, n: int) -> None:
        self.server = server
        self.n = n
        self.count = 0
        self.value: Optional[float] = None
        self._lock = threading.Lock()

    def completed(self) -> None:
        with self._lock:
            self.count += 1
            if self.count == self.n:
                self.value = self.server.peak_rss_mb()


class ServiceWorkload:
    """Two closed-loop clients against a journaled service subprocess."""

    name = "service-mixed"

    def __init__(self, data, run_dir: Path, seed: int, quick: bool) -> None:
        self.data = data
        self.run_dir = run_dir
        self.seed = seed
        self.quick = quick
        self.outcome = Outcome()
        self.cache_dir = run_dir / "cache"
        self.server: Optional[Server] = None
        # One request sequence per client for the whole run: the traced
        # half continues it, so its cold campaigns are new to the cache.
        self.streams = [inputs_mod.request_stream(data, c, N_CLIENTS) for c in range(N_CLIENTS)]
        #: Every answered request, warm-up included, for :meth:`checks`.
        self.responses: List[Request] = []
        self._ticks_of: Dict[Optional[int], int] = {}
        self.digests: Dict[str, str] = {}
        self.trace_spans: List[spans.Span] = []
        self.queue_waits: List[spans.Span] = []
        self.untraced: List[str] = []
        self.process_names = {os.getpid(): "load generator"}

    def setup(self) -> None:
        _accel.available()
        # Prefill: the fleet-1k fleet's entries, written through the sharded cache.
        engine.reset()
        engine.configure(cache=engine.ShardedResultCache(self.cache_dir, hot_bytes=0))
        repro.fleet.run_fleet(inputs_mod.fleet_spec_from_dict(self.data["prefill"]),
                              workers=POOL_WORKERS)
        self.server = Server(self.run_dir, self.cache_dir, "a", None)
        self.warm_up()

    def warm_up(self) -> None:
        """Submit every warm campaign once; the server computes them."""
        for index, payload in enumerate(self.data["warm"]):
            request, reason = self._request(payload, index)
            if reason is not None:
                raise RuntimeError(f"warm-up request failed: {reason}")
            self.responses.append(request)

    def _request(self, payload, warm_index, recorder=None):
        """One submit -> wait -> results round trip.

        Returns ``(Request, None)`` or ``(None, failure reason)``;
        :meth:`checks` compares the digests with the direct engine's
        after the window.
        """
        root = None
        if recorder is not None:
            root = recorder.open(layers.ROOT)
        t0 = time.perf_counter()
        try:
            job = protocol.http_submit(self.server.url, payload)
            if root is not None:
                root.rid = job["id"]
            done = protocol.http_wait(self.server.url, job["id"], timeout=120.0)
            if done.get("status") != "done":
                return None, f"job {job['id']} ended {done.get('status')}: {done.get('error')}"
            if warm_index is None and not done.get("telemetry", {}).get("computed"):
                return None, f"cold job {job['id']} computed nothing: its campaign was cached"
            lines = protocol.http_results(self.server.url, job["id"])
        except Exception as exc:  # a failed request is a result
            return None, f"request raised {type(exc).__name__}: {exc}"
        finally:
            if root is not None:
                recorder.close(root)
        end = time.perf_counter()
        entries = [base64.b64decode(line["entry"]) for line in lines if line.get("type") == "task"]
        return Request(end, end - t0, warm_index, done, payload, _entry_digest(entries)), None

    def _client(self, client: int, deadline: float, recorder, requests: List[Request],
                scrapes: List[float], rss: "_RssAtCount") -> None:
        next_scrape = time.perf_counter() + SCRAPE_EVERY_S
        while time.perf_counter() < deadline:
            payload, warm_index = next(self.streams[client])
            request, reason = self._request(payload, warm_index, recorder)
            if reason is not None:
                self.outcome.record(False, reason)
            else:
                requests.append(request)
                rss.completed()
            if client == 0 and time.perf_counter() >= next_scrape:
                t0 = time.perf_counter()
                try:
                    protocol.http_metrics(self.server.url)
                    scrapes.append(time.perf_counter() - t0)
                    self.outcome.record(True)
                except Exception as exc:
                    self.outcome.record(False, f"scrape raised {type(exc).__name__}: {exc}")
                next_scrape += SCRAPE_EVERY_S

    def phase(self, seconds: float, recorder=None) -> Dict[str, object]:
        """Both clients for ``seconds``; returns the phase's raw tallies."""
        info0 = protocol.http_cache_info(self.server.url)
        cpu0, own0 = self.server.cpu_s(), os.times()
        requests: List[Request] = []  # list.append is atomic under the GIL
        scrapes: List[float] = []
        rss = _RssAtCount(self.server, RSS_AFTER_REQUESTS)
        start = time.perf_counter()
        deadline = start + seconds
        threads = [
            threading.Thread(target=self._client,
                             args=(c, deadline, recorder, requests, scrapes, rss))
            for c in range(N_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 300.0)
            if thread.is_alive():
                raise RuntimeError("a client thread did not finish")
        end = max([r.end for r in requests], default=time.perf_counter())
        cpu1, own1 = self.server.cpu_s(), os.times()
        info1 = protocol.http_cache_info(self.server.url)
        self.responses += requests
        n = max(1, len(requests))
        hot = info1["hot_hits"] - info0["hot_hits"]
        probes = hot + info1["hot_misses"] - info0["hot_misses"]
        return {
            "requests": requests,
            "scrapes": scrapes,
            "window_s": end - start,
            "server_cpu_ms": (cpu1 - cpu0) * 1000.0 / n,
            "loadgen_cpu_ms": ((own1.user + own1.system) - (own0.user + own0.system)) * 1000.0 / n,
            "hot_hit_ratio": hot / probes if probes else 0.0,
            "cache_entries": info1["entries"],
            "peak_rss_mb": rss.value or self.server.peak_rss_mb(),
        }

    def measure(self, seconds: float, traced: bool) -> Dict[str, object]:
        if not traced:
            return {"untraced": self.phase(seconds)}
        untraced = self.phase(seconds / 2.0)
        self.server.stop()
        trace_dir = self.run_dir
        self.server = Server(self.run_dir, self.cache_dir, "b", trace_dir)
        self.warm_up()
        recorder = spans.Recorder()
        with spans.installed(recorder):
            traced_phase = self.phase(seconds / 2.0, recorder)
        self.server.stop()
        self.process_names[self.server.proc.pid] = "campaign service"
        self.trace_spans = recorder.spans + spans.read_spans([trace_dir / "spans-server.jsonl"])
        self.untraced = sorted(recorder.missing)
        self.queue_waits = self._queue_wait_spans(traced_phase["requests"])
        return {"untraced": untraced, "traced": traced_phase}

    def _queue_wait_spans(self, requests) -> List[spans.Span]:
        """Queue waits from the job documents, on the span clock.

        The service stamps jobs with ``time.time()``; both processes
        read the same clocks, so one offset maps the stamps onto
        ``perf_counter``. For the Chrome trace only: the wait is already
        the uncovered part of ``client.wait`` in the layer table.
        """
        offset = time.time() - time.perf_counter()
        return [
            spans.Span(f"wait:{r.job['id']}", "service.queue_wait",
                       r.job["created_at"] - offset, r.job["started_at"] - offset,
                       rid=r.job["id"], pid=self.server.proc.pid, tid=0)
            for r in requests
        ]

    def chrome_spans(self) -> List[spans.Span]:
        return self.trace_spans + self.queue_waits

    def _ticks(self, request: Request) -> int:
        """Simulated ticks a request's campaign delivers (cold ones are alike)."""
        key = request.warm_index
        if key not in self._ticks_of:
            campaign = protocol.parse_campaign(request.payload)
            self._ticks_of[key] = sum(t.trace_ticks() for t in campaign.tasks)
        return self._ticks_of[key]

    def rows(self, measured: Dict[str, object], traced: bool) -> List[Dict[str, object]]:
        phase = measured["untraced"]
        requests = phase["requests"]
        ms = [r.latency_s * 1000.0 for r in requests]
        rows = summary.latency_rows(self.name, "latency_ms", ms or [0.0], self.seed)
        for label, cold in (("warm", False), ("cold", True)):
            part = [r.latency_s * 1000.0 for r in requests if (r.warm_index is None) == cold]
            if part:
                rows += summary.latency_rows(self.name, f"{label}_latency_ms", part, self.seed)
        window = phase["window_s"] or 1.0
        ticks = sum(self._ticks(r) for r in requests)
        rows += [
            summary.point_row(self.name, "end_to_end", "ops_per_s", "1/s", len(requests) / window, len(requests)),
            summary.point_row(self.name, "end_to_end", "sim_ticks_per_s", "ticks/s", ticks / window, len(requests)),
            summary.point_row(self.name, "end_to_end", "peak_rss_mb", "MB", phase["peak_rss_mb"]),
        ]
        if traced:
            rows += self._layer_rows(measured)
        return rows

    def _layer_rows(self, measured) -> List[Dict[str, object]]:
        """Per-layer rows of the traced half; the tables cover warm requests.

        Cold requests (1 in 11) get their engine time in
        ``service.engine.cold_ms``; the layer table answers where a warm
        request's time goes.
        """
        phase = measured["traced"]
        requests = phase["requests"]
        warm = {r.job["id"]: r.warm_index is not None for r in requests}
        trees = [t for t in layers.build_trees(self.trace_spans) if t.root.rid in warm]
        engine_ms: Dict[bool, List[float]] = {True: [], False: []}
        for tree in trees:
            for span in tree.members:
                if span.name == "service.engine":
                    engine_ms[warm[tree.root.rid]].append(span.duration * 1000.0)
        trees = [t for t in trees if warm[t.root.rid]]
        by_name: Dict[str, List[float]] = {}
        for tree in trees:
            for span in tree.members:
                by_name.setdefault(span.name, []).append(span.duration * 1000.0)
        waits = [(r.job["started_at"] - r.job["created_at"]) * 1000.0 for r in requests]
        cache_info = [s.duration * 1000.0 for s in self.trace_spans if s.name == "service.cache_info"]

        def med(values):
            return statistics.median(values) if values else 0.0

        extra = {
            "client.submit_ms": med(by_name.get("client.submit", [])),
            "client.wait_ms": med(by_name.get("client.wait", [])),
            "client.results_ms": med(by_name.get("client.results", [])),
            "service.queue_wait_ms_p50": med(waits),
            "service.queue_wait_ms_p99": summary.percentile(waits, 99) if waits else 0.0,
            "service.engine.warm_ms": med(engine_ms[True]),
            "service.engine.cold_ms": med(engine_ms[False]),
            "service.hot_hit_ratio": phase["hot_hit_ratio"],
            "service.scrape_ms": med([s * 1000.0 for s in phase["scrapes"]]),
            "service.cache_info.self_ms": med(cache_info),
            "service.cache_entries": phase["cache_entries"],
            "service.cpu_ms_per_request": phase["server_cpu_ms"],
            "loadgen.cpu_ms_per_request": phase["loadgen_cpu_ms"],
        }
        untraced = [r.latency_s for r in measured["untraced"]["requests"] if r.warm_index is not None]
        traced_walls = [r.latency_s for r in requests if r.warm_index is not None]
        return layer_rows(self.name, trees, untraced, traced_walls, self.seed, extra)

    def checks(self) -> None:
        """Every response against the direct engine's encoding.

        Each warm campaign is computed directly once and every response
        to it must carry the same bytes; five sampled cold campaigns are
        re-run directly. Only checked responses count as attempted.
        """
        engine.reset()
        engine.configure(use_cache=False)
        expected = {i: _direct_digest(p) for i, p in enumerate(self.data["warm"])}
        cold = [k for k, r in enumerate(self.responses) if r.warm_index is None]
        for k in random.Random(self.seed).sample(cold, min(5, len(cold))):
            expected[("cold", k)] = _direct_digest(self.responses[k].payload)
        for k, r in enumerate(self.responses):
            key = r.warm_index if r.warm_index is not None else ("cold", k)
            if key in expected:
                self.outcome.record(r.digest == expected[key],
                                    f"job {r.job['id']} (warm campaign {r.warm_index}): "
                                    "response bytes differ from the direct engine")

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()


def make(workload: str, data, run_dir: Path, seed: int, quick: bool):
    if workload == "grid-cold":
        return GridWorkload(data, run_dir, seed, quick, warm=False)
    if workload == "grid-warm":
        return GridWorkload(data, run_dir, seed, quick, warm=True)
    if workload == "fleet-1k":
        return FleetWorkload(data, run_dir, seed, quick)
    if workload == "service-mixed":
        return ServiceWorkload(data, run_dir, seed, quick)
    raise ValueError(f"unknown workload {workload!r}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs_mod.WORKLOADS)
    parser.add_argument("--inputs", type=Path)
    parser.add_argument("--run-dir", type=Path)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--t0", type=float,
                        help="the parent's perf_counter just before it started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--chrome-trace", type=Path, default=None)
    parser.add_argument("--prewarm", action="store_true",
                        help="only import everything and build the accelerator")
    args = parser.parse_args(argv)
    if args.prewarm:
        return 0 if _accel.available() else 3
    if None in (args.workload, args.inputs, args.run_dir, args.result, args.seconds, args.t0):
        parser.error("--workload, --inputs, --run-dir, --result, --seconds and --t0 are required")

    data = json.loads(args.inputs.read_text())
    workload = make(args.workload, data, args.run_dir, args.seed, args.quick)
    result: Dict[str, object] = {"workload": args.workload}
    try:
        workload.setup()
        result["setup_s"] = time.perf_counter() - args.t0
        if not args.setup_only:
            measured = workload.measure(args.seconds, bool(args.trace))
            result["rows"] = workload.rows(measured, bool(args.trace))
            workload.checks()
            if args.chrome_trace is not None and workload.trace_spans:
                layers.chrome_trace(workload.chrome_spans(), args.chrome_trace,
                                    workload.process_names)
    finally:
        workload.close()
    result.update(attempted=workload.outcome.attempted, failed=workload.outcome.failed,
                  errors=workload.outcome.errors, digests=workload.digests,
                  untraced=workload.untraced,
                  accel=_accel.available())
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
