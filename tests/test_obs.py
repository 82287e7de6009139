"""Tests for the observability subsystem: tracer, metrics, exporters,
run-scoped capture, and the CLI surface (``--trace-out`` / ``trace
summary``)."""

import json

import pytest

from repro.analysis import engine, telemetry
from repro.cli import main
from repro.errors import ConfigurationError
from repro.obs import (
    BACKUP_ENERGY_BUCKETS,
    NULL_TRACER,
    TRACE_LEVELS,
    Histogram,
    MetricsRegistry,
    Tracer,
    resolve_tracer,
)
from repro.obs import capture
from repro.obs.export import (
    TICK_US,
    chrome_trace,
    format_summary,
    read_trace,
    summarize_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)


@pytest.fixture(autouse=True)
def _clean_capture():
    capture.reset()
    yield
    capture.reset()


# -- tracer ---------------------------------------------------------------


class TestNullTracer:
    def test_every_flag_false(self):
        assert not NULL_TRACER.enabled
        assert not NULL_TRACER.spans
        assert not NULL_TRACER.events
        assert not NULL_TRACER.debug
        assert NULL_TRACER.level == "off"

    def test_methods_are_noops(self):
        NULL_TRACER.instant("x")
        NULL_TRACER.span("x", 0, 10)
        assert NULL_TRACER.to_payload() == {
            "records": [],
            "metrics": {},
            "dropped": 0,
        }

    def test_resolve_tracer(self):
        assert resolve_tracer(None) is NULL_TRACER
        tracer = Tracer("events")
        assert resolve_tracer(tracer) is tracer


class TestTracerLevels:
    def test_level_ranks(self):
        assert TRACE_LEVELS == ("off", "spans", "events", "debug")
        spans = Tracer("spans")
        assert spans.enabled and spans.spans
        assert not spans.events and not spans.debug
        events = Tracer("events")
        assert events.events and not events.debug
        debug = Tracer("debug")
        assert debug.events and debug.debug

    def test_off_level_records_nothing(self):
        tracer = Tracer("off")
        tracer.instant("x")
        tracer.span("x", 0, 5)
        assert tracer.records == []

    def test_bad_level_rejected(self):
        with pytest.raises(ConfigurationError):
            Tracer("verbose")


class TestTracerRecording:
    def test_instant_uses_current_tick_by_default(self):
        tracer = Tracer("events")
        tracer.tick = 42
        tracer.instant("backup", args={"energy_uj": 1.5})
        [record] = tracer.records
        assert record["ph"] == "i"
        assert record["tick"] == 42
        assert record["args"]["energy_uj"] == 1.5

    def test_span_clamps_negative_duration(self):
        tracer = Tracer("spans")
        tracer.span("outage", 100, 90)
        assert tracer.records[0]["dur"] == 0

    def test_max_events_cap_counts_drops(self):
        tracer = Tracer("events", max_events=3)
        for i in range(5):
            tracer.instant("e", tick=i)
        assert len(tracer.records) == 3
        assert tracer.dropped == 2
        assert tracer.to_payload()["dropped"] == 2


# -- metrics --------------------------------------------------------------


class TestHistogram:
    def test_observe_buckets_and_mean(self):
        hist = Histogram(bounds=(1.0, 2.0))
        hist.observe(0.5)
        hist.observe(1.5)
        hist.observe(99.0)
        assert hist.counts == [1, 1, 1]
        assert hist.count == 3
        assert hist.mean == pytest.approx((0.5 + 1.5 + 99.0) / 3)

    def test_bounds_must_increase(self):
        with pytest.raises(ConfigurationError):
            Histogram(bounds=(2.0, 1.0))

    def test_merge_requires_identical_bounds(self):
        a = Histogram(bounds=(1.0, 2.0))
        b = Histogram(bounds=(1.0, 3.0))
        with pytest.raises(ConfigurationError):
            a.merge(b)

    def test_merge_adds_bucketwise(self):
        a = Histogram(bounds=(1.0,))
        b = Histogram(bounds=(1.0,))
        a.observe(0.5)
        b.observe(2.0, n=3)
        a.merge(b)
        assert a.counts == [1, 3]
        assert a.count == 4

    def test_dict_roundtrip(self):
        hist = Histogram(bounds=BACKUP_ENERGY_BUCKETS)
        hist.observe(0.3, n=7)
        again = Histogram.from_dict(hist.to_dict())
        assert again.to_dict() == hist.to_dict()


class TestMetricsRegistry:
    def test_counters_sum_on_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("backup.count", 2)
        b.inc("backup.count", 3)
        b.inc("restore.count")
        a.merge(b)
        assert a.counters == {"backup.count": 5.0, "restore.count": 1.0}

    def test_gauges_last_write_wins(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.set_gauge("on_fraction", 0.5)
        b.set_gauge("on_fraction", 0.75)
        a.merge(b)
        assert a.gauges["on_fraction"] == 0.75

    def test_merge_dict_roundtrip(self):
        a = MetricsRegistry()
        a.inc("x", 1.5)
        a.observe("h", 0.5, bounds=(1.0,))
        b = MetricsRegistry()
        b.merge_dict(a.to_dict())
        b.merge_dict(a.to_dict())
        assert b.counters["x"] == 3.0
        assert b.histograms["h"].count == 2

    def test_empty_payload_is_noop(self):
        a = MetricsRegistry()
        a.merge_dict({})
        assert a.is_empty()


# -- exporters ------------------------------------------------------------


def _sample_records():
    return {
        "task-a": [
            {"name": "outage", "cat": "system", "ph": "X", "tick": 10,
             "dur": 5, "args": {}},
            {"name": "backup", "cat": "nvp", "ph": "i", "tick": 20,
             "args": {"energy_uj": 1.25}},
        ],
        "task-b": [
            {"name": "restore", "cat": "nvp", "ph": "i", "tick": 7,
             "args": {"energy_uj": 0.5}},
        ],
    }


class TestChromeExport:
    def test_valid_schema(self):
        payload = chrome_trace(_sample_records())
        assert validate_chrome_trace(payload) == []

    def test_tick_maps_to_100_microseconds(self):
        payload = chrome_trace(_sample_records())
        events = [e for e in payload["traceEvents"] if e.get("ph") != "M"]
        outage = next(e for e in events if e["name"] == "outage")
        assert outage["ts"] == 10 * TICK_US
        assert outage["dur"] == 5 * TICK_US

    def test_labels_become_named_processes(self):
        payload = chrome_trace(_sample_records())
        metadata = [e for e in payload["traceEvents"] if e.get("ph") == "M"]
        names = {e["args"]["name"] for e in metadata}
        assert names == {"task-a", "task-b"}
        pids = {e["pid"] for e in metadata}
        assert len(pids) == 2

    def test_validate_reports_problems(self):
        bad = {"traceEvents": [{"name": "", "ph": "Z", "ts": -1}]}
        problems = validate_chrome_trace(bad)
        assert problems
        assert validate_chrome_trace([]) == ["top-level value is not a JSON object"]


class TestTraceFiles:
    def test_chrome_roundtrip(self, tmp_path):
        path = write_chrome_trace(tmp_path / "t.json", _sample_records())
        events = read_trace(path)
        assert any(e["name"] == "backup" for e in events)

    def test_jsonl_roundtrip_keeps_labels(self, tmp_path):
        path = write_jsonl(tmp_path / "t.jsonl", _sample_records())
        events = read_trace(path)
        assert {e["label"] for e in events} == {"task-a", "task-b"}

    def test_read_rejects_empty_and_garbage(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        with pytest.raises(ConfigurationError):
            read_trace(empty)
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json")
        with pytest.raises(ConfigurationError):
            read_trace(garbage)
        with pytest.raises(ConfigurationError):
            read_trace(tmp_path / "missing.json")


class TestSummarize:
    def test_energy_ranking_and_outages(self, tmp_path):
        path = write_chrome_trace(tmp_path / "t.json", _sample_records())
        summary = summarize_trace(read_trace(path))
        names = [row["name"] for row in summary["top_energy"]]
        assert names == ["backup", "restore"]
        assert summary["outages"]["count"] == 1
        assert summary["outages"]["max_ticks"] == pytest.approx(5.0)

    def test_jsonl_durations_already_in_ticks(self, tmp_path):
        path = write_jsonl(tmp_path / "t.jsonl", _sample_records())
        summary = summarize_trace(read_trace(path))
        assert summary["outages"]["max_ticks"] == pytest.approx(5.0)

    def test_format_summary_renders(self):
        text = format_summary(
            summarize_trace(_sample_records()["task-a"], top=1)
        )
        assert "backup" in text
        assert "outages" in text

    def test_format_summary_empty(self):
        text = format_summary(summarize_trace([]))
        assert "none recorded" in text


# -- run-scoped capture ---------------------------------------------------


class TestCapture:
    def test_inactive_without_outputs(self):
        capture.configure()
        assert not capture.active()
        assert capture.capture_level() is None
        capture.collect("x", {"records": [{"name": "e"}], "metrics": {}})
        assert capture.collected_records() == {}
        assert capture.flush() == []

    def test_collect_and_flush(self, tmp_path):
        trace_out = tmp_path / "trace.json"
        metrics_out = tmp_path / "metrics.json"
        capture.configure(trace_out=trace_out, metrics_out=metrics_out)
        assert capture.capture_level() == "events"
        registry = MetricsRegistry()
        registry.inc("backup.count", 2)
        capture.collect(
            "task-a",
            {
                "records": _sample_records()["task-a"],
                "metrics": registry.to_dict(),
                "dropped": 1,
            },
        )
        written = capture.flush()
        assert set(written) == {trace_out, metrics_out}
        assert validate_chrome_trace(json.loads(trace_out.read_text())) == []
        metrics = json.loads(metrics_out.read_text())
        assert metrics["counters"]["backup.count"] == 2
        assert metrics["dropped_events"] == 1

    def test_jsonl_suffix_switches_format(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        capture.configure(trace_out=out)
        capture.collect(
            "t", {"records": _sample_records()["task-b"], "metrics": {}}
        )
        [written] = capture.flush()
        assert written == out
        assert read_trace(out)[0]["label"] == "t"

    def test_bad_level_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            capture.configure(trace_out=tmp_path / "t.json", level="off")


# -- engine integration ---------------------------------------------------


class TestEnginePlumbing:
    @pytest.fixture(autouse=True)
    def _fresh_engine(self):
        engine.reset()
        engine.configure(use_cache=False)
        yield
        engine.reset()

    def test_grid_folds_metrics_into_report(self, tmp_path):
        capture.configure(trace_out=tmp_path / "t.json")
        spec = engine.GridSpec(profile_ids=(1,), bits=(6,), duration_s=1.0)
        engine.run_grid(spec)
        report = telemetry.last_report("fixed")
        assert report.device_metrics["counters"]["backup.count"] > 0
        computed = [t for t in report.tasks if t.status == "computed"]
        assert computed and all(t.metrics for t in computed)
        assert capture.collected_records()

    def test_untraced_grid_has_no_metrics(self):
        spec = engine.GridSpec(profile_ids=(1,), bits=(6,), duration_s=1.0)
        engine.run_grid(spec)
        report = telemetry.last_report("fixed")
        assert report.device_metrics == {}
        assert all(not t.metrics for t in report.tasks)

    def test_pooled_grid_matches_serial_capture(self, tmp_path):
        spec = engine.GridSpec(profile_ids=(1,), bits=(4, 6), duration_s=1.0)
        capture.configure(trace_out=tmp_path / "serial.json")
        engine.run_grid(spec, workers=1)
        serial = telemetry.last_report("fixed").device_metrics
        capture.configure(trace_out=tmp_path / "pooled.json")
        engine.run_grid(spec, workers=2)
        pooled = telemetry.last_report("fixed").device_metrics
        assert pooled == serial


# -- CLI ------------------------------------------------------------------


class TestCli:
    @pytest.fixture(autouse=True)
    def _fresh_engine(self):
        engine.reset()
        yield
        engine.reset()
        telemetry.reset()

    def _record(self, tmp_path, *extra):
        trace_out = tmp_path / "trace.json"
        metrics_out = tmp_path / "metrics.json"
        rc = main(
            [
                "resilience",
                "--rates", "0",
                "--policies", "linear",
                "--kernels", "median",
                "--duration", "0.5",
                "--no-cache",
                "--trace-out", str(trace_out),
                "--metrics-out", str(metrics_out),
                *extra,
            ]
        )
        return rc, trace_out, metrics_out

    def test_trace_out_records_valid_chrome_trace(self, tmp_path, capsys):
        rc, trace_out, metrics_out = self._record(tmp_path)
        assert rc == 0
        out = capsys.readouterr().out
        assert f"wrote {trace_out}" in out
        assert validate_chrome_trace(json.loads(trace_out.read_text())) == []
        metrics = json.loads(metrics_out.read_text())
        assert metrics["counters"]["backup.count"] > 0

    def test_trace_summary_command(self, tmp_path, capsys):
        rc, trace_out, _ = self._record(tmp_path)
        assert rc == 0
        capsys.readouterr()
        assert main(["trace", "summary", str(trace_out), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "trace events:" in out
        assert "backup" in out

    def test_trace_summary_bad_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["trace", "summary", str(missing)]) == 2
        assert "error" in capsys.readouterr().err

    def test_report_shows_device_metrics(self, tmp_path, capsys):
        log = tmp_path / "run.jsonl"
        rc, _, _ = self._record(tmp_path, "--telemetry-log", str(log))
        assert rc == 0
        capsys.readouterr()
        assert main(["report", "--log", str(log)]) == 0
        out = capsys.readouterr().out
        assert "device metric" in out
        assert "backup.count" in out
