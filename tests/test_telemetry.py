"""Telemetry: RunReport aggregation, JSONL event log, context labels."""

import dataclasses
import json

import pytest

from repro.analysis import engine, telemetry


@pytest.fixture(autouse=True)
def _fresh_state():
    engine.reset()
    telemetry.reset()
    yield
    telemetry.reset()
    engine.reset()


# -- RunReport aggregation -----------------------------------------------------


def test_merge_task_folds_counters():
    report = telemetry.RunReport(kind="fixed", n_tasks=3)
    report.merge_task(telemetry.TaskTelemetry(index=0, status="memo-hit"))
    report.merge_task(telemetry.TaskTelemetry(index=1, status="cache-hit"))
    report.merge_task(
        telemetry.TaskTelemetry(
            index=2,
            status="computed",
            retries=2,
            crashes=1,
            timeouts=1,
            corrupt_payloads=1,
            wall_s=0.5,
        )
    )
    assert report.memo_hits == 1
    assert report.cache_hits == 1
    assert report.computed == 1
    assert report.retries == 2
    assert report.crashes == 1
    assert report.timeouts == 1
    assert report.corrupt_payloads == 1
    assert report.worker_failures == 3
    assert report.failed == 0


def test_to_dict_excludes_tasks_by_default():
    report = telemetry.RunReport(kind="executive")
    report.merge_task(telemetry.TaskTelemetry(index=0))
    assert "tasks" not in report.to_dict()
    with_tasks = report.to_dict(include_tasks=True)
    assert with_tasks["tasks"][0]["index"] == 0


def _asdict_oracle(report, include_tasks=False):
    """What ``RunReport.to_dict`` returned when it deep-copied the
    whole report with ``dataclasses.asdict``."""
    out = dataclasses.asdict(report)
    if not include_tasks:
        out.pop("tasks")
    if not out.get("device_metrics"):
        out.pop("device_metrics", None)
    if not out.get("job"):
        out.pop("job", None)
    return out


def _oracle_reports():
    bare = telemetry.RunReport(kind="fixed")
    full = telemetry.RunReport(
        kind="executive", context="fig24", job="job-000007", workers=2
    )
    full.merge_task(telemetry.TaskTelemetry(index=0, status="cache-hit"))
    full.merge_task(
        telemetry.TaskTelemetry(
            index=1,
            retries=1,
            metrics={"counters": {"backups": 3}, "histograms": {"h": [1, 2]}},
        )
    )
    full.device_metrics = {"counters": {"backups": 3}, "gauges": {"g": [0.5]}}
    full.degraded = True
    full.wall_s = 0.25
    return [bare, full]


@pytest.mark.parametrize("include_tasks", [False, True])
def test_to_dict_equals_the_asdict_form_and_is_a_copy(include_tasks):
    for report in _oracle_reports():
        expected = _asdict_oracle(report, include_tasks)
        out = report.to_dict(include_tasks=include_tasks)
        assert list(out.items()) == list(expected.items())
        for task in out.get("tasks", []):
            task["metrics"]["counters"] = {}
        for value in out.get("device_metrics", {}).values():
            value.clear()
        assert report.to_dict(include_tasks=include_tasks) == expected


def test_history_is_bounded_and_last_report_filters():
    for i in range(telemetry.HISTORY_LIMIT + 10):
        telemetry.record(telemetry.RunReport(kind="fixed", n_tasks=i))
    telemetry.record(telemetry.RunReport(kind="executive", n_tasks=1))
    history = telemetry.history()
    assert len(history) == telemetry.HISTORY_LIMIT
    assert telemetry.last_report().kind == "executive"
    assert telemetry.last_report(kind="fixed").n_tasks == (
        telemetry.HISTORY_LIMIT + 9
    )
    assert telemetry.last_report(kind="trace") is None


# -- context labels ------------------------------------------------------------


def test_context_labels_nest_and_unwind():
    assert telemetry.current_context() == ""
    with telemetry.context("fig15"):
        assert telemetry.current_context() == "fig15"
        with telemetry.context("inner"):
            assert telemetry.current_context() == "inner"
        assert telemetry.current_context() == "fig15"
    assert telemetry.current_context() == ""


def test_grid_runs_pick_up_the_context_label():
    task = engine.FixedBitTask(profile_id=1, bits=8, duration_s=0.3)
    with telemetry.context("fig99"):
        engine.run_grid([task], workers=1)
    assert telemetry.last_report(kind="fixed").context == "fig99"


def test_resilience_grid_always_carries_a_context():
    # Direct CLI invocations run outside any telemetry.context() block;
    # their rows must still be attributable (not an empty label), while
    # runner-scoped campaigns keep the artifact label.
    from repro.analysis.resilience import ResilienceCampaign

    campaign = ResilienceCampaign(
        rates=(0.0,), policies=("linear",), kernels=("median",), duration_s=0.4
    )
    campaign.run()
    assert telemetry.last_report(kind="resilience").context == "resilience"
    with telemetry.context("figX"):
        campaign.run()
    assert telemetry.last_report(kind="resilience").context == "figX"


# -- JSONL event log -----------------------------------------------------------


def _sample_report():
    report = telemetry.RunReport(kind="fixed", context="fig15", n_tasks=2)
    report.merge_task(
        telemetry.TaskTelemetry(index=0, label="abc", status="cache-hit")
    )
    report.merge_task(
        telemetry.TaskTelemetry(
            index=1, label="def", status="computed", retries=1, crashes=1
        )
    )
    report.wall_s = 1.5
    return report


def test_record_appends_run_and_task_lines(tmp_path):
    log = tmp_path / "events.jsonl"
    telemetry.configure(log)
    telemetry.record(_sample_report())
    telemetry.record(_sample_report())
    lines = [json.loads(l) for l in log.read_text().splitlines()]
    assert [e["event"] for e in lines] == ["run", "task", "task"] * 2
    run = lines[0]
    assert run["kind"] == "fixed"
    assert run["context"] == "fig15"
    assert run["retries"] == 1
    assert "tasks" not in run  # task lines carry the per-task detail
    assert lines[1]["context"] == "fig15"
    assert lines[2]["status"] == "computed"


def test_configure_none_stops_logging(tmp_path):
    log = tmp_path / "events.jsonl"
    telemetry.configure(log)
    telemetry.record(_sample_report())
    telemetry.configure(None)
    telemetry.record(_sample_report())
    events = telemetry.read_events(log)
    assert sum(1 for e in events if e["event"] == "run") == 1


def test_configure_creates_parent_directory(tmp_path):
    log = tmp_path / "deep" / "nested" / "events.jsonl"
    telemetry.configure(log)
    assert log.parent.is_dir()
    telemetry.record(_sample_report())
    assert telemetry.read_events(log)


def test_read_events_skips_torn_lines(tmp_path):
    log = tmp_path / "events.jsonl"
    telemetry.configure(log)
    telemetry.record(_sample_report())
    with open(log, "a", encoding="utf-8") as handle:
        handle.write('{"event": "run", "kind": "fixed", "n_tas')  # torn write
    events = telemetry.read_events(log)
    assert len(events) == 3  # the torn final line is dropped, not fatal


def test_summarize_events_totals(tmp_path):
    log = tmp_path / "events.jsonl"
    telemetry.configure(log)
    telemetry.record(_sample_report())
    report = _sample_report()
    report.degraded = True
    report.pool_failures = 1
    report.timeouts = 2
    telemetry.record(report)
    totals = telemetry.summarize_events(telemetry.read_events(log))
    assert totals["runs"] == 2
    assert totals["tasks"] == 4
    assert totals["cache_hits"] == 2
    assert totals["computed"] == 2
    assert totals["retries"] == 2
    assert totals["crashes"] == 2
    assert totals["timeouts"] == 2
    assert totals["pool_failures"] == 1
    assert totals["degraded_runs"] == 1
    assert totals["wall_s"] == pytest.approx(3.0)


def test_grid_run_writes_event_log_end_to_end(tmp_path):
    log = tmp_path / "run.jsonl"
    telemetry.configure(log)
    task = engine.FixedBitTask(profile_id=1, bits=8, duration_s=0.3)
    engine.run_grid([task], workers=1)
    engine.clear_memory_cache()
    totals = telemetry.summarize_events(telemetry.read_events(log))
    assert totals["runs"] == 1
    assert totals["tasks"] == 1
    assert totals["computed"] == 1
    assert totals["failed"] == 0


def test_reset_clears_log_configuration(tmp_path):
    telemetry.configure(tmp_path / "events.jsonl")
    assert telemetry.log_path() is not None
    telemetry.reset()
    assert telemetry.log_path() is None
    assert telemetry.history() == []
