"""Tests for the repro-experiments command-line interface."""

import json
import re

import pytest

from repro.analysis import engine, telemetry
from repro.analysis import experiments as E
from repro.cli import EXPERIMENT_RUNNERS, main


class TestList:
    def test_lists_every_artifact(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for artifact_id in EXPERIMENT_RUNNERS:
            assert artifact_id in out

    def test_registry_covers_the_paper(self):
        # Every evaluation figure/table has a CLI entry.
        expected = {
            "fig02", "fig03", "fig04", "fig05", "sec2.2", "fig09", "fig12",
            "fig14", "fig15", "fig16", "fig18", "fig20", "fig21", "fig22",
            "fig24", "fig25", "fig27", "table2", "fig28", "sec7",
        }
        assert expected <= set(EXPERIMENT_RUNNERS)


class TestRun:
    def test_runs_a_fast_artifact(self, capsys):
        assert main(["run", "fig05"]) == 0
        out = capsys.readouterr().out
        assert "[fig05]" in out
        assert "parabola" in out

    def test_runs_several(self, capsys):
        assert main(["run", "fig04", "fig05"]) == 0
        out = capsys.readouterr().out
        assert "[fig04]" in out and "[fig05]" in out

    def test_unknown_artifact_fails_cleanly(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown artifact" in capsys.readouterr().err


class TestEngineFlags:
    """--workers / --cache-dir / --no-cache wire into the engine."""

    @pytest.fixture(autouse=True)
    def _fresh_engine(self, monkeypatch):
        # A short-trace fig16 so each CLI invocation stays fast; the
        # real runner and the real engine path are still exercised.
        monkeypatch.setitem(
            EXPERIMENT_RUNNERS,
            "fig16",
            lambda: E.fig16_backup_counts(duration_s=0.4),
        )
        engine.reset()
        yield
        engine.reset()

    def test_workers_flag_is_result_invariant(self, capsys):
        assert main(["run", "fig16", "--no-cache"]) == 0
        serial_out = capsys.readouterr().out
        engine.reset()
        assert main(["run", "fig16", "--workers", "4", "--no-cache"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out
        assert engine.configured_workers() == 4

    def test_cold_then_warm_cache(self, tmp_path, capsys):
        cache_dir = tmp_path / "results-cache"
        assert main(["run", "fig16", "--cache-dir", str(cache_dir)]) == 0
        cold_out = capsys.readouterr().out
        entries = list(cache_dir.glob("*.npz"))
        assert entries, "cold run should populate the on-disk cache"

        assert main(["run", "fig16", "--cache-dir", str(cache_dir)]) == 0
        warm_out = capsys.readouterr().out
        assert warm_out == cold_out
        cache = engine.default_cache()
        assert cache is not None and cache.hits >= len(entries)

    def test_no_cache_skips_the_disk(self, tmp_path, capsys):
        cache_dir = tmp_path / "unused-cache"
        assert (
            main(["run", "fig16", "--cache-dir", str(cache_dir), "--no-cache"])
            == 0
        )
        assert capsys.readouterr().out
        assert list(cache_dir.glob("*.npz")) == []

    def test_rejects_invalid_workers(self, capsys):
        assert main(["run", "fig16", "--workers", "0"]) == 2
        err = capsys.readouterr().err
        assert "workers must be in >= 1" in err


class TestInfoCommands:
    def test_profiles(self, capsys):
        assert main(["profiles"]) == 0
        out = capsys.readouterr().out
        assert "profile-1" in out and "profile-5" in out

    def test_calibration(self, capsys):
        assert main(["calibration"]) == 0
        out = capsys.readouterr().out
        assert "209" in out  # the 0.209 mW anchor
        assert "linear" in out

    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestCacheCommand:
    def test_info_and_clear_round_trip(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and " 0" in out

        assert main(["run", "fig24", "--cache-dir", cache_dir]) == 0
        engine.reset()
        capsys.readouterr()

        assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "executive" in out
        entries = len(list((tmp_path / "cache").glob("*.npz")))
        assert entries > 0

        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert f"removed {entries}" in out
        assert not list((tmp_path / "cache").glob("*.npz"))

    def test_cache_requires_a_directory(self, capsys):
        assert main(["cache", "info"]) == 2
        assert "--cache-dir is required" in capsys.readouterr().err

    def test_cache_rejects_bad_action(self):
        with pytest.raises(SystemExit):
            main(["cache", "evict", "--cache-dir", "/tmp/x"])

    def test_cache_verify_reports_quarantines(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(
            EXPERIMENT_RUNNERS,
            "fig16",
            lambda: E.fig16_backup_counts(duration_s=0.4),
        )
        cache_dir = tmp_path / "cache"
        assert main(["run", "fig16", "--cache-dir", str(cache_dir)]) == 0
        engine.reset()
        capsys.readouterr()

        assert main(["cache", "verify", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "checked" in out and "quarantined" in out
        assert not (cache_dir / "quarantine").exists()

        entry = next(cache_dir.glob("*.npz"))
        entry.write_bytes(b"corrupt")
        assert main(["cache", "verify", "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert (cache_dir / "quarantine" / entry.name).exists()

        assert main(["cache", "info", "--cache-dir", str(cache_dir)]) == 0
        assert "quarantined" in capsys.readouterr().out


class TestRobustnessFlags:
    """--task-timeout / --retries / --retry-backoff validation + wiring."""

    @pytest.fixture(autouse=True)
    def _fresh_engine(self):
        engine.reset()
        telemetry.reset()
        yield
        telemetry.reset()
        engine.reset()

    def test_flags_reach_the_engine_config(self, capsys):
        assert main([
            "run", "fig05",
            "--task-timeout", "2.5", "--retries", "5", "--retry-backoff", "0.2",
        ]) == 0
        capsys.readouterr()
        assert engine._CONFIG["task_timeout_s"] == 2.5
        assert engine._CONFIG["retries"] == 5
        assert engine._CONFIG["retry_backoff_s"] == 0.2

    def test_task_timeout_zero_disables(self, capsys):
        assert main(["run", "fig05", "--task-timeout", "0"]) == 0
        capsys.readouterr()
        assert engine._CONFIG["task_timeout_s"] is None

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "fig05", "--workers", "0"],
            ["run", "fig05", "--workers", "-2"],
            ["run", "fig05", "--task-timeout", "-1"],
            ["run", "fig05", "--retries", "-1"],
            ["run", "fig05", "--retry-backoff", "-0.1"],
        ],
        ids=["workers-0", "workers-neg", "timeout-neg", "retries-neg",
             "backoff-neg"],
    )
    def test_invalid_robustness_flags_fail_cleanly(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "repro-experiments run: error:" in err

    def test_unusable_cache_dir_fails_cleanly(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        assert main(["run", "fig05", "--cache-dir", str(blocker)]) == 2
        err = capsys.readouterr().err
        assert "not usable" in err


class TestReportCommand:
    @pytest.fixture(autouse=True)
    def _fresh_engine(self):
        engine.reset()
        telemetry.reset()
        yield
        telemetry.reset()
        engine.reset()

    def test_run_logs_and_report_summarises(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(
            EXPERIMENT_RUNNERS,
            "fig16",
            lambda: E.fig16_backup_counts(duration_s=0.4),
        )
        log = tmp_path / "events.jsonl"
        assert main([
            "run", "fig16", "--no-cache", "--telemetry-log", str(log),
        ]) == 0
        capsys.readouterr()
        assert log.exists()

        assert main(["report", "--log", str(log)]) == 0
        out = capsys.readouterr().out
        assert "fig16" in out
        assert "runs" in out  # totals table
        assert "degraded" in out

        assert main(["report", "--log", str(log), "--limit", "1"]) == 0
        assert "fig16" in capsys.readouterr().out

    def test_report_missing_log_fails_cleanly(self, tmp_path, capsys):
        assert main(["report", "--log", str(tmp_path / "nope.jsonl")]) == 2
        assert "repro-experiments report: error:" in capsys.readouterr().err

    def test_report_ignores_a_retired_memo_hits_key(self, tmp_path, capsys):
        # Logs from before the in-process result memo was removed carry
        # a memo_hits count; they still parse and the key is ignored.
        log = tmp_path / "old.jsonl"
        event = {"event": "run", "kind": "fixed", "context": "fig16",
                 "n_tasks": 5, "memo_hits": 3, "cache_hits": 2}
        log.write_text(json.dumps(event) + "\n")
        totals = telemetry.summarize_events(telemetry.read_events(log))
        assert totals["cache_hits"] == 2 and "memo_hits" not in totals
        assert main(["report", "--log", str(log)]) == 0
        out = capsys.readouterr().out
        assert "memo" not in out
        assert re.search(r"^cache hits +2 *$", out, re.MULTILINE)

    def test_report_empty_log_is_not_an_error(self, tmp_path, capsys):
        log = tmp_path / "empty.jsonl"
        log.write_text("")
        assert main(["report", "--log", str(log)]) == 0
        assert "no run events" in capsys.readouterr().out


@pytest.mark.fleet
class TestFleetWiring:
    """The fleet artifact rides the standard CLI paths."""

    @pytest.fixture(autouse=True)
    def _fresh_engine(self, monkeypatch):
        monkeypatch.setitem(
            EXPERIMENT_RUNNERS,
            "fleet",
            lambda: E.fleet_campaign(n_devices=8, seed=2, duration_s=0.3),
        )
        engine.reset()
        yield
        engine.reset()

    def test_run_fleet_artifact(self, capsys):
        assert main(["run", "fleet", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "[fleet]" in out
        assert "archetype" in out

    def test_cache_info_lists_fleet_row(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "fleet", "--cache-dir", cache_dir]) == 0
        engine.reset()
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "fleet" in out
        assert " 8" in out


@pytest.mark.service
class TestServiceCommands:
    """`serve` wiring errors and `submit` against a live service."""

    @pytest.fixture(autouse=True)
    def _fresh_engine(self):
        engine.reset()
        telemetry.reset()
        yield
        telemetry.reset()
        engine.reset()

    @pytest.fixture
    def service(self, tmp_path):
        from repro.service import start_in_thread

        handle = start_in_thread(tmp_path / "cli-cache", workers=2)
        try:
            yield handle
        finally:
            handle.close()

    def _campaign_file(self, tmp_path):
        import json as _json

        path = tmp_path / "campaign.json"
        path.write_text(
            _json.dumps(
                {
                    "kind": "grid",
                    "grid": {
                        "kernels": ["median"],
                        "bits": [3],
                        "profile_ids": [1],
                        "duration_s": 0.4,
                    },
                }
            )
        )
        return str(path)

    def test_submit_waits_and_writes_results(
        self, service, tmp_path, capsys
    ):
        out_path = tmp_path / "results.jsonl"
        assert (
            main(
                [
                    "submit",
                    "--url",
                    service.base_url,
                    "--file",
                    self._campaign_file(tmp_path),
                    "--output",
                    str(out_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "submitted job-" in out
        assert "done" in out
        lines = out_path.read_text().splitlines()
        assert len(lines) == 2  # one task + the end marker
        import json as _json

        assert _json.loads(lines[-1])["type"] == "end"

    def test_submit_no_wait_returns_immediately(
        self, service, tmp_path, capsys
    ):
        assert (
            main(
                [
                    "submit",
                    "--url",
                    service.base_url,
                    "--file",
                    self._campaign_file(tmp_path),
                    "--no-wait",
                ]
            )
            == 0
        )
        assert "submitted job-" in capsys.readouterr().out

    def test_submit_rejects_malformed_campaign(
        self, service, tmp_path, capsys
    ):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "warp"}')
        assert (
            main(["submit", "--url", service.base_url, "--file", str(bad)])
            == 1
        )
        assert "HTTP 400" in capsys.readouterr().err

    def test_submit_missing_file_fails_cleanly(self, capsys, tmp_path):
        assert (
            main(
                [
                    "submit",
                    "--url",
                    "http://127.0.0.1:1",
                    "--file",
                    str(tmp_path / "absent.json"),
                ]
            )
            == 2
        )
        assert "error" in capsys.readouterr().err

    def test_serve_rejects_unusable_cache_dir(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where a directory must go")
        assert (
            main(["serve", "--cache-dir", str(blocker), "--port", "0"]) == 2
        )
        assert "error" in capsys.readouterr().err
