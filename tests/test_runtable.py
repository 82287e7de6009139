"""Run-table analytics: canonical CSV and statistics.

The contract under test extends the repo's bit-exactness guarantee
upward: `run_table.csv` must be byte-identical whether built offline
from the engine, via the CLI, or streamed from the campaign service —
for every campaign kind and every engine tier — because every config
and outcome cell derives only from the task value objects and the
bit-exact cached payloads. The statistics pass must reproduce
identical CIs and effect sizes from identical seeds.
"""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.analysis import engine, runtable, stats, telemetry
from repro.analysis.engine import ExecutiveTask, FixedBitTask, GridSpec
from repro.errors import ConfigurationError
from repro.obs.export import render_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.service import http_submit, http_wait, start_in_thread
from repro.service.protocol import execute_campaign, parse_campaign

pytestmark = pytest.mark.runtable

GRID_PAYLOAD = {
    "kind": "grid",
    "grid": {
        "kernels": ["median"],
        "bits": [3, 8],
        "profile_ids": [1, 2],
        "duration_s": 0.4,
    },
}

EXECUTIVE_PAYLOAD = {
    "kind": "executive",
    "tasks": [
        {
            "kernel": "median",
            "policy": "linear",
            "profile_id": profile_id,
            "minbits": 2,
            "duration_s": 0.4,
            "frame_period_ticks": 1_500,
        }
        for profile_id in (1, 2)
    ],
}

RESILIENCE_PAYLOAD = {
    "kind": "resilience",
    "campaign": {
        "kernels": ["median"],
        "policies": ["linear"],
        "rates": [0.0, 0.1],
        "duration_s": 0.4,
        "minbits": 2,
    },
}

FLEET_PAYLOAD = {
    "kind": "fleet",
    "fleet": {"n_devices": 6, "seed": 11, "duration_s": 0.4},
}

ALL_PAYLOADS = {
    "grid": GRID_PAYLOAD,
    "executive": EXECUTIVE_PAYLOAD,
    "resilience": RESILIENCE_PAYLOAD,
    "fleet": FLEET_PAYLOAD,
}


@pytest.fixture(autouse=True)
def _fresh_engine(tmp_path):
    engine.reset()
    telemetry.reset()
    engine.configure(cache_dir=tmp_path / "cache", workers=1)
    yield
    telemetry.reset()
    engine.reset()


# -- schema and formatting -------------------------------------------------------


class TestSchema:
    def test_columns_unique_and_grouped(self):
        names = [c.name for c in runtable.RUN_TABLE_COLUMNS]
        assert len(names) == len(set(names))
        groups = [c.group for c in runtable.RUN_TABLE_COLUMNS]
        # Canonical order: identity, config, outcome, provenance blocks.
        order = ("identity", "config", "outcome", "provenance")
        assert sorted(set(groups), key=order.index) == list(order)
        boundaries = [order.index(g) for g in groups]
        assert boundaries == sorted(boundaries)

    def test_every_column_applies_to_known_kinds(self):
        for col in runtable.RUN_TABLE_COLUMNS:
            assert col.applies, col.name
            for kind in col.applies:
                assert kind in runtable.TABLE_KINDS, col.name

    def test_format_cell_canonical(self):
        assert runtable.format_cell(None) == ""
        assert runtable.format_cell("") == ""
        assert runtable.format_cell(True) == "1"
        assert runtable.format_cell(3) == "3"
        assert runtable.format_cell(3.0) == "3"
        assert runtable.format_cell(0.1896) == "0.1896"
        assert runtable.format_cell("a,b") == '"a,b"'
        assert runtable.format_cell('say "hi"') == '"say ""hi"""'

    def test_validate_header(self):
        assert runtable.validate_header(runtable.COLUMN_NAMES) == []
        assert runtable.validate_header(("kind",))  # missing columns
        shuffled = list(runtable.COLUMN_NAMES)
        shuffled[0], shuffled[1] = shuffled[1], shuffled[0]
        problems = runtable.validate_header(shuffled)
        assert any("order" in p for p in problems)

    def test_columns_doc_matches_schema(self, repo_root=None):
        import pathlib

        doc = (
            pathlib.Path(__file__).parent.parent
            / "RUN_TABLE_COLUMNS_EXPLANATION.md"
        ).read_text(encoding="utf-8")
        assert runtable.validate_columns_doc(doc) == []

    def test_doc_validation_catches_drift(self):
        assert runtable.validate_columns_doc("# empty doc\n")


# -- canonical table construction ------------------------------------------------


class TestBuild:
    def test_grid_rows_and_roundtrip(self):
        campaign = parse_campaign(GRID_PAYLOAD)
        table = runtable.run_table_for_campaign(campaign)
        assert len(table) == 4
        blob = table.to_csv_bytes()
        rows = runtable.read_run_table(blob)
        assert len(rows) == 4
        for i, row in enumerate(rows):
            assert row["kind"] == "fixed"
            assert row["task_index"] == str(i)
            assert row["repetition"] == "0"
            assert row["kernel"] == "median"
            assert float(row["availability"]) == pytest.approx(
                float(row["on_ticks"]) / float(row["total_ticks"])
            )
            # Canonical table: provenance cells hold the sentinel.
            assert row["status"] == ""
            assert row["job"] == ""
        # energy-per-instruction = spent / total_progress when progress > 0
        for row in rows:
            if row["total_progress"] != "0":
                assert float(row["energy_per_instruction_uj"]) == (
                    pytest.approx(
                        float(row["spent_energy_uj"])
                        / float(row["total_progress"])
                    )
                )

    def test_executive_quality_columns(self):
        campaign = parse_campaign(EXECUTIVE_PAYLOAD)
        table = runtable.run_table_for_campaign(campaign)
        for row in table.rows:
            assert row["kind"] == "executive"
            assert row["minbits"] == 2
            assert int(row["frames_total"]) >= 0
            if row["scored_frames"]:
                assert row["mean_psnr_db"] != ""

    def test_resilience_rows(self):
        campaign = parse_campaign(RESILIENCE_PAYLOAD)
        table = runtable.run_table_for_campaign(campaign)
        rates = [row["fault_rate"] for row in table.rows]
        assert rates == [0.0, 0.1]  # stored raw; formatted at CSV time
        rows = runtable.read_run_table(table.to_csv_bytes())
        assert [r["fault_rate"] for r in rows] == ["0", "0.1"]
        for row in rows:
            assert row["total_ticks"] == ""  # not in a ResiliencePoint
            assert row["availability"] != ""

    def test_fleet_rows(self):
        campaign = parse_campaign(FLEET_PAYLOAD)
        table = runtable.run_table_for_campaign(campaign)
        assert len(table) == 6
        archetypes = {row["archetype"] for row in table.rows}
        assert archetypes  # drawn from the spec's mixture
        for row in table.rows:
            assert row["capacitor_uj"] != ""
            assert row["profile_id"] == ""  # synthetic traces, no profile

    def test_mismatched_lengths_rejected(self):
        task = FixedBitTask(profile_id=1, bits=8, duration_s=0.4)
        with pytest.raises(ConfigurationError):
            runtable.build_run_table("fixed", [task], [])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            runtable.build_run_table("mystery", [], [])

    def test_missing_result_lines_rejected(self):
        campaign = parse_campaign(GRID_PAYLOAD)
        lines, _ = execute_campaign(campaign)
        # Drop one task line: the builder must refuse, not emit a
        # short table that silently misrepresents the campaign.
        partial = [
            line
            for line in lines
            if not (
                json.loads(line).get("type") == "task"
                and json.loads(line).get("index") == 1
            )
        ]
        with pytest.raises(ConfigurationError, match="missing"):
            runtable.run_table_from_result_lines(campaign, partial)


# -- byte-identity across paths and tiers ----------------------------------------


class TestByteIdentity:
    @pytest.mark.parametrize("kind", sorted(ALL_PAYLOADS))
    def test_offline_equals_result_lines(self, kind):
        campaign = parse_campaign(ALL_PAYLOADS[kind])
        lines, _ = execute_campaign(campaign)
        direct = runtable.run_table_for_campaign(campaign, job="jobX")
        streamed = runtable.run_table_from_result_lines(
            campaign, lines, job="jobX"
        )
        assert direct.to_csv_bytes() == streamed.to_csv_bytes()

    @pytest.mark.parametrize("tier", ["auto", "fast", "reference"])
    def test_tiers_identical(self, tier, tmp_path):
        payload = dict(GRID_PAYLOAD, engine=tier)
        engine.configure(cache_dir=tmp_path / f"tier-{tier}", workers=1)
        campaign = parse_campaign(payload)
        blob = runtable.run_table_for_campaign(campaign).to_csv_bytes()
        baseline = runtable.run_table_for_campaign(
            parse_campaign(GRID_PAYLOAD)
        ).to_csv_bytes()
        # The engine column is not part of the canonical table, so the
        # tier leaves no trace: bytes are identical across tiers.
        assert blob == baseline

    def test_warm_cache_identical(self):
        campaign = parse_campaign(GRID_PAYLOAD)
        cold = runtable.run_table_for_campaign(campaign).to_csv_bytes()
        warm = runtable.run_table_for_campaign(campaign).to_csv_bytes()
        assert cold == warm

    def test_cli_matches_offline(self, tmp_path, capsys):
        from repro.cli import main

        campaign_file = tmp_path / "campaign.json"
        campaign_file.write_text(json.dumps(GRID_PAYLOAD))
        out_file = tmp_path / "table.csv"
        rc = main(
            [
                "runtable",
                "--file",
                str(campaign_file),
                "--output",
                str(out_file),
                "--cache-dir",
                str(tmp_path / "cli-cache"),
            ]
        )
        assert rc == 0
        # The CLI configured its own engine; rebuild offline fresh.
        engine.reset()
        engine.configure(cache_dir=tmp_path / "offline-cache", workers=1)
        offline = runtable.run_table_for_campaign(
            parse_campaign(GRID_PAYLOAD)
        ).to_csv_bytes()
        assert out_file.read_bytes() == offline


# -- telemetry round-trip --------------------------------------------------------


class TestTelemetryRoundTrip:
    def test_every_task_event_lands_in_exactly_one_row(self, tmp_path):
        log = tmp_path / "runs.jsonl"
        telemetry.configure(log)
        campaign = parse_campaign(GRID_PAYLOAD)
        table = runtable.run_table_for_campaign(campaign)
        telemetry.configure(None)
        events = telemetry.read_events(log)
        task_events = [e for e in events if e.get("event") == "task"]
        assert len(task_events) == len(table)
        indices = sorted(e["index"] for e in task_events)
        assert indices == list(range(len(table)))
        runtable.attach_provenance_from_events(table, events)
        statuses = [row["status"] for row in table.rows]
        assert all(s in ("computed", "cache-hit") for s in statuses)
        engines = {row["engine"] for row in table.rows}
        assert engines == {"auto"}

    def test_attach_provenance_from_report(self):
        campaign = parse_campaign(GRID_PAYLOAD)
        with telemetry.collected() as reports:
            table = runtable.run_table_for_campaign(campaign)
        assert len(reports) == 1
        runtable.attach_provenance(table, reports[0])
        assert {row["status"] for row in table.rows} == {"computed"}
        assert all(row["attempts"] == 1 for row in table.rows)
        # Provenance changes the bytes — it describes this execution.
        canonical = runtable.run_table_for_campaign(campaign)
        assert table.to_csv_bytes() != canonical.to_csv_bytes()

    def test_traced_equals_untraced_outcomes(self, tmp_path):
        from repro.obs import capture

        campaign = parse_campaign(GRID_PAYLOAD)
        engine.configure(cache_dir=tmp_path / "untraced", workers=1)
        untraced = runtable.run_table_for_campaign(campaign).to_csv_bytes()
        engine.configure(cache_dir=tmp_path / "traced", workers=1)
        capture.configure(trace_out=tmp_path / "trace.json")
        try:
            traced = runtable.run_table_for_campaign(campaign).to_csv_bytes()
            capture.flush()
        finally:
            capture.reset()
        assert traced == untraced


# -- statistics ------------------------------------------------------------------


class TestStats:
    def test_bootstrap_deterministic(self):
        rng = np.random.default_rng(7)
        values = rng.normal(100.0, 15.0, size=40).tolist()
        a = stats.bootstrap_mean_ci(values, seed=42)
        b = stats.bootstrap_mean_ci(values, seed=42)
        assert a == b
        c = stats.bootstrap_mean_ci(values, seed=43)
        assert (a["ci_lo"], a["ci_hi"]) != (c["ci_lo"], c["ci_hi"])
        assert a["ci_lo"] <= a["mean"] <= a["ci_hi"]
        assert a["n"] == 40

    def test_bootstrap_single_value(self):
        out = stats.bootstrap_mean_ci([7.0], seed=0)
        assert out == {"n": 1, "mean": 7.0, "ci_lo": 7.0, "ci_hi": 7.0}

    def test_mann_whitney_separated_samples(self):
        low = [1.0, 2.0, 3.0, 4.0, 5.0]
        high = [10.0, 11.0, 12.0, 13.0, 14.0]
        out = stats.mann_whitney_u(low, high)
        assert out["u"] == 0.0
        assert out["p_value"] < 0.02
        sym = stats.mann_whitney_u(high, low)
        assert sym["u"] == 25.0
        assert sym["p_value"] == pytest.approx(out["p_value"])

    def test_mann_whitney_identical_samples(self):
        same = [3.0, 3.0, 3.0]
        out = stats.mann_whitney_u(same, same)
        assert out["p_value"] == 1.0

    def test_mann_whitney_ties_against_scipy_value(self):
        # Cross-checked against scipy.stats.mannwhitneyu(
        # method="asymptotic", use_continuity=True): U=1.0, p=0.1641597.
        a = [1.0, 2.0, 2.0]
        b = [2.0, 3.0, 4.0]
        out = stats.mann_whitney_u(a, b)
        assert out["u"] == pytest.approx(1.0)
        assert out["p_value"] == pytest.approx(0.1641597, abs=1e-6)

    def test_cliffs_delta_extremes_and_labels(self):
        assert stats.cliffs_delta([5, 6], [1, 2])["delta"] == 1.0
        assert stats.cliffs_delta([1, 2], [5, 6])["delta"] == -1.0
        assert stats.cliffs_delta([1, 2], [1, 2])["delta"] == 0.0
        assert stats.cliffs_delta([1, 2], [1, 2])["magnitude"] == "negligible"
        assert stats.cliffs_delta([5, 6], [1, 2])["magnitude"] == "large"

    def test_parse_slice_spec(self):
        assert stats.parse_slice_spec("policy=precise,bits=8") == {
            "policy": "precise",
            "bits": "8",
        }
        with pytest.raises(ConfigurationError):
            stats.parse_slice_spec("nonsense")

    def test_compare_slices_reproducible(self):
        campaign = parse_campaign(GRID_PAYLOAD)
        table = runtable.run_table_for_campaign(campaign)
        rows = runtable.read_run_table(table.to_csv_bytes())
        kwargs = dict(seed=5, n_boot=500)
        one = stats.compare_slices(
            rows, "total_progress", {"bits": "3"}, {"bits": "8"}, **kwargs
        )
        two = stats.compare_slices(
            rows, "total_progress", {"bits": "3"}, {"bits": "8"}, **kwargs
        )
        assert one == two
        # Live rows (typed values) and re-read rows (strings) agree.
        three = stats.compare_slices(
            table.rows, "total_progress", {"bits": "3"}, {"bits": "8"}, **kwargs
        )
        assert three == one

    def test_empty_slice_rejected(self):
        campaign = parse_campaign(GRID_PAYLOAD)
        table = runtable.run_table_for_campaign(campaign)
        with pytest.raises(ConfigurationError, match="check filters"):
            stats.compare_slices(
                table.rows,
                "total_progress",
                {"bits": "3"},
                {"bits": "99"},
            )


class TestRepetitionSweep:
    def test_sweep_shape_and_determinism(self):
        tasks = [
            FixedBitTask(profile_id=1, bits=4, duration_s=0.4),
            FixedBitTask(profile_id=1, bits=8, duration_s=0.4),
        ]
        table = stats.repetition_sweep("fixed", tasks, n_reps=3, base_seed=9)
        assert len(table) == 6
        labels = [
            (row["task_index"], row["repetition"]) for row in table.rows
        ]
        assert labels == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
        # Repetition 0 is the base task unchanged.
        assert table.rows[0]["trace_seed"] == ""
        assert table.rows[1]["trace_seed"] != ""
        again = stats.repetition_sweep("fixed", tasks, n_reps=3, base_seed=9)
        assert table.to_csv_bytes() == again.to_csv_bytes()
        other = stats.repetition_sweep("fixed", tasks, n_reps=3, base_seed=10)
        assert table.to_csv_bytes() != other.to_csv_bytes()

    def test_executive_sweep(self):
        task = ExecutiveTask(
            kernel="median",
            policy="linear",
            profile_id=1,
            minbits=2,
            duration_s=0.4,
            frame_period_ticks=1_500,
        )
        table = stats.repetition_sweep(
            "executive", [task], n_reps=2, base_seed=1
        )
        assert len(table) == 2
        assert table.rows[0]["trace_seed"] == ""
        assert table.rows[1]["trace_seed"] != ""

    def test_unsupported_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            stats.repetition_sweep("resilience", [], n_reps=2)


# -- prometheus HELP lines (satellite) -------------------------------------------


class TestPrometheusHelp:
    def test_help_lines_for_all_families(self):
        registry = MetricsRegistry()
        registry.inc("runs.count", 3)
        registry.set_gauge("queue.depth", 2)
        registry.observe("wall.s", 0.5, bounds=(0.1, 1.0))
        text = render_prometheus(registry)
        lines = text.splitlines()
        assert "# HELP repro_runs_count_total counter 'runs.count' from the repro metrics registry." in lines
        assert "# HELP repro_queue_depth gauge 'queue.depth' from the repro metrics registry." in lines
        assert "# HELP repro_wall_s histogram 'wall.s' from the repro metrics registry." in lines
        # HELP precedes TYPE for each family.
        for family in ("repro_runs_count_total", "repro_queue_depth",
                       "repro_wall_s"):
            help_at = lines.index(next(
                l for l in lines if l.startswith(f"# HELP {family} ")
            ))
            type_at = lines.index(next(
                l for l in lines if l.startswith(f"# TYPE {family} ")
            ))
            assert help_at == type_at - 1
        # Histograms keep the full exposition shape.
        assert 'repro_wall_s_bucket{le="+Inf"} 1' in lines
        assert "repro_wall_s_sum 0.5" in lines
        assert "repro_wall_s_count 1" in lines

    def test_help_override_and_escaping(self):
        registry = MetricsRegistry()
        registry.inc("x", 1)
        text = render_prometheus(
            registry, help_texts={"x": "custom\nline \\ here"}
        )
        assert "# HELP repro_x_total custom\\nline \\\\ here" in text


# -- sorted device-metrics report table (satellite) ------------------------------


class TestReportDeviceTable:
    def test_rows_sorted_regardless_of_insertion_order(self):
        from repro.cli import _device_metric_rows

        forward = MetricsRegistry()
        forward.inc("backup.count", 2)
        forward.set_gauge("cap.final_uj", 1.5)
        forward.observe("on.ticks", 10.0, bounds=(5.0, 50.0))
        forward.inc("abort.count", 1)

        backward = MetricsRegistry()
        backward.inc("abort.count", 1)
        backward.observe("on.ticks", 10.0, bounds=(5.0, 50.0))
        backward.set_gauge("cap.final_uj", 1.5)
        backward.inc("backup.count", 2)

        rows_f = _device_metric_rows(forward)
        rows_b = _device_metric_rows(backward)
        assert rows_f == rows_b
        labels = [label for label, _ in rows_f]
        assert labels == sorted(labels)
        assert "cap.final_uj (gauge)" in labels  # gauges included now
        assert "on.ticks (mean)" in labels


# -- service endpoint ------------------------------------------------------------


@pytest.fixture
def service(tmp_path):
    handle = start_in_thread(tmp_path / "service-cache", workers=2)
    try:
        yield handle
    finally:
        handle.close()


def _http_get(url):
    with urllib.request.urlopen(url) as resp:
        return resp.status, dict(resp.headers), resp.read()


class TestServiceEndpoint:
    def test_streamed_csv_matches_offline_writer(self, service, tmp_path):
        job = http_submit(service.base_url, GRID_PAYLOAD)
        done = http_wait(service.base_url, job["id"], timeout=300)
        assert done["status"] == "done"
        status, headers, served = _http_get(
            f"{service.base_url}/jobs/{job['id']}/runtable.csv"
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/csv")

        engine.reset()
        engine.configure(cache_dir=tmp_path / "direct", workers=1)
        offline = runtable.run_table_for_campaign(
            parse_campaign(GRID_PAYLOAD), job=job["id"]
        ).to_csv_bytes()
        assert served == offline

        # Second fetch hits the per-job memo; identical bytes.
        _, _, again = _http_get(
            f"{service.base_url}/jobs/{job['id']}/runtable.csv"
        )
        assert again == served

        _, _, metrics = _http_get(f"{service.base_url}/metrics")
        text = metrics.decode("utf-8")
        assert "repro_service_runtable_requests_total 2" in text
        n_rows = served.count(b"\n") - 1
        assert f"repro_service_runtable_rows_total {2 * n_rows}" in text
        assert (
            f"repro_service_runtable_bytes_total {2 * len(served)}" in text
        )
        assert "# HELP repro_service_runtable_requests_total" in text

    def test_unfinished_job_409(self, service, gate):
        # The gate holds the job in execute_campaign: it cannot be done.
        gate.run = execute_campaign
        job = http_submit(service.base_url, FLEET_PAYLOAD)
        assert gate.started.wait(timeout=30)
        url = f"{service.base_url}/jobs/{job['id']}/runtable.csv"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _http_get(url)
        assert excinfo.value.code == 409
        assert json.loads(excinfo.value.read())["status"] == "running"

        gate.release.set()
        done = http_wait(service.base_url, job["id"], timeout=300)
        assert done["status"] == "done"
        status, _, body = _http_get(url)
        assert status == 200
        header = body.split(b"\n", 1)[0].decode("utf-8")
        assert header == ",".join(runtable.COLUMN_NAMES)

    def test_unknown_job_404(self, service):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _http_get(f"{service.base_url}/jobs/nope/runtable.csv")
        assert excinfo.value.code == 404
