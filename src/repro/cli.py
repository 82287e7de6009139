"""Command-line interface: regenerate any paper artifact from a shell.

Usage (also via ``python -m repro``):

    repro-experiments list                 # all artifact ids
    repro-experiments run fig28            # regenerate one artifact
    repro-experiments run fig15 fig16      # several at once
    repro-experiments run all              # everything (minutes)
    repro-experiments run all --workers 4  # ... across four processes
    repro-experiments run fig15 --cache-dir .cache   # warm across runs
    repro-experiments run fig15 --no-cache # force fresh simulations
    repro-experiments resilience           # fault-rate sweep vs hardened restore
    repro-experiments resilience --rates 0,0.1 --policies linear
    repro-experiments profiles             # Figure 2 trace summaries
    repro-experiments calibration          # the jointly-calibrated constants
    repro-experiments cache info --cache-dir .cache   # entry/byte/quarantine counts
    repro-experiments cache verify --cache-dir .cache # scan + quarantine corrupt entries
    repro-experiments cache clear --cache-dir .cache  # drop all entries
    repro-experiments run all --telemetry-log run.jsonl  # record run telemetry
    repro-experiments report --log run.jsonl          # summarise a recorded campaign
    repro-experiments run fig15 --trace-out trace.json --metrics-out metrics.json
    repro-experiments trace summary trace.json        # top energy consumers + outages
    repro-experiments serve --cache-dir .cache --port 8787  # campaign service
    repro-experiments submit --url http://127.0.0.1:8787 --file campaign.json
    repro-experiments runtable --file campaign.json --output run_table.csv
    repro-experiments runtable --file campaign.json --reps 8  # seeded sweep
    repro-experiments stats --table run_table.csv --metric total_progress \
        --slice-a policy=precise --slice-b policy=linear

``--trace-out`` records a device-level trace of every *computed* task
(cache hits carry no trace) as Chrome trace-event JSON — load it in
chrome://tracing or https://ui.perfetto.dev — or as a raw JSONL event
log when the path ends in ``.jsonl``. ``--metrics-out`` writes the
merged device metrics registry (see :mod:`repro.obs`).

``--workers``/``--cache-dir``/``--no-cache`` configure the experiment
engine (:mod:`repro.analysis.engine`) for the whole invocation;
``--task-timeout``/``--retries``/``--retry-backoff`` tune its fault
tolerance, and ``--telemetry-log`` appends one JSONL event per grid
run and per task (see :mod:`repro.analysis.telemetry`). The cache
holds fixed-bit and incidental-executive results plus resilience
campaign points (``exec-`` / ``res-`` filename prefixes); corrupt
entries are quarantined into its ``quarantine/`` subdirectory, never
silently dropped.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, Optional, Sequence

from .analysis import engine, telemetry
from .analysis import experiments as E
from .analysis.reporting import format_table
from .errors import ConfigurationError, EngineExecutionError
from .obs import capture as obs_capture

__all__ = ["main", "EXPERIMENT_RUNNERS"]

#: Artifact id -> zero-argument runner.
EXPERIMENT_RUNNERS: Dict[str, Callable[[], "E.ExperimentResult"]] = {
    "fig02": E.fig02_power_profiles,
    "fig03": E.fig03_outage_statistics,
    "fig04": E.fig04_sttram_write,
    "fig05": E.fig05_retention_shaping,
    "sec2.2": E.sec22_wait_compute,
    "fig09": E.fig09_timing_behavior,
    "fig12": E.fig12_alu_quality,
    "fig14": E.fig14_memory_quality,
    "fig15": E.fig15_forward_progress,
    "fig16": E.fig16_backup_counts,
    "fig18": E.fig18_bit_utilization,
    "fig20": E.fig20_dynamic_vs_fixed,
    "fig21": E.fig21_minbits4,
    "fig22": E.fig22_retention_failures,
    "fig24": E.fig24_quality_vs_policy,
    "fig25": E.fig25_fp_retention,
    "fig27": E.fig27_recomputation,
    "table2": E.table2_qos,
    "table2-jpeg-frames": E.jpeg_frame_qos,
    "fig28": E.fig28_overall_gain,
    "fig28-robustness": E.fig28_seed_robustness,
    "sec7": E.sec7_frame_rates,
    "ablation-mechanisms": E.ablation_mechanisms,
    "ablation-buffer": E.ablation_buffer_capacity,
    "ablation-retention-scale": E.ablation_retention_scale,
    "ablation-recover-placement": E.ablation_recover_placement,
    "ablation-sources": E.ablation_harvester_sources,
    "resilience": E.resilience_campaign,
    "fleet": E.fleet_campaign,
    "runtable": E.runtable_stats,
}


def _cmd_list() -> int:
    rows = []
    for artifact_id, runner in EXPERIMENT_RUNNERS.items():
        doc = (runner.__doc__ or "").strip().splitlines()[0]
        rows.append((artifact_id, doc))
    print(format_table(("artifact", "description"), rows))
    return 0


def _cmd_run(artifact_ids: Sequence[str]) -> int:
    ids = list(artifact_ids)
    if ids == ["all"]:
        ids = list(EXPERIMENT_RUNNERS)
    unknown = [a for a in ids if a not in EXPERIMENT_RUNNERS]
    if unknown:
        print(
            f"unknown artifact(s): {', '.join(unknown)}; "
            "run 'repro-experiments list'",
            file=sys.stderr,
        )
        return 2
    for artifact_id in ids:
        try:
            result = EXPERIMENT_RUNNERS[artifact_id]()
        except EngineExecutionError as exc:
            print(
                f"repro-experiments run: error: {artifact_id} failed: {exc}",
                file=sys.stderr,
            )
            return 1
        print(result.as_table())
        print()
    return 0


def _cmd_profiles() -> int:
    from .energy import outage_statistics, standard_profiles

    rows = []
    for trace in standard_profiles():
        stats = outage_statistics(trace)
        rows.append(
            (
                trace.name,
                round(trace.mean_power_uw, 1),
                round(trace.peak_power_uw, 0),
                round(trace.total_energy_uj, 1),
                stats.count,
                stats.max_duration_ticks,
            )
        )
    print(
        format_table(
            ("profile", "mean_uW", "peak_uW", "energy_uJ", "emergencies", "max_outage"),
            rows,
        )
    )
    return 0


def _cmd_calibration() -> int:
    from .nvm.retention import LinearRetention, LogRetention, ParabolaRetention
    from .nvm.sttram import RETENTION_10MS_S, RETENTION_ONE_DAY_S, STTRAMModel
    from .nvp.energy_model import EnergyModel
    from .system.config import SystemConfig

    model = EnergyModel()
    cell = STTRAMModel()
    config = SystemConfig()
    rows = [
        ("NVP power @ 8 bits, 1 lane (uW)", round(model.uniform_run_power_uw(8), 1)),
        ("NVP power @ 1 bit, 1 lane (uW)", round(model.uniform_run_power_uw(1), 1)),
        ("NVP power @ 4 lanes x 8 bits (uW)", round(model.uniform_run_power_uw(8, 4), 1)),
        ("backup energy, precise (uJ)", model.backup_base_uj),
        ("restore energy (uJ)", model.restore_base_uj),
        ("capacitor (uJ)", config.capacitor_uj),
        ("start fill fraction", config.start_fill_fraction),
        (
            "STT-RAM saving 1day->10ms",
            round(cell.energy_saving_fraction(RETENTION_ONE_DAY_S, RETENTION_10MS_S), 3),
        ),
        ("rel. backup energy: linear", round(LinearRetention().relative_write_energy(cell), 3)),
        ("rel. backup energy: log", round(LogRetention().relative_write_energy(cell), 3)),
        ("rel. backup energy: parabola", round(ParabolaRetention().relative_write_energy(cell), 3)),
    ]
    print(format_table(("constant", "value"), rows))
    return 0


def _cmd_cache(action: str, cache_dir: Optional[str]) -> int:
    if cache_dir is None:
        print(
            "repro-experiments cache: error: --cache-dir is required",
            file=sys.stderr,
        )
        return 2
    try:
        cache = engine.ResultCache(cache_dir)
    except (ConfigurationError, OSError) as exc:
        print(f"repro-experiments cache: error: {exc}", file=sys.stderr)
        return 2
    if action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.cache_dir}")
        return 0
    if action == "verify":
        scan = cache.verify()
        rows = [
            ("checked", scan["checked"]),
            ("ok", scan["ok"]),
            ("quarantined now", scan["quarantined"]),
            ("quarantined total", cache.quarantined_count()),
        ]
        print(format_table(("verify", "value"), rows))
        return 0
    info = cache.info()
    rows = [
        ("path", info["path"]),
        ("entries", info["entries"]),
        ("fixed-bit", info["fixed"]),
        ("executive", info["executive"]),
        ("resilience", info["resilience"]),
        ("fleet", info["fleet"]),
        ("bytes", info["bytes"]),
        ("quarantined", info["quarantined"]),
        ("quarantine path", info["quarantine_path"]),
    ]
    print(format_table(("cache", "value"), rows))
    return 0


def _cmd_resilience(args: "argparse.Namespace") -> int:
    """Run a device-resilience campaign with explicit sweep knobs."""
    from .analysis.resilience import ResilienceCampaign

    try:
        campaign = ResilienceCampaign(
            kernels=tuple(k for k in args.kernels.split(",") if k),
            policies=tuple(p for p in args.policies.split(",") if p),
            rates=tuple(float(r) for r in args.rates.split(",") if r),
            duration_s=args.duration,
            validate_restores=not args.no_validation,
            price_guard_words=not args.no_guard_pricing,
            seed=args.seed,
            device_seed=args.device_seed,
        )
    except (ConfigurationError, ValueError) as exc:
        print(
            f"repro-experiments resilience: error: {exc}", file=sys.stderr
        )
        return 2
    try:
        result = campaign.run()
    except ConfigurationError as exc:
        # Task-level validation (policies, kernels, rate bounds) fires
        # when the grid is enumerated, not at campaign construction.
        print(
            f"repro-experiments resilience: error: {exc}", file=sys.stderr
        )
        return 2
    except EngineExecutionError as exc:
        print(
            f"repro-experiments resilience: error: campaign failed: {exc}",
            file=sys.stderr,
        )
        return 1
    print(result.as_table())
    return 0


def _cmd_serve(args: "argparse.Namespace") -> int:
    """Run the campaign service until interrupted (SIGTERM drains)."""
    import asyncio
    import signal

    from .service import create_service

    try:
        service = create_service(
            args.cache_dir,
            capacity=args.capacity,
            workers=args.queue_workers,
            hot_bytes=args.hot_bytes,
            engine_workers=args.workers,
            journal=args.journal,
            drain_timeout_s=args.drain_timeout,
        )
        telemetry.configure(args.telemetry_log)
    except (ConfigurationError, OSError, ValueError) as exc:
        print(f"repro-experiments serve: error: {exc}", file=sys.stderr)
        return 2

    async def _serve() -> None:
        await service.start(host=args.host, port=args.port)
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        try:
            loop.add_signal_handler(signal.SIGTERM, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-POSIX loop: ctrl-C still stops the server
        journal_note = ""
        if service.journal is not None:
            stats = service.journal.stats
            journal_note = (
                f", journal: {service.journal.path} "
                f"(recovered {stats.recovered}, "
                f"skipped {stats.skipped_torn + stats.skipped_corrupt})"
            )
        print(
            f"campaign service on http://{args.host}:{service.port} "
            f"(cache: {service.cache.cache_dir}, "
            f"queue: {args.queue_workers} worker(s), "
            f"capacity {args.capacity}{journal_note})",
            flush=True,
        )
        serve_task = asyncio.ensure_future(service.serve_forever())
        stop_task = asyncio.ensure_future(stop.wait())
        await asyncio.wait(
            {serve_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
        )
        if stop.is_set():
            # SIGTERM: graceful drain — refuse new work (503 +
            # Retry-After), finish running jobs up to the deadline,
            # journal the remainder as requeued, join the workers.
            print("SIGTERM: draining campaign service...", flush=True)
            summary = await loop.run_in_executor(None, service.drain)
            print(
                "drained: "
                + ", ".join(
                    f"{state}={count}"
                    for state, count in sorted(summary.items())
                    if count
                ),
                flush=True,
            )
        elif serve_task.done():
            serve_task.result()  # surface listener failures
        serve_task.cancel()
        stop_task.cancel()
        await service.aclose()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("campaign service stopped")
    except OSError as exc:
        print(f"repro-experiments serve: error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_submit(args: "argparse.Namespace") -> int:
    """Submit a campaign file to a running service and stream results."""
    from .service import http_results, http_submit, http_wait

    try:
        if args.file == "-":
            payload = json.load(sys.stdin)
        else:
            with open(args.file, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"repro-experiments submit: error: {exc}", file=sys.stderr)
        return 2
    base_url = args.url.rstrip("/")
    try:
        job = http_submit(base_url, payload, retries=args.retries)
        job_id = job["id"]
        print(f"submitted {job_id} ({job['kind']}, {job['n_tasks']} task(s))")
        if args.no_wait:
            return 0
        done = http_wait(
            base_url, job_id, timeout=args.timeout, retries=args.retries
        )
    except (RuntimeError, TimeoutError, OSError) as exc:
        print(f"repro-experiments submit: error: {exc}", file=sys.stderr)
        return 1
    status = done.get("status")
    report = done.get("telemetry", {})
    print(
        f"{job_id}: {status} in {done.get('wall_s', 0.0):.3f}s "
        f"(computed {report.get('computed', 0)}, "
        f"cache hits {report.get('cache_hits', 0)})"
    )
    if status != "done":
        if done.get("error"):
            print(done["error"], file=sys.stderr)
        return 1
    if args.output is None:
        return 0
    try:
        lines = http_results(base_url, job_id, retries=args.retries)
        blob = "\n".join(json.dumps(line, sort_keys=True) for line in lines)
        if args.output == "-":
            print(blob)
        else:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(blob + "\n")
            print(f"wrote {len(lines)} result line(s) to {args.output}")
    except (RuntimeError, OSError) as exc:
        print(f"repro-experiments submit: error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_trace_summary(trace_file: str, top: int) -> int:
    """Print top-N energy consumers and outage statistics of a trace."""
    from .obs.export import format_summary, read_trace, summarize_trace

    try:
        events = read_trace(trace_file)
    except (ConfigurationError, OSError) as exc:
        print(f"repro-experiments trace: error: {exc}", file=sys.stderr)
        return 2
    print(format_summary(summarize_trace(events, top=top)))
    return 0


def _cmd_report(log: str, limit: int) -> int:
    """Summarise a JSONL telemetry log (per-run rows plus totals)."""
    try:
        events = telemetry.read_events(log)
    except OSError as exc:
        print(f"repro-experiments report: error: {exc}", file=sys.stderr)
        return 2
    runs = [event for event in events if event.get("event") == "run"]
    if not runs:
        print(f"no run events in {log}")
        return 0
    rows = []
    for event in runs[-limit:] if limit else runs:
        rows.append(
            (
                str(event.get("context") or "-"),
                event.get("kind", "?"),
                event.get("n_tasks", 0),
                event.get("cache_hits", 0),
                event.get("computed", 0),
                event.get("retries", 0),
                int(event.get("crashes", 0))
                + int(event.get("timeouts", 0))
                + int(event.get("corrupt_payloads", 0)),
                event.get("quarantines", 0),
                "yes" if event.get("degraded") else "no",
                round(float(event.get("wall_s", 0.0)), 3),
            )
        )
    print(
        format_table(
            (
                "context",
                "kind",
                "tasks",
                "hits",
                "computed",
                "retries",
                "failures",
                "quarantined",
                "degraded",
                "wall_s",
            ),
            rows,
        )
    )
    totals = telemetry.summarize_events(events)
    print()
    print(
        format_table(
            ("total", "value"),
            [
                ("runs", totals["runs"]),
                ("tasks", totals["tasks"]),
                ("cache hits", totals["cache_hits"]),
                ("computed", totals["computed"]),
                ("retries", totals["retries"]),
                ("crashes", totals["crashes"]),
                ("timeouts", totals["timeouts"]),
                ("corrupt payloads", totals["corrupt_payloads"]),
                ("quarantined entries", totals["quarantines"]),
                ("pool failures", totals["pool_failures"]),
                ("degraded runs", totals["degraded_runs"]),
                ("failed tasks", totals["failed"]),
                ("wall_s", round(totals["wall_s"], 3)),
            ],
        )
    )
    from .obs.metrics import MetricsRegistry

    merged = MetricsRegistry()
    for event in runs:
        merged.merge_dict(event.get("device_metrics") or {})
    if not merged.is_empty():
        print()
        print(
            format_table(("device metric", "value"), _device_metric_rows(merged))
        )
    return 0


def _device_metric_rows(merged) -> List[tuple]:
    """One sorted ``(label, value)`` row per device metric.

    Counters, gauges and histogram means collate into a single list
    sorted by label, so the table's order is deterministic regardless
    of the registry's insertion order and the report diffs cleanly
    against run-table exports.
    """
    rows = [
        (name, round(float(value), 3))
        for name, value in merged.counters.items()
    ]
    rows.extend(
        (f"{name} (gauge)", round(float(value), 3))
        for name, value in merged.gauges.items()
    )
    rows.extend(
        (f"{name} (mean)", round(hist.mean, 3))
        for name, hist in merged.histograms.items()
    )
    rows.sort(key=lambda row: row[0])
    return rows


def _load_campaign_file(path: str, command: str):
    """Parse a campaign JSON file ('-' reads stdin) or return None."""
    from .service.protocol import parse_campaign

    try:
        if path == "-":
            payload = json.load(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        return parse_campaign(payload)
    except (OSError, json.JSONDecodeError, ConfigurationError) as exc:
        print(f"repro-experiments {command}: error: {exc}", file=sys.stderr)
        return None


def _cmd_runtable(args: "argparse.Namespace") -> int:
    """Run a campaign file and write its canonical run table."""
    from .analysis import runtable as runtable_mod
    from .analysis import stats as stats_mod

    campaign = _load_campaign_file(args.file, "runtable")
    if campaign is None:
        return 2
    try:
        if args.reps > 1:
            kind = {"grid": "fixed"}.get(campaign.kind, campaign.kind)
            table = stats_mod.repetition_sweep(
                kind,
                campaign.tasks,
                n_reps=args.reps,
                base_seed=args.rep_seed,
                engine=campaign.engine,
                job=args.job,
            )
        else:
            table = runtable_mod.run_table_for_campaign(
                campaign, job=args.job
            )
    except (ConfigurationError, EngineExecutionError) as exc:
        print(f"repro-experiments runtable: error: {exc}", file=sys.stderr)
        return 1
    blob = table.to_csv_bytes()
    if args.output == "-":
        sys.stdout.write(blob.decode("utf-8"))
        return 0
    try:
        with open(args.output, "wb") as handle:
            handle.write(blob)
    except OSError as exc:
        print(f"repro-experiments runtable: error: {exc}", file=sys.stderr)
        return 1
    print(
        f"wrote {args.output}: {len(table)} row(s), {len(blob)} bytes "
        f"(schema v{runtable_mod.SCHEMA_VERSION})"
    )
    return 0


def _cmd_stats(args: "argparse.Namespace") -> int:
    """Compare a run-table metric between two config slices."""
    from .analysis import runtable as runtable_mod
    from .analysis import stats as stats_mod

    try:
        rows = runtable_mod.read_run_table(args.table)
        comparison = stats_mod.compare_slices(
            rows,
            args.metric,
            stats_mod.parse_slice_spec(args.slice_a),
            stats_mod.parse_slice_spec(args.slice_b),
            seed=args.seed,
            n_boot=args.boot,
            alpha=args.alpha,
        )
    except (OSError, ConfigurationError, ValueError) as exc:
        print(f"repro-experiments stats: error: {exc}", file=sys.stderr)
        return 2
    slice_table = [
        (
            label,
            side["n"],
            round(side["mean"], 6),
            round(side["ci_lo"], 6),
            round(side["ci_hi"], 6),
        )
        for label, side in (
            (args.slice_a, comparison["a"]),
            (args.slice_b, comparison["b"]),
        )
    ]
    print(
        format_table(
            ("slice", "n", f"mean {args.metric}", "ci_lo", "ci_hi"),
            slice_table,
        )
    )
    mw = comparison["mann_whitney"]
    delta = comparison["cliffs_delta"]
    print()
    print(
        format_table(
            ("statistic", "value"),
            [
                ("mann-whitney U", round(mw["u"], 3)),
                ("z", round(mw["z"], 4)),
                ("p-value (two-sided)", round(mw["p_value"], 6)),
                ("cliff's delta", round(delta["delta"], 4)),
                ("effect magnitude", delta["magnitude"]),
            ],
        )
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-experiments`` / ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate artifacts of the incidental-computing reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list every artifact id")

    def add_engine_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--workers",
            type=int,
            default=1,
            metavar="N",
            help="processes for experiment grids (default: 1, serial)",
        )
        p.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help="content-addressed on-disk result cache (reused across runs)",
        )
        p.add_argument(
            "--no-cache",
            action="store_true",
            help="disable the on-disk result cache",
        )
        p.add_argument(
            "--task-timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="per-task timeout for pooled grids (0 disables; default: disabled)",
        )
        p.add_argument(
            "--retries",
            type=int,
            default=None,
            metavar="N",
            help="re-attempts for a crashed/hung/corrupt task (default: 2)",
        )
        p.add_argument(
            "--retry-backoff",
            type=float,
            default=None,
            metavar="SECONDS",
            help="base exponential backoff between retries (default: 0.05)",
        )
        p.add_argument(
            "--telemetry-log",
            default=None,
            metavar="PATH",
            help="append one JSONL event per grid run/task (see 'report')",
        )
        p.add_argument(
            "--trace-out",
            default=None,
            metavar="PATH",
            help=(
                "record a device trace: Chrome trace-event JSON "
                "(chrome://tracing / Perfetto), or a raw JSONL event log "
                "if PATH ends in .jsonl"
            ),
        )
        p.add_argument(
            "--trace-level",
            default="events",
            choices=("spans", "events", "debug"),
            help="tracer verbosity when tracing is armed (default: events)",
        )
        p.add_argument(
            "--metrics-out",
            default=None,
            metavar="PATH",
            help="write merged device metrics (counters/gauges/histograms) as JSON",
        )

    run = sub.add_parser("run", help="regenerate artifacts")
    run.add_argument("artifacts", nargs="+", help="artifact ids, or 'all'")
    add_engine_args(run)
    res = sub.add_parser(
        "resilience",
        help="sweep device fault rates against the hardened restore path",
    )
    res.add_argument(
        "--rates",
        default="0,0.05,0.1,0.2",
        metavar="R1,R2,...",
        help="fault-rate sweep values (default: 0,0.05,0.1,0.2)",
    )
    res.add_argument(
        "--policies",
        default="linear,log",
        metavar="P1,P2,...",
        help="retention policies to sweep (default: linear,log)",
    )
    res.add_argument(
        "--kernels",
        default="median",
        metavar="K1,K2,...",
        help="kernels to sweep (default: median)",
    )
    res.add_argument(
        "--duration",
        type=float,
        default=3.0,
        metavar="SECONDS",
        help="trace duration per point (default: 3.0)",
    )
    res.add_argument(
        "--no-validation",
        action="store_true",
        help="disable CRC guard-word validation on restore",
    )
    res.add_argument(
        "--no-guard-pricing",
        action="store_true",
        help="do not price guard words into backup energy",
    )
    res.add_argument(
        "--seed", type=int, default=0, help="executive seed (default: 0)"
    )
    res.add_argument(
        "--device-seed",
        type=int,
        default=0,
        help="device fault-stream seed (default: 0)",
    )
    add_engine_args(res)
    sub.add_parser("profiles", help="summarise the five power profiles")
    sub.add_parser("calibration", help="print the calibrated constants")
    cache = sub.add_parser(
        "cache", help="inspect, verify or clear the result cache"
    )
    cache.add_argument("action", choices=("info", "verify", "clear"))
    cache.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="the cache directory to inspect, verify or clear",
    )
    report = sub.add_parser(
        "report", help="summarise a recorded JSONL telemetry log"
    )
    report.add_argument(
        "--log",
        required=True,
        metavar="PATH",
        help="the JSONL event log written by 'run --telemetry-log'",
    )
    report.add_argument(
        "--limit",
        type=int,
        default=0,
        metavar="N",
        help="show only the last N runs (default: all)",
    )
    serve = sub.add_parser(
        "serve", help="run the campaign service (HTTP, shared cache)"
    )
    serve.add_argument(
        "--cache-dir",
        required=True,
        metavar="DIR",
        help="directory of the shared sharded result cache",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8787,
        help="listening port, 0 for ephemeral (default: 8787)",
    )
    serve.add_argument(
        "--capacity",
        type=int,
        default=64,
        metavar="N",
        help="max queued+running jobs before 503 (default: 64)",
    )
    serve.add_argument(
        "--queue-workers",
        type=int,
        default=2,
        metavar="N",
        help="campaign worker threads (default: 2)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="engine processes per grid (default: 1)",
    )
    serve.add_argument(
        "--hot-bytes",
        type=int,
        default=64 * 1024 * 1024,
        metavar="BYTES",
        help="in-memory hot-tier budget (default: 64 MiB)",
    )
    serve.add_argument(
        "--telemetry-log",
        default=None,
        metavar="PATH",
        help="append one JSONL event per executed grid (see 'report')",
    )
    serve.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help=(
            "write-ahead job journal; pending jobs found in it are "
            "replayed and re-enqueued at startup (restart-safe serve)"
        ),
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help=(
            "on SIGTERM (or DELETE /), let running jobs finish this "
            "long before requeueing them (default: 30)"
        ),
    )
    submit = sub.add_parser(
        "submit", help="submit a campaign to a running service"
    )
    submit.add_argument(
        "--url",
        required=True,
        metavar="URL",
        help="service base URL, e.g. http://127.0.0.1:8787",
    )
    submit.add_argument(
        "--file",
        required=True,
        metavar="PATH",
        help="campaign JSON file ('-' reads stdin)",
    )
    submit.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the JSONL result stream here ('-' prints it)",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="how long to wait for completion (default: 600)",
    )
    submit.add_argument(
        "--no-wait",
        action="store_true",
        help="enqueue and return without waiting for the job",
    )
    submit.add_argument(
        "--retries",
        type=int,
        default=3,
        metavar="N",
        help=(
            "retry HTTP requests this many times on connection errors "
            "and 503 responses, with jittered exponential backoff that "
            "honors Retry-After (default: 3)"
        ),
    )
    runtable_p = sub.add_parser(
        "runtable",
        help="run a campaign file and write its canonical run_table.csv",
    )
    runtable_p.add_argument(
        "--file",
        required=True,
        metavar="PATH",
        help="campaign JSON file ('-' reads stdin; same schema as 'submit')",
    )
    runtable_p.add_argument(
        "--output",
        default="run_table.csv",
        metavar="PATH",
        help="canonical CSV destination ('-' prints; default: run_table.csv)",
    )
    runtable_p.add_argument(
        "--job",
        default="",
        metavar="LABEL",
        help=(
            "value for the job provenance column (pass a service job id "
            "to reproduce that job's streamed table byte-for-byte)"
        ),
    )
    runtable_p.add_argument(
        "--reps",
        type=int,
        default=1,
        metavar="N",
        help=(
            "seeded harvester-trace repetitions per task (grid/executive "
            "campaigns only; default: 1)"
        ),
    )
    runtable_p.add_argument(
        "--rep-seed",
        type=int,
        default=0,
        metavar="SEED",
        help="base seed the repetition trace seeds derive from (default: 0)",
    )
    add_engine_args(runtable_p)
    stats_p = sub.add_parser(
        "stats",
        help="bootstrap CIs + Mann-Whitney/Cliff's delta between table slices",
    )
    stats_p.add_argument(
        "--table",
        required=True,
        metavar="PATH",
        help="a canonical run_table.csv (see 'runtable')",
    )
    stats_p.add_argument(
        "--metric",
        required=True,
        metavar="COLUMN",
        help="outcome column to compare, e.g. total_progress",
    )
    stats_p.add_argument(
        "--slice-a",
        required=True,
        metavar="COL=VAL[,COL=VAL...]",
        help="filter selecting sample A, e.g. policy=precise,bits=8",
    )
    stats_p.add_argument(
        "--slice-b",
        required=True,
        metavar="COL=VAL[,COL=VAL...]",
        help="filter selecting sample B",
    )
    stats_p.add_argument(
        "--seed",
        type=int,
        default=0,
        help="bootstrap seed; identical seeds reproduce identical CIs",
    )
    stats_p.add_argument(
        "--boot",
        type=int,
        default=2000,
        metavar="N",
        help="bootstrap resamples (default: 2000)",
    )
    stats_p.add_argument(
        "--alpha",
        type=float,
        default=0.05,
        help="two-sided CI significance level (default: 0.05)",
    )
    trace = sub.add_parser(
        "trace", help="inspect a recorded device trace"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_summary = trace_sub.add_parser(
        "summary",
        help="top energy consumers and outage statistics of a trace file",
    )
    trace_summary.add_argument(
        "trace_file",
        metavar="FILE",
        help="a --trace-out file (Chrome trace JSON or .jsonl event log)",
    )
    trace_summary.add_argument(
        "--top",
        type=int,
        default=5,
        metavar="N",
        help="energy consumers to list (default: 5)",
    )

    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command in ("run", "resilience", "runtable"):
        try:
            engine.configure(
                workers=args.workers,
                cache_dir=args.cache_dir,
                use_cache=not args.no_cache,
                task_timeout_s=args.task_timeout,
                retries=args.retries,
                retry_backoff_s=args.retry_backoff,
            )
            telemetry.configure(args.telemetry_log)
            obs_capture.configure(
                trace_out=args.trace_out,
                metrics_out=args.metrics_out,
                level=args.trace_level,
            )
        except (ConfigurationError, OSError) as exc:
            print(
                f"repro-experiments {args.command}: error: {exc}",
                file=sys.stderr,
            )
            return 2
        try:
            if args.command == "resilience":
                rc = _cmd_resilience(args)
            elif args.command == "runtable":
                rc = _cmd_runtable(args)
            else:
                rc = _cmd_run(args.artifacts)
        finally:
            # Flush whatever was captured even when the campaign failed
            # part-way: a partial trace of a failed run is exactly what
            # you want to look at.
            try:
                for path in obs_capture.flush():
                    print(f"wrote {path}")
            except OSError as exc:
                print(
                    f"repro-experiments {args.command}: error: "
                    f"could not write trace/metrics output: {exc}",
                    file=sys.stderr,
                )
                rc = 1
            obs_capture.reset()
        return rc
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "trace":
        return _cmd_trace_summary(args.trace_file, args.top)
    if args.command == "profiles":
        return _cmd_profiles()
    if args.command == "cache":
        return _cmd_cache(args.action, args.cache_dir)
    if args.command == "report":
        return _cmd_report(args.log, args.limit)
    if args.command == "stats":
        return _cmd_stats(args)
    return _cmd_calibration()


if __name__ == "__main__":
    raise SystemExit(main())
