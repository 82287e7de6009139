"""Trace exporters: Chrome trace-event JSON, JSONL, and text summaries.

The tick-stamped records a :class:`~repro.obs.tracer.Tracer` collects
map directly onto the Chrome trace-event format (the ``ph``/``ts``/``dur``
schema consumed by ``chrome://tracing`` and Perfetto). One simulator
tick is 0.1 ms, so ``ts = tick * 100`` puts the timeline in the
microseconds Chrome expects.

Multi-task captures (a grid run with ``--trace-out``) export each task
label as its own Chrome *process*, named via ``process_name`` metadata
events, which Perfetto renders as collapsible per-task groups.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from ..errors import ConfigurationError

__all__ = [
    "TICK_US",
    "chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "read_trace",
    "validate_chrome_trace",
    "summarize_trace",
    "format_summary",
    "render_prometheus",
]

#: Microseconds per simulator tick (TICK_S = 1e-4 s).
TICK_US = 100.0

_ALLOWED_PH = {"X", "i", "I", "M", "B", "E", "C"}


def _event_for_record(record: Mapping[str, object], pid: int) -> Dict[str, object]:
    """Translate one tracer record into a Chrome trace event."""
    event: Dict[str, object] = {
        "name": str(record.get("name", "")),
        "cat": str(record.get("cat", "device")),
        "ph": str(record.get("ph", "i")),
        "pid": pid,
        "tid": 0,
        "ts": float(record.get("tick", 0)) * TICK_US,
        "args": dict(record.get("args", {}) or {}),
    }
    if event["ph"] == "X":
        event["dur"] = float(record.get("dur", 0)) * TICK_US
    else:
        # Chrome instants need a scope; "t" pins them to the thread.
        event["s"] = "t"
    event["args"].setdefault("tick", record.get("tick", 0))
    return event


def _metadata(pid: int, name: str) -> Dict[str, object]:
    return {
        "name": "process_name",
        "ph": "M",
        "pid": pid,
        "tid": 0,
        "ts": 0,
        "cat": "__metadata",
        "args": {"name": name},
    }


def chrome_trace(
    collected: Mapping[str, Sequence[Mapping[str, object]]],
) -> Dict[str, object]:
    """Build a Chrome trace-event JSON object from collected records.

    ``collected`` maps a task label to that task's tracer records; each
    label becomes one Chrome process so grid tasks stay distinguishable
    on the Perfetto timeline.
    """
    events: List[Dict[str, object]] = []
    for pid, (label, records) in enumerate(sorted(collected.items()), start=1):
        events.append(_metadata(pid, label))
        for record in records:
            events.append(_event_for_record(record, pid))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"tick_us": TICK_US, "source": "repro.obs"},
    }


def write_chrome_trace(
    path: object,
    collected: Mapping[str, Sequence[Mapping[str, object]]],
) -> pathlib.Path:
    """Write a Chrome trace-event JSON file and return its path."""
    out = pathlib.Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(chrome_trace(collected), sort_keys=True))
    return out


def write_jsonl(
    path: object,
    collected: Mapping[str, Sequence[Mapping[str, object]]],
) -> pathlib.Path:
    """Write raw tracer records as JSONL (one record per line, with a
    ``label`` field identifying the originating task)."""
    out = pathlib.Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w") as handle:
        for label, records in sorted(collected.items()):
            for record in records:
                row = dict(record)
                row["label"] = label
                handle.write(json.dumps(row, sort_keys=True) + "\n")
    return out


def read_trace(path: object) -> List[Dict[str, object]]:
    """Load events from a saved trace, autodetecting the format.

    Accepts Chrome trace-event JSON (returns its ``traceEvents``) or the
    JSONL event log (returns one dict per line). Raises
    :class:`ConfigurationError` on unreadable or unrecognized files.
    """
    source = pathlib.Path(path)
    try:
        text = source.read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read trace file {source}: {exc}") from exc
    stripped = text.lstrip()
    if not stripped:
        raise ConfigurationError(f"trace file {source} is empty")
    # A Chrome trace is one JSON object with a traceEvents list. A JSONL
    # log also starts with "{" but holds one object per line, so the
    # whole-file parse either fails (several lines) or yields an object
    # without traceEvents (a single record) — both fall through to the
    # line-oriented parser.
    if stripped.startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            payload = None
        if isinstance(payload, dict) and isinstance(payload.get("traceEvents"), list):
            return [e for e in payload["traceEvents"] if isinstance(e, dict)]
    events: List[Dict[str, object]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"trace file {source} line {lineno} is not valid JSON: {exc}"
            ) from exc
        if isinstance(row, dict):
            events.append(row)
    if not events:
        raise ConfigurationError(f"trace file {source} contains no events")
    return events


def validate_chrome_trace(payload: object) -> List[str]:
    """Check a parsed object against the Chrome trace-event schema.

    Returns a list of human-readable problems (empty = valid). Used by
    the CI smoke job and the export tests.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return ["top-level value is not a JSON object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]
    if not events:
        problems.append("traceEvents is empty")
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            problems.append(f"{where}: missing string name")
        ph = event.get("ph")
        if ph not in _ALLOWED_PH:
            problems.append(f"{where}: unsupported ph {ph!r}")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: ts must be a non-negative number")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: complete event needs non-negative dur")
        if not isinstance(event.get("pid"), int):
            problems.append(f"{where}: pid must be an integer")
        if not isinstance(event.get("tid"), int):
            problems.append(f"{where}: tid must be an integer")
        args = event.get("args")
        if args is not None and not isinstance(args, dict):
            problems.append(f"{where}: args must be an object")
    return problems


def _energy_of(event: Mapping[str, object]) -> float:
    args = event.get("args")
    if not isinstance(args, dict):
        return 0.0
    value = args.get("energy_uj")
    return float(value) if isinstance(value, (int, float)) else 0.0


def _is_outage(event: Mapping[str, object]) -> bool:
    return event.get("name") == "outage" and event.get("ph") == "X"


def _dur_ticks(event: Mapping[str, object]) -> float:
    dur = event.get("dur", 0.0)
    dur = float(dur) if isinstance(dur, (int, float)) else 0.0
    # Chrome exports carry dur in µs; raw JSONL records carry ticks.
    return dur / TICK_US if "ts" in event else dur


def summarize_trace(
    events: Iterable[Mapping[str, object]],
    top: int = 5,
) -> Dict[str, object]:
    """Aggregate a loaded trace: top-N energy consumers + outage stats.

    Works on either format :func:`read_trace` returns. Energy is summed
    from each event's ``args.energy_uj`` grouped by event name; outage
    statistics come from ``outage`` spans.
    """
    energy: Dict[str, Dict[str, float]] = {}
    outages: List[float] = []
    n_events = 0
    for event in events:
        if event.get("ph") == "M":
            continue
        n_events += 1
        uj = _energy_of(event)
        if uj > 0.0:
            bucket = energy.setdefault(str(event.get("name")), {"energy_uj": 0.0, "events": 0})
            bucket["energy_uj"] += uj
            bucket["events"] += 1
        if _is_outage(event):
            outages.append(_dur_ticks(event))
    ranked = sorted(energy.items(), key=lambda kv: (-kv[1]["energy_uj"], kv[0]))
    return {
        "n_events": n_events,
        "top_energy": [
            {"name": name, "energy_uj": stats["energy_uj"], "events": int(stats["events"])}
            for name, stats in ranked[: max(0, int(top))]
        ],
        "outages": {
            "count": len(outages),
            "total_ticks": sum(outages),
            "mean_ticks": (sum(outages) / len(outages)) if outages else 0.0,
            "max_ticks": max(outages) if outages else 0.0,
        },
    }


def format_summary(summary: Mapping[str, object]) -> str:
    """Render :func:`summarize_trace` output as an aligned text block."""
    lines = [f"trace events: {summary['n_events']}"]
    top = summary.get("top_energy") or []
    if top:
        lines.append("top energy consumers:")
        width = max(len(str(row["name"])) for row in top)
        for row in top:
            lines.append(
                f"  {str(row['name']):<{width}}  "
                f"{row['energy_uj']:>12.3f} uJ  ({row['events']} events)"
            )
    else:
        lines.append("top energy consumers: none recorded")
    outages = summary.get("outages") or {}
    count = int(outages.get("count", 0))
    if count:
        lines.append(
            "outages: {count} spans, mean {mean:.0f} ticks, max {peak:.0f} ticks "
            "({total:.0f} ticks total)".format(
                count=count,
                mean=float(outages.get("mean_ticks", 0.0)),
                peak=float(outages.get("max_ticks", 0.0)),
                total=float(outages.get("total_ticks", 0.0)),
            )
        )
    else:
        lines.append("outages: none recorded")
    return "\n".join(lines)


# -- Prometheus text exposition -------------------------------------------------
#
# First slice of the live-metrics roadmap item: any MetricsRegistry —
# a device run's, or the campaign service's merged registry — renders
# to the Prometheus text format (version 0.0.4) so a fleet campaign
# can be watched by a stock scraper. Counters map to counters
# (suffixed `_total` per convention), gauges to gauges, and the
# fixed-bucket histograms map exactly: cumulative `_bucket{le=...}`
# series plus `_sum` / `_count`, no re-binning.


def _prometheus_name(name: str, prefix: str) -> str:
    safe = "".join(
        ch if (ch.isascii() and (ch.isalnum() or ch == "_")) else "_"
        for ch in str(name)
    )
    full = f"{prefix}_{safe}" if prefix else safe
    if not full or full[0].isdigit():
        full = f"_{full}"
    return full


def _prometheus_value(value: float) -> str:
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _prometheus_help(raw_name: str, kind: str,
                     help_texts: Optional[Mapping[str, str]]) -> str:
    if help_texts and raw_name in help_texts:
        text = help_texts[raw_name]
    else:
        text = f"{kind} '{raw_name}' from the repro metrics registry."
    # Exposition-format escaping for HELP text: backslash and newline.
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def render_prometheus(
    registry,
    prefix: str = "repro",
    help_texts: Optional[Mapping[str, str]] = None,
) -> str:
    """Render a :class:`~repro.obs.metrics.MetricsRegistry` in
    Prometheus text format (deterministic: sorted families).

    Every family gets a ``# HELP`` line ahead of its ``# TYPE``;
    ``help_texts`` overrides the default description per raw metric
    name. Histograms expose the full exposition shape: cumulative
    ``_bucket{le=...}`` series plus ``_sum`` and ``_count``.
    """
    lines: List[str] = []
    for name, value in sorted(registry.counters.items()):
        family = _prometheus_name(name, prefix)
        if not family.endswith("_total"):
            family += "_total"
        lines.append(
            f"# HELP {family} {_prometheus_help(name, 'counter', help_texts)}"
        )
        lines.append(f"# TYPE {family} counter")
        lines.append(f"{family} {_prometheus_value(value)}")
    for name, value in sorted(registry.gauges.items()):
        family = _prometheus_name(name, prefix)
        lines.append(
            f"# HELP {family} {_prometheus_help(name, 'gauge', help_texts)}"
        )
        lines.append(f"# TYPE {family} gauge")
        lines.append(f"{family} {_prometheus_value(value)}")
    for name, hist in sorted(registry.histograms.items()):
        family = _prometheus_name(name, prefix)
        lines.append(
            f"# HELP {family} {_prometheus_help(name, 'histogram', help_texts)}"
        )
        lines.append(f"# TYPE {family} histogram")
        cumulative = 0
        for bound, count in zip(hist.bounds, hist.counts):
            cumulative += count
            lines.append(
                f'{family}_bucket{{le="{bound:g}"}} {cumulative}'
            )
        lines.append(f'{family}_bucket{{le="+Inf"}} {hist.count}')
        lines.append(f"{family}_sum {_prometheus_value(hist.sum)}")
        lines.append(f"{family}_count {hist.count}")
    return "\n".join(lines) + "\n"
