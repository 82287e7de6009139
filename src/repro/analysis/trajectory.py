"""Perf-trajectory surface over the repo's ``BENCH_*.json`` snapshots.

Each tier's benchmark harness commits a flat JSON snapshot
(``BENCH_incidental.json``, ``BENCH_runtable.json``, ...) at the
repository root. This module folds every snapshot into one long-format
table — ``(bench, metric, value)`` rows, numeric leaves only, booleans
as 1/0 — so perf history is queryable with the same slicing tools as the
run table, and CI can gate on regressions between a baseline checkout
and the current one.

Gating is deliberately selective: ratio-like metrics (speedups,
rows/s, throughputs, hit rates, overhead fractions and the
``bit_exact`` booleans) are machine-comparable, while raw wall-second
timings vary with host load and are left ungated by default —
:func:`metric_direction` returns ``None`` for them and
:func:`check_regressions` skips direction-less metrics.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigurationError

__all__ = [
    "BENCH_GLOB_PREFIX",
    "flatten_numeric",
    "load_bench_payloads",
    "bench_rows",
    "history_csv_bytes",
    "metric_direction",
    "Regression",
    "check_regressions",
    "format_regressions",
]

BENCH_GLOB_PREFIX = "BENCH_"

#: Substrings marking a metric as higher-is-better.
_HIGHER_SUBSTRINGS = (
    "speedup", "throughput", "rows_per_s", "rps", "per_s", "hit_rate",
    "bit_exact", "byte_identical",
)
#: Substrings marking a metric as lower-is-better.
_LOWER_SUBSTRINGS = (
    "overhead", "latency", "p95", "p99",
)


def flatten_numeric(
    payload: Mapping[str, object], prefix: str = ""
) -> Dict[str, float]:
    """Flatten nested JSON to dotted-path -> float, numeric leaves only.

    Booleans become 1.0/0.0 (so conformance flags like ``bit_exact``
    are gateable); strings and nulls are dropped; list elements are
    addressed by index.
    """
    flat: Dict[str, float] = {}
    for key, value in payload.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, bool):
            flat[path] = 1.0 if value else 0.0
        elif isinstance(value, (int, float)):
            flat[path] = float(value)
        elif isinstance(value, Mapping):
            flat.update(flatten_numeric(value, path))
        elif isinstance(value, (list, tuple)):
            for i, element in enumerate(value):
                if isinstance(element, bool):
                    flat[f"{path}.{i}"] = 1.0 if element else 0.0
                elif isinstance(element, (int, float)):
                    flat[f"{path}.{i}"] = float(element)
                elif isinstance(element, Mapping):
                    flat.update(flatten_numeric(element, f"{path}.{i}"))
    return flat


def load_bench_payloads(root: str) -> Dict[str, Mapping[str, object]]:
    """``BENCH_*.json`` files under ``root`` as name -> parsed payload.

    Sorted by file name for deterministic row order; unparseable files
    raise :class:`~repro.errors.ConfigurationError` (a corrupt snapshot
    should fail the gate loudly, not vanish from it).
    """
    payloads: Dict[str, Mapping[str, object]] = {}
    try:
        names = sorted(os.listdir(root))
    except OSError as exc:
        raise ConfigurationError(f"cannot list bench root {root!r}: {exc}")
    for name in names:
        if not (name.startswith(BENCH_GLOB_PREFIX) and name.endswith(".json")):
            continue
        path = os.path.join(root, name)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"cannot parse {path}: {exc}")
        if isinstance(payload, dict):
            payloads[name[len(BENCH_GLOB_PREFIX):-len(".json")]] = payload
    return payloads


def bench_rows(root: str) -> List[Dict[str, object]]:
    """Long-format trajectory rows ``{bench, metric, value}``."""
    rows: List[Dict[str, object]] = []
    for bench, payload in load_bench_payloads(root).items():
        flat = flatten_numeric(payload)
        for metric in sorted(flat):
            rows.append({"bench": bench, "metric": metric,
                         "value": flat[metric]})
    return rows


def history_csv_bytes(rows: Sequence[Mapping[str, object]]) -> bytes:
    """Deterministic CSV of trajectory rows (same cell formatting as
    the run table, so the two surfaces diff and join cleanly)."""
    from .runtable import format_cell

    lines = ["bench,metric,value,direction"]
    for row in rows:
        metric = str(row["metric"])
        lines.append(
            ",".join(
                (
                    format_cell(row["bench"]),
                    format_cell(metric),
                    format_cell(row["value"]),
                    metric_direction(metric) or "",
                )
            )
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


def metric_direction(metric: str) -> Optional[str]:
    """``"higher"`` / ``"lower"`` for gated metrics, ``None`` for
    ungated ones (raw wall-clock timings and counts)."""
    name = metric.lower()
    for token in _LOWER_SUBSTRINGS:
        if token in name:
            return "lower"
    for token in _HIGHER_SUBSTRINGS:
        if token in name:
            return "higher"
    return None


@dataclass(frozen=True)
class Regression:
    """One gated metric that moved the wrong way beyond tolerance."""

    bench: str
    metric: str
    direction: str
    baseline: float
    current: float

    @property
    def change(self) -> float:
        """Signed relative change vs the baseline (0 baseline -> inf)."""
        if self.baseline == 0.0:
            return float("inf") if self.current != 0.0 else 0.0
        return (self.current - self.baseline) / abs(self.baseline)


def check_regressions(
    baseline_rows: Sequence[Mapping[str, object]],
    current_rows: Sequence[Mapping[str, object]],
    *,
    tolerance: float = 0.1,
) -> List[Regression]:
    """Gated metrics that regressed beyond ``tolerance``.

    A higher-is-better metric regresses when ``current <
    baseline * (1 - tolerance)``; lower-is-better when ``current >
    baseline * (1 + tolerance)``. Metrics present on only one side are
    skipped (new benchmarks must not fail the gate retroactively).
    """
    if tolerance < 0.0:
        raise ConfigurationError(f"tolerance must be >= 0, got {tolerance}")
    baseline = {
        (str(r["bench"]), str(r["metric"])): float(r["value"])  # type: ignore[arg-type]
        for r in baseline_rows
    }
    regressions: List[Regression] = []
    for row in current_rows:
        key = (str(row["bench"]), str(row["metric"]))
        if key not in baseline:
            continue
        direction = metric_direction(key[1])
        if direction is None:
            continue
        base = baseline[key]
        current = float(row["value"])  # type: ignore[arg-type]
        if direction == "higher":
            bound = base * (1.0 - tolerance) if base >= 0 else base * (1.0 + tolerance)
            failed = current < bound
        else:
            bound = base * (1.0 + tolerance) if base >= 0 else base * (1.0 - tolerance)
            failed = current > bound
        if failed:
            regressions.append(
                Regression(
                    bench=key[0],
                    metric=key[1],
                    direction=direction,
                    baseline=base,
                    current=current,
                )
            )
    return regressions


def format_regressions(regressions: Sequence[Regression]) -> str:
    """Human-readable one-line-per-regression report."""
    if not regressions:
        return "no trajectory regressions"
    lines = [f"{len(regressions)} trajectory regression(s):"]
    for reg in regressions:
        lines.append(
            f"  {reg.bench}:{reg.metric} [{reg.direction}-is-better] "
            f"baseline {reg.baseline:g} -> current {reg.current:g} "
            f"({reg.change:+.1%})"
        )
    return "\n".join(lines)
