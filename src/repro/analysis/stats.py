"""Seeded repetition statistics over the canonical run table.

The paper's claims are distribution claims — forward progress,
availability and quality across configurations and harvester traces —
so single-run point values are not enough. This module provides the
statistics pass on top of :mod:`repro.analysis.runtable`:

* **repetition sweeps** — expand each grid/executive task into ``n``
  seeded re-rolls of its harvester trace (seeds derived with
  :func:`~repro.analysis.engine.derive_task_seed`, so a sweep is fully
  reproducible and cache-friendly) and run them through the existing
  cached engine;
* **bootstrap confidence intervals** for slice means, seeded through
  ``numpy.random.default_rng`` so identical seeds reproduce identical
  intervals bit-for-bit;
* **nonparametric comparisons** between any two config slices:
  Mann–Whitney U with tie-corrected normal approximation (no scipy
  dependency) and Cliff's delta with the conventional magnitude
  labels.

Everything operates on run-table rows (live dicts or rows re-read from
a canonical CSV), so a statistic computed from a service-streamed
table equals one computed from a direct run.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Iterable, List, Mapping, Sequence

import numpy as np

from ..errors import ConfigurationError
from .engine import (
    ExecutiveTask,
    FixedBitTask,
    derive_task_seed,
    run_executive_grid,
    run_grid,
)
from .runtable import RunTable, build_run_table, format_cell

__all__ = [
    "bootstrap_mean_ci",
    "mann_whitney_u",
    "cliffs_delta",
    "slice_rows",
    "metric_values",
    "compare_slices",
    "repetition_tasks",
    "repetition_sweep",
    "parse_slice_spec",
]

#: Conventional |delta| thresholds for Cliff's delta magnitude labels.
_DELTA_THRESHOLDS = ((0.147, "negligible"), (0.33, "small"), (0.474, "medium"))


# -- core statistics -------------------------------------------------------------


def bootstrap_mean_ci(
    values: Sequence[float],
    *,
    seed: int = 0,
    n_boot: int = 2000,
    alpha: float = 0.05,
) -> Dict[str, float]:
    """Seeded percentile-bootstrap CI for the mean of ``values``.

    Deterministic for a given ``(values, seed, n_boot, alpha)`` — the
    resample index stream comes from ``np.random.default_rng(seed)``.
    """
    data = np.asarray(list(values), dtype=np.float64)
    if data.size == 0:
        raise ConfigurationError("bootstrap_mean_ci needs at least one value")
    mean = float(data.mean())
    if data.size == 1:
        return {"n": 1, "mean": mean, "ci_lo": mean, "ci_hi": mean}
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, data.size, size=(int(n_boot), data.size))
    means = data[indices].mean(axis=1)
    lo, hi = np.quantile(means, (alpha / 2.0, 1.0 - alpha / 2.0))
    return {"n": int(data.size), "mean": mean,
            "ci_lo": float(lo), "ci_hi": float(hi)}


def _rankdata(values: np.ndarray) -> np.ndarray:
    """Average ranks (1-based) with ties sharing their mean rank."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    sorted_values = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_values[j + 1] == sorted_values[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def mann_whitney_u(
    a: Sequence[float], b: Sequence[float]
) -> Dict[str, float]:
    """Two-sided Mann–Whitney U via the tie-corrected normal approximation.

    Returns ``u`` (statistic of sample *a*), ``z`` and ``p_value``.
    Degenerate comparisons (all values tied) report ``p_value = 1``.
    """
    xa = np.asarray(list(a), dtype=np.float64)
    xb = np.asarray(list(b), dtype=np.float64)
    if xa.size == 0 or xb.size == 0:
        raise ConfigurationError("mann_whitney_u needs two non-empty samples")
    n1, n2 = int(xa.size), int(xb.size)
    combined = np.concatenate([xa, xb])
    ranks = _rankdata(combined)
    r1 = float(ranks[:n1].sum())
    u1 = r1 - n1 * (n1 + 1) / 2.0
    mu = n1 * n2 / 2.0
    n = n1 + n2
    _, counts = np.unique(combined, return_counts=True)
    tie_term = float((counts.astype(np.float64) ** 3 - counts).sum())
    variance = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if variance <= 0.0:
        return {"u": float(u1), "z": 0.0, "p_value": 1.0}
    # Continuity correction toward the mean.
    z = (u1 - mu - 0.5 * math.copysign(1.0, u1 - mu)) / math.sqrt(variance)
    if u1 == mu:
        z = 0.0
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return {"u": float(u1), "z": float(z), "p_value": min(1.0, float(p))}


def cliffs_delta(a: Sequence[float], b: Sequence[float]) -> Dict[str, object]:
    """Cliff's delta effect size of *a* over *b*, with magnitude label."""
    xa = np.sort(np.asarray(list(a), dtype=np.float64))
    xb = np.sort(np.asarray(list(b), dtype=np.float64))
    if xa.size == 0 or xb.size == 0:
        raise ConfigurationError("cliffs_delta needs two non-empty samples")
    # #(a > b) - #(a < b) over all pairs, via sorted-array searches.
    greater = np.searchsorted(xb, xa, side="left").sum()
    less = (xb.size - np.searchsorted(xb, xa, side="right")).sum()
    delta = float(greater - less) / float(xa.size * xb.size)
    magnitude = "large"
    for threshold, label in _DELTA_THRESHOLDS:
        if abs(delta) < threshold:
            magnitude = label
            break
    return {"delta": delta, "magnitude": magnitude}


# -- run-table slicing -----------------------------------------------------------


def parse_slice_spec(spec: str) -> Dict[str, str]:
    """Parse ``"policy=precise,bits=8"`` into a filter mapping."""
    filters: Dict[str, str] = {}
    for clause in spec.split(","):
        clause = clause.strip()
        if not clause:
            continue
        column, sep, value = clause.partition("=")
        if not sep:
            raise ConfigurationError(
                f"slice clause {clause!r} is not column=value"
            )
        filters[column.strip()] = value.strip()
    if not filters:
        raise ConfigurationError(f"slice spec {spec!r} selects nothing")
    return filters


def slice_rows(
    rows: Iterable[Mapping[str, object]], filters: Mapping[str, str]
) -> List[Mapping[str, object]]:
    """Rows whose canonical cell text matches every filter value."""
    out = []
    for row in rows:
        if all(
            format_cell(row.get(column)) == value
            for column, value in filters.items()
        ):
            out.append(row)
    return out


def metric_values(
    rows: Iterable[Mapping[str, object]], metric: str
) -> np.ndarray:
    """Float values of ``metric`` across rows, skipping empty cells."""
    values = []
    for row in rows:
        cell = format_cell(row.get(metric))
        if cell != "":
            values.append(float(cell))
    return np.asarray(values, dtype=np.float64)


def compare_slices(
    rows: Sequence[Mapping[str, object]],
    metric: str,
    filters_a: Mapping[str, str],
    filters_b: Mapping[str, str],
    *,
    seed: int = 0,
    n_boot: int = 2000,
    alpha: float = 0.05,
) -> Dict[str, object]:
    """Full statistical comparison of ``metric`` between two slices.

    Bootstrap seeds for the two slices derive from ``seed`` via
    :func:`~repro.analysis.engine.derive_task_seed`, so repeated calls
    with identical inputs reproduce identical CIs and effect sizes.
    """
    values_a = metric_values(slice_rows(rows, filters_a), metric)
    values_b = metric_values(slice_rows(rows, filters_b), metric)
    if values_a.size == 0 or values_b.size == 0:
        raise ConfigurationError(
            f"slice comparison on {metric!r} found "
            f"{values_a.size} vs {values_b.size} values — check filters"
        )
    return {
        "metric": metric,
        "a": {
            "filters": dict(filters_a),
            **bootstrap_mean_ci(
                values_a,
                seed=derive_task_seed(seed, "bootstrap", "a", metric),
                n_boot=n_boot,
                alpha=alpha,
            ),
        },
        "b": {
            "filters": dict(filters_b),
            **bootstrap_mean_ci(
                values_b,
                seed=derive_task_seed(seed, "bootstrap", "b", metric),
                n_boot=n_boot,
                alpha=alpha,
            ),
        },
        "mann_whitney": mann_whitney_u(values_a, values_b),
        "cliffs_delta": cliffs_delta(values_a, values_b),
    }


# -- seeded repetition sweeps ----------------------------------------------------


def repetition_tasks(
    task, n_reps: int, base_seed: int
) -> List:
    """``n_reps`` seeded re-rolls of one task's harvester trace.

    Repetition 0 is the task unchanged; repetitions ``1..n-1`` replace
    its trace seed with ``derive_task_seed(base_seed, "runtable-rep",
    rep, task.cache_key())`` — unique per (task, rep) and independent
    of grid position, so sweeps are stable under reordering.
    """
    if n_reps < 1:
        raise ConfigurationError(f"n_reps must be >= 1, got {n_reps}")
    reps = [task]
    for rep in range(1, n_reps):
        seed = derive_task_seed(base_seed, "runtable-rep", rep, task.cache_key())
        if isinstance(task, FixedBitTask):
            reps.append(dataclasses.replace(task, seed=seed))
        elif isinstance(task, ExecutiveTask):
            reps.append(dataclasses.replace(task, trace_seed=seed))
        else:
            raise ConfigurationError(
                "repetition sweeps support fixed and executive tasks, "
                f"not {type(task).__name__}"
            )
    return reps


def repetition_sweep(
    kind: str,
    tasks: Sequence,
    *,
    n_reps: int,
    base_seed: int = 0,
    engine: str = "auto",
    job: str = "",
) -> RunTable:
    """Run a seeded repetition sweep and return its run table.

    The expanded grid runs through the ordinary cached engine in one
    call (all tiers, cache and telemetry apply), then flattens with
    ``task_index`` = base-task index and ``repetition`` = re-roll
    index, so slices like ``task_index=2`` group one configuration's
    distribution.
    """
    if kind not in ("fixed", "executive"):
        raise ConfigurationError(
            f"repetition sweeps support kinds fixed/executive, got {kind!r}"
        )
    expanded: List = []
    indices: List[int] = []
    repetitions: List[int] = []
    for index, task in enumerate(tasks):
        for rep, rep_task in enumerate(
            repetition_tasks(task, n_reps, base_seed)
        ):
            expanded.append(rep_task)
            indices.append(index)
            repetitions.append(rep)
    if kind == "fixed":
        results = run_grid(expanded, engine=engine).results
    else:
        results = run_executive_grid(expanded, engine=engine).results
    return build_run_table(
        kind,
        expanded,
        results,
        job=job,
        task_indices=indices,
        repetitions=repetitions,
    )
