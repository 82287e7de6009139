"""Summary statistics and the long-format result rows.

Every number the suite reports is a row ``(workload, layer, metric,
unit, n, median, q1, q3, ci_lo, ci_hi)``. Quartiles follow
``statistics.quantiles(values, n=4)``; the confidence interval is a
seeded percentile bootstrap of the median, so the same samples and seed
always give the same interval.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence

import numpy as np

ROW_FIELDS = (
    "workload", "layer", "metric", "unit", "n",
    "median", "q1", "q3", "ci_lo", "ci_hi",
)

#: Candidate tail levels, in per mille (99.9 %, 99 %, 95 %, 90 %, 75 %).
TAIL_LEVELS_PERMILLE = (999, 990, 950, 900, 750)
#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10

_BOOT = 1000
_BOOT_CHUNK = 100


def tail_level(n: int) -> Optional[float]:
    """The highest tail percentile with >= 10 of ``n`` samples beyond it.

    ``None`` when even the 75th percentile has fewer than ten samples
    above it (fewer than 40 samples).
    """
    for level in TAIL_LEVELS_PERMILLE:
        if n * (1000 - level) >= MIN_BEYOND * 1000:
            return level / 10.0
    return None


def percentile(values: Sequence[float], level: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), level))


def bootstrap_median_ci(
    values: Sequence[float], seed: int, alpha: float = 0.05
) -> tuple:
    """Seeded percentile-bootstrap interval of the median."""
    data = np.asarray(values, dtype=np.float64)
    if data.size < 2:
        value = float(data[0]) if data.size else float("nan")
        return value, value
    rng = np.random.default_rng(seed)
    medians = []
    for _ in range(_BOOT // _BOOT_CHUNK):
        index = rng.integers(0, data.size, size=(_BOOT_CHUNK, data.size))
        medians.append(np.median(data[index], axis=1))
    lo, hi = np.quantile(np.concatenate(medians), (alpha / 2, 1 - alpha / 2))
    return float(lo), float(hi)


def describe(values: Sequence[float], seed: int = 0) -> Dict[str, float]:
    """n, median, quartiles and the bootstrap CI of ``values``."""
    data = [float(v) for v in values]
    if not data:
        raise ValueError("describe() needs at least one value")
    median = statistics.median(data)
    q1 = q3 = median
    if len(data) >= 2:
        q1, _, q3 = statistics.quantiles(data, n=4)
    ci_lo, ci_hi = bootstrap_median_ci(data, seed)
    return {"n": len(data), "median": median, "q1": q1, "q3": q3,
            "ci_lo": ci_lo, "ci_hi": ci_hi}


def row(workload: str, layer: str, metric: str, unit: str,
        values: Sequence[float], seed: int = 0) -> Dict[str, object]:
    """One long-format row summarising ``values``."""
    return {"workload": workload, "layer": layer, "metric": metric,
            "unit": unit, **describe(values, seed)}


def point_row(workload: str, layer: str, metric: str, unit: str,
              value: float, n: int = 1) -> Dict[str, object]:
    """A row for a single derived value (a ratio or a rate)."""
    return {"workload": workload, "layer": layer, "metric": metric,
            "unit": unit, "n": n, "median": value, "q1": value,
            "q3": value, "ci_lo": value, "ci_hi": value}


def latency_rows(workload: str, metric_prefix: str,
                 latencies_ms: Sequence[float], seed: int) -> List[Dict[str, object]]:
    """Median row plus the tail row the sample size supports."""
    rows = [row(workload, "end_to_end", f"{metric_prefix}_p50", "ms",
                latencies_ms, seed)]
    level = tail_level(len(latencies_ms))
    if level is not None:
        name = f"{metric_prefix}_p{level:g}".replace(".", "_")
        rows.append(point_row(workload, "end_to_end", name, "ms",
                              percentile(latencies_ms, level), len(latencies_ms)))
    return rows
