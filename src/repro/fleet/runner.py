"""Fleet campaign execution and distribution summaries.

:func:`run_fleet` pushes a :class:`~repro.fleet.spec.FleetSpec`'s
device tasks through the ordinary engine pipeline — cache, the
chunk-sharded batch tier, robust retries — and folds the per-device
results into population distributions. All aggregates are also
exported as :class:`repro.obs.metrics.MetricsRegistry` histograms and
counters, so fleet runs merge exactly like any other obs payload
(e.g. summing shard registries across campaign services).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..analysis import engine as engine_mod
from ..obs.metrics import MetricsRegistry
from ..system.metrics import SimulationResult
from .spec import FleetDeviceTask, FleetSpec

__all__ = [
    "AVAILABILITY_BUCKETS",
    "FleetResult",
    "PERCENTILES",
    "run_fleet",
]

#: Reported percentile levels for all fleet distributions.
PERCENTILES: Tuple[int, ...] = (5, 25, 50, 75, 95, 99)

#: Availability (on-fraction) histogram bounds / CDF thresholds.
AVAILABILITY_BUCKETS: Tuple[float, ...] = (
    0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
)

#: Forward progress per second of trace (committed instructions/s).
_PROGRESS_RATE_BUCKETS: Tuple[float, ...] = (
    1e2, 1e3, 1e4, 1e5, 3e5, 1e6, 3e6, 1e7,
)

#: Energy per committed instruction (µJ); right-open overflow bucket
#: catches devices that never commit.
_ENERGY_PER_PROGRESS_BUCKETS: Tuple[float, ...] = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 1e-1,
)


def _percentile_dict(values: np.ndarray) -> Dict[str, float]:
    return {
        f"p{level}": float(np.percentile(values, level))
        for level in PERCENTILES
    }


@dataclass(frozen=True)
class FleetResult:
    """Population distributions of one fleet campaign.

    ``availability_cdf`` maps each threshold ``t`` of
    :data:`AVAILABILITY_BUCKETS` to the fraction of devices whose
    availability (on-tick fraction) is ``<= t`` — a true CDF, so
    "fraction of fleet at least 90 % available" is
    ``1 - cdf[0.9 - step]``. ``metrics`` is a mergeable
    :class:`~repro.obs.metrics.MetricsRegistry` export. ``keys`` are
    the devices' cache keys, hashed once for the engine's cache probe,
    so a caller naming their entries need not hash them again.
    """

    spec: FleetSpec
    tasks: Tuple[FleetDeviceTask, ...]
    keys: Tuple[str, ...]
    results: Tuple[SimulationResult, ...]
    progress_percentiles: Dict[str, float]
    progress_rate_percentiles: Dict[str, float]
    availability_percentiles: Dict[str, float]
    availability_cdf: Dict[float, float]
    energy_per_progress_percentiles: Dict[str, float]
    per_archetype: Dict[str, Dict[str, float]]
    metrics: Dict[str, object]

    def __len__(self) -> int:
        return len(self.tasks)


def run_fleet(
    spec: FleetSpec,
    workers: Optional[int] = None,
    engine: str = "auto",
    cache: Optional["engine_mod.ResultCache"] = None,
) -> FleetResult:
    """Simulate every device of ``spec`` and summarise the population.

    Execution is delegated to :func:`repro.analysis.engine.run_grid`
    (same tiers, cache and telemetry as any experiment grid; the engine
    picks the tier itself), so a fleet is deterministic for any worker
    count, chunking and tier, and warm-cache reruns skip simulation
    entirely.
    """
    tasks = spec.tasks()
    keys = tuple(task.cache_key() for task in tasks)
    grid = engine_mod.run_grid(
        tasks, workers=workers, cache=cache, engine=engine, keys=keys
    )
    results = grid.results

    progress = np.array(
        [r.forward_progress for r in results], dtype=np.float64
    )
    total_ticks = np.array([r.total_ticks for r in results], dtype=np.float64)
    on_ticks = np.array([r.on_ticks for r in results], dtype=np.float64)
    availability = on_ticks / np.maximum(total_ticks, 1.0)
    duration_s = np.array(
        [task.duration_s for task in tasks], dtype=np.float64
    )
    progress_rate = progress / duration_s
    spent_uj = np.array(
        [
            r.run_energy_uj + r.backup_energy_uj + r.restore_energy_uj
            for r in results
        ],
        dtype=np.float64,
    )
    energy_per_progress = np.where(
        progress > 0, spent_uj / np.maximum(progress, 1.0), np.inf
    )

    registry = MetricsRegistry()
    registry.inc("fleet.devices", float(len(tasks)))
    registry.inc("fleet.devices_stalled", float(int(np.sum(progress == 0))))
    for i, task in enumerate(tasks):
        registry.inc(f"fleet.archetype.{task.archetype}")
        registry.observe(
            "fleet.progress_rate_per_s",
            float(progress_rate[i]),
            _PROGRESS_RATE_BUCKETS,
        )
        registry.observe(
            "fleet.availability", float(availability[i]), AVAILABILITY_BUCKETS
        )
        if np.isfinite(energy_per_progress[i]):
            registry.observe(
                "fleet.energy_per_progress_uj",
                float(energy_per_progress[i]),
                _ENERGY_PER_PROGRESS_BUCKETS,
            )

    availability_cdf = {
        float(t): float(np.mean(availability <= t))
        for t in AVAILABILITY_BUCKETS
    }
    finite_epp = energy_per_progress[np.isfinite(energy_per_progress)]
    if finite_epp.size == 0:
        finite_epp = np.zeros(1)

    per_archetype: Dict[str, Dict[str, float]] = {}
    names = [task.archetype for task in tasks]
    for name in sorted(set(names)):
        mask = np.array([n == name for n in names])
        per_archetype[name] = {
            "devices": float(np.sum(mask)),
            "median_progress": float(np.median(progress[mask])),
            "median_progress_per_s": float(np.median(progress_rate[mask])),
            "mean_availability": float(np.mean(availability[mask])),
            "stalled_fraction": float(np.mean(progress[mask] == 0)),
        }

    return FleetResult(
        spec=spec,
        tasks=tasks,
        keys=keys,
        results=results,
        progress_percentiles=_percentile_dict(progress),
        progress_rate_percentiles=_percentile_dict(progress_rate),
        availability_percentiles=_percentile_dict(availability),
        availability_cdf=availability_cdf,
        energy_per_progress_percentiles=_percentile_dict(finite_epp),
        per_archetype=per_archetype,
        metrics=registry.to_dict(),
    )
