"""Fleet specifications and per-device tasks.

A fleet is a weighted mixture of *archetypes* (a harvester mode plus a
device configuration and its manufacturing spread). :meth:`FleetSpec.tasks`
expands the mixture into one :class:`FleetDeviceTask` per device, with
every random draw derived from the fleet seed and the device index via
:func:`repro.analysis.engine.derive_task_seed` — the expansion is a
pure function of the spec, independent of enumeration order, process,
and worker count.

:class:`FleetDeviceTask` is duck-type compatible with
:class:`repro.analysis.engine.FixedBitTask` where the engine cares
(``cache_key``/``build_trace``/``run`` plus the batch-tier attributes
``bits``/``simd_width``/``policy``/``kernel`` and the chunk-planning
hooks ``trace_ticks``/``trace_signature``), and adds
``system_config()`` so per-device capacitor heterogeneity reaches both
the batch kernel and the per-task fallback identically.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .._validation import check_int_in_range, check_positive
from ..analysis.engine import (
    ENGINE_CACHE_VERSION,
    TRACE_MEMO,
    derive_task_seed,
)
from ..energy.traces import (
    PowerTrace,
    SYNTH_TRACE_MODES,
    synth_trace_ticks,
    synthesize_trace,
)
from ..errors import ConfigurationError
from ..kernels.registry import kernel_mix
from ..nvm.retention import STANDARD_POLICY_NAMES, policy_by_name
from ..system.config import SystemConfig
from ..system.metrics import SimulationResult
from ..system.simulator import simulate_fixed_bits

__all__ = [
    "DEFAULT_ARCHETYPES",
    "FleetArchetype",
    "FleetDeviceTask",
    "FleetSpec",
    "clear_fleet_trace_memo",
]

_POLICY_CHOICES = ("precise",) + tuple(STANDARD_POLICY_NAMES)


def _fleet_trace(
    mode: str, seed: int, duration_s: float, scale: float
) -> PowerTrace:
    """A device's synthesised trace, memoised in the engine's one
    :data:`~repro.analysis.engine.TRACE_MEMO`.

    The memo is a byte-bounded LRU shared with the standard profiles
    and seeded re-rolls, so a pool worker does not keep the previous
    chunk's traces. Lanes of one device see one ``PowerTrace`` instance
    while it is held, which the batch plan's slot dedup relies on; an
    evicted trace is synthesised again, sample for sample.
    """
    return TRACE_MEMO.get(
        ("fleet", mode, seed, duration_s, scale),
        lambda: synthesize_trace(
            mode, seed, duration_s=duration_s, scale=scale
        ),
    )


def clear_fleet_trace_memo() -> None:
    """Drop every memoised trace (the fleet shares the engine's memo)."""
    TRACE_MEMO.clear()


@dataclass(frozen=True)
class FleetDeviceTask:
    """One simulated fleet device, as a hashable value object.

    Fully describes the device: its seeded harvester trace (mode, seed,
    duration, efficiency ``scale``) and its hardware configuration
    (bitwidth, SIMD width, retention policy, kernel mix, capacitor
    size). The cache key prepends
    :data:`repro.analysis.engine.ResultCache.FLEET_PREFIX`, so fleet
    entries are counted separately by ``repro cache info`` while using
    the ordinary fixed-bit read/write paths.
    """

    device_id: int
    archetype: str
    mode: str
    trace_seed: int
    duration_s: float = 1.0
    scale: float = 1.0
    bits: int = 8
    simd_width: int = 1
    policy: str = "precise"
    kernel: Optional[str] = None
    capacitor_uj: float = 4.5

    def __post_init__(self) -> None:
        if self.mode not in SYNTH_TRACE_MODES:
            raise ConfigurationError(
                f"mode must be one of {SYNTH_TRACE_MODES}, got {self.mode!r}"
            )
        if self.policy not in _POLICY_CHOICES:
            raise ConfigurationError(
                f"policy must be one of {_POLICY_CHOICES}, got {self.policy!r}"
            )
        check_int_in_range(self.bits, "bits", 1, 8)
        check_int_in_range(self.simd_width, "simd_width", 1, 4)
        check_positive(self.duration_s, "duration_s")
        check_positive(self.scale, "scale")
        check_positive(self.capacitor_uj, "capacitor_uj")

    def cache_key(self) -> str:
        """Prefixed content hash of the device config and code version."""
        # Every field is a scalar, so this is the dict dataclasses.asdict
        # builds, without its recursive deep copy.
        payload = {f.name: getattr(self, f.name) for f in _TASK_FIELDS}
        payload["__engine__"] = ENGINE_CACHE_VERSION
        payload["__task__"] = "fleet"
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        ).hexdigest()
        return f"fleet-{digest}"

    def system_config(self) -> SystemConfig:
        """The device's system configuration (capacitor heterogeneity)."""
        return SystemConfig(capacitor_uj=self.capacitor_uj)

    def build_trace(self) -> PowerTrace:
        """The device's seeded harvester trace (memoised, deterministic)."""
        return _fleet_trace(self.mode, self.trace_seed, self.duration_s, self.scale)

    def trace_ticks(self) -> int:
        """Tick count of :meth:`build_trace`, without synthesising it."""
        return synth_trace_ticks(self.duration_s)

    def trace_signature(self) -> Tuple:
        """Hashable (trace, config) identity for chunk dedup planning."""
        return (
            "fleet",
            self.mode,
            self.trace_seed,
            self.duration_s,
            self.scale,
            self.capacitor_uj,
        )

    def run(self, engine: str = "auto", tracer=None) -> SimulationResult:
        """Execute the device simulation (no caching at this level)."""
        policy = None if self.policy == "precise" else policy_by_name(self.policy)
        kwargs = {}
        if self.kernel is not None:
            kwargs["mix"] = kernel_mix(self.kernel)
        return simulate_fixed_bits(
            self.build_trace(),
            self.bits,
            simd_width=self.simd_width,
            policy=policy,
            config=self.system_config(),
            engine=engine,
            tracer=tracer,
            **kwargs,
        )


_TASK_FIELDS = dataclasses.fields(FleetDeviceTask)


@dataclass(frozen=True)
class FleetArchetype:
    """One weighted device class within a fleet.

    ``capacitor_spread`` is the ± fractional uniform manufacturing
    spread around ``capacitor_uj``; ``scale_sigma`` the lognormal sigma
    of the device's harvester efficiency (median 1.0). ``duration_s``
    overrides the fleet-wide window for this archetype (e.g. a few
    long-horizon gateway devices among many short-window sensors).
    """

    name: str
    mode: str = "solar"
    weight: float = 1.0
    bits: int = 8
    simd_width: int = 1
    policy: str = "precise"
    kernel: Optional[str] = None
    capacitor_uj: float = 4.5
    capacitor_spread: float = 0.25
    scale_sigma: float = 0.35
    duration_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.mode not in SYNTH_TRACE_MODES:
            raise ConfigurationError(
                f"mode must be one of {SYNTH_TRACE_MODES}, got {self.mode!r}"
            )
        check_positive(self.weight, "weight")
        check_positive(self.capacitor_uj, "capacitor_uj")
        if not 0.0 <= self.capacitor_spread < 1.0:
            raise ConfigurationError(
                "capacitor_spread must be in [0, 1), got "
                f"{self.capacitor_spread!r}"
            )
        if self.scale_sigma < 0.0:
            raise ConfigurationError(
                f"scale_sigma must be >= 0, got {self.scale_sigma!r}"
            )
        if self.duration_s is not None:
            check_positive(self.duration_s, "duration_s")


#: A representative heterogeneous mixture: mostly solar window sensors,
#: a band of RF scavengers, and a thermal wearable tail.
DEFAULT_ARCHETYPES: Tuple[FleetArchetype, ...] = (
    FleetArchetype(name="solar-sensor", mode="solar", weight=0.5),
    FleetArchetype(
        name="rf-scavenger", mode="rf", weight=0.3, capacitor_uj=6.0, bits=6
    ),
    FleetArchetype(
        name="thermal-wearable",
        mode="thermal",
        weight=0.2,
        capacitor_uj=3.0,
        policy="log",
    ),
)


@dataclass(frozen=True)
class FleetSpec:
    """A fleet: N devices drawn from a weighted archetype mixture."""

    n_devices: int = 1000
    seed: int = 0
    duration_s: float = 1.0
    archetypes: Tuple[FleetArchetype, ...] = DEFAULT_ARCHETYPES

    def __post_init__(self) -> None:
        check_int_in_range(self.n_devices, "n_devices", 1)
        check_positive(self.duration_s, "duration_s")
        if not self.archetypes:
            raise ConfigurationError("a fleet needs at least one archetype")

    def tasks(self) -> Tuple[FleetDeviceTask, ...]:
        """Expand the fleet into per-device tasks, deterministically.

        Each device's archetype pick, efficiency scale, capacitor draw
        and trace seed derive from ``(seed, device_id)`` alone —
        reordering, filtering or resizing the fleet never changes any
        surviving device's task.
        """
        weights = np.array([a.weight for a in self.archetypes], dtype=np.float64)
        cumulative = np.cumsum(weights / weights.sum())
        tasks: List[FleetDeviceTask] = []
        for device_id in range(self.n_devices):
            rng = np.random.default_rng(
                derive_task_seed(self.seed, "fleet-device", device_id)
            )
            arch = self.archetypes[
                int(np.searchsorted(cumulative, rng.random(), side="right").clip(
                    0, len(self.archetypes) - 1
                ))
            ]
            scale = 1.0
            if arch.scale_sigma:
                scale = float(np.exp(rng.normal(0.0, arch.scale_sigma)))
            capacitor = arch.capacitor_uj
            if arch.capacitor_spread:
                capacitor *= 1.0 + arch.capacitor_spread * float(
                    rng.uniform(-1.0, 1.0)
                )
            tasks.append(
                FleetDeviceTask(
                    device_id=device_id,
                    archetype=arch.name,
                    mode=arch.mode,
                    trace_seed=derive_task_seed(
                        self.seed, "fleet-trace", device_id
                    ),
                    duration_s=(
                        arch.duration_s
                        if arch.duration_s is not None
                        else self.duration_s
                    ),
                    scale=round(scale, 9),
                    bits=arch.bits,
                    simd_width=arch.simd_width,
                    policy=arch.policy,
                    kernel=arch.kernel,
                    capacitor_uj=round(capacitor, 9),
                )
            )
        return tuple(tasks)
