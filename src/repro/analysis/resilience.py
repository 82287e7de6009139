"""Resilience campaigns: quality/availability vs device fault rate.

A :class:`ResilienceTask` wraps an :class:`ExecutiveTask` with a
device-fault scenario (:class:`repro.resilience.ResilienceConfig`) and
reduces the run to a :class:`ResiliencePoint` — availability, quality
and every detection/fallback counter of the hardened restore path.
Points are small JSON summaries, cached content-addressed next to the
fixed/executive entries (``res-`` filename prefix) and executed through
the engine's one task pipeline (:func:`repro.analysis.engine.run_tasks`
with the :data:`~repro.analysis.engine.RESILIENCE` kind: cache,
retries, timeouts, pool degradation, telemetry), so a cached campaign
replays the same fallback counts and quality scores bit-for-bit.

:class:`ResilienceCampaign` sweeps fault rates x retention policies x
kernels and emits quality-vs-fault-rate and availability curves — the
CLI exposes it as ``repro-experiments resilience``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .._validation import check_int_in_range, check_non_negative, check_probability
from ..core.executive import ExecutiveResult
from ..errors import ConfigurationError
from ..resilience import ResilienceConfig
from . import telemetry
from .engine import (
    ENGINE_CACHE_VERSION,
    RESILIENCE,
    ExecutiveTask,
    ResultCache,
    derive_task_seed,
    run_tasks,
)
from .reporting import format_table

__all__ = [
    "ResilienceTask",
    "ResiliencePoint",
    "ResilienceCampaign",
    "CampaignResult",
    "run_resilience_grid",
    "resilience_payload_error",
    "corrupt_resilience_point",
]

@dataclass(frozen=True)
class ResilienceTask:
    """One executive run under a device-fault scenario.

    ``rate`` is the campaign's fault-scale knob: the torn-backup and
    brownout probabilities are ``rate`` times their scale factors
    (clipped to 1), and the SEU rate is ``rate * seu_scale`` per bit
    per tick. ``rate=0`` disables every mechanism — the differential
    anchor point of every curve.
    """

    base: ExecutiveTask
    rate: float = 0.0
    torn_scale: float = 1.0
    brownout_scale: float = 0.5
    seu_scale: float = 2e-5
    brownout_ticks: int = 400
    validate_restores: bool = True
    price_guard_words: bool = True
    device_seed: int = 0

    def __post_init__(self) -> None:
        check_non_negative(self.rate, "rate")
        check_non_negative(self.torn_scale, "torn_scale")
        check_non_negative(self.brownout_scale, "brownout_scale")
        check_non_negative(self.seu_scale, "seu_scale")
        check_int_in_range(self.brownout_ticks, "brownout_ticks", 1)
        check_int_in_range(self.device_seed, "device_seed", 0)
        check_probability(self.rate * self.torn_scale, "rate * torn_scale")
        check_probability(self.rate * self.brownout_scale, "rate * brownout_scale")

    def cache_key(self) -> str:
        """Content hash: full base config + fault scenario + version."""
        payload = dataclasses.asdict(self)
        payload["__engine__"] = ENGINE_CACHE_VERSION
        payload["__task__"] = "resilience"
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        ).hexdigest()

    def resilience_config(self) -> ResilienceConfig:
        """The device-resilience scenario this task attaches."""
        return ResilienceConfig(
            torn_backup_rate=self.rate * self.torn_scale,
            seu_rate=self.rate * self.seu_scale,
            brownout_rate=self.rate * self.brownout_scale,
            brownout_ticks=self.brownout_ticks,
            validate_restores=self.validate_restores,
            price_guard_words=self.price_guard_words,
            seed=self.device_seed,
        )

    def run(self, engine: str = "reference", tracer=None) -> "ResiliencePoint":
        """Simulate and reduce to a :class:`ResiliencePoint`.

        Resilience runs always execute the reference loop (the fast
        paths do not model fault semantics); ``engine`` is accepted for
        grid-runner symmetry and routes through
        :meth:`IncidentalExecutive.run`'s resilience fallback.
        """
        executive = self.base.build_executive(
            resilience=self.resilience_config(), tracer=tracer
        )
        result = executive.run(engine=engine)
        resilience = executive.processor.resilience
        assert resilience is not None  # attached two lines up
        scores = executive.frame_quality(result)
        return ResiliencePoint.reduce(
            self, result, scores, resilience.telemetry.to_dict(),
            aborted_backups=executive.processor.aborted_backup_count,
        )


@dataclass(frozen=True)
class ResiliencePoint:
    """One campaign grid point: availability, quality, fault counters."""

    kernel: str
    policy: str
    rate: float
    frames_total: int
    frames_completed: int
    frames_abandoned: int
    scored_frames: int
    mean_psnr_db: Optional[float]
    min_psnr_db: Optional[float]
    on_fraction: float
    total_progress: int
    backups: int
    aborted_backups: int
    restores: int
    detected_failures: int
    fallback_previous: int
    rollforwards: int
    silent_corruptions: int
    undetected_corruptions: int
    brownouts: int
    blocked_restores: int
    seu_flips: int
    lost_progress: int
    guard_energy_uj: float
    wasted_restore_energy_uj: float

    @property
    def availability(self) -> float:
        """Fraction of arrived frames the system eventually completed."""
        if self.frames_total <= 0:
            return 0.0
        return self.frames_completed / self.frames_total

    @classmethod
    def reduce(
        cls,
        task: ResilienceTask,
        result: ExecutiveResult,
        scores: Sequence,
        telemetry_dict: Dict[str, float],
        aborted_backups: int,
    ) -> "ResiliencePoint":
        """Collapse one executive run + telemetry into a point."""
        psnrs = [float(s.psnr_db) for s in scores]
        sim = result.sim
        return cls(
            kernel=task.base.kernel,
            policy=task.base.policy,
            rate=float(task.rate),
            frames_total=len(result.frames),
            frames_completed=result.frames_completed,
            frames_abandoned=result.frames_abandoned,
            scored_frames=len(psnrs),
            mean_psnr_db=float(np.mean(psnrs)) if psnrs else None,
            min_psnr_db=float(np.min(psnrs)) if psnrs else None,
            on_fraction=sim.on_ticks / sim.total_ticks if sim.total_ticks else 0.0,
            total_progress=sim.total_progress,
            backups=int(telemetry_dict["backups"]),
            aborted_backups=int(aborted_backups),
            restores=int(telemetry_dict["restores"]),
            detected_failures=int(telemetry_dict["detected_failures"]),
            fallback_previous=int(telemetry_dict["fallback_previous"]),
            rollforwards=int(telemetry_dict["rollforwards"]),
            silent_corruptions=int(telemetry_dict["silent_corruptions"]),
            undetected_corruptions=int(telemetry_dict["undetected_corruptions"]),
            brownouts=int(telemetry_dict["brownouts"]),
            blocked_restores=int(telemetry_dict["blocked_restores"]),
            seu_flips=int(telemetry_dict["seu_flips"]),
            lost_progress=int(telemetry_dict["lost_progress"]),
            guard_energy_uj=float(telemetry_dict["guard_energy_uj"]),
            wasted_restore_energy_uj=float(
                telemetry_dict["wasted_restore_energy_uj"]
            ),
        )

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ResiliencePoint":
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - names
        if unknown:
            raise ValueError(
                f"unknown resilience point fields: {sorted(unknown)}"
            )
        missing = names - set(payload)
        if missing:
            raise ValueError(
                f"missing resilience point fields: {sorted(missing)}"
            )
        return cls(**payload)  # type: ignore[arg-type]


def resilience_payload_error(point: object) -> Optional[str]:
    """Why ``point`` is not a trustworthy :class:`ResiliencePoint`.

    The resilience twin of ``simulation_payload_error``: conservative
    structural/value-range invariants every honest point satisfies, so
    a worker (or injected fault) returning garbage is retried rather
    than trusted.
    """
    if not isinstance(point, ResiliencePoint):
        return f"payload is {type(point).__name__}, not ResiliencePoint"
    for name in (
        "frames_total",
        "frames_completed",
        "frames_abandoned",
        "scored_frames",
        "total_progress",
        "backups",
        "aborted_backups",
        "restores",
        "detected_failures",
        "fallback_previous",
        "rollforwards",
        "silent_corruptions",
        "undetected_corruptions",
        "brownouts",
        "blocked_restores",
        "seu_flips",
        "lost_progress",
    ):
        if getattr(point, name) < 0:
            return f"{name} is negative"
    if point.frames_completed > point.frames_total:
        return "frames_completed exceeds frames_total"
    if point.aborted_backups > point.backups:
        return "aborted_backups exceeds backups"
    if not 0.0 <= point.on_fraction <= 1.0:
        return "on_fraction outside [0, 1]"
    for name in ("rate", "guard_energy_uj", "wasted_restore_energy_uj"):
        value = getattr(point, name)
        if math.isnan(value) or value < 0:
            return f"{name} is negative or NaN"
    for name in ("mean_psnr_db", "min_psnr_db"):
        value = getattr(point, name)
        if value is not None and math.isnan(value):
            return f"{name} is NaN"
    return None


def corrupt_resilience_point(point: ResiliencePoint) -> ResiliencePoint:
    """Deliberately break a point so validation must catch it
    (fault-injection harness; mirrors ``corrupt_simulation_result``)."""
    return dataclasses.replace(
        point, frames_completed=point.frames_total + 7, backups=-1
    )


def run_resilience_grid(
    tasks: Sequence[ResilienceTask],
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    engine: str = "reference",
) -> Tuple[ResiliencePoint, ...]:
    """Run every :class:`ResilienceTask`; points return in task order.

    :func:`~repro.analysis.engine.run_tasks` with the
    :data:`~repro.analysis.engine.RESILIENCE` kind: the same
    robust core (retries, timeouts, pool degradation, per-run telemetry
    with ``kind="resilience"``) and content-addressed on-disk cache as
    the other grids — points are stored as small ``res-`` prefixed JSON
    entries, so a warm campaign replays its fallback counts and quality
    scores without simulating. An entry whose JSON does not match the
    :class:`ResiliencePoint` schema is quarantined and recomputed.
    """
    # Resilience grids always carry a context label: runners inside a
    # ``telemetry.context(...)`` block keep their artifact label (as the
    # 21 experiment runners do), while direct CLI invocations fall back
    # to "resilience" instead of an anonymous empty string.
    with telemetry.context(telemetry.current_context() or "resilience"):
        return run_tasks(tasks, RESILIENCE, workers, cache, engine)


@dataclass(frozen=True)
class ResilienceCampaign:
    """A fault-rate x retention-policy x kernel sweep.

    Enumeration order is the deterministic product order
    ``kernel x policy x rate``. Each task derives an independent device
    seed from its coordinates, so neighbouring points see uncorrelated
    fault streams while the whole campaign stays reproducible from
    ``device_seed``.
    """

    kernels: Tuple[str, ...] = ("median",)
    policies: Tuple[str, ...] = ("linear", "log")
    rates: Tuple[float, ...] = (0.0, 0.02, 0.05, 0.1, 0.2)
    profile_id: int = 1
    duration_s: float = 4.0
    minbits: int = 2
    maxbits: int = 8
    frame_size: int = 12
    frame_period_ticks: int = 15_000
    recover_placement: str = "inner"
    validate_restores: bool = True
    price_guard_words: bool = True
    brownout_ticks: int = 400
    seed: int = 0
    device_seed: int = 0

    def __post_init__(self) -> None:
        if not self.kernels or not self.policies or not self.rates:
            raise ConfigurationError(
                "campaign needs at least one kernel, policy and rate"
            )

    def tasks(self) -> Tuple[ResilienceTask, ...]:
        """Enumerate the campaign in deterministic product order."""
        out: List[ResilienceTask] = []
        for kernel in self.kernels:
            for policy in self.policies:
                for rate in self.rates:
                    base = ExecutiveTask(
                        kernel=kernel,
                        policy=policy,
                        profile_id=self.profile_id,
                        minbits=self.minbits,
                        maxbits=self.maxbits,
                        duration_s=self.duration_s,
                        frame_size=self.frame_size,
                        frame_period_ticks=self.frame_period_ticks,
                        recover_placement=self.recover_placement,
                        seed=self.seed,
                    )
                    out.append(
                        ResilienceTask(
                            base=base,
                            rate=float(rate),
                            brownout_ticks=self.brownout_ticks,
                            validate_restores=self.validate_restores,
                            price_guard_words=self.price_guard_words,
                            device_seed=derive_task_seed(
                                self.device_seed, kernel, policy, f"{rate:.6g}"
                            ),
                        )
                    )
        return tuple(out)

    def run(
        self,
        workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        engine: str = "reference",
    ) -> "CampaignResult":
        """Execute the whole campaign through the robust grid core."""
        tasks = self.tasks()
        points = run_resilience_grid(
            tasks, workers=workers, cache=cache, engine=engine
        )
        return CampaignResult(campaign=self, tasks=tasks, points=points)


@dataclass(frozen=True)
class CampaignResult:
    """A completed campaign: tasks and points in enumeration order."""

    campaign: ResilienceCampaign
    tasks: Tuple[ResilienceTask, ...]
    points: Tuple[ResiliencePoint, ...]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Tuple[ResilienceTask, ResiliencePoint]]:
        return iter(zip(self.tasks, self.points))

    def _series(self, kernel: str, policy: str) -> List[ResiliencePoint]:
        series = [
            p for p in self.points if p.kernel == kernel and p.policy == policy
        ]
        if not series:
            raise KeyError(f"no points for kernel={kernel!r} policy={policy!r}")
        return sorted(series, key=lambda p: p.rate)

    def availability_curve(
        self, kernel: str, policy: str
    ) -> List[Tuple[float, float]]:
        """``(rate, availability)`` pairs, ascending in rate."""
        return [(p.rate, p.availability) for p in self._series(kernel, policy)]

    def quality_curve(
        self, kernel: str, policy: str
    ) -> List[Tuple[float, Optional[float]]]:
        """``(rate, mean PSNR dB)`` pairs (``None`` = nothing scored)."""
        return [(p.rate, p.mean_psnr_db) for p in self._series(kernel, policy)]

    def as_table(self) -> str:
        """The campaign as an aligned text table."""
        headers = (
            "kernel",
            "policy",
            "rate",
            "avail",
            "psnr_db",
            "torn",
            "detected",
            "fb_prev",
            "rollfwd",
            "silent",
            "brownouts",
            "lost",
        )
        rows = [
            (
                p.kernel,
                p.policy,
                f"{p.rate:.3f}",
                f"{p.availability:.3f}",
                "-" if p.mean_psnr_db is None else f"{p.mean_psnr_db:.2f}",
                p.aborted_backups,
                p.detected_failures,
                p.fallback_previous,
                p.rollforwards,
                p.silent_corruptions,
                p.brownouts,
                p.lost_progress,
            )
            for p in self.points
        ]
        return format_table(headers, rows)

    def equal(self, other: "CampaignResult") -> bool:
        """Exact point-for-point equality (the determinism check)."""
        return self.tasks == other.tasks and self.points == other.points
