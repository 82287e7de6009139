"""Hardened restore path: validation, fallback chain, telemetry.

``DeviceResilience`` is the per-run stateful object the processor and
system simulator consult. It owns a :class:`DeviceFaultModel`, a
:class:`CheckpointStore`, and a mutable :class:`ResilienceTelemetry`
ledger, and implements the paper-faithful degradation chain on every
restore:

1. newest checkpoint, if its CRC-8 guard validates;
2. otherwise the previous checkpoint, if *its* guard validates;
3. otherwise abandon the restore image entirely and roll forward from
   the newest buffered input — semantically safe under the incidental
   model, because interrupted frames are re-enqueued as incidental
   lanes rather than required state.

Guard words are priced into backup energy when
``ResilienceConfig.price_guard_words`` is set; pricing is a separate
knob from validation so that a zero-rate fault model with validation
enabled stays bit-identical to the fault-free simulator (the rate-0
differential acceptance criterion).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Dict, Optional

import numpy as np

from .._validation import check_choice, check_int_in_range
from ..errors import SimulationError
from ..obs.tracer import NULL_TRACER
from .checkpoint import Checkpoint, CheckpointStore, crc8
from .model import DeviceFaultModel

__all__ = [
    "ResilienceConfig",
    "RestoreOutcome",
    "ResilienceTelemetry",
    "DeviceResilience",
    "OUTCOME_KINDS",
]

#: Restore outcome kinds, from best to worst.
OUTCOME_KINDS = ("ok", "cold", "silent", "fallback_previous", "rollforward")


@dataclass(frozen=True)
class ResilienceConfig:
    """Immutable description of one device-resilience scenario.

    A config with all rates at zero and ``price_guard_words=False``
    leaves the simulated energy/progress trajectory bit-identical to a
    run with no resilience at all — validation still executes (and
    trivially passes), so the rate-0 differential suite exercises the
    full restore path.
    """

    torn_backup_rate: float = 0.0
    seu_rate: float = 0.0
    brownout_rate: float = 0.0
    brownout_ticks: int = 200
    #: Check CRC-8 guards at restore time and run the fallback chain.
    validate_restores: bool = True
    #: Charge guard-word writes into backup energy (perturbs the
    #: capacitor trajectory, so it is a deliberate, separate knob).
    price_guard_words: bool = False
    #: CRC width per guarded region.
    guard_crc_bits: int = 8
    #: Guarded regions: four pipeline-stage latch groups plus the
    #: register bank and the control/PC block.
    guard_regions: int = 6
    #: Fallback chain depth (checkpoints retained).
    checkpoint_depth: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        check_int_in_range(self.guard_crc_bits, "guard_crc_bits", 1, 64)
        check_int_in_range(self.guard_regions, "guard_regions", 1, 64)
        check_int_in_range(self.checkpoint_depth, "checkpoint_depth", 1, 16)
        # Rates are validated by the fault model itself.
        self.build_fault_model()

    def build_fault_model(self) -> DeviceFaultModel:
        return DeviceFaultModel(
            torn_backup_rate=self.torn_backup_rate,
            seu_rate=self.seu_rate,
            brownout_rate=self.brownout_rate,
            brownout_ticks=self.brownout_ticks,
            seed=self.seed,
        )

    @property
    def guard_bits(self) -> int:
        """Total guard-word bits added to every backup image."""
        return self.guard_crc_bits * self.guard_regions


@dataclass(frozen=True)
class RestoreOutcome:
    """What one hardened restore resolved to."""

    kind: str
    #: Tick of the checkpoint actually restored (None for rollforward
    #: and cold starts, which restore no checkpoint image).
    checkpoint_tick: Optional[int] = None
    #: Committed lane-instructions discarded by this outcome.
    lost_progress: int = 0

    def __post_init__(self) -> None:
        check_choice(self.kind, "kind", OUTCOME_KINDS, exc=SimulationError)

    @property
    def degraded(self) -> bool:
        """Whether the executive must degrade buffered frame state."""
        return self.kind in ("silent", "fallback_previous", "rollforward")


@dataclass
class ResilienceTelemetry:
    """Mutable per-run counters for every detection and fallback."""

    backups: int = 0
    torn_backups: int = 0
    restores: int = 0
    cold_restores: int = 0
    clean_restores: int = 0
    detected_failures: int = 0
    detected_torn: int = 0
    detected_seu: int = 0
    fallback_previous: int = 0
    rollforwards: int = 0
    silent_corruptions: int = 0
    undetected_corruptions: int = 0
    brownouts: int = 0
    blocked_restores: int = 0
    seu_flips: int = 0
    lost_progress: int = 0
    guard_energy_uj: float = 0.0
    wasted_restore_energy_uj: float = 0.0

    def to_dict(self) -> Dict[str, float]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, float]) -> "ResilienceTelemetry":
        names = {f.name for f in fields(cls)}
        unknown = set(payload) - names
        if unknown:
            raise SimulationError(
                f"unknown resilience telemetry fields: {sorted(unknown)}"
            )
        return cls(**payload)


class DeviceResilience:
    """Per-run fault injection + hardened-restore state machine."""

    def __init__(self, config: ResilienceConfig) -> None:
        self.config = config
        self.model = config.build_fault_model()
        self.store = CheckpointStore(capacity=config.checkpoint_depth)
        self.telemetry = ResilienceTelemetry()
        #: Observability tracer; the owning processor overwrites this
        #: with its own tracer right after construction.
        self.tracer = NULL_TRACER
        self._epoch_progress = 0
        self._brownout_until = -1

    @property
    def priced_guard_bits(self) -> int:
        """Guard bits the backup engine should price (0 when unpriced)."""
        return self.config.guard_bits if self.config.price_guard_words else 0

    def reset(self) -> None:
        """Fresh telemetry and checkpoint state (fault model unchanged)."""
        self.store.clear()
        self.telemetry = ResilienceTelemetry()
        self._epoch_progress = 0
        self._brownout_until = -1

    # -- execution-side hooks ------------------------------------------

    def note_executed(self, instructions: int) -> None:
        """Accumulate committed work since the last backup (the stake
        lost if that backup later turns out to be unrecoverable)."""
        self._epoch_progress += int(instructions)

    def note_guard_energy(self, energy_uj: float, state_bits: int) -> None:
        """Attribute the guard-word share of one backup's energy."""
        guard = self.priced_guard_bits
        if guard <= 0 or state_bits <= 0:
            return
        self.telemetry.guard_energy_uj += energy_uj * guard / (state_bits + guard)

    # -- backup path ----------------------------------------------------

    def on_backup(self, tick: int, state_bits: int) -> bool:
        """Write one checkpoint; returns ``True`` if it was torn.

        The stored image is a synthetic byte pattern keyed by the tick,
        guarded at write time; a torn backup overwrites the tail third
        of the image *after* guarding, which is what an interrupted
        distributed in-situ backup physically leaves behind.
        """
        tel = self.telemetry
        tel.backups += 1
        n_words = max(1, (int(state_bits) + 7) // 8)
        words = self.model.rng("content", tick).integers(
            0, 256, size=n_words, dtype=np.uint8
        )
        guard = crc8(words)
        torn = self.model.torn_backup(tick)
        if torn:
            tel.torn_backups += 1
            if self.tracer.events:
                self.tracer.instant(
                    "resilience.torn_backup",
                    tick=tick,
                    cat="resilience",
                    args={"state_bits": int(state_bits)},
                )
            tail = max(1, n_words // 3)
            words[-tail:] = self.model.rng("torn-tail", tick).integers(
                0, 256, size=tail, dtype=np.uint8
            )
        checkpoint = Checkpoint(
            tick=tick,
            state_bits=int(state_bits),
            words=words,
            guard=guard,
            torn=torn,
            corrupted=torn,
            epoch_progress=self._epoch_progress,
        )
        self._epoch_progress = 0
        self.store.push(checkpoint)
        return torn

    # -- restore path ---------------------------------------------------

    def restore_blocked(self, tick: int) -> bool:
        """Whether a brownout tail blocks the restore attempt at ``tick``.

        A blocked attempt still draws restore energy from the capacitor
        (the simulator charges it as wasted energy); the device stays
        OFF until the window closes.
        """
        if self.model.brownout_rate <= 0.0:
            return False
        if tick < self._brownout_until:
            self.telemetry.blocked_restores += 1
            if self.tracer.enabled:
                self.tracer.metrics.inc("resilience.blocked_restores")
            return True
        if self.model.brownout_begins(tick):
            self._brownout_until = tick + self.model.brownout_ticks
            self.telemetry.brownouts += 1
            self.telemetry.blocked_restores += 1
            if self.tracer.enabled:
                self.tracer.metrics.inc("resilience.blocked_restores")
                self.tracer.span(
                    "resilience.brownout",
                    tick,
                    self._brownout_until,
                    cat="resilience",
                )
            return True
        return False

    def _expose(self, checkpoint: Checkpoint, tick: int) -> None:
        """Apply SEU flips accrued since the checkpoint was last examined."""
        if self.model.seu_rate <= 0.0 or tick <= checkpoint.exposed_until:
            return
        positions = self.model.seu_flip_positions(
            checkpoint.tick, checkpoint.exposed_until, tick, checkpoint.n_bits
        )
        checkpoint.exposed_until = tick
        if positions.size:
            self.telemetry.seu_flips += int(positions.size)
            if self.tracer.events:
                self.tracer.instant(
                    "resilience.seu_flips",
                    tick=tick,
                    cat="resilience",
                    args={"flips": int(positions.size), "checkpoint_tick": checkpoint.tick},
                )
            checkpoint.apply_flips(positions)

    def on_restore(self, tick: int) -> RestoreOutcome:
        """Run the fallback chain for the restore completing at ``tick``."""
        outcome = self._resolve_restore(tick)
        tracer = self.tracer
        if tracer.enabled:
            tracer.metrics.inc(f"resilience.restore.{outcome.kind}")
            if tracer.events and outcome.kind != "ok":
                tracer.instant(
                    "resilience.restore_outcome",
                    tick=tick,
                    cat="resilience",
                    args={
                        "kind": outcome.kind,
                        "checkpoint_tick": outcome.checkpoint_tick,
                        "lost_progress": outcome.lost_progress,
                    },
                )
        return outcome

    def _resolve_restore(self, tick: int) -> RestoreOutcome:
        tel = self.telemetry
        tel.restores += 1
        newest = self.store.newest
        if newest is None:
            # Nothing was ever backed up: a cold start, which the
            # roll-forward model already handles (begin at the newest
            # input with empty progress).
            tel.cold_restores += 1
            return RestoreOutcome(kind="cold")
        for checkpoint in self.store:
            self._expose(checkpoint, tick)

        if not self.config.validate_restores:
            # Unguarded restore: corrupted state is consumed as-is.
            if newest.corrupted:
                tel.silent_corruptions += 1
                return RestoreOutcome(kind="silent", checkpoint_tick=newest.tick)
            tel.clean_restores += 1
            return RestoreOutcome(kind="ok", checkpoint_tick=newest.tick)

        if newest.validate():
            if newest.corrupted:
                # CRC-8 collision: architecturally invisible corruption.
                tel.undetected_corruptions += 1
                tel.silent_corruptions += 1
                return RestoreOutcome(kind="silent", checkpoint_tick=newest.tick)
            tel.clean_restores += 1
            return RestoreOutcome(kind="ok", checkpoint_tick=newest.tick)

        # Newest checkpoint failed its guard: detected.
        tel.detected_failures += 1
        if newest.torn:
            tel.detected_torn += 1
        else:
            tel.detected_seu += 1
        lost = newest.epoch_progress
        previous = self.store.previous
        if previous is not None and previous.validate():
            tel.lost_progress += lost
            if previous.corrupted:
                tel.undetected_corruptions += 1
                tel.silent_corruptions += 1
                return RestoreOutcome(
                    kind="silent", checkpoint_tick=previous.tick, lost_progress=lost
                )
            tel.fallback_previous += 1
            return RestoreOutcome(
                kind="fallback_previous",
                checkpoint_tick=previous.tick,
                lost_progress=lost,
            )
        if previous is not None:
            # Both images bad; the previous one's stake is lost too.
            tel.detected_failures += 1
            if previous.torn:
                tel.detected_torn += 1
            else:
                tel.detected_seu += 1
            lost += previous.epoch_progress
        tel.lost_progress += lost
        tel.rollforwards += 1
        # Abandon the restore image entirely; stale checkpoints are
        # useless once rolled past.
        self.store.clear()
        return RestoreOutcome(kind="rollforward", lost_progress=lost)
