"""Deterministic fault injection for the experiment engine.

The paper's thesis is graceful forward progress under unreliable
power; this module applies the same doctrine to the harness itself. A
:class:`FaultPlan` maps ``(task index, attempt)`` pairs to
:class:`FaultSpec`\\ s; while a plan is installed (:func:`install` /
:func:`injected`), the engine's robust runner passes the matching spec
into each worker invocation, which then

* ``crash``   — raises :class:`~repro.errors.InjectedFaultError`
  before touching the simulator;
* ``hang``    — sleeps past the configured task timeout (finite, so a
  serial run eventually completes even without preemption);
* ``corrupt`` — runs the real simulation, then returns a payload that
  deliberately violates the engine's result-validation invariants
  (negative progress counters, out-of-range bit schedules).

Plans are *seeded* (:meth:`FaultPlan.seeded`), so a fault campaign is
exactly reproducible, and *attempt-addressed*: a fault armed for
attempt 0 never re-fires on the retry, which is what makes the
differential suite's bit-exactness guarantee checkable — the retried
task performs the identical clean computation.

All state lives in the parent process; workers only ever see the one
:class:`FaultSpec` (picklable) for their specific attempt, so process
pools, serial fallback and any worker count inject identically.
"""

from __future__ import annotations

import dataclasses
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional, Tuple

import numpy as np

from ..core.executive import ExecutiveResult
from ..errors import ConfigurationError, InjectedFaultError
from ..system.metrics import SimulationResult

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "install",
    "clear",
    "active",
    "injected",
    "apply_pre_fault",
    "corrupt_simulation_result",
    "corrupt_executive_result",
]

#: The three injectable failure modes.
FAULT_KINDS = ("crash", "hang", "corrupt")


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault (picklable, shipped to the worker)."""

    kind: str
    #: Sleep duration of a ``hang`` fault. Finite by design: a serial
    #: (non-preemptible) run still terminates, merely late.
    hang_s: float = 5.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.hang_s < 0:
            raise ConfigurationError("hang_s must be non-negative")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of faults for one (or any) grid kind.

    ``faults`` maps ``(task_index, attempt)`` to the fault to inject;
    ``scope`` restricts the plan to one grid kind (``"fixed"``, which
    covers fleets too, ``"executive"``, ``"resilience"`` or
    ``"trace"``) or applies to every kind if ``None``. An active plan
    turns the batch tier off, so every task it covers runs per task.
    """

    faults: Mapping[Tuple[int, int], FaultSpec] = field(default_factory=dict)
    scope: Optional[str] = None

    def fault_for(
        self, scope: str, index: int, attempt: int
    ) -> Optional[FaultSpec]:
        """The fault to inject for this task attempt, if any."""
        if self.scope is not None and self.scope != scope:
            return None
        return self.faults.get((index, attempt))

    def counts(self) -> Dict[str, int]:
        """Armed faults per kind — the oracle the telemetry must match."""
        out = {kind: 0 for kind in FAULT_KINDS}
        for spec in self.faults.values():
            out[spec.kind] += 1
        return out

    def __len__(self) -> int:
        return len(self.faults)

    @classmethod
    def seeded(
        cls,
        seed: int,
        n_tasks: int,
        crashes: int = 0,
        hangs: int = 0,
        corrupts: int = 0,
        scope: Optional[str] = None,
        hang_s: float = 5.0,
        attempt: int = 0,
    ) -> "FaultPlan":
        """A reproducible plan: faulted task indices drawn from ``seed``.

        Each fault lands on a distinct task index (so the per-kind
        telemetry counters are exactly the requested counts), all armed
        for the given ``attempt`` (default: the first).
        """
        total = crashes + hangs + corrupts
        if total > n_tasks:
            raise ConfigurationError(
                f"cannot inject {total} faults into {n_tasks} task(s)"
            )
        rng = random.Random(seed)
        indices = rng.sample(range(n_tasks), total)
        kinds = ["crash"] * crashes + ["hang"] * hangs + ["corrupt"] * corrupts
        faults = {
            (index, attempt): FaultSpec(kind, hang_s=hang_s)
            for index, kind in zip(indices, kinds)
        }
        return cls(faults=faults, scope=scope)


# -- installation (parent-process state) ---------------------------------------

_ACTIVE: Optional[FaultPlan] = None


def install(plan: FaultPlan) -> None:
    """Arm ``plan`` for every subsequent engine run (until cleared)."""
    global _ACTIVE
    _ACTIVE = plan


def clear() -> None:
    """Disarm any installed fault plan."""
    global _ACTIVE
    _ACTIVE = None


def active() -> Optional[FaultPlan]:
    """The installed plan, if any (queried by the engine per attempt)."""
    return _ACTIVE


@contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install ``plan`` for the duration of a ``with`` block."""
    install(plan)
    try:
        yield plan
    finally:
        clear()


# -- worker-side application ---------------------------------------------------


def apply_pre_fault(spec: Optional[FaultSpec]) -> None:
    """Apply a ``crash``/``hang`` fault before the simulation runs."""
    if spec is None:
        return
    if spec.kind == "crash":
        raise InjectedFaultError("injected worker crash")
    if spec.kind == "hang":
        time.sleep(spec.hang_s)


def corrupt_simulation_result(result: SimulationResult) -> SimulationResult:
    """A payload guaranteed to fail the engine's result validation.

    The corruption passes :class:`SimulationResult` construction (only
    lengths are checked there) but violates the value-range invariants
    the robust runner enforces, modelling a worker that returned
    garbage without raising.
    """
    return dataclasses.replace(
        result,
        forward_progress=-1,
        bit_schedule=np.full_like(result.bit_schedule, 99),
    )


def corrupt_executive_result(result: ExecutiveResult) -> ExecutiveResult:
    """The executive twin of :func:`corrupt_simulation_result`."""
    return ExecutiveResult(
        sim=corrupt_simulation_result(result.sim),
        frames=result.frames,
        idle_instructions=-1,
    )
