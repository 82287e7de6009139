"""Structured device tracer: span/instant events with tick timestamps.

The tracer is the observation layer of the simulated device: the system
simulator, the processor's backup engine, the resilience state machine
and the incidental executive all emit events into one :class:`Tracer`
so a whole run can be replayed on a timeline (exported to Chrome
trace-event JSON by :mod:`repro.obs.export`).

Every event is a device-level span or instant stamped with the
simulator's 0.1 ms tick index. Events are pure functions of the
simulated trajectory and therefore fully deterministic: the
trace-determinism tests compare them byte for byte across repeated
runs.

The zero-overhead contract
--------------------------

Instrumented code never constructs event arguments unconditionally: it
guards with the tracer's boolean attributes (``enabled`` / ``spans`` /
``events`` / ``debug``), hoisted to locals before hot loops. The
module-level :data:`NULL_TRACER` singleton has every flag ``False`` and
no-op methods, so a disabled run's only cost is the guard itself — a
local load and a conditional jump. Only the per-tick reference loop is
instrumented: an enabled tracer routes a run there, and an untraced
run replays through the C kernels, which take no tracer at all. The
differential suite in ``tests/test_obs_differential.py`` enforces that
enabling the tracer changes no simulated result: tracing only ever
*reads* device state.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .._validation import check_choice, check_int_in_range
from .metrics import MetricsRegistry

__all__ = [
    "TRACE_LEVELS",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "resolve_tracer",
]

#: Verbosity levels, least to most verbose. ``"off"`` constructs a
#: disabled tracer (every flag False, nothing recorded); ``"spans"``
#: records state-machine spans and metrics;
#: ``"events"`` adds per-event instants (backups, restores, faults,
#: frame lifecycle); ``"debug"`` adds high-rate diagnostics.
TRACE_LEVELS = ("off", "spans", "events", "debug")


class NullTracer:
    """The disabled tracer: every flag ``False``, every method a no-op.

    Instrumented call sites keep a reference to a tracer and guard event
    construction with ``if tracer.events:`` (or ``spans`` / ``debug``);
    with this object the guard is the entire cost.
    """

    __slots__ = ("tick",)

    enabled = False
    spans = False
    events = False
    debug = False
    level = "off"
    metrics: Optional[MetricsRegistry] = None

    def __init__(self) -> None:
        #: Current simulator tick, written only by *tracing* loops; kept
        #: so shared code may read ``tracer.tick`` unconditionally.
        self.tick = 0

    def instant(self, name, tick=None, cat="device", args=None) -> None:
        pass

    def span(self, name, start_tick, end_tick, cat="device", args=None) -> None:
        pass

    def to_payload(self) -> Dict[str, object]:
        return {"records": [], "metrics": {}, "dropped": 0}


#: The module-level disabled tracer every instrumented constructor
#: defaults to. Shared and stateless (its ``tick`` is write-only noise).
NULL_TRACER = NullTracer()


class Tracer:
    """Recording tracer: an event list plus a :class:`MetricsRegistry`.

    Events are stored as plain dicts so they cross process-pool
    boundaries (the engine returns them from workers) and export without
    further translation: ``{"name", "cat", "ph": "i"|"X", "tick", "dur",
    "args"}`` (``dur`` in ticks, spans only).

    ``max_events`` bounds memory on pathological runs; overflow is
    counted in ``dropped``, never raised.
    """

    __slots__ = (
        "enabled",
        "spans",
        "events",
        "debug",
        "level",
        "records",
        "metrics",
        "max_events",
        "dropped",
        "tick",
    )

    def __init__(
        self,
        level: str = "events",
        max_events: int = 500_000,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        check_choice(level, "level", TRACE_LEVELS)
        self.level = level
        rank = TRACE_LEVELS.index(level)
        self.enabled = rank >= 1
        self.spans = rank >= 1
        self.events = rank >= 2
        self.debug = rank >= 3
        self.max_events = check_int_in_range(max_events, "max_events", 1)
        self.records: List[Dict[str, object]] = []
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.dropped = 0
        self.tick = 0

    # -- event recording ------------------------------------------------

    def _push(self, record: Dict[str, object]) -> None:
        if len(self.records) >= self.max_events:
            self.dropped += 1
            return
        self.records.append(record)

    def instant(
        self,
        name: str,
        tick: Optional[int] = None,
        cat: str = "device",
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        """Record a point event at ``tick`` (``None`` = current tick)."""
        if not self.enabled:
            return
        self._push(
            {
                "name": name,
                "cat": cat,
                "ph": "i",
                "tick": self.tick if tick is None else int(tick),
                "args": {} if args is None else args,
            }
        )

    def span(
        self,
        name: str,
        start_tick: int,
        end_tick: int,
        cat: str = "device",
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        """Record a complete tick-domain span ``[start_tick, end_tick]``."""
        if not self.enabled:
            return
        start_tick = int(start_tick)
        self._push(
            {
                "name": name,
                "cat": cat,
                "ph": "X",
                "tick": start_tick,
                "dur": max(0, int(end_tick) - start_tick),
                "args": {} if args is None else args,
            }
        )

    # -- hand-off --------------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        """JSON-serializable dump: records + metrics + drop counter.

        This is what engine workers return to the parent process and
        what :mod:`repro.obs.capture` aggregates across grid tasks.
        """
        return {
            "records": self.records,
            "metrics": self.metrics.to_dict(),
            "dropped": self.dropped,
        }


def resolve_tracer(tracer: Optional["Tracer"]) -> "Tracer":
    """``None`` -> :data:`NULL_TRACER`; anything else passes through.

    The one-line idiom every instrumented constructor uses, so public
    signatures stay ``tracer=None`` while internals can assume a tracer
    object with the guard flags.
    """
    return NULL_TRACER if tracer is None else tracer
