"""The canonical run table: one CSV row per (task, repetition).

Every campaign kind the engine runs — fixed-bit grids, incidental
executives, resilience sweeps and fleet expansions — flattens into one
wide, stable schema (:data:`RUN_TABLE_COLUMNS`): *config* columns
(policy, bitwidth pragmas, capacitor, fault rate...), *outcome*
columns (forward progress, availability, quality, energy per committed
instruction) and *provenance* columns (cache status, retries, executed
tier, service job label). The full column reference lives in
``RUN_TABLE_COLUMNS_EXPLANATION.md`` at the repository root and is
generated from the same schema object (:func:`columns_markdown`), so
the doc cannot drift from the code.

Determinism contract
--------------------
Config and outcome cells derive **only** from the task value objects
and the bit-exact result payloads (the same payloads the
content-addressed cache stores and the campaign service streams), so a
table built offline from a cached grid, by ``repro-experiments
runtable``, or by ``GET /jobs/<id>/runtable.csv`` is byte-identical
for the same campaign — across the batch, one-lane C and reference
engine paths, and across HTTP vs direct runs. Provenance cells describe *one
particular execution* and are therefore run-dependent: in the
canonical table they hold documented sentinels (empty string / empty)
and are only filled when a :class:`~repro.analysis.telemetry.RunReport`
is explicitly attached (:func:`attach_provenance`). The ``job`` column
is the service job id; the offline writer accepts ``job=`` so a
service table can be reproduced byte-for-byte.

Cell formatting is canonical: ints as decimal, floats as their
shortest round-trip ``repr`` (deterministic for IEEE doubles), ``""``
for not-applicable — so equal values always produce equal bytes.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError
from . import telemetry
from .engine import (
    ExecutiveTask,
    FixedBitTask,
    decode_executive_entry,
    decode_fixed_entry,
    executive_frame_quality,
    run_executive_grid,
    run_grid,
)
from .resilience import ResiliencePoint, ResilienceTask, run_resilience_grid

__all__ = [
    "SCHEMA_VERSION",
    "Column",
    "RUN_TABLE_COLUMNS",
    "COLUMN_NAMES",
    "RunTable",
    "build_run_table",
    "run_table_for_campaign",
    "run_table_from_result_lines",
    "attach_provenance",
    "attach_provenance_from_events",
    "read_run_table",
    "format_cell",
    "validate_header",
    "columns_markdown",
]

#: Bumped whenever a column is added, removed, renamed or reordered.
SCHEMA_VERSION = "1"

#: Task kinds a run table can hold (also the ``kind`` cell values).
TABLE_KINDS = ("fixed", "executive", "resilience", "fleet")


@dataclass(frozen=True)
class Column:
    """One schema column: name, grouping and documentation."""

    name: str
    group: str  #: ``identity`` | ``config`` | ``outcome`` | ``provenance``
    units: str  #: ``-`` for unitless / labels
    domain: str  #: ``tick`` (device time), ``wall`` (host time) or ``-``
    applies: Tuple[str, ...]  #: task kinds that fill this cell
    description: str


_ALL = TABLE_KINDS
_EXEC = ("executive", "resilience")
_FLEET = ("fleet",)
_RES = ("resilience",)

#: The stable schema, in canonical column order.
RUN_TABLE_COLUMNS: Tuple[Column, ...] = (
    # -- identity --------------------------------------------------------------
    Column("kind", "identity", "-", "-", _ALL,
           "Task kind: fixed | executive | resilience | fleet."),
    Column("context", "identity", "-", "-", _ALL,
           "Artifact/context label the campaign ran under (empty for "
           "anonymous campaigns)."),
    Column("task_index", "identity", "-", "-", _ALL,
           "Zero-based index of the base task in the campaign's "
           "deterministic enumeration order (repetitions of one task "
           "share its task_index)."),
    Column("repetition", "identity", "-", "-", _ALL,
           "Repetition index of a seeded repetition sweep; 0 is the "
           "base configuration."),
    Column("task_key", "identity", "-", "-", _ALL,
           "Content-addressed cache key of the task (includes the "
           "fleet- prefix for fleet devices); the row's replayable "
           "identity."),
    # -- config ----------------------------------------------------------------
    Column("kernel", "config", "-", "-", _ALL,
           "Kernel name (empty = pure ALU instruction mix)."),
    Column("policy", "config", "-", "-", _ALL,
           "Retention policy: precise, linear, log or parabola."),
    Column("profile_id", "config", "-", "-", ("fixed", "executive", "resilience"),
           "Calibrated standard power profile (1-5); labels the task "
           "when trace_seed re-rolls the harvester."),
    Column("trace_seed", "config", "-", "-", _ALL,
           "Seed of a re-rolled harvester trace (empty = the standard "
           "profile identified by profile_id)."),
    Column("duration_s", "config", "s", "tick", _ALL,
           "Simulated device-time window (duration_s / 1e-4 ticks)."),
    Column("bits", "config", "bits", "-", ("fixed", "fleet"),
           "Fixed reliable-bit budget per lane."),
    Column("minbits", "config", "bits", "-", _EXEC,
           "Incidental pragma lower bitwidth bound."),
    Column("maxbits", "config", "bits", "-", _EXEC,
           "Incidental pragma upper bitwidth bound."),
    Column("simd_width", "config", "lanes", "-", ("fixed", "fleet"),
           "SIMD lane count (1 = no incidental lanes)."),
    Column("frame_size", "config", "elements", "-", _EXEC,
           "Square sensor-frame edge length."),
    Column("frame_period_ticks", "config", "ticks", "tick", _EXEC,
           "Sensor frame arrival period."),
    Column("recover_placement", "config", "-", "-", _EXEC,
           "recover_from pragma placement: inner or frame."),
    Column("program_seed", "config", "-", "-", _EXEC,
           "Executive program seed (datapath noise and decay streams)."),
    Column("fault_rate", "config", "-", "-", _RES,
           "Device fault-scale knob of the resilience scenario."),
    Column("device_seed", "config", "-", "-", _RES,
           "Derived per-point device fault-stream seed."),
    Column("archetype", "config", "-", "-", _FLEET,
           "Fleet archetype name the device was drawn from."),
    Column("mode", "config", "-", "-", _FLEET,
           "Synthetic harvester mode (solar, rf, thermal)."),
    Column("scale", "config", "-", "-", _FLEET,
           "Per-device harvester efficiency draw (median 1.0)."),
    Column("capacitor_uj", "config", "uJ", "-", _FLEET,
           "Per-device storage capacitor size (manufacturing spread)."),
    # -- outcome ---------------------------------------------------------------
    Column("total_ticks", "outcome", "ticks", "tick", ("fixed", "executive", "fleet"),
           "Simulated ticks (1 tick = 0.1 ms of device time)."),
    Column("on_ticks", "outcome", "ticks", "tick", ("fixed", "executive", "fleet"),
           "Ticks spent powered (RESTORE / RUN / BACKUP)."),
    Column("availability", "outcome", "-", "tick", _ALL,
           "Powered fraction of the window: on_ticks / total_ticks."),
    Column("forward_progress", "outcome", "instructions", "tick",
           ("fixed", "executive", "fleet"),
           "Persistently committed instructions on the current-data lane."),
    Column("incidental_progress", "outcome", "instructions", "tick",
           ("fixed", "executive", "fleet"),
           "Committed instructions on incidental SIMD lanes."),
    Column("total_progress", "outcome", "instructions", "tick", _ALL,
           "forward_progress + incidental_progress."),
    Column("progress_per_s", "outcome", "instructions/s", "tick", _ALL,
           "total_progress / duration_s (device-time rate)."),
    Column("backups", "outcome", "count", "tick", _ALL,
           "Backup operations performed."),
    Column("restores", "outcome", "count", "tick", _ALL,
           "Restore operations performed."),
    Column("income_energy_uj", "outcome", "uJ", "tick",
           ("fixed", "executive", "fleet"),
           "Harvested energy arriving at the frontend."),
    Column("converted_energy_uj", "outcome", "uJ", "tick",
           ("fixed", "executive", "fleet"),
           "Energy surviving frontend conversion."),
    Column("run_energy_uj", "outcome", "uJ", "tick",
           ("fixed", "executive", "fleet"),
           "Energy spent computing."),
    Column("backup_energy_uj", "outcome", "uJ", "tick",
           ("fixed", "executive", "fleet"),
           "Energy spent writing backups."),
    Column("restore_energy_uj", "outcome", "uJ", "tick",
           ("fixed", "executive", "fleet"),
           "Energy spent restoring state."),
    Column("spent_energy_uj", "outcome", "uJ", "tick",
           ("fixed", "executive", "fleet"),
           "run + backup + restore energy."),
    Column("energy_per_instruction_uj", "outcome", "uJ/instruction", "tick",
           ("fixed", "executive", "fleet"),
           "spent_energy_uj / total_progress (empty when no progress)."),
    Column("mean_active_bits", "outcome", "bits", "tick",
           ("fixed", "executive", "fleet"),
           "Mean lane-0 bit budget over powered ticks."),
    Column("frames_total", "outcome", "frames", "tick", _EXEC,
           "Sensor frames that arrived."),
    Column("frames_completed", "outcome", "frames", "tick", _EXEC,
           "Frames whose every element was eventually computed."),
    Column("frames_abandoned", "outcome", "frames", "tick", _EXEC,
           "Frames evicted from the resume buffer, never finished."),
    Column("frame_availability", "outcome", "-", "tick", _EXEC,
           "frames_completed / frames_total."),
    Column("scored_frames", "outcome", "frames", "tick", _EXEC,
           "Frames that met quality-scoring coverage."),
    Column("mean_psnr_db", "outcome", "dB", "-", _EXEC,
           "Mean PSNR of scored frames, replayed deterministically "
           "from the cached bit schedules (empty = nothing scored)."),
    Column("min_psnr_db", "outcome", "dB", "-", _EXEC,
           "Worst scored-frame PSNR (empty = nothing scored)."),
    Column("detected_failures", "outcome", "count", "tick", _RES,
           "Restore validations that caught corruption."),
    Column("rollforwards", "outcome", "count", "tick", _RES,
           "Recoveries that rolled forward past a torn backup."),
    Column("silent_corruptions", "outcome", "count", "tick", _RES,
           "Corruptions that reached computation undetected."),
    Column("brownouts", "outcome", "count", "tick", _RES,
           "Brownout events injected by the fault model."),
    Column("seu_flips", "outcome", "count", "tick", _RES,
           "Single-event-upset bit flips injected."),
    Column("lost_progress", "outcome", "instructions", "tick", _RES,
           "Instructions discarded by fallbacks to older backups."),
    Column("guard_energy_uj", "outcome", "uJ", "tick", _RES,
           "Energy spent writing CRC guard words."),
    # -- provenance ------------------------------------------------------------
    Column("status", "provenance", "-", "wall", _ALL,
           "How this execution obtained the result: cache-hit, "
           "computed or failed (empty in the canonical table; filled "
           "from an attached RunReport)."),
    Column("executed_in", "provenance", "-", "wall", _ALL,
           "Engine tier that executed a computed task: batch, pool, "
           "serial or degraded (empty for cache hits and in the "
           "canonical table)."),
    Column("attempts", "provenance", "count", "wall", _ALL,
           "Execution attempts including retries (empty in the "
           "canonical table)."),
    Column("retries", "provenance", "count", "wall", _ALL,
           "Re-attempts after crashes, hangs or corrupt payloads "
           "(empty in the canonical table)."),
    Column("engine", "provenance", "-", "wall", _ALL,
           "Engine selector the run used: auto, fast or reference "
           "(empty in the canonical table)."),
    Column("job", "provenance", "-", "wall", _ALL,
           "Campaign-service job id (empty outside the service; pass "
           "job= to the offline writer to reproduce a service table)."),
)

#: Canonical header, derived from the schema.
COLUMN_NAMES: Tuple[str, ...] = tuple(c.name for c in RUN_TABLE_COLUMNS)

_COLUMN_INDEX: Dict[str, Column] = {c.name: c for c in RUN_TABLE_COLUMNS}


# -- canonical cell formatting --------------------------------------------------


def format_cell(value: object) -> str:
    """Canonical, byte-deterministic text form of one cell value."""
    if value is None or value == "":
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            # Integral floats print as plain decimals so an int-valued
            # metric formats identically whether it arrived as 3 or 3.0.
            return str(int(value))
        return repr(value)
    text = str(value)
    if any(ch in text for ch in (",", '"', "\n", "\r")):
        escaped = text.replace('"', '""')
        return f'"{escaped}"'
    return text


def _csv_line(cells: Iterable[str]) -> str:
    return ",".join(cells)


# -- the table -----------------------------------------------------------------


@dataclass
class RunTable:
    """A built run table: rows of column-name -> value dicts."""

    rows: List[Dict[str, object]]

    def __len__(self) -> int:
        return len(self.rows)

    def extend(self, other: "RunTable") -> None:
        self.rows.extend(other.rows)

    def to_csv_text(self) -> str:
        lines = [_csv_line(COLUMN_NAMES)]
        for row in self.rows:
            lines.append(
                _csv_line(format_cell(row.get(name)) for name in COLUMN_NAMES)
            )
        return "\n".join(lines) + "\n"

    def to_csv_bytes(self) -> bytes:
        return self.to_csv_text().encode("utf-8")

    def write(self, path) -> Tuple[int, int]:
        """Write the canonical CSV; returns ``(n_rows, n_bytes)``."""
        blob = self.to_csv_bytes()
        with open(path, "wb") as handle:
            handle.write(blob)
        return len(self.rows), len(blob)


def _base_row(kind: str, context: str, job: str, index: int, rep: int,
              key: str) -> Dict[str, object]:
    row: Dict[str, object] = {name: "" for name in COLUMN_NAMES}
    row.update(
        kind=kind,
        context=context,
        job=job,
        task_index=index,
        repetition=rep,
        task_key=key,
    )
    return row


def _energy_outcomes(row: Dict[str, object], sim) -> None:
    """Fill the SimulationResult-backed outcome cells of ``row``."""
    spent = sim.run_energy_uj + sim.backup_energy_uj + sim.restore_energy_uj
    row.update(
        total_ticks=sim.total_ticks,
        on_ticks=sim.on_ticks,
        availability=sim.on_ticks / sim.total_ticks,
        forward_progress=sim.forward_progress,
        incidental_progress=sim.incidental_progress,
        total_progress=sim.total_progress,
        backups=sim.backup_count,
        restores=sim.restore_count,
        income_energy_uj=sim.income_energy_uj,
        converted_energy_uj=sim.converted_energy_uj,
        run_energy_uj=sim.run_energy_uj,
        backup_energy_uj=sim.backup_energy_uj,
        restore_energy_uj=sim.restore_energy_uj,
        spent_energy_uj=spent,
        energy_per_instruction_uj=(
            spent / sim.total_progress if sim.total_progress > 0 else ""
        ),
        mean_active_bits=sim.mean_active_bits(),
    )


def fixed_row(task: FixedBitTask, result, *, index: int = 0, rep: int = 0,
              context: str = "", job: str = "") -> Dict[str, object]:
    """One canonical row for a fixed-bit task and its result."""
    row = _base_row("fixed", context, job, index, rep, task.cache_key())
    row.update(
        kernel=task.kernel or "",
        policy=task.policy,
        profile_id=task.profile_id,
        trace_seed="" if task.seed is None else task.seed,
        duration_s=task.duration_s,
        bits=task.bits,
        simd_width=task.simd_width,
    )
    _energy_outcomes(row, result)
    row["progress_per_s"] = result.total_progress / task.duration_s
    return row


def fleet_row(task, result, *, index: int = 0, rep: int = 0,
              context: str = "", job: str = "") -> Dict[str, object]:
    """One canonical row for a fleet device task and its result."""
    row = _base_row("fleet", context, job, index, rep, task.cache_key())
    row.update(
        kernel=task.kernel or "",
        policy=task.policy,
        trace_seed=task.trace_seed,
        duration_s=task.duration_s,
        bits=task.bits,
        simd_width=task.simd_width,
        archetype=task.archetype,
        mode=task.mode,
        scale=task.scale,
        capacitor_uj=task.capacitor_uj,
    )
    _energy_outcomes(row, result)
    row["progress_per_s"] = result.total_progress / task.duration_s
    return row


def executive_row(task: ExecutiveTask, result, *, index: int = 0, rep: int = 0,
                  context: str = "", job: str = "") -> Dict[str, object]:
    """One canonical row for an executive task and its result.

    Quality replays deterministically from the cached bit schedules via
    :func:`~repro.analysis.engine.executive_frame_quality`, so the PSNR
    cells are identical for a computed, cached or streamed result.
    """
    row = _base_row("executive", context, job, index, rep, task.cache_key())
    row.update(
        kernel=task.kernel,
        policy=task.policy,
        profile_id=task.profile_id,
        trace_seed="" if task.trace_seed is None else task.trace_seed,
        duration_s=task.duration_s,
        minbits=task.minbits,
        maxbits=task.maxbits,
        frame_size=task.frame_size,
        frame_period_ticks=task.frame_period_ticks,
        recover_placement=task.recover_placement,
        program_seed=task.seed,
    )
    _energy_outcomes(row, result.sim)
    row["progress_per_s"] = result.sim.total_progress / task.duration_s
    scores = executive_frame_quality(task, result)
    psnrs = [float(score.psnr_db) for score in scores]
    frames_total = len(result.frames)
    row.update(
        frames_total=frames_total,
        frames_completed=result.frames_completed,
        frames_abandoned=result.frames_abandoned,
        frame_availability=(
            result.frames_completed / frames_total if frames_total else ""
        ),
        scored_frames=len(psnrs),
        mean_psnr_db=(sum(psnrs) / len(psnrs)) if psnrs else "",
        min_psnr_db=min(psnrs) if psnrs else "",
    )
    return row


def resilience_row(task: ResilienceTask, point: ResiliencePoint, *,
                   index: int = 0, rep: int = 0, context: str = "",
                   job: str = "") -> Dict[str, object]:
    """One canonical row for a resilience task and its point."""
    base = task.base
    row = _base_row("resilience", context, job, index, rep, task.cache_key())
    row.update(
        kernel=base.kernel,
        policy=base.policy,
        profile_id=base.profile_id,
        trace_seed="" if base.trace_seed is None else base.trace_seed,
        duration_s=base.duration_s,
        minbits=base.minbits,
        maxbits=base.maxbits,
        frame_size=base.frame_size,
        frame_period_ticks=base.frame_period_ticks,
        recover_placement=base.recover_placement,
        program_seed=base.seed,
        fault_rate=task.rate,
        device_seed=task.device_seed,
    )
    row.update(
        availability=point.on_fraction,
        total_progress=point.total_progress,
        progress_per_s=point.total_progress / base.duration_s,
        backups=point.backups,
        restores=point.restores,
        frames_total=point.frames_total,
        frames_completed=point.frames_completed,
        frames_abandoned=point.frames_abandoned,
        frame_availability=point.availability if point.frames_total else "",
        scored_frames=point.scored_frames,
        mean_psnr_db="" if point.mean_psnr_db is None else point.mean_psnr_db,
        min_psnr_db="" if point.min_psnr_db is None else point.min_psnr_db,
        detected_failures=point.detected_failures,
        rollforwards=point.rollforwards,
        silent_corruptions=point.silent_corruptions,
        brownouts=point.brownouts,
        seu_flips=point.seu_flips,
        lost_progress=point.lost_progress,
        guard_energy_uj=point.guard_energy_uj,
    )
    return row


_ROW_BUILDERS = {
    "fixed": fixed_row,
    "executive": executive_row,
    "resilience": resilience_row,
    "fleet": fleet_row,
}


def build_run_table(
    kind: str,
    tasks: Sequence,
    results: Sequence,
    *,
    context: str = "",
    job: str = "",
    task_indices: Optional[Sequence[int]] = None,
    repetitions: Optional[Sequence[int]] = None,
    report: Optional[telemetry.RunReport] = None,
) -> RunTable:
    """Flatten aligned ``(tasks, results)`` into a :class:`RunTable`.

    ``task_indices``/``repetitions`` relabel rows of a repetition sweep
    (defaults: positional index, repetition 0). ``report`` optionally
    fills the provenance columns from that run's telemetry.
    """
    if kind not in _ROW_BUILDERS:
        raise ConfigurationError(
            f"kind must be one of {TABLE_KINDS}, got {kind!r}"
        )
    if len(tasks) != len(results):
        raise ConfigurationError(
            f"{len(tasks)} task(s) but {len(results)} result(s)"
        )
    builder = _ROW_BUILDERS[kind]
    rows = []
    for position, (task, result) in enumerate(zip(tasks, results)):
        rows.append(
            builder(
                task,
                result,
                index=(
                    task_indices[position]
                    if task_indices is not None
                    else position
                ),
                rep=repetitions[position] if repetitions is not None else 0,
                context=context,
                job=job,
            )
        )
    table = RunTable(rows=rows)
    if report is not None:
        attach_provenance(table, report)
    return table


def attach_provenance(table: RunTable, report: telemetry.RunReport) -> RunTable:
    """Fill provenance columns from one run's telemetry, in place.

    Task telemetry is matched positionally (``TaskTelemetry.index`` is
    the grid position, which is the row position by construction).
    Attaching provenance makes the table describe *this* execution —
    its bytes are then only reproducible by a run with identical cache
    state.
    """
    for task in report.tasks:
        if 0 <= task.index < len(table.rows):
            table.rows[task.index].update(
                status=task.status,
                executed_in=task.executed_in,
                attempts=task.attempts,
                retries=task.retries,
                engine=task.engine,
            )
    return table


def attach_provenance_from_events(
    table: RunTable, events: Sequence[Mapping[str, object]]
) -> RunTable:
    """Fill provenance columns from a JSONL telemetry event log.

    ``events`` is the output of
    :func:`repro.analysis.telemetry.read_events`; every ``task`` record
    whose ``index`` addresses a row updates that row (later records
    win, matching a log that appends re-runs).
    """
    for event in events:
        if event.get("event") != "task":
            continue
        index = event.get("index")
        if isinstance(index, int) and 0 <= index < len(table.rows):
            table.rows[index].update(
                status=str(event.get("status", "")),
                executed_in=str(event.get("executed_in", "")),
                attempts=int(event.get("attempts", 1)),
                retries=int(event.get("retries", 0)),
                engine=str(event.get("engine", "")),
            )
    return table


# -- campaign execution + wire decoding -----------------------------------------


def _campaign_tasks(campaign) -> Tuple:
    if campaign.kind == "fleet":
        assert campaign.fleet is not None
        return campaign.fleet.tasks()
    return tuple(campaign.tasks)


def _table_kind(campaign_kind: str) -> str:
    return {"grid": "fixed"}.get(campaign_kind, campaign_kind)


def run_table_for_campaign(campaign, *, job: str = "") -> RunTable:
    """Execute a parsed campaign through the cached engine; build rows.

    Uses the process-wide engine configuration exactly like
    :func:`repro.service.protocol.execute_campaign` does, so the table
    is identical whether results were computed fresh or replayed from
    the content-addressed cache.
    """
    kind = _table_kind(campaign.kind)
    tasks = _campaign_tasks(campaign)
    if campaign.kind in ("grid", "fleet"):
        if campaign.kind == "fleet":
            from ..fleet import run_fleet

            fleet_result = run_fleet(campaign.fleet, engine=campaign.engine)
            tasks, results = fleet_result.tasks, fleet_result.results
        else:
            results = run_grid(tasks, engine=campaign.engine).results
    elif campaign.kind == "executive":
        results = run_executive_grid(tasks, engine=campaign.engine).results
    else:  # resilience
        results = run_resilience_grid(tasks, engine=campaign.engine)
    return build_run_table(kind, tasks, results, job=job)


def run_table_from_result_lines(
    campaign,
    lines: Sequence[Union[str, Dict[str, object]]],
    *,
    job: str = "",
) -> RunTable:
    """Rebuild the canonical table from a job's JSONL result stream.

    The stream's base64 entries are the same bytes the cache codec
    writes, so decoding them reproduces the engine results exactly and
    the resulting CSV is byte-identical to :func:`run_table_for_campaign`
    for the same campaign and ``job`` label.
    """
    tasks = _campaign_tasks(campaign)
    kind = _table_kind(campaign.kind)
    results: Dict[int, object] = {}
    for line in lines:
        record = json.loads(line) if isinstance(line, str) else line
        if not isinstance(record, dict):
            continue
        rtype = record.get("type")
        index = record.get("index")
        if rtype == "task" and isinstance(index, int):
            blob = base64.b64decode(str(record.get("entry", "")))
            if kind == "executive":
                results[index] = decode_executive_entry(blob)
            else:
                results[index] = decode_fixed_entry(blob)
        elif rtype == "point" and isinstance(index, int):
            results[index] = ResiliencePoint.from_dict(record["point"])
    missing = [i for i in range(len(tasks)) if i not in results]
    if missing:
        raise ConfigurationError(
            f"result stream is missing task indices {missing[:8]} "
            f"({len(missing)} of {len(tasks)})"
        )
    ordered = [results[i] for i in range(len(tasks))]
    return build_run_table(kind, tasks, ordered, job=job)


# -- reading + validation --------------------------------------------------------


def read_run_table(source: Union[str, bytes]) -> List[Dict[str, str]]:
    """Parse a canonical CSV (path or bytes) into raw-string row dicts.

    Raises :class:`~repro.errors.ConfigurationError` when the header
    does not match the schema exactly (order included).
    """
    if isinstance(source, bytes):
        text = source.decode("utf-8")
    else:
        with open(source, "r", encoding="utf-8", newline="") as handle:
            text = handle.read()
    import csv
    import io

    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows:
        raise ConfigurationError("run table is empty (no header)")
    problems = validate_header(rows[0])
    if problems:
        raise ConfigurationError(
            "run table header does not match schema: " + "; ".join(problems)
        )
    out: List[Dict[str, str]] = []
    for cells in rows[1:]:
        if not cells:
            continue
        if len(cells) != len(COLUMN_NAMES):
            raise ConfigurationError(
                f"row has {len(cells)} cells, schema has {len(COLUMN_NAMES)}"
            )
        out.append(dict(zip(COLUMN_NAMES, cells)))
    return out


def validate_header(fieldnames: Sequence[str]) -> List[str]:
    """Problems with a header row (empty list = canonical)."""
    problems: List[str] = []
    names = list(fieldnames)
    missing = [n for n in COLUMN_NAMES if n not in names]
    extra = [n for n in names if n not in _COLUMN_INDEX]
    if missing:
        problems.append(f"missing column(s): {missing}")
    if extra:
        problems.append(f"unknown column(s): {extra}")
    if not missing and not extra and tuple(names) != COLUMN_NAMES:
        problems.append("columns are present but out of canonical order")
    return problems


def columns_markdown() -> str:
    """The schema as a markdown reference table.

    ``RUN_TABLE_COLUMNS_EXPLANATION.md`` embeds this output verbatim;
    the runtable test suite regenerates it and fails on any drift, so
    the committed doc always matches the code's schema.
    """
    lines = [
        "| # | Column | Group | Units | Domain | Applies to | Description |",
        "|---|--------|-------|-------|--------|------------|-------------|",
    ]
    for i, col in enumerate(RUN_TABLE_COLUMNS):
        applies = (
            "all" if col.applies == _ALL else ", ".join(col.applies)
        )
        lines.append(
            f"| {i} | `{col.name}` | {col.group} | {col.units} | "
            f"{col.domain} | {applies} | {col.description} |"
        )
    return "\n".join(lines) + "\n"


def validate_columns_doc(text: str) -> List[str]:
    """Problems with a columns document against the live schema."""
    problems: List[str] = []
    if f"schema version {SCHEMA_VERSION}" not in text:
        problems.append(
            f"document does not state 'schema version {SCHEMA_VERSION}'"
        )
    if columns_markdown() not in text:
        problems.append(
            "document's column reference table does not match "
            "columns_markdown() (regenerate it)"
        )
    return problems
