"""The incidental executive: running an annotated program over a trace.

This is the system of Section 3.1 end-to-end. Sensor frames arrive
into a buffer at a fixed period; the NVP processes the *newest* frame
on lane 0. On every power failure the machine state is backed up (with
the pragma's retention policy for the incidental data); on recovery,
if newer data has arrived, execution **rolls forward** to it and the
interrupted frame becomes *incidental*, parked in the 4-entry
nonvolatile resume buffer. While the new frame runs, surplus power
attaches up to three parked frames as SIMD lanes at reduced, dynamic
bitwidth. Frames evicted from the full resume buffer are abandoned.

The executive is implemented as a stateful
:class:`~repro.core.controller.IncidentalAllocator`: the system-level
simulator drives the power machinery and calls back into the executive
for every allocation, executed tick, backup and restore — the same
control relationship the paper's two-layer framework has (Figure 10).

Quality is computed *post hoc*: each frame's per-element bit schedule
(recorded during simulation) replays through the kernel's approximate
datapath, and retention decay is injected for every outage the frame's
partial results sat through in unreliable NVM.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._memo import LruMemo
from .._validation import check_int_in_range
from ..energy.traces import PowerTrace
from ..errors import ConfigurationError, SimulationError
from ..kernels.base import ApproxContext
from ..nvm.failures import RetentionFailureModel
from ..nvp.isa import KERNEL_MIXES, DEFAULT_MIX
from ..nvp.processor import NonvolatileProcessor
from ..obs.metrics import PSNR_DB_BUCKETS
from ..obs.tracer import resolve_tracer
from ..resilience import ResilienceConfig, RestoreOutcome
from ..quality.metrics import mse as compute_mse
from ..quality.metrics import psnr as compute_psnr
from ..system.config import SystemConfig
from ..system.metrics import SimulationResult
from ..system.simulator import NVPSystemSimulator
from .batchexec import executive_refusal, run_executive_batch
from .controller import ApproximationControlUnit, IncidentalAllocator
from .program import AnnotatedProgram, FRAME_LOOP_PC
from .resume_buffer import ResumePoint, ResumePointBuffer

__all__ = [
    "FrameRecord",
    "FrameQuality",
    "ExecutiveResult",
    "IncidentalExecutive",
    "replay_frame_quality",
    "clear_quality_memo",
]


@dataclass
class FrameRecord:
    """Lifetime record of one sensor frame."""

    frame_id: int
    arrival_tick: int
    element_bits: np.ndarray
    completed_tick: Optional[int] = None
    completed_incidentally: bool = False
    abandoned: bool = False
    #: (outage_ticks, elements_done_at_backup) for every outage this
    #: frame's partial results sat through in unreliable NVM.
    exposures: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        """Whether every element was eventually computed."""
        return self.completed_tick is not None

    @property
    def coverage(self) -> float:
        """Fraction of elements computed."""
        if self.element_bits.size == 0:
            return 0.0
        return float(np.mean(self.element_bits > 0))

    @property
    def mean_bits(self) -> float:
        """Mean bit budget over computed elements."""
        computed = self.element_bits[self.element_bits > 0]
        if computed.size == 0:
            return 0.0
        return float(computed.mean())


@dataclass(frozen=True)
class FrameQuality:
    """Post-hoc quality score of one frame."""

    frame_id: int
    psnr_db: float
    mse: float
    coverage: float
    mean_bits: float
    completed_incidentally: bool


@dataclass(frozen=True)
class ExecutiveResult:
    """Everything one incidental run produced."""

    sim: SimulationResult
    frames: Tuple[FrameRecord, ...]
    idle_instructions: int

    @property
    def frames_completed(self) -> int:
        """Frames whose every element was computed."""
        return sum(1 for f in self.frames if f.completed)

    @property
    def frames_completed_incidentally(self) -> int:
        """Completed frames that finished on an incidental lane."""
        return sum(1 for f in self.frames if f.completed and f.completed_incidentally)

    @property
    def frames_abandoned(self) -> int:
        """Frames evicted from the resume buffer and never finished."""
        return sum(1 for f in self.frames if f.abandoned)

    @property
    def useful_progress(self) -> int:
        """Lane instructions spent on real frames (idle ticks removed)."""
        return max(0, self.sim.total_progress - self.idle_instructions)


class IncidentalExecutive(IncidentalAllocator):
    """Runs an :class:`AnnotatedProgram` incidentally over a power trace.

    Parameters
    ----------
    program:
        Kernel plus pragmas; must carry ``incidental`` and
        ``incidental_recover_from`` for the full behaviour (both are
        checked).
    frames:
        The sensor images arriving into the buffer. If the trace
        outlives the list, arrivals cycle through it.
    frame_period_ticks:
        Sensor frame period (0.1 ms ticks).
    enable_simd / enable_rollforward:
        Ablation switches: with both off the executive degenerates to
        a roll-back, single-lane NVP.
    """

    def __init__(
        self,
        program: AnnotatedProgram,
        trace: PowerTrace,
        frames: Sequence[np.ndarray],
        frame_period_ticks: int = 10_000,
        config: Optional[SystemConfig] = None,
        enable_simd: bool = True,
        enable_rollforward: bool = True,
        current_minbits: int = 8,
        current_maxbits: int = 8,
        retention_time_scale: float = 8.0,
        resume_buffer_capacity: int = 4,
        precise_backup: bool = False,
        recover_placement: str = "inner",
        seed: int = 0,
        resilience: Optional[ResilienceConfig] = None,
        tracer=None,
    ) -> None:
        if not program.supports_incidental_execution:
            raise ConfigurationError(
                "program needs both 'incidental' and 'incidental_recover_from' "
                "pragmas for incidental execution"
            )
        self.program = program
        self.trace = trace
        self.config = config if config is not None else SystemConfig()
        self.images = [np.asarray(f) for f in frames]
        if not self.images:
            raise ConfigurationError("at least one frame image is required")
        shape = self.images[0].shape
        if any(image.shape != shape for image in self.images):
            raise ConfigurationError(
                "all buffered frames must share one shape; got "
                f"{sorted({image.shape for image in self.images})}"
            )
        self.frame_period_ticks = check_int_in_range(
            frame_period_ticks, "frame_period_ticks", 10
        )
        # Section 5: loop-carried dependencies preclude incidental SIMD
        # (individual variable approximation still applies).
        self.enable_simd = bool(enable_simd) and not program.loop_carried
        self.enable_rollforward = bool(enable_rollforward)
        # Our synthetic platform banks charge in longer stretches than
        # the paper's (~1500 backups/minute) cadence; the shaping curve
        # is stretched to match, per Section 3.2's profile-matching
        # principle (DESIGN.md §5.2).
        self.retention_time_scale = float(retention_time_scale)
        self.seed = int(seed)

        # Ablation switch: run with fully precise backups despite the
        # pragma's policy (isolates the incidental-backup contribution).
        self.precise_backup = bool(precise_backup)
        mix = KERNEL_MIXES.get(program.kernel.name, DEFAULT_MIX)
        # One tracer observes the whole stack: frame lifecycle here, the
        # backup ledger in the processor, spans in the system simulator.
        self.tracer = resolve_tracer(tracer)
        self.processor = NonvolatileProcessor(
            policy=None
            if self.precise_backup
            else program.retention_policy(time_scale=self.retention_time_scale),
            mix=mix,
            resilience=resilience,
            tracer=tracer,
        )
        pragma = program.incidental
        control = ApproximationControlUnit(
            energy_model=self.processor.energy_model,
            mix_weight=mix.mean_energy_weight,
        )
        super().__init__(
            lane_minbits=pragma.minbits,
            lane_maxbits=pragma.maxbits,
            current_minbits=current_minbits,
            current_maxbits=current_maxbits,
            control=control,
            capacity_uj=self.config.capacitor_uj,
            max_width=4 if self.enable_simd else 1,
        )

        # Section 6: where `incidental_recover_from` sits. "inner" puts
        # it in the inner (element) loop — suspended computations keep
        # their partial progress, at the cost of one resume-point mark
        # instruction per element. "frame" puts it before the frame
        # loop — cheaper, but a suspension loses the partial frame.
        # The paper recommends "inner" only for fast-interrupt sources
        # (WiFi / kHz vibration) and "frame" for solar/thermal.
        if recover_placement not in ("inner", "frame"):
            raise ConfigurationError(
                f"recover_placement must be 'inner' or 'frame', got {recover_placement!r}"
            )
        self.recover_placement = recover_placement
        self.n_elements = program.kernel.output_elements(self.images[0])
        self.instr_per_element = program.kernel.instructions_per_element + (
            1 if recover_placement == "inner" else 0
        )
        self.records: List[FrameRecord] = []
        # The 4-entry nonvolatile PC buffer of Section 4; smaller
        # capacities are exposed for the ablation study.
        self.buffer = ResumePointBuffer(
            check_int_in_range(resume_buffer_capacity, "resume_buffer_capacity", 1, 4)
        )
        self._arrived = 0
        # Newest-unstarted frontier (ascending frame ids). A frame id
        # enters when it arrives and leaves exactly once — the first
        # time it is picked as the current frame. It can never re-enter:
        # from then on it is current, buffered, completed or abandoned,
        # all of which `_newest_unstarted` excludes. Keeping the list
        # incrementally makes the per-tick lookup O(1) instead of a
        # rescan of every frame record (quadratic over long traces).
        self._unstarted: List[int] = []
        self._current: Optional[int] = None
        self._current_done = 0.0
        self._lane_frames: List[int] = []  # frame ids behind lanes[1:]
        self._lane_done: Dict[int, float] = {}
        self._last_backup_tick: Optional[int] = None
        self._idle_instructions = 0
        self._idle = False

    # -- arrival / work selection -------------------------------------------

    def _advance_arrivals(self, tick: int) -> None:
        due = tick // self.frame_period_ticks + 1
        while self._arrived < due:
            self.records.append(
                FrameRecord(
                    frame_id=self._arrived,
                    arrival_tick=self._arrived * self.frame_period_ticks,
                    element_bits=np.zeros(self.n_elements, dtype=np.int8),
                )
            )
            self._unstarted.append(self._arrived)
            if self.tracer.events:
                self.tracer.instant(
                    "frame.arrival",
                    tick=self._arrived * self.frame_period_ticks,
                    cat="executive",
                    args={"frame_id": self._arrived},
                )
            self._arrived += 1

    def _newest_unstarted(self) -> Optional[int]:
        return self._unstarted[-1] if self._unstarted else None

    def _pick_current(self) -> None:
        """Choose the lane-0 frame (roll-forward priority: newest first)."""
        candidate = self._newest_unstarted() if self.enable_rollforward else None
        if candidate is None and self.buffer:
            # No brand-new frame: continue the most recent suspension.
            entry = max(self.buffer, key=lambda e: e.frame_id)
            self.buffer.remove(entry)
            self._current = entry.frame_id
            self._current_done = float(entry.elements_done)
            return
        if candidate is None and not self.enable_rollforward:
            candidate = self._newest_unstarted()
        if candidate is not None:
            self._unstarted.pop()  # the candidate is always the newest entry
            self._current = candidate
            self._current_done = 0.0
        else:
            self._current = None
            self._current_done = 0.0

    # -- allocator hooks -------------------------------------------------------

    def allocate(self, income_uw: float, stored_uj: float, tick: int) -> List[int]:
        self._advance_arrivals(tick)
        if self._current is None:
            self._pick_current()
        self._idle = self._current is None
        buffered = [e.frame_id for e in self.buffer]
        self.pending_lanes = len(buffered) if self.enable_simd else 0
        lanes = super().allocate(income_uw, stored_uj, tick)
        # Newest suspended frames first: importance decays with age.
        self._lane_frames = sorted(buffered, reverse=True)[: len(lanes) - 1]
        return lanes

    def notify_executed(self, tick: int, lane_bits: List[int], instructions_per_lane: int) -> None:
        elements = instructions_per_lane / self.instr_per_element
        if self._idle or self._current is None:
            self._idle_instructions += instructions_per_lane * len(lane_bits)
            return
        record = self.records[self._current]
        self._current_done = self._fill(
            record, self._current_done, elements, lane_bits[0]
        )
        if self._current_done >= self.n_elements:
            record.completed_tick = tick
            if self.tracer.events:
                self.tracer.instant(
                    "frame.completed",
                    tick=tick,
                    cat="executive",
                    args={"frame_id": record.frame_id, "incidental": False},
                )
            self._current = None
        for frame_id, bits in zip(self._lane_frames, lane_bits[1:]):
            done = self._lane_done.get(frame_id)
            if done is None:
                entry = self._buffer_entry(frame_id)
                done = float(entry.elements_done) if entry is not None else 0.0
            lane_record = self.records[frame_id]
            done = self._fill(lane_record, done, elements, bits)
            self._lane_done[frame_id] = done
            if done >= self.n_elements:
                lane_record.completed_tick = tick
                lane_record.completed_incidentally = True
                if self.tracer.events:
                    self.tracer.instant(
                        "frame.completed",
                        tick=tick,
                        cat="executive",
                        args={"frame_id": frame_id, "incidental": True},
                    )
                entry = self._buffer_entry(frame_id)
                if entry is not None:
                    self.buffer.remove(entry)
                self._lane_done.pop(frame_id, None)

    def _fill(self, record: FrameRecord, done: float, elements: float, bits: int) -> float:
        start = int(done)
        new_done = min(float(self.n_elements), done + elements)
        stop = int(new_done) if new_done < self.n_elements else self.n_elements
        if stop > start:
            record.element_bits[start:stop] = bits
        return new_done

    def _buffer_entry(self, frame_id: int) -> Optional[ResumePoint]:
        for entry in self.buffer:
            if entry.frame_id == frame_id:
                return entry
        return None

    def notify_backup(self, tick: int) -> None:
        # Adopted lanes fall back into the buffer with updated progress
        # (or lose their partial frame under per-frame recover points).
        for frame_id, done in self._lane_done.items():
            entry = self._buffer_entry(frame_id)
            if entry is None:
                continue
            if self.recover_placement == "frame":
                self.records[frame_id].element_bits[:] = 0
                self.buffer.update(entry, elements_done=0)
            elif int(done) > entry.elements_done:
                self.buffer.update(entry, elements_done=int(done))
        self._lane_done.clear()
        self._lane_frames = []
        # The interrupted current frame becomes incidental. With the
        # recover point in the frame loop, a suspension can only resume
        # from the frame's start: the partial results are lost.
        if self._current is not None and not self.records[self._current].completed:
            if self.recover_placement == "frame":
                self.records[self._current].element_bits[:] = 0
                kept_progress = 0
            else:
                kept_progress = int(self._current_done)
            evicted = self.buffer.push(
                ResumePoint(
                    pc=FRAME_LOOP_PC,
                    frame_id=self._current,
                    elements_done=kept_progress,
                    register_version=1 + (self._current % 3),
                )
            )
            if evicted is not None:
                self.records[evicted.frame_id].abandoned = True
                if self.tracer.events:
                    self.tracer.instant(
                        "frame.abandoned",
                        tick=tick,
                        cat="executive",
                        args={"frame_id": evicted.frame_id},
                    )
        self._current = None
        self._current_done = 0.0
        self._last_backup_tick = tick

    def notify_restore(self, tick: int) -> None:
        self._advance_arrivals(tick)
        if self._last_backup_tick is not None:
            outage = tick - self._last_backup_tick
            for entry in self.buffer:
                record = self.records[entry.frame_id]
                record.exposures.append((outage, entry.elements_done))
            self._last_backup_tick = None
        # Roll-forward (or roll-back) happens at the next allocate().

    def notify_degraded_restore(self, tick: int, outcome: RestoreOutcome) -> None:
        """React to a degraded hardened restore (device resilience).

        * ``silent`` — corrupted state was restored undetected: every
          buffered frame's already-computed prefix is garbage, modeled
          by re-scoring those elements at the 1-bit worst-case budget
          (a quality hit with no availability hit).
        * ``fallback_previous`` — the newest checkpoint failed its
          guard; the most recent suspension loses the progress its
          epoch covered and is recomputed from scratch (an availability
          hit with quality preserved).
        * ``rollforward`` — no checkpoint validated: every buffered
          suspension is reset and execution rolls forward from the
          newest input, which the incidental model makes safe.
        """
        if outcome.kind == "silent":
            for entry in self.buffer:
                done = int(entry.elements_done)
                if done > 0:
                    self.records[entry.frame_id].element_bits[:done] = 1
            return
        if outcome.kind == "fallback_previous":
            targets = [max(self.buffer, key=lambda e: e.frame_id)] if self.buffer else []
        elif outcome.kind == "rollforward":
            targets = list(self.buffer)
        else:
            return
        for entry in targets:
            record = self.records[entry.frame_id]
            record.element_bits[:] = 0
            # The partial results are discarded, so decay exposures
            # recorded against them no longer apply to the recompute.
            record.exposures.clear()
            self.buffer.update(entry, elements_done=0)

    # -- top level ----------------------------------------------------------------

    def run(self, engine: str = "reference") -> ExecutiveResult:
        """Simulate the trace; returns the executive's full record.

        ``engine`` selects the implementation: ``"reference"`` (the
        default) drives the per-tick :class:`NVPSystemSimulator` loop;
        ``"auto"`` replays the run as a one-lane plan through the
        compiled kernel of :mod:`repro.core.batchexec` (results are
        identical by contract, enforced by
        ``tests/test_executive_equivalence.py``). The kernel only reads
        the executive, so any lane it refuses (see
        :func:`~repro.core.batchexec.executive_refusal`: device
        resilience, an enabled tracer, a frame bound; or no compiler, a
        setup error, a kernel status) runs through the reference loop
        on the same, untouched executive. Construct a fresh executive
        per run all the same: the reference loop consumes it.
        """
        if engine not in ("auto", "reference"):
            raise SimulationError(
                f"engine must be 'auto' or 'reference', got {engine!r}"
            )
        if engine != "reference" and executive_refusal(self) is None:
            outcome = run_executive_batch([self])[0]
            if outcome.result is not None:
                return outcome.result
        sim = NVPSystemSimulator(
            self.trace, self.processor, self, config=self.config
        ).run()
        # Anything still buffered at the end is neither completed nor
        # abandoned; it simply ran out of trace.
        return ExecutiveResult(
            sim=sim,
            frames=tuple(self.records),
            idle_instructions=self._idle_instructions,
        )

    # -- recompute-and-combine integration ---------------------------------------

    def refine_frame(
        self,
        frame_id: int,
        passes: int = 2,
        minbits: Optional[int] = None,
    ):
        """Recompute-and-combine one frame's output (Section 8.5).

        The escape hatch for "interesting" incidental results: re-runs
        the frame ``passes`` times at dynamic precision drawn from this
        executive's own power trace and merges by ``higherbits``.
        Returns the :class:`~repro.core.recompute.RecomputeOutcome`.
        """
        from .recompute import RecomputeAndCombine, schedule_from_trace

        pragma = self.program.incidental
        floor = pragma.minbits if minbits is None else minbits
        schedule = schedule_from_trace(
            self.trace, floor, pragma.maxbits, config=self.config
        )
        rac = RecomputeAndCombine(
            self.program.kernel, floor, pragma.maxbits, seed=self.seed + 77
        )
        image = self.images[frame_id % len(self.images)]
        return rac.run(image, passes, schedule)

    # -- post-hoc quality --------------------------------------------------------

    def frame_quality(
        self,
        result: ExecutiveResult,
        min_coverage: float = 1.0,
        apply_retention_decay: bool = True,
    ) -> List[FrameQuality]:
        """Replay recorded bit schedules through the kernel and score.

        Only frames with coverage at least ``min_coverage`` are scored
        (partial frames have no meaningful full-image PSNR). Retention
        decay is injected for every recorded outage exposure. The heavy
        lifting lives in :func:`replay_frame_quality`, which memoizes
        identical ``(kernel, bit-schedule, exposure, seed)`` tuples
        across frames and grid points.
        """
        policy = (
            None
            if self.precise_backup or not apply_retention_decay
            else self.program.retention_policy(time_scale=self.retention_time_scale)
        )
        scores = replay_frame_quality(
            self.program.kernel,
            self.images,
            result.frames,
            policy=policy,
            seed=self.seed,
            min_coverage=min_coverage,
        )
        tracer = self.tracer
        if tracer.enabled:
            for score in scores:
                tracer.metrics.observe("frame.psnr_db", score.psnr_db, PSNR_DB_BUCKETS)
                if tracer.events:
                    tracer.instant(
                        "frame.quality",
                        tick=result.frames[score.frame_id].arrival_tick,
                        cat="executive",
                        args={
                            "frame_id": score.frame_id,
                            "psnr_db": score.psnr_db,
                            "mean_bits": score.mean_bits,
                            "incidental": score.completed_incidentally,
                        },
                    )
        return scores


# -- post-hoc quality replay ---------------------------------------------------
#
# Replaying one frame is a pure function of (kernel, image, bit schedule,
# exposures, seeds, retention policy): the approximate-datapath context is
# seeded per frame, and so is the retention-failure model — each frame
# gets its own decay stream derived from the run seed and the frame id,
# so scores do not depend on which other frames were scored before them.
# Only the exact kernel output a frame is scored against is memoised:
# many frames share an image. The memo is least-recently-used under an
# entry budget, so a long-running service scoring fresh runs does not
# keep every reference it ever computed; ``repro run all`` leaves 6
# entries.

#: Entry budget of the exact-reference memo (one kernel output each).
EXACT_MEMO_ENTRIES = 64

_EXACT_MEMO = LruMemo(EXACT_MEMO_ENTRIES)

#: Offset multiplier decoupling the per-frame decay stream from the
#: per-frame ApproxContext stream (which uses ``seed + frame_id``).
_FAILURE_SEED_STRIDE = 7919


def clear_quality_memo() -> None:
    """Drop every memoized exact-reference entry."""
    _EXACT_MEMO.clear()


def _exact_reference(kernel, image: np.ndarray) -> np.ndarray:
    data = np.ascontiguousarray(image)
    key = (
        kernel.name,
        hashlib.sha256(data.tobytes()).hexdigest(),
        data.shape,
        str(data.dtype),
    )
    return _EXACT_MEMO.get(key, lambda: kernel.run_exact(image))


def replay_frame_quality(
    kernel,
    images: Sequence[np.ndarray],
    frames: Sequence[FrameRecord],
    policy=None,
    seed: int = 0,
    min_coverage: float = 1.0,
) -> List[FrameQuality]:
    """Score recorded frames through the kernel's approximate datapath.

    ``policy`` is the retention policy whose decay corrupts exposed
    partial results (``None`` disables decay injection). Each frame is
    replayed with an independent, frame-id-derived seed for both the
    datapath noise and the decay stream, so its score depends only on
    its own record.
    """
    scores: List[FrameQuality] = []
    for record in frames:
        if record.coverage < min_coverage or record.element_bits.max(initial=0) == 0:
            continue
        image = images[record.frame_id % len(images)]
        bits = record.element_bits.astype(np.int64).copy()
        bits[bits == 0] = 1  # uncomputed elements: worst-case budget
        ctx = ApproxContext(alu_bits=bits, mem_bits=8, seed=seed + record.frame_id)
        output = kernel.run(image, ctx)
        if policy is not None and record.exposures:
            failure_model = RetentionFailureModel(
                policy, seed=seed + _FAILURE_SEED_STRIDE * (record.frame_id + 1)
            )
            flat = output.reshape(-1).copy()
            for outage_ticks, elements_done in record.exposures:
                if elements_done <= 0:
                    continue
                region = flat[: min(elements_done, flat.size)]
                flat[: region.size] = failure_model.corrupt_words(
                    region, outage_ticks
                )
            output = flat.reshape(output.shape)
        reference = _exact_reference(kernel, image)
        scores.append(
            FrameQuality(
                frame_id=record.frame_id,
                psnr_db=compute_psnr(reference, output),
                mse=compute_mse(reference, output),
                coverage=record.coverage,
                mean_bits=record.mean_bits,
                completed_incidentally=record.completed_incidentally,
            )
        )
    return scores
