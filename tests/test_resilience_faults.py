"""Device fault injection and the hardened restore path.

Covers the acceptance criteria of the resilience tentpole:

* rate-0 config with validation enabled is bit-identical to the
  fault-free simulators (fixed-bit and executive, fast and reference);
* with faults enabled, the same seed reproduces the same fallback
  counts, quality scores and telemetry on repeated runs — including
  through the content-addressed campaign cache;
* restore-path edge cases: zero prior checkpoints, back-to-back
  outages shorter than one backup epoch, both-checkpoints-bad
  roll-forward.
"""

import numpy as np
import pytest

from repro.analysis import engine
from repro.analysis.resilience import (
    ResilienceCampaign,
    ResiliencePoint,
    ResilienceTask,
    corrupt_resilience_point,
    resilience_payload_error,
)
from repro.nvp.backup import BackupRecord
from repro.nvp.processor import NonvolatileProcessor
from repro.resilience import (
    Checkpoint,
    CheckpointStore,
    DeviceFaultModel,
    DeviceResilience,
    ResilienceConfig,
    crc8,
)
from repro.system.simulator import simulate_fixed_bits

pytestmark = pytest.mark.resilience

RATE0 = ResilienceConfig()  # validation on, all rates zero, unpriced
TORN_ALWAYS = ResilienceConfig(torn_backup_rate=1.0)


def _trace(duration_s=1.5):
    return engine.trace_for(1, duration_s=duration_s)


def _exec_task(**overrides):
    base = dict(
        kernel="median",
        policy="linear",
        profile_id=1,
        minbits=2,
        duration_s=1.5,
        frame_size=8,
    )
    base.update(overrides)
    return engine.ExecutiveTask(**base)


class TestGuardWords:
    def test_crc8_detects_every_single_bit_flip(self):
        rng = np.random.default_rng(0)
        words = rng.integers(0, 256, size=64, dtype=np.uint8)
        guard = crc8(words)
        for bit in range(words.size * 8):
            flipped = words.copy()
            flipped[bit // 8] ^= np.uint8(1 << (bit % 8))
            assert crc8(flipped) != guard, f"missed flip at bit {bit}"

    def test_checkpoint_validate_roundtrip(self):
        words = np.arange(32, dtype=np.uint8)
        cp = Checkpoint(tick=10, state_bits=256, words=words, guard=crc8(words))
        assert cp.validate()
        cp.apply_flips(np.array([5]))
        assert not cp.validate()

    def test_xor_cancelling_flips_leave_image_clean(self):
        words = np.arange(16, dtype=np.uint8)
        cp = Checkpoint(tick=0, state_bits=128, words=words, guard=crc8(words))
        cp.apply_flips(np.array([3, 3]))  # even multiplicity: no net flip
        assert cp.validate()
        assert not cp.corrupted

    def test_store_keeps_newest_two(self):
        store = CheckpointStore(capacity=2)
        for tick in (1, 2, 3):
            words = np.full(4, tick, dtype=np.uint8)
            store.push(
                Checkpoint(
                    tick=tick, state_bits=32, words=words, guard=crc8(words)
                )
            )
        assert store.newest.tick == 3
        assert store.previous.tick == 2
        assert len(store) == 2


class TestRestoreEdgeCases:
    def test_zero_prior_checkpoints_is_a_cold_start(self):
        dr = DeviceResilience(RATE0)
        outcome = dr.on_restore(tick=100)
        assert outcome.kind == "cold"
        assert outcome.checkpoint_tick is None
        assert dr.telemetry.cold_restores == 1
        assert dr.telemetry.restores == 1
        # A cold start is not a degradation: nothing to discard.
        assert not outcome.degraded

    def test_back_to_back_outages_shorter_than_one_backup(self):
        # Two restores against the same checkpoint, with no progress
        # and no new backup in between: both validate cleanly and the
        # epoch stake is never double-counted.
        dr = DeviceResilience(RATE0)
        dr.note_executed(500)
        dr.on_backup(tick=10, state_bits=256)
        for tick in (20, 25):
            outcome = dr.on_restore(tick=tick)
            assert outcome.kind == "ok"
            assert outcome.checkpoint_tick == 10
        assert dr.telemetry.restores == 2
        assert dr.telemetry.clean_restores == 2
        assert dr.telemetry.lost_progress == 0

    def test_torn_newest_falls_back_to_previous(self):
        config = ResilienceConfig(torn_backup_rate=0.5, seed=3)
        dr = DeviceResilience(config)
        # Find a (clean, torn) consecutive pair in the deterministic
        # fault stream, then restore against it.
        tick = 0
        while True:
            clean_tick, torn_tick = tick, tick + 1
            if not dr.model.torn_backup(clean_tick) and dr.model.torn_backup(
                torn_tick
            ):
                break
            tick += 1
        dr.note_executed(100)
        assert dr.on_backup(clean_tick, state_bits=256) is False
        dr.note_executed(250)
        assert dr.on_backup(torn_tick, state_bits=256) is True
        outcome = dr.on_restore(tick=torn_tick + 5)
        assert outcome.kind == "fallback_previous"
        assert outcome.checkpoint_tick == clean_tick
        assert outcome.lost_progress == 250  # the torn epoch's stake
        assert dr.telemetry.detected_torn == 1
        assert dr.telemetry.fallback_previous == 1

    def test_both_checkpoints_torn_rolls_forward(self):
        dr = DeviceResilience(TORN_ALWAYS)
        dr.note_executed(100)
        dr.on_backup(tick=1, state_bits=256)
        dr.note_executed(200)
        dr.on_backup(tick=2, state_bits=256)
        outcome = dr.on_restore(tick=10)
        assert outcome.kind == "rollforward"
        assert outcome.checkpoint_tick is None
        assert outcome.lost_progress == 300  # both epochs abandoned
        assert dr.telemetry.rollforwards == 1
        assert dr.telemetry.detected_failures == 2
        assert len(dr.store) == 0  # stale images dropped

    def test_validation_off_consumes_torn_state_silently(self):
        config = ResilienceConfig(torn_backup_rate=1.0, validate_restores=False)
        dr = DeviceResilience(config)
        dr.on_backup(tick=1, state_bits=256)
        outcome = dr.on_restore(tick=5)
        assert outcome.kind == "silent"
        assert dr.telemetry.silent_corruptions == 1
        assert dr.telemetry.detected_failures == 0

    def test_brownout_blocks_until_window_closes(self):
        config = ResilienceConfig(brownout_rate=1.0, brownout_ticks=50)
        dr = DeviceResilience(config)
        assert dr.restore_blocked(100)
        assert dr.restore_blocked(120)  # still inside the tail
        assert dr.telemetry.brownouts == 1
        assert dr.telemetry.blocked_restores == 2

    def test_identical_instances_replay_identical_telemetry(self):
        config = ResilienceConfig(
            torn_backup_rate=0.4, seu_rate=1e-5, brownout_rate=0.2, seed=11
        )

        def drive(dr):
            for tick in range(0, 4_000, 400):
                dr.note_executed(37)
                dr.on_backup(tick, state_bits=320)
                if not dr.restore_blocked(tick + 150):
                    dr.on_restore(tick + 200)
            return dr.telemetry.to_dict()

        assert drive(DeviceResilience(config)) == drive(
            DeviceResilience(config)
        )


class TestBackupRecordAborted:
    def test_default_is_not_aborted(self):
        record = BackupRecord(
            tick=0, state_bits=100, energy_uj=1.0, policy_name="precise"
        )
        assert record.aborted is False

    def test_torn_rate_one_aborts_every_backup(self):
        proc = NonvolatileProcessor(resilience=TORN_ALWAYS)
        lanes = [8]
        for tick in range(5):
            proc.backup(tick, lanes)
        assert proc.backup_engine.backup_count == 5
        assert proc.aborted_backup_count == 5
        assert proc.backup_engine.completed_backup_count == 0
        assert all(r.aborted for r in proc.backup_engine.backups)

    def test_rate_zero_aborts_nothing(self):
        proc = NonvolatileProcessor(resilience=RATE0)
        for tick in range(5):
            proc.backup(tick, [8])
        assert proc.aborted_backup_count == 0
        assert proc.backup_engine.completed_backup_count == 5


class TestRateZeroDifferential:
    def test_fixed_bits_rate0_matches_fast_path(self):
        trace = _trace()
        fast = simulate_fixed_bits(trace, 4, engine="auto")
        hardened = simulate_fixed_bits(
            trace, 4, engine="reference", resilience=RATE0
        )
        assert engine.simulation_results_equal(fast, hardened)

    def test_executive_rate0_matches_fast_path(self):
        task = _exec_task()
        fast = task.run(engine="auto")
        hardened = task.build_executive(resilience=RATE0).run(
            engine="reference"
        )
        assert engine.executive_results_equal(fast, hardened)

    def test_resilience_config_routes_auto_engine_to_reference(self):
        # engine="auto" with a resilience config must not take the fast
        # path (which cannot model faults); the result is the reference
        # trajectory.
        trace = _trace()
        auto = simulate_fixed_bits(trace, 4, engine="auto", resilience=RATE0)
        ref = simulate_fixed_bits(
            trace, 4, engine="reference", resilience=RATE0
        )
        assert engine.simulation_results_equal(auto, ref)

    def test_fast_executive_refuses_resilience(self):
        # The C replay cannot model faults, so it refuses the lane and
        # engine="auto" runs the reference loop instead.
        from repro.core.batchexec import executive_refusal

        task = _exec_task()
        ex = task.build_executive(resilience=RATE0)
        assert "resilience" in executive_refusal(ex)
        fast = ex.run(engine="auto")
        ref = task.build_executive(resilience=RATE0).run(engine="reference")
        assert engine.executive_results_equal(fast, ref)

    def test_guard_pricing_changes_backup_energy(self):
        trace = _trace()
        unpriced = simulate_fixed_bits(
            trace, 4, engine="reference", resilience=RATE0
        )
        priced = simulate_fixed_bits(
            trace,
            4,
            engine="reference",
            resilience=ResilienceConfig(price_guard_words=True),
        )
        assert priced.backup_energy_uj > unpriced.backup_energy_uj


class TestFaultDeterminism:
    CONFIG = ResilienceConfig(
        torn_backup_rate=0.3,
        seu_rate=2e-6,
        brownout_rate=0.1,
        brownout_ticks=300,
        seed=5,
    )

    def test_same_seed_same_run(self):
        task = _exec_task()

        def one_run():
            ex = task.build_executive(resilience=self.CONFIG)
            result = ex.run(engine="reference")
            scores = ex.frame_quality(result)
            return result, ex.processor.resilience.telemetry.to_dict(), [
                (s.frame_id, s.psnr_db, s.mse) for s in scores
            ]

        result_a, tel_a, scores_a = one_run()
        result_b, tel_b, scores_b = one_run()
        assert engine.executive_results_equal(result_a, result_b)
        assert tel_a == tel_b
        assert scores_a == scores_b
        # The scenario actually exercised the fault machinery.
        assert tel_a["torn_backups"] > 0

    def test_campaign_replays_identically_through_disk_cache(self, tmp_path):
        campaign = ResilienceCampaign(
            kernels=("median",),
            policies=("linear",),
            rates=(0.0, 0.2),
            duration_s=1.0,
        )
        cache = engine.ResultCache(tmp_path / "cache")
        first = campaign.run(workers=1, cache=cache)
        engine.clear_memory_cache()
        second = campaign.run(workers=1, cache=cache)
        assert first.equal(second)
        report = engine.telemetry.last_report("resilience")
        assert [t.status for t in report.tasks] == ["cache-hit", "cache-hit"]
        # And a cold recompute (no cache at all) also agrees.
        engine.configure(use_cache=False)
        try:
            third = campaign.run(workers=1)
        finally:
            engine.configure(use_cache=True)
        assert first.equal(third)

    def test_rate0_point_has_full_availability_anchor(self):
        task = ResilienceTask(base=_exec_task(), rate=0.0)
        point = task.run()
        assert point.detected_failures == 0
        assert point.silent_corruptions == 0
        assert point.aborted_backups == 0
        assert point.availability > 0.0

    def test_availability_floor_and_monotone_fall_with_rate(self):
        campaign = ResilienceCampaign(
            kernels=("median",),
            policies=("linear",),
            rates=(0.0, 0.1, 0.3),
            duration_s=1.5,
        )
        curve = campaign.run().availability_curve("median", "linear")
        values = [availability for _, availability in curve]
        assert values[0] >= 0.5, values
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:])), values


class TestPointValidation:
    def _point(self):
        return ResilienceTask(base=_exec_task(duration_s=1.0), rate=0.0).run()

    def test_honest_point_passes_and_roundtrips(self):
        point = self._point()
        assert resilience_payload_error(point) is None
        assert ResiliencePoint.from_dict(point.to_dict()) == point

    def test_corrupt_point_is_rejected(self):
        bad = corrupt_resilience_point(self._point())
        assert resilience_payload_error(bad) is not None

    def test_from_dict_rejects_unknown_and_missing_fields(self):
        payload = self._point().to_dict()
        with pytest.raises(ValueError, match="unknown"):
            ResiliencePoint.from_dict({**payload, "bogus": 1})
        payload.pop("backups")
        with pytest.raises(ValueError, match="missing"):
            ResiliencePoint.from_dict(payload)


class TestFaultModelDeterminism:
    def test_draws_are_order_independent(self):
        model = DeviceFaultModel(torn_backup_rate=0.5, seed=9)
        forward = [model.torn_backup(t) for t in range(50)]
        backward = [model.torn_backup(t) for t in reversed(range(50))]
        assert forward == list(reversed(backward))

    def test_seu_window_split_is_consistent(self):
        model = DeviceFaultModel(seu_rate=1e-4, seed=2)
        whole = model.seu_flip_count(10, 10, 500, 4_096)
        split = model.seu_flip_count(10, 10, 200, 4_096) + model.seu_flip_count(
            10, 200, 500, 4_096
        )
        # Windows are drawn independently (keyed by their bounds), so
        # the split need not equal the whole — but both must replay.
        assert whole == model.seu_flip_count(10, 10, 500, 4_096)
        assert split == model.seu_flip_count(
            10, 10, 200, 4_096
        ) + model.seu_flip_count(10, 200, 500, 4_096)
