"""Tests for the resume buffer, precision maps and assemble merges."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.merge import assemble_arrays
from repro.core.precision import PrecisionMap
from repro.core.resume_buffer import ResumePoint, ResumePointBuffer
from repro.errors import MergeError, ReproError


def _point(frame_id, pc=0x100, done=0):
    return ResumePoint(
        pc=pc, frame_id=frame_id, elements_done=done, register_version=1 + frame_id % 3
    )


class TestResumeBuffer:
    def test_starts_empty(self):
        buffer = ResumePointBuffer()
        assert len(buffer) == 0
        assert not buffer.is_full
        assert buffer.oldest() is None

    def test_capacity_is_four(self):
        """Section 4: 'the last N (four, in our implementation)'."""
        assert ResumePointBuffer().capacity == 4
        with pytest.raises(ReproError):
            ResumePointBuffer(capacity=5)

    def test_push_and_fifo_eviction(self):
        buffer = ResumePointBuffer(capacity=2)
        assert buffer.push(_point(0)) is None
        assert buffer.push(_point(1)) is None
        evicted = buffer.push(_point(2))
        assert evicted.frame_id == 0
        assert buffer.evicted_count == 1
        assert [e.frame_id for e in buffer] == [1, 2]

    def test_remove_after_adoption(self):
        buffer = ResumePointBuffer()
        point = _point(0)
        buffer.push(point)
        buffer.remove(point)
        assert len(buffer) == 0
        with pytest.raises(ReproError):
            buffer.remove(point)

    def test_update_progress(self):
        buffer = ResumePointBuffer()
        point = _point(0, done=10)
        buffer.push(point)
        updated = buffer.update(point, elements_done=50)
        assert updated.elements_done == 50
        assert [e.elements_done for e in buffer] == [50]

    def test_entries_for_frame(self):
        buffer = ResumePointBuffer()
        buffer.push(_point(3))
        assert len(buffer.entries_for_frame(3)) == 1
        assert buffer.entries_for_frame(9) == []

    def test_state_bits(self):
        assert ResumePointBuffer().state_bits() == 64  # 2 bytes x 4

    def test_clear(self):
        buffer = ResumePointBuffer()
        buffer.push(_point(0))
        buffer.clear()
        assert len(buffer) == 0

    @given(st.lists(st.integers(min_value=0, max_value=100), max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_never_exceeds_capacity(self, frame_ids):
        buffer = ResumePointBuffer()
        for fid in frame_ids:
            buffer.push(_point(fid))
        assert len(buffer) <= 4
        # Survivors are the most recent pushes, in order.
        assert [e.frame_id for e in buffer] == frame_ids[-len(buffer):]


class TestPrecisionMap:
    def test_starts_uncomputed(self):
        pm = PrecisionMap((4, 4))
        assert pm.coverage() == 0.0
        assert pm.mean_bits() == 0.0

    def test_set_region(self):
        pm = PrecisionMap((4, 4))
        pm.set_region(np.s_[0:2, :], 6)
        assert pm.coverage() == pytest.approx(0.5)
        assert pm.mean_bits() == pytest.approx(6.0)

    def test_from_array_validation(self):
        with pytest.raises(ReproError):
            PrecisionMap.from_array(np.array([9]))
        with pytest.raises(ReproError):
            PrecisionMap.from_array(np.array([1.5]))

    def test_better_than(self):
        a = PrecisionMap.from_array(np.array([2, 8]))
        b = PrecisionMap.from_array(np.array([4, 4]))
        np.testing.assert_array_equal(a.better_than(b), [False, True])

    def test_merged_max(self):
        a = PrecisionMap.from_array(np.array([2, 8]))
        b = PrecisionMap.from_array(np.array([4, 4]))
        merged = a.merged_max(b)
        np.testing.assert_array_equal(merged.bits, [4, 8])

    def test_shape_mismatch(self):
        with pytest.raises(ReproError):
            PrecisionMap((2,)).merged_max(PrecisionMap((3,)))


class TestAssembleArrays:
    def _maps(self, old_bits, new_bits):
        return (
            PrecisionMap.from_array(np.asarray(old_bits)),
            PrecisionMap.from_array(np.asarray(new_bits)),
        )

    def test_higherbits_semantics(self):
        old_p, new_p = self._maps([2, 8], [8, 2])
        merged, precision = assemble_arrays(
            np.array([10, 20]), old_p, np.array([30, 40]), new_p, "higherbits"
        )
        np.testing.assert_array_equal(merged, [30, 20])
        np.testing.assert_array_equal(precision.bits, [8, 8])

    def test_sum_saturates(self):
        old_p, new_p = self._maps([8], [8])
        merged, _ = assemble_arrays(
            np.array([200]), old_p, np.array([100]), new_p, "sum"
        )
        assert merged[0] == 255

    def test_max_min(self):
        old_p, new_p = self._maps([4, 4], [4, 4])
        max_merged, _ = assemble_arrays(
            np.array([10, 50]), old_p, np.array([30, 20]), new_p, "max"
        )
        np.testing.assert_array_equal(max_merged, [30, 50])
        min_merged, _ = assemble_arrays(
            np.array([10, 50]), old_p, np.array([30, 20]), new_p, "min"
        )
        np.testing.assert_array_equal(min_merged, [10, 20])

    def test_shape_mismatch_rejected(self):
        old_p, new_p = self._maps([4], [4, 4])
        with pytest.raises(MergeError):
            assemble_arrays(np.array([1]), old_p, np.array([1, 2]), new_p, "sum")

    def test_unknown_mode(self):
        old_p, new_p = self._maps([4], [4])
        with pytest.raises(MergeError):
            assemble_arrays(np.array([1]), old_p, np.array([2]), new_p, "blend")

    def test_matches_hardware_memory_semantics(self):
        """Software assemble == the NVM combination state machine."""
        from repro.nvm.memory import VersionedNVMemory

        rng = np.random.default_rng(3)
        old_vals = rng.integers(0, 256, 16)
        new_vals = rng.integers(0, 256, 16)
        old_bits = rng.integers(1, 9, 16)
        new_bits = rng.integers(1, 9, 16)
        for mode in ("sum", "max", "min", "higherbits"):
            soft, soft_prec = assemble_arrays(
                old_vals,
                PrecisionMap.from_array(old_bits),
                new_vals,
                PrecisionMap.from_array(new_bits),
                mode,
            )
            mem = VersionedNVMemory(16)
            mem.write(0, slice(None), old_vals, old_bits)
            mem.write(1, slice(None), new_vals, new_bits)
            mem.merge_versions(0, 1, mode)
            np.testing.assert_array_equal(soft, mem.read(0))
            np.testing.assert_array_equal(soft_prec.bits, mem.read_precision(0))

    @given(
        st.lists(st.integers(min_value=0, max_value=255), min_size=4, max_size=4),
        st.lists(st.integers(min_value=1, max_value=8), min_size=4, max_size=4),
        st.lists(st.integers(min_value=0, max_value=255), min_size=4, max_size=4),
        st.lists(st.integers(min_value=1, max_value=8), min_size=4, max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_higherbits_idempotent(self, ov, op, nv, np_bits):
        old_p = PrecisionMap.from_array(np.asarray(op))
        new_p = PrecisionMap.from_array(np.asarray(np_bits))
        once, prec_once = assemble_arrays(
            np.asarray(ov), old_p, np.asarray(nv), new_p, "higherbits"
        )
        twice, prec_twice = assemble_arrays(
            once, prec_once, np.asarray(nv), new_p, "higherbits"
        )
        np.testing.assert_array_equal(once, twice)
        np.testing.assert_array_equal(prec_once.bits, prec_twice.bits)
