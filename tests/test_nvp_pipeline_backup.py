"""Tests for pipeline state sizing and the backup engine."""

import pytest

from repro.errors import ProcessorError
from repro.nvm.retention import LinearRetention, LogRetention, ParabolaRetention
from repro.nvp.backup import BackupEngine
from repro.nvp.energy_model import EnergyModel
from repro.nvp.pipeline import STAGE_NAMES, PipelineModel


@pytest.fixture()
def pipeline():
    return PipelineModel()


@pytest.fixture()
def engine(pipeline):
    return BackupEngine(EnergyModel(), pipeline)


class TestPipelineSizing:
    def test_five_stage_latch_boundaries(self):
        assert STAGE_NAMES == ("IF/ID", "ID/EX", "EX/MEM", "MEM/WB")

    def test_base_state_includes_resume_buffer(self, pipeline):
        # PC (16) + 4 x 16-bit resume buffer + control state.
        assert pipeline.base_state_bits >= 16 + 64

    def test_state_scales_with_bits(self, pipeline):
        assert pipeline.state_bits([1]) < pipeline.state_bits([4]) < pipeline.state_bits([8])

    def test_state_scales_with_lanes(self, pipeline):
        assert pipeline.state_bits([8]) < pipeline.state_bits([8, 8])

    def test_state_fraction_unity_at_full_single_lane(self, pipeline):
        assert pipeline.state_fraction([8]) == pytest.approx(1.0)

    def test_four_lane_fraction(self, pipeline):
        assert pipeline.state_fraction([8, 8, 8, 8]) > 2.0

    def test_lane_count_checked(self, pipeline):
        with pytest.raises(ProcessorError):
            pipeline.state_bits([])
        with pytest.raises(ProcessorError):
            pipeline.state_bits([8] * 5)


class TestBackupEngine:
    def test_precise_backup_costs_base(self, engine):
        assert engine.backup_energy_uj([8]) == pytest.approx(
            engine.energy_model.backup_base_uj
        )
        assert engine.policy_name == "precise"

    def test_shaped_backup_cheaper(self, pipeline):
        model = EnergyModel()
        for policy in (LinearRetention(), LogRetention(), ParabolaRetention()):
            shaped = BackupEngine(model, pipeline, policy=policy)
            assert shaped.backup_energy_uj([8]) < model.backup_base_uj
            assert shaped.policy_name == policy.name

    def test_blend_keeps_precise_share(self, pipeline):
        """The non-approximable state share is always written precisely."""
        model = EnergyModel()
        all_approx = BackupEngine(
            model, pipeline, policy=LogRetention(), approximable_fraction=1.0
        )
        mostly = BackupEngine(
            model, pipeline, policy=LogRetention(), approximable_fraction=0.5
        )
        assert all_approx.backup_energy_uj([8]) < mostly.backup_energy_uj([8])

    def test_fraction_bounds(self, pipeline):
        with pytest.raises(ProcessorError):
            BackupEngine(EnergyModel(), pipeline, approximable_fraction=1.5)

    def test_low_bit_lanes_back_up_less(self, engine):
        assert engine.backup_energy_uj([1]) < engine.backup_energy_uj([8])

    def test_records_accumulate(self, engine):
        engine.record_backup(10, [8])
        engine.record_backup(20, [4])
        assert engine.backup_count == 2
        assert engine.backups[0].tick == 10
        assert engine.backups[1].state_bits < engine.backups[0].state_bits
        assert engine.total_backup_energy_uj == pytest.approx(
            sum(r.energy_uj for r in engine.backups)
        )

    def test_restore_recorded(self, engine):
        energy = engine.record_restore([8])
        assert engine.restore_count == 1
        assert engine.total_restore_energy_uj == pytest.approx(energy)

    def test_restore_cheaper_than_backup(self, engine):
        assert engine.restore_energy_uj([8]) < engine.backup_energy_uj([8])
