"""Nonvolatile-memory substrate.

Models the STT-RAM backing store used for distributed backup in the
NVP: the write-current / pulse-width / retention-time trade-off of
Figure 4, the three retention-time shaping policies of Equations 1-3
and Figure 5 (whose ``relative_write_energy`` prices every backup),
the retention-failure (bit-decay) model behind Figure 22, and the
multi-version data memory with per-word precision metadata described in
Section 4.
"""

from .sttram import STTRAMModel, RETENTION_ONE_DAY_S, RETENTION_10MS_S
from .retention import (
    RetentionPolicy,
    LinearRetention,
    LogRetention,
    ParabolaRetention,
    UniformRetention,
    policy_by_name,
    STANDARD_POLICY_NAMES,
)
from .failures import (
    RetentionFailureModel,
    FailureCounts,
    count_retention_failures,
)
from .memory import VersionedNVMemory, MAX_VERSIONS

__all__ = [
    "STTRAMModel",
    "RETENTION_ONE_DAY_S",
    "RETENTION_10MS_S",
    "RetentionPolicy",
    "LinearRetention",
    "LogRetention",
    "ParabolaRetention",
    "UniformRetention",
    "policy_by_name",
    "STANDARD_POLICY_NAMES",
    "RetentionFailureModel",
    "FailureCounts",
    "count_retention_failures",
    "VersionedNVMemory",
    "MAX_VERSIONS",
]
