"""Retention-failure model: bit decay during power outages (Figure 22).

A bit backed up with shaped retention time ``T`` is only guaranteed to
survive outages shorter than ``T``. When the power outage that follows
a backup lasts ``d > T`` ticks, the bit has decayed past its guaranteed
window: we count a *retention failure* for that bit, and on restore the
stored value of that bit is randomised (a decayed magnetic cell reads
back either polarity, so it flips with probability one half).

The randomisation is *seeded, not free-running*: every decayed-bit draw
comes from a PCG64 stream derived solely from the model's ``seed``
argument, so the same seed replays the same corruption bit for bit.
The executive quality replay relies on this — each frame's model is
seeded ``seed + 7919 * (frame_id + 1)``
(``repro.core.executive._FAILURE_SEED_STRIDE``), making the corruption
of any frame a pure function of ``(frame_id, seed)``, independent of
which other frames were scored before it. That purity is what lets
frame scores be memoized and replayed from the result cache.
``tests/test_nvm_failures.py`` pins the guarantee.

Figure 22 of the paper reports 15-1200 retention-failure counts per
bit, varying with policy and power profile; Figures 23-24 show that the
resulting quality impact stays within the tolerance of approximable
kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

from .._validation import check_int_in_range, check_probability
from ..errors import NVMError
from .retention import RetentionPolicy

__all__ = ["RetentionFailureModel", "FailureCounts", "count_retention_failures"]


@dataclass(frozen=True)
class FailureCounts:
    """Per-bit retention-failure counts (index 0 = LSB).

    ``seed`` records the subsampling seed the counts were produced
    with (``None`` when every outage was counted and no randomness was
    involved), so a Figure 22 row can be reproduced from its counts
    object alone.
    """

    policy_name: str
    per_bit: Tuple[int, ...]
    seed: Optional[int] = None

    @property
    def total(self) -> int:
        """Total failures across all bits."""
        return int(sum(self.per_bit))

    def for_bit(self, bit_index: int) -> int:
        """Failure count of bit ``bit_index`` (1 = LSB)."""
        bit = check_int_in_range(bit_index, "bit_index", 1, len(self.per_bit), exc=NVMError)
        return self.per_bit[bit - 1]


class RetentionFailureModel:
    """Decides which backed-up bits decay across each outage.

    Parameters
    ----------
    policy:
        The retention-shaping policy the backup was written with.
    decay_flip_probability:
        Probability that a bit *whose retention expired* reads back
        flipped. Physically a fully decayed cell is random (0.5); a
        value below 0.5 models cells that only partially lose margin.
    seed:
        Seed for the decay randomness. The decay stream is a pure
        function of this value: two models built with the same seed
        corrupt identical inputs identically, which is what makes the
        per-frame corruption of the executive replay reproducible
        from ``(frame_id, seed)`` alone.
    """

    def __init__(
        self,
        policy: RetentionPolicy,
        decay_flip_probability: float = 0.5,
        seed: int = 0,
    ) -> None:
        if not isinstance(policy, RetentionPolicy):
            raise NVMError("policy must be a RetentionPolicy instance")
        self.policy = policy
        self.decay_flip_probability = check_probability(
            decay_flip_probability, "decay_flip_probability", exc=NVMError
        )
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._retention_ticks = policy.retention_profile_ticks()

    @property
    def word_bits(self) -> int:
        """Word width of the protected data."""
        return self.policy.word_bits

    def expired_bits(self, outage_ticks: int) -> np.ndarray:
        """Boolean mask (LSB first) of bits whose retention expired."""
        outage = check_int_in_range(outage_ticks, "outage_ticks", 0, exc=NVMError)
        return self._retention_ticks < float(outage)

    def violation_count(self, outage_ticks: int) -> int:
        """Number of bit positions violated by one outage of this length."""
        return int(np.count_nonzero(self.expired_bits(outage_ticks)))

    def corrupt_words(self, words: np.ndarray, outage_ticks: int) -> np.ndarray:
        """Return ``words`` after decay across an ``outage_ticks`` outage.

        Each expired bit position of each word is independently flipped
        with ``decay_flip_probability``. Unexpired bits are untouched.
        The input array is not modified.
        """
        words = np.asarray(words)
        if not np.issubdtype(words.dtype, np.integer):
            raise NVMError("corrupt_words expects an integer array")
        expired = self.expired_bits(outage_ticks)
        if not expired.any():
            return words.copy()
        out = words.astype(np.int64, copy=True)
        # One batched draw over all expired bit positions: filling a
        # (k,)+shape array consumes the identical PCG64 stream as k
        # sequential draws of `shape`, and the per-bit XOR masks touch
        # disjoint bits, so accumulation order cannot matter.
        expired_idx = np.flatnonzero(expired)
        draws = self._rng.random((expired_idx.size,) + words.shape)
        flips = (draws < self.decay_flip_probability).astype(np.int64)
        shifts = expired_idx.astype(np.int64).reshape(
            (expired_idx.size,) + (1,) * words.ndim
        )
        out ^= np.bitwise_xor.reduce(flips << shifts, axis=0)
        return out.astype(words.dtype)


def count_retention_failures(
    outage_durations_ticks: Iterable[int],
    policy: RetentionPolicy,
    backup_fraction: float = 1.0,
    seed: Optional[int] = None,
) -> FailureCounts:
    """Count per-bit retention failures over a sequence of outages.

    Every outage follows one backup; each bit whose shaped retention is
    shorter than the outage contributes one failure. ``backup_fraction``
    subsamples outages for systems that do not approximate every backup
    (e.g. only incidental-marked state uses shaped retention); the
    subsample is drawn from ``seed`` (``None`` means seed 0), and the
    seed actually used is recorded on the returned
    :class:`FailureCounts` so the row is reproducible from its result.

    This reproduces the Figure 22 counting: per-bit failure totals per
    policy per power profile.
    """
    if not isinstance(policy, RetentionPolicy):
        raise NVMError("policy must be a RetentionPolicy instance")
    fraction = check_probability(backup_fraction, "backup_fraction", exc=NVMError)
    durations = np.asarray(list(outage_durations_ticks), dtype=np.float64)
    if durations.size and durations.min() < 0:
        raise NVMError("outage durations must be non-negative")
    used_seed: Optional[int] = None
    if fraction < 1.0 and durations.size:
        used_seed = 0 if seed is None else seed
        rng = np.random.default_rng(used_seed)
        keep = rng.random(durations.size) < fraction
        durations = durations[keep]
    retention = policy.retention_profile_ticks()
    per_bit = [
        int(np.count_nonzero(durations > retention[bit]))
        for bit in range(policy.word_bits)
    ]
    return FailureCounts(
        policy_name=policy.name, per_bit=tuple(per_bit), seed=used_seed
    )
