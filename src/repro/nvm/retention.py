"""Retention-time shaping policies (Equations 1-3, Figure 5).

During an approximate (incidental) backup, each bit of a backed-up word
is written with a retention time that depends on its significance: the
MSB keeps a long retention (preventing catastrophic quality loss) while
lower-order bits are persisted unreliably with cheap, short-retention
writes.

The paper proposes three shaping functions over the bit index ``B``
(1 = LSB ... 8 = MSB), with retention ``T`` in 0.1 ms ticks:

* **linear**   ``T = 427 * B``                      (Equation 1)
* **log**      ``T = 426 * (B - 1)**0.25 + 9``      (Equation 2)
* **parabola** ``T = 61 * B**2 + 976 * B - 905``    (Equation 3)

Equation 2 as printed in the paper is typographically mangled
(``T = p 426 B-1 4 + 9``); we read it as the fourth-root (log-like,
concave) curve ``426 * (B-1)^(1/4) + 9``, which matches every property
the paper states about the log policy: it is the lowest of the three
curves (Figure 5), frees the most backup energy (Figure 25), and incurs
the most retention failures (Figure 22).

The linear policy suits most kernels; the parabola is the most
conservative for high-order bits (for algorithms that degrade sharply
below 4 bits); the log policy fits highly approximation-tolerant
kernels (Section 3.2).
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from typing import Dict, Tuple, Type

import numpy as np

from .._validation import check_int_in_range, check_positive
from ..energy.traces import TICK_S
from ..errors import RetentionPolicyError
from .sttram import RETENTION_ONE_DAY_S, STTRAMModel

__all__ = [
    "RetentionPolicy",
    "LinearRetention",
    "LogRetention",
    "ParabolaRetention",
    "UniformRetention",
    "policy_by_name",
    "STANDARD_POLICY_NAMES",
]

#: Default word width of the 8051-class NVP datapath.
DEFAULT_WORD_BITS: int = 8

#: Bound (entries) of the process-wide relative-write-energy memo. A
#: run prices a handful of (policy, width, scale, cell) combinations;
#: the bound only caps what a long-lived process can accumulate.
WRITE_ENERGY_MEMO_SIZE: int = 256

# Relative write energy by value: key -> ratio, evicted oldest-first.
# The ratio is a pure function of the key, so a hit returns the very
# double a fresh computation would. Errors are raised, never stored.
_WRITE_ENERGY_MEMO: Dict[Tuple, float] = {}
_WRITE_ENERGY_LOCK = threading.Lock()


class RetentionPolicy(ABC):
    """A mapping from bit significance to backup retention time.

    Bit indices follow the paper's convention: ``B = 1`` is the least
    significant bit and ``B = word_bits`` the most significant. All
    retention times are expressed in 0.1 ms ticks (the paper's ``T``)
    and clamped to the device's reliable maximum (1 day) so the shaping
    can only *relax* retention, never promise more than the cell has.

    ``time_scale`` stretches the whole shaping curve: the paper's
    constants are tuned to *its* platform's backup cadence (~1500
    backups/minute, so outages of tens of ms); "matching the retention
    time to the power interval profile" (Section 3.2) on a platform
    with longer backup-to-restore intervals means scaling the curve by
    the cadence ratio while keeping its shape. The write-energy model
    consumes the scaled times, so a stretched policy honestly costs
    more per bit.
    """

    #: Short machine-readable name, e.g. ``"linear"``.
    name: str = "abstract"

    def __init__(self, word_bits: int = DEFAULT_WORD_BITS, time_scale: float = 1.0) -> None:
        self.word_bits = check_int_in_range(
            word_bits, "word_bits", 1, 64, exc=RetentionPolicyError
        )
        self.time_scale = check_positive(time_scale, "time_scale", exc=RetentionPolicyError)
        self._max_ticks = RETENTION_ONE_DAY_S / TICK_S

    @abstractmethod
    def _raw_retention_ticks(self, bit_index: int) -> float:
        """The unclamped shaping function ``T(B)``."""

    def retention_ticks(self, bit_index: int) -> float:
        """Shaped retention time (0.1 ms ticks) for bit ``bit_index``.

        ``bit_index`` runs from 1 (LSB) to ``word_bits`` (MSB).
        """
        bit = check_int_in_range(
            bit_index, "bit_index", 1, self.word_bits, exc=RetentionPolicyError
        )
        raw = self._raw_retention_ticks(bit)
        if raw < 0.0:
            raise RetentionPolicyError(
                f"{self.name} policy produced negative retention for bit {bit}"
            )
        return float(min(raw * self.time_scale, self._max_ticks))

    def retention_seconds(self, bit_index: int) -> float:
        """Shaped retention time for ``bit_index``, in seconds."""
        return self.retention_ticks(bit_index) * TICK_S

    def retention_profile_ticks(self) -> np.ndarray:
        """Retention of every bit (index 0 = LSB), in ticks — Figure 5."""
        return np.array(
            [self.retention_ticks(b) for b in range(1, self.word_bits + 1)],
            dtype=np.float64,
        )

    # -- energy ----------------------------------------------------------

    def word_write_energy_pj(self, cell: STTRAMModel) -> float:
        """Energy (pJ) to back up one word under this policy.

        Sums the minimum-energy write cost of each bit at its shaped
        retention time.
        """
        return float(
            sum(
                cell.optimal_write_energy_pj(self.retention_seconds(b))
                for b in range(1, self.word_bits + 1)
            )
        )

    def _energy_key(self) -> Tuple:
        """Everything the shaped retention times depend on.

        A subclass with state of its own that shapes retention must
        extend this key, or the write-energy memo would conflate
        policies that differ in that state.
        """
        return (type(self), self.word_bits, self.time_scale)

    def relative_write_energy(self, cell: STTRAMModel) -> float:
        """Word write energy relative to a full-retention (1 day) backup.

        This ratio is what scales the system simulator's backup cost;
        the log policy yields the smallest ratio, parabola the largest
        of the three shaped policies.

        Memoised by value: the key (:meth:`_energy_key` plus the frozen
        ``cell``) is taken at call time, so a mutated policy is priced
        afresh, and equal policies share one entry however many
        instances exist.
        """
        key = (self._energy_key(), cell)
        ratio = _WRITE_ENERGY_MEMO.get(key)
        if ratio is None:
            baseline = UniformRetention(
                RETENTION_ONE_DAY_S, word_bits=self.word_bits
            ).word_write_energy_pj(cell)
            ratio = self.word_write_energy_pj(cell) / baseline
            with _WRITE_ENERGY_LOCK:
                if len(_WRITE_ENERGY_MEMO) >= WRITE_ENERGY_MEMO_SIZE:
                    del _WRITE_ENERGY_MEMO[next(iter(_WRITE_ENERGY_MEMO))]
                _WRITE_ENERGY_MEMO[key] = ratio
        return ratio

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(word_bits={self.word_bits}, "
            f"time_scale={self.time_scale})"
        )


class LinearRetention(RetentionPolicy):
    """Equation 1: ``T = 427 * B`` (ticks). Suits most kernels (FFT, iFFT...)."""

    name = "linear"

    def _raw_retention_ticks(self, bit_index: int) -> float:
        return 427.0 * bit_index


class LogRetention(RetentionPolicy):
    """Equation 2 (as reconstructed): ``T = 426 * (B-1)**0.25 + 9`` (ticks).

    The most aggressive policy: lowest retention everywhere, greatest
    backup-energy saving, most retention failures. Fits kernels with
    high approximation tolerance (e.g. neural-network inference).
    """

    name = "log"

    def _raw_retention_ticks(self, bit_index: int) -> float:
        return 426.0 * float(bit_index - 1) ** 0.25 + 9.0


class ParabolaRetention(RetentionPolicy):
    """Equation 3: ``T = 61*B**2 + 976*B - 905`` (ticks).

    The most conservative policy for high-order bits; designed for
    algorithms that lose significant quality below 4 bits.
    """

    name = "parabola"

    def _raw_retention_ticks(self, bit_index: int) -> float:
        return 61.0 * bit_index ** 2 + 976.0 * bit_index - 905.0


class UniformRetention(RetentionPolicy):
    """All bits share one retention time — the non-shaped baseline.

    ``UniformRetention(RETENTION_ONE_DAY_S)`` is the precise-NVP backup
    model ("8Bit 1 Day Baseline" in Figure 25).
    """

    name = "uniform"

    def __init__(
        self,
        retention_s: float,
        word_bits: int = DEFAULT_WORD_BITS,
        time_scale: float = 1.0,
    ) -> None:
        super().__init__(word_bits=word_bits, time_scale=time_scale)
        self.retention_s = check_positive(retention_s, "retention_s", exc=RetentionPolicyError)

    def _raw_retention_ticks(self, bit_index: int) -> float:
        return self.retention_s / TICK_S

    def _energy_key(self) -> Tuple:
        return super()._energy_key() + (self.retention_s,)

    def __repr__(self) -> str:
        return (
            f"UniformRetention(retention_s={self.retention_s!r}, "
            f"word_bits={self.word_bits})"
        )


_POLICY_REGISTRY: Dict[str, Type[RetentionPolicy]] = {
    LinearRetention.name: LinearRetention,
    LogRetention.name: LogRetention,
    ParabolaRetention.name: ParabolaRetention,
}

#: Names of the three shaped policies of the paper, in paper order.
STANDARD_POLICY_NAMES: Tuple[str, ...] = ("linear", "log", "parabola")


def policy_by_name(
    name: str, word_bits: int = DEFAULT_WORD_BITS, time_scale: float = 1.0
) -> RetentionPolicy:
    """Instantiate a shaped retention policy from its pragma name.

    This is the lookup the ``incidental(src, minbits, maxbits, policy)``
    pragma performs.
    """
    try:
        cls = _POLICY_REGISTRY[name]
    except KeyError:
        raise RetentionPolicyError(
            f"unknown retention policy {name!r}; expected one of {STANDARD_POLICY_NAMES}"
        ) from None
    return cls(word_bits=word_bits, time_scale=time_scale)
