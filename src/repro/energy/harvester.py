"""Ambient-energy harvester source models.

The paper's running example is a "wristwatch form factor" platform with
an unbalanced-ring rotational harvester [73, 74] whose output averages
10-40 µW in daily activities but spikes to 2000 µW at fine temporal
granularity (Figure 2). We model each harvester as a regime-switching
stochastic process: the source alternates between a *quiet* regime
(trickle power) and a *burst* regime (log-normally distributed spikes),
with occasional *dead* periods of zero income that produce the long
outage tail of Figure 3.

All harvesters share the same generator machinery and differ only in
their regime parameters, which is exactly how the paper treats the
different ambient sources (solar, RF, piezo/motion, thermal): the same
NVP platform behind front ends with different statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .._validation import check_non_negative, check_positive, check_probability

__all__ = [
    "HarvesterModel",
    "WristwatchRingHarvester",
    "SolarHarvester",
    "RFHarvester",
    "ThermalHarvester",
]

# Regime identifiers used internally by the generator.
_QUIET, _BURST, _DEAD = 0, 1, 2


@dataclass(frozen=True)
class HarvesterModel:
    """A regime-switching ambient power source.

    Parameters
    ----------
    quiet_power_uw:
        Mean trickle power while in the quiet regime (µW).
    burst_median_uw:
        Median spike power while bursting (µW); spike amplitudes are
        log-normal around this median.
    burst_sigma:
        Log-normal shape parameter for burst amplitudes.
    peak_power_uw:
        Hard clip applied to the output (the paper's traces saturate
        near 2000 µW).
    mean_burst_ticks / mean_quiet_ticks / mean_dead_ticks:
        Sojourn-time scales per regime, in 0.1 ms ticks. Burst and dead
        durations are geometric; quiet-gap durations are *log-normal*
        around ``mean_quiet_ticks`` (their median) so the gap
        distribution has the heavy tail that Figure 3 shows — the tail
        is what differentiates configurations that can and cannot
        bridge a gap on stored charge.
    quiet_sigma:
        Log-normal shape parameter of the quiet-gap durations.
    dead_probability:
        Probability that a completed burst is followed by a *dead*
        period instead of a quiet one. Dead periods model the long
        power-outage tail in Figure 3.
    jitter_sigma:
        Multiplicative log-normal jitter applied per-sample inside a
        regime, producing the fine-grained "glitches" the paper notes
        in Figure 9 (bottom right).
    """

    name: str = "generic"
    quiet_power_uw: float = 6.0
    burst_median_uw: float = 220.0
    burst_sigma: float = 0.9
    peak_power_uw: float = 2000.0
    mean_burst_ticks: float = 14.0
    mean_quiet_ticks: float = 25.0
    mean_dead_ticks: float = 1100.0
    quiet_sigma: float = 1.0
    dead_probability: float = 0.055
    jitter_sigma: float = 0.28

    def __post_init__(self) -> None:
        check_non_negative(self.quiet_power_uw, "quiet_power_uw")
        check_positive(self.burst_median_uw, "burst_median_uw")
        check_positive(self.burst_sigma, "burst_sigma")
        check_positive(self.peak_power_uw, "peak_power_uw")
        check_positive(self.mean_burst_ticks, "mean_burst_ticks")
        check_positive(self.mean_quiet_ticks, "mean_quiet_ticks")
        check_positive(self.mean_dead_ticks, "mean_dead_ticks")
        check_positive(self.quiet_sigma, "quiet_sigma")
        check_probability(self.dead_probability, "dead_probability")
        check_non_negative(self.jitter_sigma, "jitter_sigma")

    def generate(self, n_samples: int, rng: np.random.Generator) -> np.ndarray:
        """Generate ``n_samples`` power samples (µW) at 0.1 ms spacing.

        The process is simulated regime-by-regime rather than
        tick-by-tick, which keeps generation fast for the 100 000-sample
        traces used throughout the evaluation.
        """
        if n_samples <= 0:
            return np.zeros(0, dtype=np.float64)
        out = np.empty(n_samples, dtype=np.float64)
        # A burst's envelope depends only on its length, and a trace's
        # thousands of bursts come in a few dozen lengths.
        envelopes: Dict[int, np.ndarray] = {}
        pos = 0
        regime = _QUIET
        while pos < n_samples:
            if regime == _QUIET:
                # Heavy-tailed gap lengths: log-normal around the median.
                length = 1 + int(
                    self.mean_quiet_ticks * rng.lognormal(0.0, self.quiet_sigma)
                )
                length = min(length, n_samples - pos)
                base = self.quiet_power_uw
                samples = base * rng.lognormal(0.0, self.jitter_sigma, size=length)
                next_regime = _BURST
            elif regime == _BURST:
                length = 1 + rng.geometric(1.0 / self.mean_burst_ticks)
                length = min(length, n_samples - pos)
                amplitude = self.burst_median_uw * rng.lognormal(
                    0.0, self.burst_sigma
                )
                # A burst has an envelope: ramps up then decays, like the
                # mechanical pluck events of the rotational harvester.
                envelope = envelopes.get(length)
                if envelope is None:
                    envelope = envelopes[length] = (
                        np.sin(np.linspace(0.15, np.pi - 0.15, length)) ** 0.5
                    )
                jitter = rng.lognormal(0.0, self.jitter_sigma, size=length)
                samples = amplitude * envelope * jitter
                next_regime = (
                    _DEAD if rng.random() < self.dead_probability else _QUIET
                )
            else:  # _DEAD
                length = 1 + rng.geometric(1.0 / self.mean_dead_ticks)
                length = min(length, n_samples - pos)
                samples = np.zeros(length)
                next_regime = _BURST
            out[pos : pos + length] = samples
            pos += length
            regime = next_regime
        np.clip(out, 0.0, self.peak_power_uw, out=out)
        return out


def WristwatchRingHarvester(**overrides: float) -> HarvesterModel:
    """Unbalanced-ring rotational harvester (the paper's running example).

    Defaults are calibrated so that a 10 s trace has mean power in the
    10-40 µW band with roughly 1000-2000 power emergencies at the 33 µW
    operating threshold (Section 2.2).
    """
    params = dict(
        name="wristwatch-ring",
        quiet_power_uw=6.0,
        burst_median_uw=210.0,
        burst_sigma=0.95,
        mean_burst_ticks=14.0,
        mean_quiet_ticks=25.0,
        mean_dead_ticks=1100.0,
        dead_probability=0.055,
        jitter_sigma=0.28,
    )
    params.update(overrides)
    return HarvesterModel(**params)


def SolarHarvester(**overrides: float) -> HarvesterModel:
    """Indoor ambient-light harvester: steadier, longer bursts."""
    params = dict(
        name="solar",
        quiet_power_uw=18.0,
        burst_median_uw=160.0,
        burst_sigma=0.5,
        mean_burst_ticks=220.0,
        mean_quiet_ticks=180.0,
        mean_dead_ticks=800.0,
        dead_probability=0.01,
        jitter_sigma=0.12,
    )
    params.update(overrides)
    return HarvesterModel(**params)


def RFHarvester(**overrides: float) -> HarvesterModel:
    """WiFi/TV RF harvester: very frequent, very short spikes."""
    params = dict(
        name="rf",
        quiet_power_uw=4.0,
        burst_median_uw=120.0,
        burst_sigma=0.7,
        mean_burst_ticks=4.0,
        mean_quiet_ticks=18.0,
        mean_dead_ticks=200.0,
        dead_probability=0.015,
        jitter_sigma=0.35,
    )
    params.update(overrides)
    return HarvesterModel(**params)


def ThermalHarvester(**overrides: float) -> HarvesterModel:
    """Body-heat thermoelectric harvester: low amplitude, slow drift."""
    params = dict(
        name="thermal",
        quiet_power_uw=22.0,
        burst_median_uw=60.0,
        burst_sigma=0.3,
        mean_burst_ticks=400.0,
        mean_quiet_ticks=250.0,
        mean_dead_ticks=1000.0,
        dead_probability=0.008,
        jitter_sigma=0.08,
    )
    params.update(overrides)
    return HarvesterModel(**params)
