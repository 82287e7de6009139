"""Power traces and the five calibrated "watch" profiles of Figure 2.

The paper evaluates on five power profiles measured from a wristwatch
rotational harvester, sampled every 0.1 ms over a 10 s window (100 000
samples, Figure 2). Those measurements are not public, so this module
provides a seeded synthetic generator calibrated to the published
statistics:

* mean power in the 10-40 µW band (Section 2.2),
* instantaneous peaks up to ~2000 µW (Figure 2),
* 1000-2000 power emergencies per 10 s window at the 33 µW processor
  operating threshold (Section 2.2),
* an outage-duration distribution dominated by few-ms outages with a
  tail out to a few hundred ms (Figure 3).

Each profile uses a distinct harvester parameterisation and a distinct
seed, giving the five profiles the same qualitative diversity the
paper's five traces show (denser vs. sparser bursts, stronger vs.
weaker spikes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .._validation import as_float_array, check_int_in_range, check_positive
from ..errors import TraceError
from .harvester import HarvesterModel, WristwatchRingHarvester

__all__ = [
    "TICK_S",
    "PowerTrace",
    "ProfileSpec",
    "STANDARD_PROFILE_IDS",
    "standard_profile",
    "standard_profiles",
    "SYNTH_TRACE_MODES",
    "synthesize_trace",
    "synth_trace_ticks",
]

#: Sampling period of all power traces: 0.1 ms, as in the paper.
TICK_S: float = 1.0e-4

#: Processor operating threshold used for emergency statistics (µW).
OPERATING_THRESHOLD_UW: float = 33.0


class PowerTrace:
    """An immutable power trace sampled at :data:`TICK_S` intervals.

    Parameters
    ----------
    samples_uw:
        Power samples in microwatts; must be non-negative and finite.
    name:
        Human-readable label used in reports.
    """

    __slots__ = ("_samples", "name")

    def __init__(self, samples_uw: Sequence[float], name: str = "trace") -> None:
        samples = as_float_array(samples_uw, "samples_uw", ndim=1, exc=TraceError)
        if samples.size == 0:
            raise TraceError("a power trace must contain at least one sample")
        if np.any(samples < 0.0):
            raise TraceError("power samples must be non-negative")
        samples.setflags(write=False)
        self._samples = samples
        self.name = str(name)

    # -- basic container protocol -------------------------------------

    def __len__(self) -> int:
        return int(self._samples.size)

    def __iter__(self) -> Iterator[float]:
        return iter(self._samples)

    def __getitem__(self, index):
        return self._samples[index]

    def __repr__(self) -> str:
        return (
            f"PowerTrace(name={self.name!r}, ticks={len(self)}, "
            f"mean={self.mean_power_uw:.1f}uW, peak={self.peak_power_uw:.0f}uW)"
        )

    # -- derived quantities -------------------------------------------

    @property
    def samples_uw(self) -> np.ndarray:
        """The underlying (read-only) sample array in µW."""
        return self._samples

    @property
    def duration_s(self) -> float:
        """Total trace duration in seconds."""
        return len(self) * TICK_S

    @property
    def mean_power_uw(self) -> float:
        """Mean power over the whole trace (µW)."""
        return float(self._samples.mean())

    @property
    def peak_power_uw(self) -> float:
        """Maximum instantaneous power (µW)."""
        return float(self._samples.max())

    @property
    def total_energy_uj(self) -> float:
        """Total harvested energy over the trace (µJ)."""
        return float(self._samples.sum() * TICK_S)

    def fraction_above(self, threshold_uw: float) -> float:
        """Fraction of samples at or above ``threshold_uw``."""
        threshold = float(threshold_uw)
        return float(np.mean(self._samples >= threshold))

    def emergency_count(self, threshold_uw: float = OPERATING_THRESHOLD_UW) -> int:
        """Number of falling edges through ``threshold_uw``.

        Each falling edge is a *power emergency*: the instant at which
        an NVP running directly off the income would have to back up.
        """
        above = self._samples >= float(threshold_uw)
        falling = np.logical_and(above[:-1], np.logical_not(above[1:]))
        return int(np.count_nonzero(falling))

    # -- transformation -----------------------------------------------

    def segment(self, start_tick: int, stop_tick: int, name: Optional[str] = None) -> "PowerTrace":
        """Return the half-open sub-trace ``[start_tick, stop_tick)``."""
        start = check_int_in_range(start_tick, "start_tick", 0, len(self) - 1, exc=TraceError)
        stop = check_int_in_range(stop_tick, "stop_tick", start + 1, len(self), exc=TraceError)
        return PowerTrace(
            self._samples[start:stop],
            name=name if name is not None else f"{self.name}[{start}:{stop}]",
        )

    def scaled(self, factor: float, name: Optional[str] = None) -> "PowerTrace":
        """Return a copy with every sample multiplied by ``factor``."""
        factor = check_positive(factor, "factor", exc=TraceError)
        return PowerTrace(
            self._samples * factor,
            name=name if name is not None else f"{self.name}*{factor:g}",
        )

    def repeated(self, times: int, name: Optional[str] = None) -> "PowerTrace":
        """Return the trace tiled ``times`` times end-to-end."""
        times = check_int_in_range(times, "times", 1, exc=TraceError)
        return PowerTrace(
            np.tile(self._samples, times),
            name=name if name is not None else f"{self.name}x{times}",
        )

    # -- persistence ----------------------------------------------------

    def save(self, path) -> None:
        """Persist the trace to an ``.npz`` file.

        Lets users capture their own measured harvester traces once and
        replay them across experiments.
        """
        np.savez_compressed(path, samples_uw=self._samples, name=np.array(self.name))

    @classmethod
    def load(cls, path) -> "PowerTrace":
        """Load a trace previously stored with :meth:`save`."""
        with np.load(path, allow_pickle=False) as data:
            if "samples_uw" not in data:
                raise TraceError(f"{path!r} is not a saved PowerTrace")
            samples = data["samples_uw"]
            name = str(data["name"]) if "name" in data else "trace"
        return cls(samples, name=name)

    @classmethod
    def from_csv(cls, path, name: str = "trace") -> "PowerTrace":
        """Load a one-column CSV of µW samples at 0.1 ms spacing.

        The interchange format for measured traces (the paper's own
        profiles were sampled this way).
        """
        samples = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=1)
        if samples.ndim != 1:
            raise TraceError("CSV must contain a single column of power samples")
        return cls(samples, name=name)

    def to_csv(self, path) -> None:
        """Write the µW samples as a one-column CSV."""
        np.savetxt(path, self._samples, fmt="%.6g")

    def high_activity_window(self, window_ticks: int) -> Tuple[int, "PowerTrace"]:
        """Locate the densest-energy window of length ``window_ticks``.

        Returns ``(start_tick, sub_trace)``. Used to reproduce the
        Figure 9 timing analysis, which zooms into an active portion of
        power profile 2.
        """
        window = check_int_in_range(window_ticks, "window_ticks", 1, len(self), exc=TraceError)
        cumulative = np.concatenate(([0.0], np.cumsum(self._samples)))
        window_energy = cumulative[window:] - cumulative[:-window]
        start = int(np.argmax(window_energy))
        return start, self.segment(start, start + window, name=f"{self.name}:active")


@dataclass(frozen=True)
class ProfileSpec:
    """Generator specification for one standard power profile."""

    profile_id: int
    seed: int
    harvester: HarvesterModel
    description: str

    def generate(self, duration_s: float = 10.0) -> PowerTrace:
        """Materialise the profile as a :class:`PowerTrace`."""
        duration_s = check_positive(duration_s, "duration_s", exc=TraceError)
        n_samples = int(round(duration_s / TICK_S))
        rng = np.random.default_rng(self.seed)
        samples = self.harvester.generate(n_samples, rng)
        return PowerTrace(samples, name=f"profile-{self.profile_id}")


def _build_profile_specs() -> Dict[int, ProfileSpec]:
    """The five calibrated profile specifications.

    Profiles 1 and 4 model relatively energetic days (higher average
    power); profiles 2, 3 and 5 model low-average-power days — matching
    the paper's guidance in Section 8.6 that linear retention shaping
    suits profiles 1/4 and parabola suits profiles 2/3/5.
    """
    return {
        1: ProfileSpec(
            profile_id=1,
            seed=20170114,
            harvester=WristwatchRingHarvester(
                burst_median_uw=230.0,
                mean_burst_ticks=14.0,
                mean_quiet_ticks=24.0,
                dead_probability=0.045,
            ),
            description="active wear: dense medium bursts",
        ),
        2: ProfileSpec(
            profile_id=2,
            seed=20170228,
            harvester=WristwatchRingHarvester(
                burst_median_uw=280.0,
                burst_sigma=1.1,
                mean_burst_ticks=11.0,
                mean_quiet_ticks=30.0,
                dead_probability=0.07,
                mean_dead_ticks=1300.0,
            ),
            description="sporadic strong spikes, longer outages",
        ),
        3: ProfileSpec(
            profile_id=3,
            seed=20170321,
            harvester=WristwatchRingHarvester(
                burst_median_uw=170.0,
                mean_burst_ticks=12.0,
                mean_quiet_ticks=26.0,
                dead_probability=0.06,
                mean_dead_ticks=1300.0,
            ),
            description="weak bursts, long dead tail",
        ),
        4: ProfileSpec(
            profile_id=4,
            seed=20170402,
            harvester=WristwatchRingHarvester(
                burst_median_uw=170.0,
                burst_sigma=0.8,
                mean_burst_ticks=18.0,
                mean_quiet_ticks=24.0,
                dead_probability=0.035,
            ),
            description="sustained activity: longer, steadier bursts",
        ),
        5: ProfileSpec(
            profile_id=5,
            seed=20170530,
            harvester=WristwatchRingHarvester(
                burst_median_uw=140.0,
                burst_sigma=1.0,
                mean_burst_ticks=10.0,
                mean_quiet_ticks=28.0,
                dead_probability=0.065,
                mean_dead_ticks=1200.0,
            ),
            description="low-energy day: sparse weak spikes",
        ),
    }


_PROFILE_SPECS: Dict[int, ProfileSpec] = _build_profile_specs()

#: Identifiers of the five standard profiles (Figure 2).
STANDARD_PROFILE_IDS: Tuple[int, ...] = tuple(sorted(_PROFILE_SPECS))


def standard_profile(profile_id: int, duration_s: float = 10.0) -> PowerTrace:
    """Return standard power profile ``profile_id`` (1-5) as a trace.

    Profiles are deterministic: the same id and duration always produce
    the identical trace, which keeps every experiment reproducible.
    """
    if profile_id not in _PROFILE_SPECS:
        raise TraceError(
            f"unknown profile id {profile_id!r}; valid ids are {STANDARD_PROFILE_IDS}"
        )
    return _PROFILE_SPECS[profile_id].generate(duration_s=duration_s)


def standard_profiles(duration_s: float = 10.0) -> List[PowerTrace]:
    """Return all five standard profiles (Figure 2)."""
    return [standard_profile(pid, duration_s=duration_s) for pid in STANDARD_PROFILE_IDS]


# -- vectorized synthetic harvester traces (fleet-scale generation) -----------
#
# The regime-switching :class:`~repro.energy.harvester.HarvesterModel`
# simulates one regime at a time in a Python loop, which is fine for
# five calibrated profiles but dominates runtime when a fleet campaign
# instantiates thousands of distinct device traces. The generators
# below are the fleet-scale counterparts: each mode is a closed-form
# numpy pipeline (a handful of O(n) array operations, no per-regime
# loop), seeded per device, producing traces with the qualitative
# signatures of the corresponding ambient source:
#
# * ``solar``   — a diurnal envelope with slow cloud attenuation and
#                 occasional hard shadow outages (indoor light / time-
#                 lapse day compressed into ``diurnal_period_s``);
# * ``rf``      — sparse lognormal impulses with exponential ring-down
#                 over a weak quiet floor (WiFi/TV scavenging);
# * ``thermal`` — low-amplitude body-heat income with slow drift and
#                 rare contact-loss dropouts.
#
# Determinism contract (pinned by ``tests/test_energy_traces.py``):
# the same ``(mode, seed, duration_s, scale)`` always produces the
# identical sample array, across calls and across processes. The
# sha256 of every sample array in ``tests/golden/synth_traces.json``
# pins the bytes, so the primitives below may only get cheaper by doing
# the same IEEE-754 operations on the same operands, or by skipping
# work whose result is provably unused:
#
# * ``_box_smooth`` takes each window sum and divisor from slices of the
#   cumulative sum instead of gathering them by index;
# * ``_at_or_below_quantile`` finds the cut with one ``np.partition``
#   and numpy's own ``linear`` interpolation instead of a quantile sort,
#   and takes the order statistic after the partition point as the
#   minimum of the upper part instead of partitioning on it too (both
#   return an element of the data);
# * a solar window whose computed sines are all <= 0 skips the cloud
#   process (its normals are still drawn, so the later draws keep their
#   stream positions), since a zero envelope multiplies it away.


def synth_trace_ticks(duration_s: float) -> int:
    """Tick count of a synthetic trace of ``duration_s`` seconds.

    Exposed so batch planners can size chunk budgets without paying
    for the synthesis itself.
    """
    duration_s = check_positive(duration_s, "duration_s", exc=TraceError)
    return max(1, int(round(duration_s / TICK_S)))


def _box_smooth(x: np.ndarray, window: int) -> np.ndarray:
    """O(n) centred moving average via a cumulative sum.

    Position ``i`` is ``(cs[hi] - cs[lo]) / (hi - lo)`` with
    ``hi = min(i + ahead, n)`` and ``lo = max(i - behind, 0)``. When the
    window fits the trace, each of the three bands (``lo`` clipped,
    neither clipped, ``hi`` clipped) takes exactly those operands from
    slices of ``cs``, with the same subtraction and division; a longer
    window gathers them by index.
    """
    if window <= 1 or x.size <= 1:
        return x
    n = x.size
    ahead = window // 2 + 1
    behind = window - ahead
    cs = np.concatenate(([0.0], np.cumsum(x)))
    if window > n:
        pos = np.arange(n)
        hi = np.minimum(pos + ahead, n)
        lo = np.maximum(pos - behind, 0)
        return (cs[hi] - cs[lo]) / (hi - lo)
    out = np.empty(n)
    out[:behind] = (cs[ahead:window] - cs[0]) / np.arange(ahead, window)
    out[behind : n - ahead + 1] = (cs[window:] - cs[: n - window + 1]) / window
    out[n - ahead + 1 :] = (cs[n] - cs[n - window + 1 : n - behind]) / np.arange(
        window - 1, behind, -1
    )
    return out


def _at_or_below_quantile(x: np.ndarray, q: float) -> np.ndarray:
    """``x <= np.quantile(x, q)``, from one partition instead of a sort.

    Reproduces numpy's ``linear`` method operation for operation: the
    virtual index ``(n - 1) * q`` splits into ``k`` and ``g``, and the
    cut interpolates the ``k``-th and ``k + 1``-th order statistics as
    ``numpy.lib._function_base_impl._lerp`` does. Partitioning at ``k``
    leaves the ``k + 1``-th as the minimum of everything after it. Where
    ``k + 1`` would run off the end (``q = 1``), or ``q`` is out of
    range, not a Python number or not a number, ``np.quantile`` itself
    decides.

    The inputs are finite. A NaN in ``x`` partitions to the end, so the
    minimum after ``k`` (or the ``k``-th itself) is NaN, the cut is NaN
    and no sample is at or below it: the all-``False`` mask that
    ``x <= np.quantile(x, q)`` gives, since ``np.quantile`` returns NaN.
    """
    n = x.size
    virtual = (n - 1) * q if isinstance(q, (int, float)) else np.nan
    if not 0.0 <= virtual < n - 1:
        return x <= np.quantile(x, q)
    k = int(virtual)
    part = np.partition(x, k)
    below, above = part[k], part[k + 1 :].min()
    gamma = virtual - k
    diff = above - below
    if gamma >= 0.5:
        cut = above - diff * (1 - gamma)
    else:
        cut = below + diff * gamma
    return x <= cut


def _coarse_noise(
    rng: np.random.Generator, n: int, stride: int, smooth: int
) -> np.ndarray:
    """Slowly varying unit-normal noise: coarse draws, repeat, smooth.

    Drawing one value per ``stride`` ticks keeps fleet-scale synthesis
    cheap (the slow processes only need bandwidth well below the tick
    rate) while the box smoothing removes the repeat staircase.
    """
    coarse = rng.standard_normal(n // stride + 2)
    fine = np.repeat(coarse, stride)[:n]
    # Cap the window well below the trace length: a window >= n would
    # average the whole trace into a near-constant, and the quantile
    # dropout cuts in the generators would then zero every sample.
    return _box_smooth(fine, min(smooth, max(1, n // 4)))


def _solar_samples(
    rng: np.random.Generator,
    n: int,
    *,
    peak_uw: float = 140.0,
    floor_uw: float = 2.0,
    diurnal_period_s: float = 60.0,
    cloud_depth: float = 1.1,
    shadow_quantile: float = 0.06,
) -> np.ndarray:
    """Diurnal envelope x cloud attenuation, with hard shadow outages."""
    phase = rng.uniform(0.0, 2.0 * np.pi)
    t = np.arange(n, dtype=np.float64) * (TICK_S / diurnal_period_s)
    sines = np.sin(phase + 2.0 * np.pi * t)
    # A dark window (every computed sine <= 0, so the envelope is +0.0
    # throughout) multiplies the cloud process away: with clouds in
    # [0, 1] every ``peak * envelope * clouds`` equals ``peak * 0.0``.
    # Skip it, but draw its normals so later draws keep their place.
    dark = sines.max() <= 0.0 and 0.0 <= cloud_depth < np.inf
    if dark:
        rng.standard_normal(n // 64 + 2)
        income = floor_uw + peak_uw * 0.0
    else:
        envelope = np.clip(sines, 0.0, 1.0) ** 1.5
        clouds = np.exp(
            -cloud_depth * np.maximum(_coarse_noise(rng, n, 64, 4096), 0.0)
        )
        income = floor_uw + peak_uw * envelope * clouds
    shade = _coarse_noise(rng, n, 64, 8192)
    jitter = 1.0 + 0.05 * _coarse_noise(rng, n, 16, 32)
    samples = income * jitter
    # Shadow outages: the deepest `shadow_quantile` of the slow shade
    # process cuts income to zero (somebody walked past the window).
    if n > 1:
        samples[_at_or_below_quantile(shade, shadow_quantile)] = 0.0
    return samples


def _rf_samples(
    rng: np.random.Generator,
    n: int,
    *,
    burst_median_uw: float = 420.0,
    burst_sigma: float = 0.8,
    mean_gap_ticks: float = 90.0,
    ringdown_ticks: float = 7.0,
    floor_uw: float = 1.5,
) -> np.ndarray:
    """Sparse lognormal impulses with exponential ring-down."""
    hits = rng.random(n) < (1.0 / mean_gap_ticks)
    impulses = np.zeros(n, dtype=np.float64)
    k = int(np.count_nonzero(hits))
    if k:
        impulses[hits] = burst_median_uw * rng.lognormal(0.0, burst_sigma, size=k)
    decay = np.exp(-np.arange(int(6 * ringdown_ticks) + 1) / ringdown_ticks)
    ringing = np.convolve(impulses, decay)[:n]
    floor = floor_uw * (1.0 + 0.2 * _coarse_noise(rng, n, 32, 512))
    return ringing + np.maximum(floor, 0.0)


def _thermal_samples(
    rng: np.random.Generator,
    n: int,
    *,
    base_uw: float = 24.0,
    drift_fraction: float = 0.45,
    jitter_fraction: float = 0.04,
    dropout_quantile: float = 0.02,
) -> np.ndarray:
    """Low-amplitude slow drift with rare contact-loss dropouts."""
    drift = _coarse_noise(rng, n, 128, 16384)
    jitter = jitter_fraction * _coarse_noise(rng, n, 8, 16)
    contact = _coarse_noise(rng, n, 128, 32768)
    samples = base_uw * np.maximum(1.0 + drift_fraction * drift + jitter, 0.0)
    if n > 1:
        samples[_at_or_below_quantile(contact, dropout_quantile)] = 0.0
    return samples


#: Generator-mode registry: mode name -> vectorized sample synthesiser.
_SYNTH_GENERATORS = {
    "solar": _solar_samples,
    "rf": _rf_samples,
    "thermal": _thermal_samples,
}

#: Names of the vectorized fleet-scale generator modes.
SYNTH_TRACE_MODES: Tuple[str, ...] = tuple(sorted(_SYNTH_GENERATORS))


def synthesize_trace(
    mode: str,
    seed: int,
    duration_s: float = 10.0,
    scale: float = 1.0,
    **params: float,
) -> PowerTrace:
    """Synthesise one seeded harvester trace via a vectorized generator.

    ``mode`` selects one of :data:`SYNTH_TRACE_MODES`; ``seed`` makes
    the trace deterministic (same arguments, identical samples);
    ``scale`` multiplies the whole trace, modelling device-to-device
    harvester efficiency spread. Extra keyword ``params`` pass through
    to the mode's generator (see the ``_*_samples`` signatures).
    """
    generator = _SYNTH_GENERATORS.get(mode)
    if generator is None:
        raise TraceError(
            f"unknown synthetic trace mode {mode!r}; "
            f"valid modes are {SYNTH_TRACE_MODES}"
        )
    scale = check_positive(scale, "scale", exc=TraceError)
    n = synth_trace_ticks(duration_s)
    rng = np.random.default_rng(seed)
    samples = generator(rng, n, **params)
    if scale != 1.0:
        samples = samples * scale
    np.clip(samples, 0.0, None, out=samples)
    return PowerTrace(samples, name=f"{mode}-{seed}")
