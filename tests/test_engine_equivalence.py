"""Differential suite: the fast path must be bit-exact vs the reference.

``simulate_fixed_bits(engine="auto")`` replays one task as a one-lane
plan through the compiled kernel (:mod:`repro.system.batchsim`), and
it is only allowed to do so because of this file: every randomized
configuration below runs both that path and the per-tick reference
loop and asserts the two :class:`SimulationResult` objects are
identical **field for field** — every float, every count, and the
whole per-tick bit/lane schedule. Any divergence, however small, is a
bug in the kernel (or an un-mirrored change to the reference
simulator). Lanes the kernel refuses, and every lane on a host without
a C compiler, take the reference loop, so there the two sides agree
trivially; the error-parity cases rely on exactly that.
"""

import numpy as np
import pytest

from repro.analysis.engine import simulation_results_equal
from repro.energy.traces import PowerTrace, standard_profile
from repro.errors import SimulationError
from repro.kernels.registry import KERNEL_NAMES, kernel_mix
from repro.nvm.retention import STANDARD_POLICY_NAMES, policy_by_name
from repro.system.config import SystemConfig
from repro.system.metrics import SimulationResult
from repro.system.simulator import simulate_fixed_bits

_TRACE_CACHE = {}


def _trace(profile_id, duration_s):
    key = (profile_id, duration_s)
    if key not in _TRACE_CACHE:
        _TRACE_CACHE[key] = standard_profile(profile_id, duration_s=duration_s)
    return _TRACE_CACHE[key]


def _assert_identical(trace, bits, **kwargs):
    ref = simulate_fixed_bits(trace, bits, engine="reference", **kwargs)
    fast = simulate_fixed_bits(trace, bits, engine="auto", **kwargs)
    assert isinstance(fast, SimulationResult)
    assert simulation_results_equal(ref, fast), (
        f"fast path diverged (bits={bits}, kwargs={kwargs});"
        f" ref backups={ref.backup_count} fast backups={fast.backup_count}"
    )
    # Belt and braces on the headline fields the figures consume.
    assert fast.forward_progress == ref.forward_progress
    assert fast.backup_ticks == ref.backup_ticks
    assert np.array_equal(fast.bit_schedule, ref.bit_schedule)
    assert np.array_equal(fast.lane_schedule, ref.lane_schedule)
    assert fast.run_energy_uj == ref.run_energy_uj
    assert fast.backup_energy_uj == ref.backup_energy_uj
    return ref, fast


# -- randomized property-style sweep (60 configurations) ----------------------

_rng = np.random.default_rng(20260806)
_RANDOM_CASES = []
for _i in range(60):
    profile_id = int(_rng.integers(1, 6))
    bits = int(_rng.integers(1, 9))
    simd_width = int(_rng.integers(1, 5))
    policy_name = ("precise", *STANDARD_POLICY_NAMES)[
        int(_rng.integers(0, len(STANDARD_POLICY_NAMES) + 1))
    ]
    kernel = KERNEL_NAMES[int(_rng.integers(0, len(KERNEL_NAMES)))]
    duration_s = float(_rng.choice([0.3, 0.4, 0.5]))
    dual = bool(_rng.integers(0, 2))
    _RANDOM_CASES.append(
        pytest.param(
            profile_id,
            bits,
            simd_width,
            policy_name,
            kernel,
            duration_s,
            dual,
            id=f"p{profile_id}-b{bits}-w{simd_width}-{policy_name}-{kernel}"
            f"-{duration_s}s-{'dual' if dual else 'single'}-{_i}",
        )
    )


@pytest.mark.parametrize(
    "profile_id,bits,simd_width,policy_name,kernel,duration_s,dual", _RANDOM_CASES
)
def test_random_config_bit_exact(
    profile_id, bits, simd_width, policy_name, kernel, duration_s, dual
):
    """≥50 randomized configs: fast path identical to the reference."""
    policy = None if policy_name == "precise" else policy_by_name(policy_name)
    config = SystemConfig(dual_channel=True) if dual else None
    _assert_identical(
        _trace(profile_id, duration_s),
        bits,
        simd_width=simd_width,
        policy=policy,
        mix=kernel_mix(kernel),
        config=config,
    )


# -- targeted corners ---------------------------------------------------------


@pytest.mark.parametrize("profile_id", [1, 2, 3, 4, 5])
def test_long_trace_bit_exact(profile_id):
    """One full-length (3 s) trace per profile at the precise baseline."""
    _assert_identical(_trace(profile_id, 3.0), 8)


@pytest.mark.parametrize("bits", list(range(1, 9)))
def test_every_bitwidth_bit_exact(bits):
    """All eight bitwidths on one trace (the Figure 15/16 axis)."""
    _assert_identical(_trace(2, 1.0), bits)


def test_constant_power_bit_exact(constant_trace):
    """Continuous running: no outage skipping ever applies."""
    _assert_identical(constant_trace, 8)
    _assert_identical(constant_trace, 3, simd_width=2)


def test_dead_trace_bit_exact(dead_trace):
    """All-zero income: the sticky-zero skip covers the whole trace."""
    ref, fast = _assert_identical(dead_trace, 8)
    assert fast.on_ticks == 0
    assert fast.forward_progress == 0


def test_degenerate_config_bit_exact():
    """No margin, no off-leak, no leak floor: every clamp edge at once."""
    config = SystemConfig(
        backup_margin=0.0, off_leakage_uw=0.0, capacitor_leak_floor_uw=0.0
    )
    _assert_identical(_trace(4, 0.5), 5, config=config)


def test_tiny_capacitor_bit_exact():
    """A small capacitor forces frequent emergencies (and narrowing)."""
    config = SystemConfig(capacitor_uj=2.2, start_fill_fraction=0.9)
    _assert_identical(_trace(1, 0.5), 8, config=config)


def test_spiky_synthetic_trace_bit_exact():
    """A hand-built spike train exercises restore/backup boundaries."""
    rng = np.random.default_rng(7)
    samples = np.zeros(6_000)
    spikes = rng.integers(0, 6_000, size=90)
    samples[spikes] = rng.uniform(100.0, 900.0, size=90)
    trace = PowerTrace(samples, name="spiky")
    _assert_identical(trace, 6, simd_width=3)


def test_engine_argument_validation(short_trace):
    """Unknown engine names are rejected up front."""
    for engine in ("warp", "fast"):
        with pytest.raises(SimulationError, match="engine must be"):
            simulate_fixed_bits(short_trace, 8, engine=engine)


def test_fast_path_error_parity(dead_trace):
    """Impossible configurations raise the same error either way."""
    config = SystemConfig(capacitor_uj=0.5)
    with pytest.raises(SimulationError, match="can never start"):
        simulate_fixed_bits(dead_trace, 8, config=config, engine="reference")
    with pytest.raises(SimulationError, match="can never start"):
        simulate_fixed_bits(dead_trace, 8, config=config, engine="auto")
