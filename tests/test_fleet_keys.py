"""Golden fleet cache keys.

A fleet device's cache key names its ``fleet-`` entry on disk and in
the service, so the key bytes are part of the cache format: any change
to how the key is built must leave these digests exactly as they are.
"""

import pytest

from repro.fleet import FleetDeviceTask, FleetSpec

pytestmark = pytest.mark.fleet

#: Keys of the three devices of ``FleetSpec(3, seed=11, duration_s=0.5)``:
#: one of each default archetype (thermal/log, solar, RF at 6 bits).
_SPEC_KEYS = (
    "fleet-10700e37ad3bce562a6a6f83a88a3827abc1dac8e795755f694460eb6a762ee0",
    "fleet-25a8abd1e659b40bc6a162eeb546aad37c74ed77aed9d9447f6ef6e2ba4832e3",
    "fleet-8b31bb90aeca9430d2b972a636380d2c21448a127336ab0dce9e320d993c060c",
)

#: A hand-built device with every field away from its default.
_CUSTOM = FleetDeviceTask(
    device_id=7,
    archetype="custom",
    mode="thermal",
    trace_seed=99,
    duration_s=2.5,
    scale=0.75,
    bits=5,
    simd_width=2,
    policy="linear",
    kernel="median",
    capacitor_uj=3.25,
)
_CUSTOM_KEY = "fleet-35cddb8690a8d8f81e6d488a93109ed6a33ee63e7316775b9e4e7686d24424b5"


def test_spec_device_keys_are_pinned():
    tasks = FleetSpec(n_devices=3, seed=11, duration_s=0.5).tasks()
    assert tuple(task.cache_key() for task in tasks) == _SPEC_KEYS


def test_hand_built_device_key_is_pinned():
    assert _CUSTOM.cache_key() == _CUSTOM_KEY
