"""Result streams carry the entry bytes the hot tier holds.

``execute_campaign`` streams, for every grid, executive and fleet task,
the bytes the cache's hot tier holds for the entry: what ``put`` just
wrote, or what ``get`` just read and checked. It encodes only an entry
the tier does not hold. These tests count the encoder calls, check
that every fallback streams the same bytes, and check that a corrupt
file never reaches a stream.
"""

import base64
import json
import os

import pytest

from repro.analysis import engine, telemetry
from repro.analysis.engine import FIXED, ShardedResultCache
from repro.service import protocol
from repro.service.protocol import execute_campaign, parse_campaign

pytestmark = pytest.mark.service

GRID = {
    "kind": "grid",
    "grid": {
        "kernels": ["median"],
        "bits": [3, 8],
        "profile_ids": [1, 2],
        "duration_s": 0.4,
    },
}
EXECUTIVE = {
    "kind": "executive",
    "tasks": [
        {
            "kernel": "median",
            "policy": "linear",
            "profile_id": profile_id,
            "minbits": 2,
            "duration_s": 0.4,
            "frame_period_ticks": 1_500,
        }
        for profile_id in (1, 2)
    ],
}
FLEET = {"kind": "fleet", "fleet": {"n_devices": 4, "seed": 11, "duration_s": 0.4}}

#: ``(payload, encoder kind its entries use)``.
CAMPAIGNS = {
    "grid": (GRID, "fixed"),
    "executive": (EXECUTIVE, "executive"),
    "fleet": (FLEET, "fixed"),
}


@pytest.fixture(autouse=True)
def _fresh_engine():
    engine.reset()
    telemetry.reset()
    yield
    telemetry.reset()
    engine.reset()


@pytest.fixture
def encodes(monkeypatch):
    """Calls to each entry encoder, through every name that calls one."""
    counts = {"fixed": 0, "executive": 0}
    for module in (engine, protocol):
        for kind in counts:
            name = f"{kind}_entry_bytes"

            def counting(result, _encode=getattr(module, name), _kind=kind):
                counts[_kind] += 1
                return _encode(result)

            monkeypatch.setattr(module, name, counting)
    return counts


def _serve_from(tmp_path, hot_bytes=ShardedResultCache.DEFAULT_HOT_BYTES):
    """The engine set up as the service sets it up."""
    cache = ShardedResultCache(tmp_path / "cache", hot_bytes=hot_bytes)
    engine.configure(cache=cache, use_memo=False, workers=1)
    return cache


def _stream(payload):
    """``[(name, entry bytes)]`` of one campaign's task lines, in order."""
    lines, _ = execute_campaign(parse_campaign(payload))
    return [
        (doc["name"], base64.b64decode(doc["entry"]))
        for doc in map(json.loads, lines)
        if doc["type"] == "task"
    ]


def _reset(counts):
    for kind in counts:
        counts[kind] = 0


def _reference(cache_dir, payload, counts):
    """The campaign's stream from a cache of its own, uncounted."""
    engine.configure(cache=ShardedResultCache(cache_dir), use_memo=False, workers=1)
    try:
        return _stream(payload)
    finally:
        engine.reset()
        _reset(counts)


def _replace_in_place(path):
    """Rewrite ``path`` with its own bytes under a new inode."""
    staged = path.with_name(".replacement")
    staged.write_bytes(path.read_bytes())
    os.replace(staged, path)


@pytest.mark.parametrize("campaign", sorted(CAMPAIGNS))
def test_cold_job_encodes_each_entry_once_and_warm_job_none(
    tmp_path, encodes, campaign
):
    payload, kind = CAMPAIGNS[campaign]
    cache = _serve_from(tmp_path)
    cold = _stream(payload)
    assert encodes == {**dict.fromkeys(encodes, 0), kind: len(cold)}
    for name, data in cold:
        assert data == cache._shard_path(name).read_bytes()

    _reset(encodes)
    assert _stream(payload) == cold
    assert encodes == dict.fromkeys(encodes, 0)


def test_without_a_hot_tier_the_stream_encodes(tmp_path, encodes):
    reference = _reference(tmp_path / "reference", GRID, encodes)
    _serve_from(tmp_path, hot_bytes=0)
    assert _stream(GRID) == reference
    assert encodes["fixed"] == 2 * len(reference)  # put, then the stream
    _reset(encodes)
    assert _stream(GRID) == reference
    assert encodes["fixed"] == len(reference)


def test_entries_evicted_before_the_stream_are_encoded(tmp_path, encodes):
    reference = _reference(tmp_path / "reference", GRID, encodes)
    # Room for about one entry: each put evicts the one before it.
    largest = max(len(data) for _, data in reference)
    cache = _serve_from(tmp_path, hot_bytes=largest + largest // 2)
    assert _stream(GRID) == reference
    held = sum(
        cache.held_bytes(name[: -len(".npz")]) is not None
        for name, _ in reference
    )
    assert cache.info()["hot_evictions"] > 0
    assert held < len(reference)
    assert encodes["fixed"] == len(reference) + (len(reference) - held)


def test_entries_replaced_before_the_stream_are_encoded(
    tmp_path, encodes, monkeypatch
):
    """A writer replacing the files between the engine run and the
    stream (same bytes, new inode) makes the held bytes unattributable:
    the stream encodes, and its bytes do not change."""
    reference = _reference(tmp_path / "reference", GRID, encodes)
    cache = _serve_from(tmp_path)
    run_grid = protocol.run_grid

    def run_then_replace(*args, **kwargs):
        grid = run_grid(*args, **kwargs)
        for task in grid.tasks:
            _replace_in_place(cache._path(task.cache_key()))
        return grid

    monkeypatch.setattr(protocol, "run_grid", run_then_replace)
    assert _stream(GRID) == reference
    assert encodes["fixed"] == 2 * len(reference)


def test_held_bytes_counts_no_hit_or_miss(tmp_path):
    cache = _serve_from(tmp_path)
    names = [name for name, _ in _stream(GRID)]

    def counters():
        info = cache.info()
        return info["hot_hits"], info["hot_misses"], cache.hits, cache.misses

    before = counters()
    for name in names:
        data = cache.held_bytes(name[: -len(".npz")], FIXED)
        assert data == cache._shard_path(name).read_bytes()
    assert cache.held_bytes("0" * 64, FIXED) is None
    _replace_in_place(cache._shard_path(names[0]))
    assert cache.held_bytes(names[0][: -len(".npz")], FIXED) is None
    assert counters() == before


@pytest.mark.parametrize("restart", [False, True], ids=["held", "restarted"])
def test_corrupt_file_is_quarantined_and_never_streamed(tmp_path, encodes, restart):
    """Garbage written over an entry, while the tier holds its old bytes
    or after a restart emptied the tier, is quarantined on the next job
    and the stream carries the recomputed entry."""
    reference = _reference(tmp_path / "reference", GRID, encodes)
    cache = _serve_from(tmp_path)
    _stream(GRID)
    if restart:
        engine.reset()
        cache = _serve_from(tmp_path)
    name = reference[0][0]
    garbage = b"PK\x05\x06 not an entry"
    cache._shard_path(name).write_bytes(garbage)
    assert _stream(GRID) == reference
    assert cache.quarantines == 1
    assert (cache.quarantine_dir / name).read_bytes() == garbage
