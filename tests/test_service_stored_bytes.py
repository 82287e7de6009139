"""Result streams carry stored entry bytes, never re-encoded or decoded.

``execute_campaign`` asks the engine for entry bytes for grid and
executive campaigns: a warm job streams the bytes the hot tier holds
without decoding them, a warm job without a hot tier streams the bytes
a disk read checked, and a cold job streams the bytes ``put`` wrote.
Fleet campaigns need values for their summary, so they stream the
bytes the hot tier holds and encode only an entry it does not hold.
These tests count the codec calls, check that every path streams the
same bytes, pin the job telemetry and hot-tier counters, and check
that a corrupt file never reaches a stream.
"""

import base64
import json
import os

import pytest

from repro.analysis import engine, telemetry
from repro.analysis.engine import FIXED, ShardedResultCache
from repro.service import (
    http_cache_info,
    http_submit,
    http_wait,
    protocol,
    start_in_thread,
)
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


@pytest.fixture
def decodes(monkeypatch):
    """Calls to each entry decoder, through the engine's names."""
    counts = {"fixed": 0, "executive": 0}
    for kind in counts:
        name = f"decode_{kind}_entry"

        def counting(data, _decode=getattr(engine, name), _kind=kind):
            counts[_kind] += 1
            return _decode(data)

        monkeypatch.setattr(engine, name, counting)
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
    tmp_path, encodes, decodes, campaign
):
    """A warm grid or executive job calls no codec at all; a warm fleet
    job decodes its entries for the summary and encodes none."""
    payload, kind = CAMPAIGNS[campaign]
    cache = _serve_from(tmp_path)
    cold = _stream(payload)
    assert encodes == {**dict.fromkeys(encodes, 0), kind: len(cold)}
    assert decodes == dict.fromkeys(decodes, 0)
    for name, data in cold:
        assert data == cache._shard_path(name).read_bytes()

    _reset(encodes)
    assert _stream(payload) == cold
    assert encodes == dict.fromkeys(encodes, 0)
    warm_decodes = len(cold) if campaign == "fleet" else 0
    assert decodes == {**dict.fromkeys(decodes, 0), kind: warm_decodes}


def test_without_a_hot_tier_the_stream_encodes(tmp_path, encodes, decodes):
    """Without a hot tier a cold job streams the bytes ``put`` wrote,
    so each entry is encoded once, and a warm job streams the file
    bytes its disk read checked: one decode per entry, no encode."""
    for campaign in ("grid", "executive"):
        payload, kind = CAMPAIGNS[campaign]
        reference = _reference(tmp_path / "reference", payload, encodes)
        cache = _serve_from(tmp_path / campaign, hot_bytes=0)
        assert _stream(payload) == reference
        assert encodes[kind] == len(reference)  # put; the stream reuses it
        assert decodes[kind] == 0
        _reset(encodes)
        warm = _stream(payload)
        assert warm == reference
        assert encodes[kind] == 0
        assert decodes[kind] == len(reference)
        for name, data in warm:
            assert data == cache._shard_path(name).read_bytes()
        engine.reset()
        _reset(decodes)


def test_entries_evicted_before_the_stream_are_encoded(tmp_path, encodes):
    """A grid streams the bytes ``put`` returned, so an entry evicted
    before the stream is not encoded again; a fleet streams the held
    bytes and encodes each evicted entry."""
    for payload in (GRID, FLEET):
        reference = _reference(tmp_path / "reference", payload, encodes)
        # Room for about one entry: each put evicts the one before it.
        largest = max(len(data) for _, data in reference)
        cache = _serve_from(
            tmp_path / payload["kind"], hot_bytes=largest + largest // 2
        )
        assert _stream(payload) == reference
        held = sum(
            cache.held_bytes(name[: -len(".npz")]) is not None
            for name, _ in reference
        )
        assert cache.info()["hot_evictions"] > 0
        assert held < len(reference)
        evicted_encodes = len(reference) - held if payload is FLEET else 0
        assert encodes["fixed"] == len(reference) + evicted_encodes
        engine.reset()
        _reset(encodes)


def test_entries_replaced_before_the_stream_are_encoded(
    tmp_path, encodes, monkeypatch
):
    """A writer replacing a fleet's files between the engine run and
    the stream (same bytes, new inode) makes the held bytes
    unattributable: the stream encodes, and its bytes do not change."""
    reference = _reference(tmp_path / "reference", FLEET, encodes)
    cache = _serve_from(tmp_path)
    run_fleet = protocol.run_fleet

    def run_then_replace(*args, **kwargs):
        fleet = run_fleet(*args, **kwargs)
        for task in fleet.tasks:
            _replace_in_place(cache._path(task.cache_key()))
        return fleet

    monkeypatch.setattr(protocol, "run_fleet", run_then_replace)
    assert _stream(FLEET) == reference
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


def _telemetry(tasks, hits, computed):
    """A job document's ``telemetry`` without ``wall_s``."""
    counts = dict.fromkeys(
        (
            "memo_hits",
            "quarantines",
            "retries",
            "crashes",
            "timeouts",
            "corrupt_payloads",
            "pool_failures",
            "degraded_runs",
            "failed",
        ),
        0,
    )
    return {
        **counts,
        "runs": 1,
        "tasks": tasks,
        "cache_hits": hits,
        "cache_misses": tasks - hits,
        "computed": computed,
    }


#: Per campaign and pass: the job's ``telemetry`` and how far the
#: ``/cache`` hot-tier hit and miss counters move, recorded before warm
#: jobs streamed stored bytes without decoding them. ``restarted`` is a
#: warm pass after a restart emptied the hot tier: every entry is read
#: from disk.
PINNED_COUNTS = {
    campaign: {
        "cold": (_telemetry(n, hits=0, computed=n), 0, n),
        "warm": (_telemetry(n, hits=n, computed=0), n, 0),
        "restarted": (_telemetry(n, hits=n, computed=0), 0, n),
    }
    for campaign, n in (("grid", 4), ("executive", 2), ("fleet", 4))
}


def _counted_pass(handle, payload):
    """One job's ``(telemetry without wall_s, hot-hit delta,
    hot-miss delta)``."""
    before = http_cache_info(handle.base_url)
    job = http_submit(handle.base_url, payload)
    done = http_wait(handle.base_url, job["id"], timeout=120)
    after = http_cache_info(handle.base_url)
    assert done["status"] == "done"
    done["telemetry"].pop("wall_s")
    return (
        done["telemetry"],
        after["hot_hits"] - before["hot_hits"],
        after["hot_misses"] - before["hot_misses"],
    )


@pytest.mark.parametrize("campaign", sorted(CAMPAIGNS))
def test_job_telemetry_and_cache_counters_are_pinned(tmp_path, campaign):
    payload, _ = CAMPAIGNS[campaign]
    seen = {}
    with start_in_thread(tmp_path / "cache", workers=1) as handle:
        seen["cold"] = _counted_pass(handle, payload)
        seen["warm"] = _counted_pass(handle, payload)
    engine.reset()
    with start_in_thread(tmp_path / "cache", workers=1) as handle:
        seen["restarted"] = _counted_pass(handle, payload)
    assert seen == PINNED_COUNTS[campaign]


@pytest.mark.parametrize(
    "kind", [engine.FIXED, engine.EXECUTIVE], ids=["fixed", "executive"]
)
@pytest.mark.parametrize("setting", ["no-cache", "memo"])
def test_run_tasks_entries_are_the_encoded_values(tmp_path, kind, setting):
    """With caching off, or with the memo on, ``entries=True`` returns
    ``kind.encode`` of the values, and it neither reads nor fills the
    memo."""
    payload = GRID if kind is engine.FIXED else EXECUTIVE
    tasks = parse_campaign(payload).tasks
    if setting == "no-cache":
        engine.configure(use_cache=False)
    else:
        engine.configure(cache=ShardedResultCache(tmp_path / "cache"))
    entries = engine.run_tasks(tasks, kind, entries=True)
    assert engine._MEMO == {}
    values = engine.run_tasks(tasks, kind)
    assert entries == tuple(kind.encode(value) for value in values)
    if setting == "memo":
        assert len(engine._MEMO) == len(tasks)
        assert engine.run_tasks(tasks, kind, entries=True) == entries
        assert telemetry.last_report().cache_hits == len(tasks)
