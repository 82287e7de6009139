"""Property + regression suite for the sharded cache and its hot tier.

Hypothesis drives the invariants the campaign service leans on:

* **Never stale** — a read-through hot-tier lookup after the backing
  file was overwritten must miss (stat-signature validation), for any
  interleaving of stores, overwrites and lookups;
* **Partition** — :func:`shard_for_name` maps every entry name to
  exactly one shard, prefix routing is total, and a sharded cache's
  per-shard counts always sum to the whole store;
* **Byte budget** — the hot tier's resident bytes never exceed its
  budget, oversized entries are refused, eviction is LRU, and the
  memory the tier keeps is bounded by its budget;

plus a regression test for the ``clear()``-vs-in-flight-writer
lock-file protocol: a clear racing a writer holding the shared lock
must not sweep the writer's staging file out from under it.
"""

import gc
import os
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.engine import (
    CacheHotTier,
    FixedBitTask,
    ResultCache,
    ShardedResultCache,
    fixed_entry_bytes,
    shard_for_name,
)

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None

pytestmark = pytest.mark.service


# -- shard routing is a partition ----------------------------------------------


_NAME_BODIES = st.text(
    alphabet="0123456789abcdef", min_size=1, max_size=16
)


@given(body=_NAME_BODIES, prefix=st.sampled_from(["", "exec-", "res-", "fleet-"]))
def test_shard_routing_is_total_and_prefix_driven(body, prefix):
    name = f"{prefix}{body}.npz"
    shard = shard_for_name(name)
    assert shard in ShardedResultCache.SHARD_NAMES
    expected = {
        "": "fixed",
        "exec-": "executive",
        "res-": "resilience",
        "fleet-": "fleet",
    }[prefix]
    # A body that itself starts with a reserved prefix is still routed
    # by the outermost prefix — first match wins, deterministically.
    if not any(
        body.startswith(p) for p in ("exec-", "res-", "fleet-")
    ) or prefix:
        assert shard == expected


@given(
    names=st.lists(
        st.tuples(
            st.sampled_from(["", "exec-", "res-", "fleet-"]), _NAME_BODIES
        ),
        min_size=1,
        max_size=12,
        unique=True,
    )
)
@settings(max_examples=25, deadline=None)
def test_sharded_counts_partition_the_store(tmp_path_factory, names):
    cache_dir = tmp_path_factory.mktemp("shards")
    cache = ShardedResultCache(cache_dir, hot_bytes=1024)
    for prefix, body in names:
        path = cache._shard_path(f"{prefix}{body}.npz")
        path.write_bytes(b"x")
    info = cache.info()
    assert info["entries"] == sum(info["shards"].values())
    assert info["entries"] == len({f"{p}{b}.npz" for p, b in names})
    # Each file lives in exactly one shard directory.
    for prefix, body in names:
        name = f"{prefix}{body}.npz"
        holders = [
            shard
            for shard in ShardedResultCache.SHARD_NAMES
            if (cache_dir / shard / name).exists()
        ]
        assert holders == [shard_for_name(name)]


# -- hot tier: never stale, byte-bounded, LRU ----------------------------------


class _Files:
    """Real files on disk so stat signatures behave like production."""

    def __init__(self, root):
        self.root = root
        self.versions = {}

    def write(self, key, size):
        path = self.root / f"{key}.npz"
        # Distinct content per version; os.replace swaps the inode the
        # same way ResultCache._write_entry does.
        self.versions[key] = self.versions.get(key, 0) + 1
        tmp = self.root / f".tmp-{key}"
        tmp.write_bytes(bytes([self.versions[key] % 256]) * size)
        os.replace(tmp, path)
        return path

    def path(self, key):
        return self.root / f"{key}.npz"


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["store", "overwrite", "lookup"]),
        st.sampled_from(["a", "b", "c", "d"]),
        st.integers(min_value=1, max_value=64),
    ),
    min_size=1,
    max_size=30,
)


@given(ops=_OPS, budget=st.integers(min_value=16, max_value=128))
@settings(max_examples=40, deadline=None)
def test_hot_tier_is_never_stale_and_never_over_budget(
    tmp_path_factory, ops, budget
):
    root = tmp_path_factory.mktemp("hot")
    files = _Files(root)
    tier = CacheHotTier(max_bytes=budget)
    model = {}  # key -> version the tier may legally serve

    for op, key, size in ops:
        if op == "store":
            path = files.write(key, size)
            signature = CacheHotTier.signature(path)
            tier.store(str(path), signature, path.read_bytes())
            model[key] = files.versions[key]
        elif op == "overwrite":
            if key in files.versions:
                files.write(key, size)
                # The tier was NOT told; its entry is now stale.
        else:  # lookup
            if key not in files.versions:
                continue
            path = files.path(key)
            data = tier.lookup(str(path))
            if data is not None:
                # Whatever it serves must be the *live* file's bytes —
                # stale bytes after an overwrite are the one forbidden
                # outcome.
                assert data == path.read_bytes()
        assert tier.current_bytes <= budget

    info = tier.info()
    assert info["hot_bytes"] <= budget
    assert info["hot_entries"] == len(tier)


def test_hot_tier_refuses_oversized_values(tmp_path):
    files = _Files(tmp_path)
    tier = CacheHotTier(max_bytes=10)
    path = files.write("big", 4)
    tier.store(str(path), CacheHotTier.signature(path), b"v" * 11)
    assert len(tier) == 0
    tier.store(str(path), CacheHotTier.signature(path), b"v" * 10)
    assert len(tier) == 1


def test_hot_tier_evicts_least_recently_used(tmp_path):
    files = _Files(tmp_path)
    tier = CacheHotTier(max_bytes=20)
    paths = {}
    for key in ("a", "b"):
        paths[key] = files.write(key, 1)
        tier.store(
            str(paths[key]),
            CacheHotTier.signature(paths[key]),
            key.encode() * 10,
        )
    # Touch "a" so "b" is the LRU entry.
    assert tier.lookup(str(paths["a"])) == b"a" * 10
    paths["c"] = files.write("c", 1)
    tier.store(
        str(paths["c"]), CacheHotTier.signature(paths["c"]), b"c" * 10
    )
    assert tier.lookup(str(paths["a"])) == b"a" * 10
    assert tier.lookup(str(paths["b"])) is None
    assert tier.lookup(str(paths["c"])) == b"c" * 10
    assert tier.info()["hot_evictions"] == 1


def test_hot_tier_lookup_after_overwrite_misses_and_drops(tmp_path):
    files = _Files(tmp_path)
    tier = CacheHotTier(max_bytes=64)
    path = files.write("k", 8)
    tier.store(str(path), CacheHotTier.signature(path), b"\x01" * 8)
    assert tier.lookup(str(path)) == b"\x01" * 8
    files.write("k", 8)  # new inode, same path
    assert tier.lookup(str(path)) is None
    assert len(tier) == 0  # the stale entry was dropped, not retried


def test_hot_tier_memory_is_bounded_by_its_budget(tmp_path):
    """The budget bounds what the tier keeps, not just what it charges.

    One decoded 10 s entry (two 100,000-tick schedules, ~400 KB of
    arrays in a ~3 KB entry) goes in under many keys, then every key is
    read back, so both fill paths run past the budget many times.
    """
    budget = 64 * 1024
    result = FixedBitTask(profile_id=1, bits=8, kernel="median").run()
    n_keys = 8 * budget // len(fixed_entry_bytes(result))
    cache = ShardedResultCache(tmp_path / "cache", hot_bytes=budget)
    keys = [f"{i:064x}" for i in range(n_keys)]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for key in keys:
            cache.put(key, result)
        for key in keys:
            assert cache.get(key) is not None
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    info = cache.info()
    assert info["hot_evictions"] > 0
    assert info["hot_bytes"] <= budget
    assert kept <= 2 * budget


# -- clear() vs in-flight writer (lock-file regression) ------------------------


@pytest.mark.skipif(fcntl is None, reason="fcntl is POSIX-only")
def test_clear_does_not_sweep_staging_files_of_live_writers(tmp_path):
    cache = ShardedResultCache(tmp_path / "cache", hot_bytes=1024)
    staged = cache.cache_dir / "fixed" / ".tmp-inflight.npz.tmp"
    staged.parent.mkdir(parents=True, exist_ok=True)
    staged.write_bytes(b"half-written entry")

    # A concurrent writer holds the shared lock across stage+rename
    # (flock contends across file descriptors even in-process).
    holder = open(cache._lock_path(), "a+b")
    try:
        fcntl.flock(holder.fileno(), fcntl.LOCK_SH)
        cache.clear()
        # clear() could not take the exclusive lock, so it must leave
        # the writer's staging file alone instead of corrupting the
        # in-flight put.
        assert staged.exists()
    finally:
        fcntl.flock(holder.fileno(), fcntl.LOCK_UN)
        holder.close()

    # With the writer gone, the next clear() sweeps the orphan.
    cache.clear()
    assert not staged.exists()


def test_clear_drops_entries_and_hot_tier_everywhere(tmp_path):
    cache = ShardedResultCache(tmp_path / "cache", hot_bytes=1024)
    for name in ("aa.npz", "exec-bb.npz", "res-cc.npz", "fleet-dd.npz"):
        cache._shard_path(name).write_bytes(b"data")
    assert len(cache) == 4
    removed = cache.clear()
    assert removed == 4
    assert len(cache) == 0
    assert len(cache.hot) == 0
    assert cache.info()["entries"] == 0
