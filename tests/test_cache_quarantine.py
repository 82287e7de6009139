"""Cache corruption: every bad entry is quarantined, never silently missed.

Covers all three read paths — ``get``, ``get_executive`` and the
``verify()`` scan — against truncated, zero-byte, wrong-schema and
wrong-version ``.npz`` entries, and against damage only the entry
reader's own checks can catch (a CRC mismatch in a member that still
inflates, a bad ``.npy`` header, a damaged central directory, a
truncated end record). Asserts the grid runners recompute bit-exact
results afterwards.
"""

import io
import struct
import zipfile
import zlib

import numpy as np
import pytest

from repro.analysis import engine, telemetry
from repro.core.executive import clear_quality_memo
from repro.errors import ConfigurationError


@pytest.fixture(autouse=True)
def _fresh_engine():
    engine.reset()
    telemetry.reset()
    yield
    telemetry.reset()
    engine.reset()


TASK = engine.FixedBitTask(
    profile_id=1, bits=8, kernel="median", duration_s=0.3
)
EXEC_TASK = engine.ExecutiveTask(
    kernel="median",
    policy="linear",
    profile_id=1,
    minbits=2,
    duration_s=0.3,
    frame_period_ticks=1_500,
)


def _seed_fixed_entry(cache):
    """Run the one-task grid through ``cache``; returns (key, path)."""
    engine.run_grid([TASK], workers=1, cache=cache)
    key = TASK.cache_key()
    path = cache._path(key)
    assert path.exists()
    return key, path


def _seed_executive_entry(cache):
    engine.run_executive_grid([EXEC_TASK], workers=1, cache=cache)
    clear_quality_memo()
    key = EXEC_TASK.cache_key()
    path = cache._path(key, engine.EXECUTIVE)
    assert path.exists()
    return key, path


def _truncate(path):
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])


def _zero_byte(path):
    path.write_bytes(b"")


def _wrong_schema(path):
    np.savez(
        path,
        version=np.array(engine.ENGINE_CACHE_VERSION),
        unexpected=np.arange(3),
    )


def _wrong_version(path):
    blob = dict(np.load(path, allow_pickle=False))
    blob["version"] = np.array("0-incompatible")
    np.savez(path, **blob)


def _flip_inflatable_byte(path):
    """Flip one deflated byte of an array payload so that the member
    still inflates to its declared size and a well-formed ``.npy`` file,
    with other values: only the CRC-32 can tell."""
    blob = bytearray(path.read_bytes())
    infos = zipfile.ZipFile(io.BytesIO(bytes(blob))).infolist()
    for info in sorted(infos, key=lambda i: i.filename != "backup_ticks.npy"):
        name_len, extra_len = struct.unpack_from("<2H", blob, info.header_offset + 26)
        start = info.header_offset + 30 + name_len + extra_len
        stop = start + info.compress_size
        original = zlib.decompress(bytes(blob[start:stop]), -15)
        header_end = original.index(b"\n") + 1
        for offset in range(start, stop):
            blob[offset] ^= 0x01
            try:
                inflated = zlib.decompress(bytes(blob[start:stop]), -15)
            except zlib.error:
                inflated = b""
            if (
                len(inflated) == len(original)
                and inflated[:header_end] == original[:header_end]
                and inflated != original
            ):
                path.write_bytes(bytes(blob))
                return
            blob[offset] ^= 0x01
    raise AssertionError("no inflatable single-byte corruption found")


def _flip_npy_header_byte(path):
    """Rewrite the entry, CRCs valid, with one flipped byte in the
    ``shape`` of ``bit_schedule``'s ``.npy`` header."""
    with zipfile.ZipFile(path) as archive:
        members = [(i.filename, archive.read(i)) for i in archive.infolist()]
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_DEFLATED) as archive:
        for name, data in members:
            if name == "bit_schedule.npy":
                data = bytearray(data)
                data[data.index(b"'shape': (") + len(b"'shape': (")] ^= 0x01
            archive.writestr(name, bytes(data))


def _damage_central_directory(path):
    """Flip the first name byte of the first central-directory entry."""
    blob = bytearray(path.read_bytes())
    (cd_offset,) = struct.unpack_from("<L", blob, len(blob) - 6)
    blob[cd_offset + 46] ^= 0x01
    path.write_bytes(bytes(blob))


def _truncate_end_record(path):
    path.write_bytes(path.read_bytes()[:-5])


CORRUPTIONS = {
    "truncated": _truncate,
    "zero-byte": _zero_byte,
    "wrong-schema": _wrong_schema,
    "wrong-version": _wrong_version,
    "inflatable-crc-mismatch": _flip_inflatable_byte,
    "npy-header-byte": _flip_npy_header_byte,
    "central-directory": _damage_central_directory,
    "truncated-end-record": _truncate_end_record,
}


# -- read paths ---------------------------------------------------------------


@pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS)
def test_get_quarantines_and_recomputes(tmp_path, corrupt):
    cache = engine.ResultCache(tmp_path)
    clean = engine.run_grid([TASK], workers=1, cache=cache)
    key = TASK.cache_key()
    path = cache._path(key)
    corrupt(path)

    assert cache.get(key) is None
    assert not path.exists()
    assert (cache.quarantine_dir / path.name).exists()
    assert cache.quarantines == 1
    assert cache.quarantined_count() == 1

    # The grid runner sees a miss, recomputes bit-exactly, and the
    # telemetry carries the quarantine.
    again = engine.run_grid([TASK], workers=1, cache=cache)
    assert clean.equal(again)
    report = telemetry.last_report(kind="fixed")
    assert report.quarantines == 0  # quarantined before the run
    assert report.computed == 1
    assert cache.get(key) is not None  # fresh entry readable again


@pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS)
def test_get_executive_quarantines_and_recomputes(tmp_path, corrupt):
    cache = engine.ResultCache(tmp_path)
    clean = engine.run_executive_grid([EXEC_TASK], workers=1, cache=cache)
    clear_quality_memo()
    key = EXEC_TASK.cache_key()
    path = cache._path(key, engine.EXECUTIVE)
    corrupt(path)

    assert cache.get_executive(key) is None
    assert not path.exists()
    assert (cache.quarantine_dir / path.name).exists()
    assert cache.quarantines == 1

    again = engine.run_executive_grid([EXEC_TASK], workers=1, cache=cache)
    assert clean.equal(again)
    assert cache.get_executive(key) is not None


def test_quarantine_counted_during_grid_run(tmp_path):
    cache = engine.ResultCache(tmp_path)
    _, path = _seed_fixed_entry(cache)
    _truncate(path)
    engine.run_grid([TASK], workers=1, cache=cache)
    report = telemetry.last_report(kind="fixed")
    assert report.quarantines == 1
    assert report.cache_misses == 1
    assert report.computed == 1


@pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS)
def test_verify_scan_quarantines_both_kinds(tmp_path, corrupt):
    cache = engine.ResultCache(tmp_path)
    _, fixed_path = _seed_fixed_entry(cache)
    _, exec_path = _seed_executive_entry(cache)
    corrupt(fixed_path)
    corrupt(exec_path)

    stats = cache.verify()
    assert stats == {"checked": 2, "ok": 0, "quarantined": 2}
    assert cache.quarantined_count() == 2
    assert len(cache) == 0

    # A second scan finds nothing left to check or quarantine.
    assert cache.verify() == {"checked": 0, "ok": 0, "quarantined": 0}


def test_foreign_schema_resilience_point_is_quarantined(tmp_path):
    """A readable ``res-`` entry whose JSON is not a ResiliencePoint is
    corrupt like any other: quarantined and missed, never served."""
    from repro.analysis.resilience import ResilienceCampaign

    campaign = ResilienceCampaign(
        rates=(0.0,), policies=("linear",), duration_s=0.3,
        frame_period_ticks=1_500,
    )
    cache = engine.ResultCache(tmp_path)
    (clean,) = campaign.run(workers=1, cache=cache).points
    clear_quality_memo()
    (task,) = campaign.tasks()
    path = tmp_path / f"res-{task.cache_key()}.npz"
    foreign = engine.point_entry_bytes({**clean.to_dict(), "bogus_field": 1})
    path.write_bytes(foreign)

    hits_before = cache.hits
    (again,) = campaign.run(workers=1, cache=cache).points
    assert again == clean
    assert cache.hits == hits_before
    report = telemetry.last_report(kind="resilience")
    assert report.cache_misses == 1
    assert report.quarantines == 1
    assert report.computed == 1
    assert (cache.quarantine_dir / path.name).read_bytes() == foreign

    # The verify scan applies the same schema check.
    path.write_bytes(foreign)
    assert cache.verify() == {"checked": 1, "ok": 0, "quarantined": 1}


def test_verify_scan_keeps_healthy_entries(tmp_path):
    cache = engine.ResultCache(tmp_path)
    _seed_fixed_entry(cache)
    _seed_executive_entry(cache)
    assert cache.verify() == {"checked": 2, "ok": 2, "quarantined": 0}
    assert cache.quarantined_count() == 0
    assert len(cache) == 2


# -- bookkeeping ---------------------------------------------------------------


def test_missing_entry_is_a_plain_miss_not_a_quarantine(tmp_path):
    cache = engine.ResultCache(tmp_path)
    assert cache.get("no-such-key") is None
    assert cache.get_executive("no-such-key") is None
    assert cache.misses == 2
    assert cache.quarantines == 0
    assert cache.quarantined_count() == 0


def test_info_reports_quarantine_state(tmp_path):
    cache = engine.ResultCache(tmp_path)
    _, path = _seed_fixed_entry(cache)
    _zero_byte(path)
    assert cache.get(TASK.cache_key()) is None
    info = cache.info()
    assert info["entries"] == 0
    assert info["quarantined"] == 1
    assert info["quarantine_path"] == str(cache.quarantine_dir)


def test_clear_keeps_quarantined_files(tmp_path):
    cache = engine.ResultCache(tmp_path)
    _, path = _seed_fixed_entry(cache)
    _truncate(path)
    assert cache.get(TASK.cache_key()) is None
    _seed_fixed_entry(cache)  # recompute a healthy entry
    removed = cache.clear()
    assert removed == 1
    assert cache.quarantined_count() == 1


def test_unusable_cache_dir_raises_configuration_error(tmp_path):
    # A regular file where the directory should be: mkdir fails even
    # for root (os.access alone would lie for a privileged user).
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    with pytest.raises(ConfigurationError):
        engine.ResultCache(blocker)
    with pytest.raises(ConfigurationError):
        engine.configure(cache_dir=blocker)


# -- concurrent-writer safety -------------------------------------------------


def test_in_flight_tmp_files_are_invisible(tmp_path):
    """A half-written entry must never be seen, counted or quarantined.

    Writers stage into ``.tmp-*.npz.tmp`` and ``os.replace`` into
    place; every ``*.npz`` glob (``info``/``verify``/``clear``/len)
    must therefore skip in-flight files — a torn write from a
    concurrent process is not a corrupt entry.
    """
    cache = engine.ResultCache(tmp_path)
    _seed_fixed_entry(cache)
    torn = tmp_path / ".tmp-abc123.npz.tmp"
    torn.write_bytes(b"half-written garbage")
    assert len(cache) == 1
    info = cache.info()
    assert info["entries"] == 1
    assert info["quarantined"] == 0
    scan = cache.verify()
    assert scan["checked"] == 1
    assert scan["quarantined"] == 0
    assert torn.exists(), "verify must not touch in-flight writes"


def test_clear_sweeps_stale_tmp_files(tmp_path):
    cache = engine.ResultCache(tmp_path)
    _seed_fixed_entry(cache)
    (tmp_path / ".tmp-dead.npz.tmp").write_bytes(b"orphaned")
    removed = cache.clear()
    assert removed == 1  # tmp files are swept but not counted
    assert not list(tmp_path.glob(".tmp-*"))


def test_concurrent_writers_never_tear_entries(tmp_path):
    """N threads racing to put the same key leave one healthy entry."""
    import threading

    cache = engine.ResultCache(tmp_path)
    result = TASK.run()
    key = TASK.cache_key()
    errors = []

    def writer():
        try:
            for _ in range(10):
                cache.put(key, result)
                got = engine.ResultCache(tmp_path).get(key)
                assert got is not None, "reader saw a torn entry"
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=writer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert cache.quarantined_count() == 0
    loaded = cache.get(key)
    assert loaded is not None
    assert engine.simulation_results_equal(loaded, result)
