"""The cache-entry writer and reader against numpy, differentially.

:func:`repro.analysis._npz.read_npz` replaces ``np.load`` on every
cache-entry read path. It must read whatever ``np.savez`` and
``np.savez_compressed`` write exactly as ``np.load`` does (member set,
dtype, shape, values), and refuse everything else with ``ValueError``:
the cache quarantines on that exception, so a reader that raised
anything else, or decoded damaged bytes, would break the corruption
guarantees of ``tests/test_cache_quarantine.py``.

:func:`repro.analysis._npz.write_npz` replaces ``np.savez_compressed``
on every entry write path and must emit exactly its bytes. The golden
digests at the end pin those bytes independently of numpy.

``np.load`` and ``np.savez_compressed`` live here only, as the oracles.
"""

import hashlib
import io
import json
import struct
import warnings
import zipfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.analysis import engine, telemetry
from repro.analysis._npz import read_npz, write_npz
from repro.analysis.resilience import ResilienceCampaign, run_resilience_grid
from repro.core.executive import ExecutiveResult, FrameRecord
from repro.system.metrics import SimulationResult


@pytest.fixture(autouse=True)
def _fresh_engine():
    engine.reset()
    telemetry.reset()
    yield
    telemetry.reset()
    engine.reset()


# -- writers -------------------------------------------------------------------


class _Unseekable(io.RawIOBase):
    """A write-only stream: ``zipfile`` falls back to data descriptors."""

    def __init__(self):
        self.data = bytearray()

    def writable(self):
        return True

    def seekable(self):
        return False

    def write(self, chunk):
        self.data += chunk
        return len(chunk)


def _savez_compressed(arrays):
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    return buffer.getvalue()


def _savez(arrays):
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def _savez_compressed_unseekable(arrays):
    stream = _Unseekable()
    np.savez_compressed(stream, **arrays)
    return bytes(stream.data)


def _savez_unseekable(arrays):
    stream = _Unseekable()
    np.savez(stream, **arrays)
    return bytes(stream.data)


WRITERS = {
    "savez_compressed": _savez_compressed,
    "savez": _savez,
    "savez_compressed-unseekable": _savez_compressed_unseekable,
    "savez-unseekable": _savez_unseekable,
}


def _oracle(blob):
    with np.load(io.BytesIO(blob), allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}


def _assert_same_arrays(got, want):
    assert set(got) == set(want)
    for name, expected in want.items():
        actual = got[name]
        assert actual.dtype == expected.dtype, name
        assert actual.shape == expected.shape, name
        assert np.array_equal(
            actual, expected, equal_nan=expected.dtype.kind == "f"
        ), name


# -- differential property -----------------------------------------------------


_DTYPES = st.sampled_from(
    [np.dtype(t) for t in ("int8", "int16", "int64", "float64", "bool")]
) | st.integers(min_value=1, max_value=6).map(lambda n: np.dtype(f"<U{n}"))
_SHAPES = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=7)
_ARRAYS = _DTYPES.flatmap(lambda dtype: hnp.arrays(dtype, _SHAPES))
_NAMES = st.text(alphabet="abcdefgh_", min_size=1, max_size=6)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    arrays=st.dictionaries(_NAMES, _ARRAYS, min_size=1, max_size=4),
    writer=st.sampled_from(sorted(WRITERS)),
)
def test_reader_matches_np_load(arrays, writer):
    blob = WRITERS[writer](arrays)
    got = read_npz(blob)
    _assert_same_arrays(got, _oracle(blob))
    assert read_npz(bytearray(blob)).keys() == got.keys()
    for array in got.values():
        assert array.flags.writeable
        assert array.flags.owndata


#: 0-d unicode scalars like the ``version`` and JSON ``scalars`` members
#: every entry carries.
_SCALAR_TEXT = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=40
).map(np.array)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(arrays=st.dictionaries(_NAMES, _ARRAYS | _SCALAR_TEXT, min_size=1, max_size=4))
def test_writer_matches_np_savez_compressed(arrays):
    blob = write_npz(arrays)
    assert blob == _savez_compressed(arrays)
    _assert_same_arrays(read_npz(blob), arrays)


@pytest.mark.parametrize(
    "array",
    [
        np.asfortranarray(np.arange(6).reshape(2, 3)),
        np.array([{"x": 1}], dtype=object),
        np.zeros(2, dtype=[("x", "<i8")]),
    ],
    ids=["fortran-order", "object-dtype", "structured-dtype"],
)
def test_writer_refuses_what_it_would_not_reproduce(array):
    with pytest.raises(ValueError):
        write_npz({"a": array})


def test_writer_writes_non_contiguous_arrays_in_c_order():
    arrays = {"a": np.arange(24).reshape(4, 6)[::2, 1::2]}
    assert write_npz(arrays) == _savez_compressed(arrays)


def test_arrays_share_nothing_between_calls():
    blob = _savez_compressed({"a": np.arange(6)})
    first, second = read_npz(blob)["a"], read_npz(blob)["a"]
    first[0] = 99
    assert second[0] == 0
    assert not np.shares_memory(first, second)


def test_data_descriptor_layout_is_exercised():
    # The unseekable writers must really set the data-descriptor flag,
    # or the property above would not cover that layout.
    for name in ("savez_compressed-unseekable", "savez-unseekable"):
        blob = WRITERS[name]({"a": np.arange(3)})
        info = zipfile.ZipFile(io.BytesIO(blob)).infolist()[0]
        assert info.flag_bits & 0x08, name


# -- refusals ------------------------------------------------------------------


def _zip(members, compression=zipfile.ZIP_DEFLATED):
    """An archive of raw ``(name, bytes)`` members with valid CRCs."""
    buffer = io.BytesIO()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # duplicate names
        with zipfile.ZipFile(buffer, "w", compression=compression) as archive:
            for name, data in members:
                archive.writestr(name, data)
    return buffer.getvalue()


def _npy(array):
    buffer = io.BytesIO()
    np.save(buffer, array, allow_pickle=True)
    return buffer.getvalue()


def _raw_npy(header, payload):
    text = header.encode("latin1")
    pad = (-(10 + len(text) + 1)) % 64
    text += b" " * pad + b"\n"
    return b"\x93NUMPY\x01\x00" + struct.pack("<H", len(text)) + text + payload


def _fortran_npy():
    return _npy(np.asfortranarray(np.arange(6).reshape(2, 3)))


def _short_payload_npy():
    return _npy(np.arange(5))[:-8]


def _long_payload_npy():
    return _npy(np.arange(5)) + b"\x00" * 8


REFUSED = {
    "empty": b"",
    "garbage": b"not an archive at all",
    "object-dtype": _zip([("a.npy", _npy(np.array([{"x": 1}], dtype=object)))]),
    "fortran-order": _zip([("a.npy", _fortran_npy())]),
    "duplicate-name": _zip([("a.npy", _npy(np.arange(2))), ("a.npy", _npy(np.arange(3)))]),
    "non-npy-member": _zip([("a.txt", b"hello")]),
    "short-payload": _zip([("a.npy", _short_payload_npy())]),
    "long-payload": _zip([("a.npy", _long_payload_npy())]),
    "bad-magic": _zip([("a.npy", b"\x93NUMPZ" + _npy(np.arange(2))[6:])]),
    "bad-version": _zip([("a.npy", _npy(np.arange(2))[:6] + b"\x04\x00" + _npy(np.arange(2))[8:])]),
    "structured-descr": _zip([("a.npy", _npy(np.zeros(2, dtype=[("x", "<i8")])))]),
    "unknown-descr": _zip([("a.npy", _raw_npy("{'descr': '<q9', 'fortran_order': False, 'shape': (1,), }", b""))]),
    "leading-zero-shape": _zip([("a.npy", _raw_npy("{'descr': '<i8', 'fortran_order': False, 'shape': (01,), }", b"\x00" * 8))]),
    "extra-header-key": _zip([("a.npy", _raw_npy("{'descr': '<i8', 'fortran_order': False, 'shape': (1,), 'x': 1, }", b"\x00" * 8))]),
    "bzip2-member": _zip([("a.npy", _npy(np.arange(2)))], compression=zipfile.ZIP_BZIP2),
    "archive-comment": _savez({"a": np.arange(2)})[:-2] + b"\x02\x00hi",
    "trailing-bytes": _savez({"a": np.arange(2)}) + b"\x00",
}


@pytest.mark.parametrize("blob", REFUSED.values(), ids=REFUSED)
def test_refuses_with_value_error(blob):
    with pytest.raises(ValueError):
        read_npz(blob)


def _first_member_span(blob):
    """``(start, stop)`` of the first member's stored bytes."""
    info = zipfile.ZipFile(io.BytesIO(blob)).infolist()[0]
    name_len, extra_len = struct.unpack_from("<2H", blob, info.header_offset + 26)
    start = info.header_offset + 30 + name_len + extra_len
    return start, start + info.compress_size


def test_crc_mismatch_is_refused_even_when_the_stream_inflates():
    blob = _savez_compressed({"a": np.arange(200, dtype=np.int64) % 7})
    start, stop = _first_member_span(blob)
    original = zlib.decompress(blob[start:stop], -15)
    for offset in range(start, stop):
        damaged = bytearray(blob)
        damaged[offset] ^= 0x01
        try:
            inflated = zlib.decompress(bytes(damaged[start:stop]), -15)
        except zlib.error:
            continue
        if len(inflated) == len(original) and inflated != original:
            break
    else:  # pragma: no cover - the search always finds one
        pytest.fail("no inflatable single-byte corruption found")
    with pytest.raises(ValueError, match="CRC"):
        read_npz(bytes(damaged))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_single_byte_damage_never_decodes_wrong(data):
    """Any one damaged byte is refused with ValueError or is harmless
    (zip fields the reader does not rely on, such as timestamps)."""
    arrays = {"version": np.array("v"), "a": np.arange(40) % 3, "b": np.ones((2, 3))}
    writer = data.draw(st.sampled_from(sorted(WRITERS)))
    blob = WRITERS[writer](arrays)
    offset = data.draw(st.integers(0, len(blob) - 1))
    flip = data.draw(st.integers(1, 255))
    damaged = bytearray(blob)
    damaged[offset] ^= flip
    try:
        got = read_npz(bytes(damaged))
    except ValueError:
        return
    _assert_same_arrays(got, _oracle(blob))


# -- real entries --------------------------------------------------------------


def _oracle_fixed(blob):
    with np.load(io.BytesIO(blob), allow_pickle=False) as payload:
        assert str(payload["version"][()]) == engine.ENGINE_CACHE_VERSION
        return SimulationResult(
            bit_schedule=payload["bit_schedule"].copy(),
            lane_schedule=payload["lane_schedule"].copy(),
            backup_ticks=tuple(int(t) for t in payload["backup_ticks"]),
            **json.loads(str(payload["scalars"][()])),
        )


def _oracle_executive(blob):
    with np.load(io.BytesIO(blob), allow_pickle=False) as payload:
        assert str(payload["version"][()]) == engine.ENGINE_CACHE_VERSION
        scalars = json.loads(str(payload["scalars"][()]))
        sim = SimulationResult(
            bit_schedule=payload["bit_schedule"].copy(),
            lane_schedule=payload["lane_schedule"].copy(),
            backup_ticks=tuple(int(t) for t in payload["backup_ticks"]),
            **scalars["sim"],
        )
        frames = []
        for i, row in enumerate(payload["frame_meta"]):
            fid, arrival, completed, incid, abandoned = (int(v) for v in row)
            frames.append(
                FrameRecord(
                    frame_id=fid,
                    arrival_tick=arrival,
                    element_bits=payload["element_bits"][i].copy(),
                    completed_tick=None if completed < 0 else completed,
                    completed_incidentally=bool(incid),
                    abandoned=bool(abandoned),
                )
            )
        for row in payload["exposures"]:
            frames[int(row[0])].exposures.append((int(row[1]), int(row[2])))
    return ExecutiveResult(
        sim=sim,
        frames=tuple(frames),
        idle_instructions=int(scalars["idle_instructions"]),
    )


def _oracle_point(blob):
    with np.load(io.BytesIO(blob), allow_pickle=False) as archive:
        assert str(archive["version"][()]) == engine.ENGINE_CACHE_VERSION
        return json.loads(str(archive["payload"][()]))


def test_fixed_entries_decode_like_the_oracle(tmp_path):
    tasks = [
        engine.FixedBitTask(profile_id=p, bits=b, kernel="median", duration_s=0.5)
        for p in (1, 3)
        for b in (2, 8)
    ]
    engine.run_grid(tasks, workers=1, cache=engine.ResultCache(tmp_path))
    paths = sorted(tmp_path.glob("*.npz"))
    assert len(paths) == len(tasks)
    for path in paths:
        blob = path.read_bytes()
        want = _oracle_fixed(blob)
        for source in (path, str(path), blob):
            got = engine.decode_fixed_entry(source)
            assert engine.simulation_results_equal(got, want)
            assert got.backup_ticks == want.backup_ticks
            assert all(type(t) is int for t in got.backup_ticks)
            assert got.bit_schedule.flags.writeable


def test_executive_entries_decode_like_the_oracle(tmp_path):
    tasks = [
        engine.ExecutiveTask(
            kernel="median", policy=policy, profile_id=1, minbits=2,
            duration_s=0.5, frame_period_ticks=1_500,
        )
        for policy in ("linear", "log")
    ]
    engine.run_executive_grid(tasks, workers=1, cache=engine.ResultCache(tmp_path))
    paths = sorted(tmp_path.glob("exec-*.npz"))
    assert len(paths) == len(tasks)
    for path in paths:
        blob = path.read_bytes()
        want = _oracle_executive(blob)
        got = engine.decode_executive_entry(path)
        assert engine.executive_results_equal(got, want)
        assert any(frame.exposures for frame in want.frames)
        for a, b in zip(got.frames, want.frames):
            assert a.exposures == b.exposures
            assert a.element_bits.dtype == b.element_bits.dtype
        # Frames own their bits: no row aliases another frame's.
        bits = [frame.element_bits for frame in got.frames]
        assert not any(np.shares_memory(a, b) for a, b in zip(bits, bits[1:]))


def test_point_entries_decode_like_the_oracle(tmp_path):
    campaign = ResilienceCampaign(
        rates=(0.0, 0.2), policies=("linear",), kernels=("median",), duration_s=0.4
    )
    campaign.run(workers=1, cache=engine.ResultCache(tmp_path))
    paths = sorted(tmp_path.glob("res-*.npz"))
    assert paths
    for path in paths:
        assert engine.decode_point_entry(path) == _oracle_point(path.read_bytes())


# -- golden entry bytes --------------------------------------------------------


#: sha256 of each golden task's entry bytes, by label.
_GOLDEN_ENTRY_SHA256 = json.loads(
    (Path(__file__).with_name("golden") / "entry_digests.json").read_text()
)


def _golden_entries():
    """``label -> entry bytes`` of a few 2 s tasks of every entry kind.

    ``exec/median/linear/p1`` runs a 1500-tick frame period, so its
    frames record outage exposures and the pin covers that table too.
    """
    fixed = {
        "fixed/median/precise/p1/b8": engine.FixedBitTask(
            profile_id=1, bits=8, kernel="median", duration_s=2.0
        ),
        "fixed/sobel/linear/p3/b4": engine.FixedBitTask(
            profile_id=3, bits=4, policy="linear", kernel="sobel", duration_s=2.0
        ),
        "fixed/log/seed7/b2": engine.FixedBitTask(
            profile_id=2, bits=2, policy="log", seed=7, duration_s=2.0
        ),
    }
    executive = {
        "exec/median/linear/p1": engine.ExecutiveTask(
            kernel="median", policy="linear", profile_id=1, minbits=2,
            duration_s=2.0, frame_period_ticks=1500,
        ),
        "exec/median/log/p2": engine.ExecutiveTask(
            kernel="median", policy="log", profile_id=2, minbits=2, duration_s=2.0
        ),
    }
    entries = {
        label: engine.fixed_entry_bytes(task.run()) for label, task in fixed.items()
    }
    for label, task in executive.items():
        result = task.run()
        if label == "exec/median/linear/p1":
            assert any(frame.exposures for frame in result.frames)
        entries[label] = engine.executive_entry_bytes(result)
    campaign = ResilienceCampaign(
        rates=(0.0, 0.2), policies=("linear",), kernels=("median",), duration_s=2.0
    )
    points = run_resilience_grid(campaign.tasks(), workers=1)
    for rate, point in zip(campaign.rates, points):
        entries[f"res/median/linear/rate{rate}"] = engine.point_entry_bytes(
            point.to_dict()
        )
    return entries


def test_entry_bytes_match_the_golden_digests():
    """Entry bytes are pinned independently of the numpy that wrote them."""
    digests = {
        label: hashlib.sha256(data).hexdigest()
        for label, data in _golden_entries().items()
    }
    assert digests == _GOLDEN_ENTRY_SHA256
