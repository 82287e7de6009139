"""Strict writer and reader for the ``.npz`` archives cache entries use.

:func:`write_npz` emits exactly the bytes ``np.savez_compressed``
emits for the arrays cache entries hold, without numpy's and
:mod:`zipfile`'s general machinery: one ``<name>.npy`` member per
array, each a level-6 raw deflate of the ``.npy`` file with a zip64
extra in its local header, a DOS date of 1980-01-01, then the same
central directory and end record. It refuses, with
:class:`ValueError`, every array it would not reproduce byte for byte
(Fortran-ordered, object, structured or pickled dtypes). The entry
bytes are pinned by ``tests/golden/entry_digests.json``, so a later
numpy that changes its zip layout cannot change them.

:func:`read_npz` replaces ``np.load``, whose general archive machinery
and per-array ``ast.literal_eval`` dominate warm-cache decode time. It
accepts exactly the layout numpy writes: one ``<name>.npy`` zip member
per array, stored or raw-deflated, optionally followed by a data
descriptor, with no encryption, no zip64 end records and no archive
comment. It keeps every check ``zipfile`` and ``np.load`` make on that
layout:

* record signatures, central-directory bounds and entry count;
* each local header's name against its central-directory entry;
* each member's uncompressed size and CRC-32;
* the ``.npy`` magic, format version (1.0, 2.0 or 3.0) and header keys;
* a payload exactly as long as the header's dtype and shape imply.

It never unpickles: object dtypes are refused, as are Fortran-ordered
arrays, duplicate member names and members that are not ``.npy``
files. Every malformed input raises :class:`ValueError`.
"""

from __future__ import annotations

import math
import re
import struct
import zlib
from typing import Dict, List, Mapping, Union

import numpy as np

__all__ = ["read_npz", "write_npz"]

_EOCD = struct.Struct("<4s4H2LH")
_CENTRAL = struct.Struct("<4s4B4HL2L5H2L")
_LOCAL = struct.Struct("<4s2B4HL2L2H")

_EOCD_SIG = b"PK\x05\x06"
_CENTRAL_SIG = b"PK\x01\x02"
_LOCAL_SIG = b"PK\x03\x04"

_ZIP64_EXTRA = struct.Struct("<2H2Q")

_FLAG_DATA_DESCRIPTOR = 0x08
_FLAG_UTF8_NAME = 0x800
_STORED = 0
_DEFLATED = 8

#: What ``zipfile`` writes for a forced-zip64 member: "version 4.5"
#: made by and needed, made on Unix, the DOS date 1980-01-01 00:00,
#: ``-rw-------`` permissions, and 32-bit size fields of 0xFFFFFFFF in
#: the local header, whose zip64 extra carries the real sizes.
_ZIP64_VERSION = 45
_UNIX = 3
_DOS_TIME = 0
_DOS_DATE = 1 << 5 | 1
_EXTERNAL_ATTR = 0o600 << 16
_SIZE_IN_EXTRA = 0xFFFFFFFF
#: Beyond this, ``zipfile`` moves central-directory fields into zip64
#: records, which :func:`write_npz` does not write.
_ZIP64_LIMIT = (1 << 31) - 1

_NPY_MAGIC = b"\x93NUMPY"
#: ``(header-length bytes, header encoding)`` per ``.npy`` version.
_NPY_VERSIONS = {(1, 0): (2, "latin1"), (2, 0): (4, "latin1"), (3, 0): (4, "utf8")}
#: The header dict exactly as ``np.lib.format`` writes it: sorted keys,
#: a plain dtype string, C order, a shape tuple, space padding, newline.
_NPY_HEADER = re.compile(
    r"\{'descr': '([^']*)', 'fortran_order': False, "
    r"'shape': \(([0-9, ]*)\), \} *\n"
)

#: ``np.lib.format`` pads the header so the payload starts on this
#: boundary, and leaves room for the first axis to grow to this many
#: digits.
_NPY_ALIGN = 64
_NPY_GROWTH_DIGITS = 21
#: Dtype kinds whose ``.npy`` form is the raw array bytes (no pickle).
_PLAIN_KINDS = frozenset("biufcmMSUV")

Buffer = Union[bytes, bytearray]


def write_npz(arrays: Mapping[str, np.ndarray]) -> bytes:
    """The bytes ``np.savez_compressed`` writes for ``arrays``, given
    as keyword arguments; members follow the mapping's order.

    Raises :class:`ValueError` on an array whose bytes would differ
    from numpy's: Fortran-ordered, object, structured or non-legacy
    dtypes, and archives too large for 32-bit central-directory fields.
    """
    out = bytearray()
    central: List[bytes] = []
    for name, value in arrays.items():
        array = np.asanyarray(value)
        header = _npy_header(array, name)
        if not array.flags.c_contiguous:
            array = np.ascontiguousarray(array)
        # Two compress calls, as numpy's member writer makes them: the
        # header, then the payload. Deflate output does not depend on
        # the split; the CRC chains the same way.
        deflate = zlib.compressobj(6, zlib.DEFLATED, -zlib.MAX_WBITS)
        data = deflate.compress(header) + deflate.compress(array) + deflate.flush()
        crc = zlib.crc32(array, zlib.crc32(header))
        usize = len(header) + array.nbytes
        offset = len(out)
        if max(usize, len(data), offset) > _ZIP64_LIMIT:
            raise ValueError(f"{name}: archive too large for 32-bit zip fields")
        member = f"{name}.npy"
        try:
            raw_name, flags = member.encode("ascii"), 0
        except UnicodeEncodeError:
            raw_name, flags = member.encode("utf-8"), _FLAG_UTF8_NAME
        out += _LOCAL.pack(
            _LOCAL_SIG, _ZIP64_VERSION, 0, flags, _DEFLATED, _DOS_TIME,
            _DOS_DATE, crc, _SIZE_IN_EXTRA, _SIZE_IN_EXTRA, len(raw_name),
            _ZIP64_EXTRA.size,
        )
        out += raw_name
        out += _ZIP64_EXTRA.pack(1, _ZIP64_EXTRA.size - 4, usize, len(data))
        out += data
        central.append(
            _CENTRAL.pack(
                _CENTRAL_SIG, _ZIP64_VERSION, _UNIX, _ZIP64_VERSION, 0, flags,
                _DEFLATED, _DOS_TIME, _DOS_DATE, crc, len(data), usize,
                len(raw_name), 0, 0, 0, 0, _EXTERNAL_ATTR, offset,
            )
            + raw_name
        )
    cd_offset = len(out)
    for record in central:
        out += record
    if len(out) > _ZIP64_LIMIT or len(central) > 0xFFFF:
        raise ValueError("archive too large for 32-bit zip fields")
    out += _EOCD.pack(
        _EOCD_SIG, 0, 0, len(central), len(central), len(out) - cd_offset,
        cd_offset, 0,
    )
    return bytes(out)


def _npy_header(array: np.ndarray, name: str) -> bytes:
    """The version 1.0 ``.npy`` header ``np.lib.format`` writes for
    ``array``; raises :class:`ValueError` where numpy would write
    anything else (Fortran order, a pickle, a list descr)."""
    dtype = array.dtype
    if dtype.hasobject or dtype.names is not None or dtype.kind not in _PLAIN_KINDS:
        raise ValueError(f"{name}: dtype {dtype} is not written as plain bytes")
    if array.flags.f_contiguous and not array.flags.c_contiguous:
        raise ValueError(f"{name}: Fortran-ordered arrays are refused")
    shape = array.shape
    text = f"{{'descr': {dtype.str!r}, 'fortran_order': False, 'shape': {shape!r}, }}"
    if shape:
        text += " " * (_NPY_GROWTH_DIGITS - len(repr(shape[0])))
    length = len(text) + 1
    length += _NPY_ALIGN - (len(_NPY_MAGIC) + 4 + length) % _NPY_ALIGN
    if length > 0xFFFF:
        raise ValueError(f"{name}: .npy header too long for format 1.0")
    return (
        _NPY_MAGIC + b"\x01\x00" + struct.pack("<H", length)
        + text.encode("latin1").ljust(length - 1) + b"\n"
    )


def read_npz(data: Buffer) -> Dict[str, np.ndarray]:
    """Every array of one ``.npz`` archive, keyed by name.

    Each array is a fresh, writable copy that shares nothing with
    ``data`` or with other calls. Raises :class:`ValueError` on any
    malformed, truncated or unsupported input.
    """
    end = len(data) - _EOCD.size
    if end < 0 or data[end : end + 4] != _EOCD_SIG:
        raise ValueError("no end-of-central-directory record at the end")
    (_, disk, cd_disk, n_here, n_total, cd_size, cd_offset, comment) = (
        _EOCD.unpack_from(data, end)
    )
    if disk or cd_disk or comment or n_here != n_total:
        raise ValueError("unsupported end-of-central-directory record")
    if cd_offset + cd_size != end:
        raise ValueError("central directory does not end at its end record")
    arrays: Dict[str, np.ndarray] = {}
    pos = cd_offset
    for _ in range(n_total):
        if pos + _CENTRAL.size > end:
            raise ValueError("central directory overruns its size")
        (sig, _, _, _, _, flags, method, _, _, crc, csize, usize,
         name_len, extra_len, comment_len, _, _, _, offset) = (
            _CENTRAL.unpack_from(data, pos)
        )
        if sig != _CENTRAL_SIG:
            raise ValueError("bad central-directory entry signature")
        if flags & ~(_FLAG_DATA_DESCRIPTOR | _FLAG_UTF8_NAME):
            raise ValueError(f"unsupported zip member flags {flags:#x}")
        pos += _CENTRAL.size
        raw_name = bytes(data[pos : pos + name_len])
        pos += name_len + extra_len + comment_len
        if pos > end:
            raise ValueError("central directory overruns its size")
        name = raw_name.decode("utf-8" if flags & _FLAG_UTF8_NAME else "ascii")
        if not name.endswith(".npy"):
            raise ValueError(f"member {name!r} is not a .npy array")
        key = name[:-4]
        if key in arrays:
            raise ValueError(f"duplicate member {name!r}")
        member = _member(data, offset, cd_offset, raw_name, flags, method, csize)
        arrays[key] = _npy_array(_inflate(member, method, crc, usize), name)
    if pos != end:
        raise ValueError("central directory size does not match its entries")
    return arrays


def _member(data: Buffer, offset: int, limit: int, raw_name: bytes,
            flags: int, method: int, csize: int) -> memoryview:
    """The compressed bytes of the member whose local header is at
    ``offset``, checked against its central-directory entry."""
    start = offset + _LOCAL.size
    if start > limit:
        raise ValueError("local header outside the archive data")
    (sig, _, _, local_flags, local_method, _, _, _, _, _,
     name_len, extra_len) = _LOCAL.unpack_from(data, offset)
    if sig != _LOCAL_SIG:
        raise ValueError("bad local header signature")
    if local_flags != flags or local_method != method:
        raise ValueError("local header disagrees with the central directory")
    if data[start : start + name_len] != raw_name:
        raise ValueError("local header name disagrees with the central directory")
    start += name_len + extra_len
    stop = start + csize
    if stop > limit:
        raise ValueError("member data overruns the central directory")
    return memoryview(data)[start:stop]


def _inflate(member: memoryview, method: int, crc: int, usize: int) -> bytes:
    """The uncompressed member, size- and CRC-checked."""
    if method == _STORED:
        raw = bytes(member)
    elif method == _DEFLATED:
        # Sizing the buffer at the declared length inflates in one
        # allocation with no final join. A stream that runs longer is
        # still bounded by deflate's ~1032:1 ratio over the member's
        # own bytes, and is refused below.
        try:
            raw = zlib.decompress(member, -zlib.MAX_WBITS, usize)
        except zlib.error as exc:
            raise ValueError(f"member does not inflate: {exc}") from exc
    else:
        raise ValueError(f"unsupported compression method {method}")
    if len(raw) != usize:
        raise ValueError(f"member is {len(raw)} bytes, header says {usize}")
    if zlib.crc32(raw) != crc:
        raise ValueError("member CRC-32 mismatch")
    return raw


def _npy_array(raw: bytes, name: str) -> np.ndarray:
    """Parse one ``.npy`` file into a fresh array."""
    if raw[:6] != _NPY_MAGIC or len(raw) < 10:
        raise ValueError(f"{name}: not a .npy file")
    version = (raw[6], raw[7])
    if version not in _NPY_VERSIONS:
        raise ValueError(f"{name}: unsupported .npy version {version}")
    length_bytes, encoding = _NPY_VERSIONS[version]
    start = 8 + length_bytes
    stop = start + int.from_bytes(raw[8:start], "little")
    if stop > len(raw):
        raise ValueError(f"{name}: .npy header overruns the member")
    match = _NPY_HEADER.fullmatch(raw[start:stop].decode(encoding))
    if match is None:
        raise ValueError(f"{name}: unsupported .npy header")
    descr, shape_text = match.groups()
    shape = tuple(int(dim) for dim in shape_text.split(",") if dim)
    if f"({shape_text})" != repr(shape):
        raise ValueError(f"{name}: malformed shape {shape_text!r}")
    try:
        dtype = np.dtype(descr)
    except TypeError as exc:
        raise ValueError(f"{name}: bad dtype {descr!r}") from exc
    if dtype.hasobject:
        raise ValueError(f"{name}: object arrays are refused")
    count = math.prod(shape)
    if len(raw) - stop != count * dtype.itemsize:
        raise ValueError(f"{name}: payload length does not match {shape} {dtype}")
    return np.frombuffer(raw, dtype=dtype, count=count, offset=stop).reshape(shape).copy()
