"""A strict reader for the ``.npz`` archives ``np.savez`` writes.

Cache entries and service result streams are written by
``np.savez_compressed``. Reading them back through ``np.load`` runs
:mod:`zipfile`'s general archive machinery and an ``ast.literal_eval``
per array header, which dominates warm-cache decode time. This reader
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
from typing import Dict, Union

import numpy as np

__all__ = ["read_npz"]

_EOCD = struct.Struct("<4s4H2LH")
_CENTRAL = struct.Struct("<4s4B4HL2L5H2L")
_LOCAL = struct.Struct("<4s2B4HL2L2H")

_EOCD_SIG = b"PK\x05\x06"
_CENTRAL_SIG = b"PK\x01\x02"
_LOCAL_SIG = b"PK\x03\x04"

_FLAG_DATA_DESCRIPTOR = 0x08
_FLAG_UTF8_NAME = 0x800
_STORED = 0
_DEFLATED = 8

_NPY_MAGIC = b"\x93NUMPY"
#: ``(header-length bytes, header encoding)`` per ``.npy`` version.
_NPY_VERSIONS = {(1, 0): (2, "latin1"), (2, 0): (4, "latin1"), (3, 0): (4, "utf8")}
#: The header dict exactly as ``np.lib.format`` writes it: sorted keys,
#: a plain dtype string, C order, a shape tuple, space padding, newline.
_NPY_HEADER = re.compile(
    r"\{'descr': '([^']*)', 'fortran_order': False, "
    r"'shape': \(([0-9, ]*)\), \} *\n"
)

Buffer = Union[bytes, bytearray]


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
