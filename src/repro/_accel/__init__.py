"""Native accelerator for batched replay (optional, self-building).

:mod:`repro.system.batchsim` and :mod:`repro.core.batchexec` replay
whole experiment grids, and single tasks as one-lane grids, through two
C kernels that are bit-exact ports of the per-tick reference loops.
This module owns their lifecycle:

* the C source lives in :mod:`repro._accel._csource` as a string;
* on first use it is compiled with the system C compiler into a shared
  library cached under a content-addressed name (sha256 of the source),
  so recompilation only happens when the source changes;
* the library is loaded with :mod:`ctypes` — no third-party build
  dependency, nothing to install.

The compile uses ``-O2 -ffp-contract=off`` and **not** ``-ffast-math``
or ``-march=native``: contraction of ``a*b+c`` into an FMA or any
reassociation would change IEEE-754 results and break the bit-exactness
contract the conformance suites enforce.

Everything degrades gracefully: no compiler, a failed compile, or
``REPRO_NO_ACCEL=1`` in the environment simply makes
:func:`available` return ``False`` and every run takes the reference
loop. The cache directory defaults to a per-user path under
the system temp dir and can be redirected with ``REPRO_ACCEL_CACHE``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from typing import Optional

from ._csource import C_SOURCE

__all__ = ["available", "load", "fixed_replay", "exec_replay"]

_LOCK = threading.Lock()
_LIB: Optional[ctypes.CDLL] = None
_FAILED = False


def _cache_dir() -> str:
    override = os.environ.get("REPRO_ACCEL_CACHE")
    if override:
        return override
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return os.path.join(tempfile.gettempdir(), f"repro-accel-{uid}")


def _compiler() -> Optional[str]:
    for name in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if name and shutil.which(name):
            return name
    return None


def _compile(lib_path: str) -> None:
    """Compile the kernel source into ``lib_path`` (atomic rename)."""
    cc = _compiler()
    if cc is None:
        raise RuntimeError("no C compiler on PATH")
    cache = os.path.dirname(lib_path)
    os.makedirs(cache, exist_ok=True)
    src_path = os.path.join(cache, f"build-{os.getpid()}.c")
    tmp_path = os.path.join(cache, f"build-{os.getpid()}.so")
    try:
        with open(src_path, "w", encoding="utf-8") as handle:
            handle.write(C_SOURCE)
        cmd = [
            cc,
            "-O2",
            "-ffp-contract=off",
            "-fPIC",
            "-shared",
            src_path,
            "-o",
            tmp_path,
        ]
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120, check=False
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"accel compile failed ({cc} rc={proc.returncode}): "
                f"{proc.stderr.strip()[:500]}"
            )
        os.replace(tmp_path, lib_path)
    finally:
        for path in (src_path, tmp_path):
            try:
                os.unlink(path)
            except OSError:
                pass


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    p = ctypes.c_void_p
    lib.repro_fixed_replay.restype = ctypes.c_longlong
    lib.repro_fixed_replay.argtypes = [p] * 13
    lib.repro_exec_replay.restype = ctypes.c_longlong
    lib.repro_exec_replay.argtypes = [p] * 21
    return lib


def load() -> Optional[ctypes.CDLL]:
    """The compiled kernel library, building it on first use.

    Returns ``None`` (and remembers the failure) when the accelerator
    is disabled or cannot be built on this host.
    """
    global _LIB, _FAILED
    if _LIB is not None:
        return _LIB
    if _FAILED or os.environ.get("REPRO_NO_ACCEL"):
        return None
    with _LOCK:
        if _LIB is not None or _FAILED:
            return _LIB
        digest = hashlib.sha256(C_SOURCE.encode("utf-8")).hexdigest()[:16]
        lib_path = os.path.join(_cache_dir(), f"kern-{digest}.so")
        try:
            if not os.path.exists(lib_path):
                _compile(lib_path)
            _LIB = _bind(ctypes.CDLL(lib_path))
        except Exception as exc:  # pragma: no cover - host-dependent
            _FAILED = True
            print(f"repro accel disabled: {exc}", file=sys.stderr)
            return None
    return _LIB


def available() -> bool:
    """Whether the batch-tier C kernels can run on this host."""
    return load() is not None


def _ptr(array) -> int:
    """Data pointer of a C-contiguous numpy array (0 for ``None``)."""
    return 0 if array is None else array.ctypes.data


def fixed_replay(conv, direct, sticky, nonsticky, income, dp, ip,
                 backup_cost, bit_sched, lane_sched, backup_ticks,
                 iout, dout) -> int:
    """Run the fixed-bit replay kernel; returns its status code."""
    lib = load()
    if lib is None:
        raise RuntimeError("accelerator unavailable")
    return int(
        lib.repro_fixed_replay(
            _ptr(conv), _ptr(direct), _ptr(sticky), _ptr(nonsticky),
            _ptr(income), _ptr(dp), _ptr(ip), _ptr(backup_cost),
            _ptr(bit_sched), _ptr(lane_sched), _ptr(backup_ticks),
            _ptr(iout), _ptr(dout),
        )
    )


def exec_replay(conv, direct, sticky, nonsticky, power_mw, tick_e,
                backup_raw, reserve_tab, dp, ip, bit_sched, lane_sched,
                backup_ticks, element_bits, frame_completed, frame_incid,
                frame_abandoned, exposures, unstarted, iout, dout) -> int:
    """Run the incidental-executive replay kernel; returns its status."""
    lib = load()
    if lib is None:
        raise RuntimeError("accelerator unavailable")
    return int(
        lib.repro_exec_replay(
            _ptr(conv), _ptr(direct), _ptr(sticky), _ptr(nonsticky),
            _ptr(power_mw), _ptr(tick_e), _ptr(backup_raw),
            _ptr(reserve_tab), _ptr(dp), _ptr(ip), _ptr(bit_sched),
            _ptr(lane_sched), _ptr(backup_ticks), _ptr(element_bits),
            _ptr(frame_completed), _ptr(frame_incid),
            _ptr(frame_abandoned), _ptr(exposures), _ptr(unstarted),
            _ptr(iout), _ptr(dout),
        )
    )
