"""Check that a fleet run holds little beyond its results, in process
and in the process pool's workers.

Runs the default 1000-device fleet (1 s traces, fleet seed 0) through
``run_fleet`` with the result cache off, twice:

* in this process (``workers=1``, the campaign service's default),
  reading this process's peak RSS (``VmHWM``) before and after. The
  run has to keep every device's result, whose bit and lane schedules
  take 4 bytes per simulated tick; anything else it holds at its peak
  (traces, batch plans, scratch) must fit in a fixed allowance. This
  check fails if ``VmHWM`` grew by more than the schedules' bytes plus
  :data:`ALLOWANCE_MIB`;
* at ``workers=2`` in a fresh process, so that neither run's peak
  hides the other's. Each pool worker, forked from that process,
  replays its chunks and sends their results back. This check fails if
  the largest worker's peak RSS (``ru_maxrss`` of ``RUSAGE_CHILDREN``)
  exceeds that process's ``VmHWM`` after import by more than
  :data:`POOL_ALLOWANCE_MIB`.

::

    PYTHONPATH=src python scripts/fleet_memory.py

Linux only: it reads ``/proc/self/status``. It needs the batch tier's
compiled kernels, which it builds (or loads) before each baseline.
"""

import multiprocessing
import re
import resource
import time
from pathlib import Path

from repro import _accel
from repro.analysis import engine
from repro.fleet import FleetSpec, run_fleet

SPEC = FleetSpec(n_devices=1000, seed=0, duration_s=1.0)
ALLOWANCE_MIB = 64.0
#: What a pool worker may hold at its peak beyond the process it was
#: forked from: its trace memo, one slot's trace and plan, its chunk's
#: results and the pickled form they travel back in. Sending each
#: result's schedules as runs keeps the largest worker about 12 MiB
#: above its parent's VmHWM after import; pickled per tick, they took
#: it 38 MiB above.
POOL_ALLOWANCE_MIB = 24.0
MIB = 1024.0 * 1024.0


def vm_hwm_mib():
    """Peak resident set size of this process, in MiB."""
    status = Path("/proc/self/status").read_text()
    return int(re.search(r"^VmHWM:\s+(\d+) kB", status, re.M).group(1)) / 1024.0


def in_process_check():
    engine.configure(workers=1, use_cache=False)
    baseline = vm_hwm_mib()
    t0 = time.perf_counter()
    fleet = run_fleet(SPEC, workers=1)
    wall_s = time.perf_counter() - t0
    peak = vm_hwm_mib()
    schedules = sum(
        r.bit_schedule.nbytes + r.lane_schedule.nbytes for r in fleet.results
    ) / MIB
    ticks = sum(r.total_ticks for r in fleet.results)
    growth = peak - baseline
    bound = schedules + ALLOWANCE_MIB
    print(
        f"VmHWM {baseline:.1f} MiB after import, {peak:.1f} MiB after "
        f"{len(fleet.results)} devices ({ticks} ticks, {wall_s:.1f} s): grew "
        f"{growth:.1f} MiB; bound {bound:.1f} MiB = {schedules:.1f} MiB of "
        f"schedules + {ALLOWANCE_MIB:g} MiB"
    )
    if growth > bound:
        raise SystemExit(
            f"VmHWM grew {growth - bound:.1f} MiB more than the fleet's "
            "schedules plus the allowance"
        )


def pooled_check():
    """Run the fleet at ``workers=2`` and bound its largest worker."""
    # A spawned process defaults to spawning its own children; fork the
    # pool's workers, as on any Linux caller.
    multiprocessing.set_start_method("fork", force=True)
    _accel.available()
    engine.configure(workers=2, use_cache=False)
    baseline = vm_hwm_mib()
    t0 = time.perf_counter()
    fleet = run_fleet(SPEC, workers=2)
    wall_s = time.perf_counter() - t0
    # The pool has shut down and its workers are reaped, so their peaks
    # are in RUSAGE_CHILDREN (ru_maxrss is the largest one, in KiB).
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    growth = worker - baseline
    print(
        f"VmHWM {baseline:.1f} MiB after import, {vm_hwm_mib():.1f} MiB after "
        f"{len(fleet.results)} devices at workers=2 ({wall_s:.1f} s); the "
        f"largest pool worker peaked at {worker:.1f} MiB (+{growth:.1f} MiB; "
        f"allowance {POOL_ALLOWANCE_MIB:g} MiB)"
    )
    if growth > POOL_ALLOWANCE_MIB:
        raise SystemExit(
            f"a pool worker peaked {growth - POOL_ALLOWANCE_MIB:.1f} MiB above "
            "its parent's VmHWM after import plus the allowance"
        )


def main():
    if not _accel.available():
        raise SystemExit("the batch kernels did not build; nothing to check")
    in_process_check()
    pooled = multiprocessing.get_context("spawn").Process(target=pooled_check)
    pooled.start()
    pooled.join()
    if pooled.exitcode != 0:
        raise SystemExit(f"the pooled check failed (exit code {pooled.exitcode})")


if __name__ == "__main__":
    main()
