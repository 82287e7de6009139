"""Check that an in-process fleet run holds little beyond its results.

Runs the default 1000-device fleet (1 s traces, fleet seed 0) through
``run_fleet`` in this process (``workers=1``, the campaign service's
default) with the result cache off, and reads this process's peak RSS
(``VmHWM``) before and after. The run has to keep every device's
result, whose bit and lane schedules take 4 bytes per simulated tick;
anything else it holds at its peak (traces, batch plans, scratch) must
fit in a fixed allowance. The script fails if ``VmHWM`` grew by more
than the schedules' bytes plus :data:`ALLOWANCE_MIB`::

    PYTHONPATH=src python scripts/fleet_memory.py

Linux only: it reads ``/proc/self/status``. It needs the batch tier's
compiled kernels, which it builds (or loads) before the baseline.
"""

import re
import time
from pathlib import Path

from repro import _accel
from repro.analysis import engine
from repro.fleet import FleetSpec, run_fleet

SPEC = FleetSpec(n_devices=1000, seed=0, duration_s=1.0)
ALLOWANCE_MIB = 64.0
MIB = 1024.0 * 1024.0


def vm_hwm_mib():
    """Peak resident set size of this process, in MiB."""
    status = Path("/proc/self/status").read_text()
    return int(re.search(r"^VmHWM:\s+(\d+) kB", status, re.M).group(1)) / 1024.0


def main():
    if not _accel.available():
        raise SystemExit("the batch kernels did not build; nothing to check")
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


if __name__ == "__main__":
    main()
