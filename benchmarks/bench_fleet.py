"""Fleet-scale perf snapshot: chunk-sharded batch tier vs the field.

Times one heterogeneous fleet (mostly ~1s sensor windows plus a small
band of long-horizon gateway devices) three ways:

1. ``parallel`` — the per-task fast path fanned out over
   ``run_grid(workers=N, batch=False)`` (the pre-batch-tier baseline);
2. ``single_chunk`` — the batch tier with both chunk budgets removed,
   so every lane lands in ONE ragged plan replayed in process: the
   whole fleet's ticks in one plan, with no pool;
3. ``chunked`` — the chunk-sharded batch tier with default budgets,
   dispatched across the process pool in tick-balanced chunks.

Every chunked lane is checked field-for-field against both the
per-task grid and the single-chunk grid before any number is reported,
and a sample of devices is re-simulated directly through
``FleetDeviceTask.run()`` (``bit_exact`` in the JSON is asserted, not
assumed). Results land in ``BENCH_fleet.json``; CI runs ``--quick``
and requires ``bit_exact: true``. The full run exits nonzero if the
chunked tier misses the 3x-vs-parallel or 1.5x-vs-single-chunk bars.

Usage::

    PYTHONPATH=src python benchmarks/bench_fleet.py            # full fleet
    PYTHONPATH=src python benchmarks/bench_fleet.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import time

from repro import __version__, _accel
from repro.analysis import engine
from repro.fleet import DEFAULT_ARCHETYPES, FleetArchetype, FleetSpec
from repro.system import batchsim

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _fleet_spec(quick: bool) -> FleetSpec:
    """A mostly-short fleet with a long-horizon gateway tail.

    The gateway archetype (~2% of devices) runs a much longer window
    than the sensor archetypes: a few devices hold a large share of
    the fleet's ticks, which is what chunk balancing has to even out,
    and the realistic shape of deployed fleets.
    """
    gateway = FleetArchetype(
        name="rf-gateway",
        mode="rf",
        weight=0.02,
        capacitor_uj=9.0,
        capacitor_spread=0.1,
        scale_sigma=0.1,
        duration_s=8.0 if quick else 30.0,
    )
    return FleetSpec(
        n_devices=120 if quick else 1000,
        seed=2026,
        duration_s=0.5 if quick else 1.0,
        archetypes=DEFAULT_ARCHETYPES + (gateway,),
    )


def _time_grid(tasks, workers: int, batch: bool, chunk_lanes=None, chunk_bytes=None):
    engine.reset()
    engine.configure(
        use_cache=False,
        batch_chunk_lanes=chunk_lanes,
        batch_chunk_bytes=chunk_bytes,
    )
    t0 = time.perf_counter()
    grid = engine.run_grid(tasks, workers=workers, cache=None, batch=batch)
    return grid, time.perf_counter() - t0


def run_benchmark(workers: int, quick: bool) -> dict:
    if not _accel.available():
        raise SystemExit("batch accelerator unavailable on this host")

    spec = _fleet_spec(quick)
    tasks = spec.tasks()
    lengths = [task.trace_ticks() for task in tasks]
    long_cut = max(spec.duration_s, 1.0) * 2
    n_long = sum(1 for task in tasks if task.duration_s > long_cut)

    # Warm trace synthesis, the accelerator build and the lane-cost
    # tables so every timed phase pays for simulation only.
    for task in tasks:
        task.build_trace()
    _time_grid(tasks[:2], workers=1, batch=True)

    parallel, parallel_s = _time_grid(tasks, workers, batch=False)
    single, single_s = _time_grid(
        tasks, workers=1, batch=True, chunk_lanes=0, chunk_bytes=0
    )
    chunked, chunked_s = _time_grid(tasks, workers=workers, batch=True)

    mismatches = []
    for task, c, p, s in zip(tasks, chunked.results, parallel.results, single.results):
        if not engine.simulation_results_equal(c, p):
            mismatches.append(f"chunked vs parallel: device {task.device_id}")
        if not engine.simulation_results_equal(c, s):
            mismatches.append(f"chunked vs single-chunk: device {task.device_id}")
    # Anchor a sample against the direct (non-grid) simulation path too.
    step = max(1, len(tasks) // 5)
    for task, c in list(zip(tasks, chunked.results))[::step]:
        if not engine.simulation_results_equal(c, task.run()):
            mismatches.append(f"chunked vs direct run: device {task.device_id}")
    if mismatches:
        raise AssertionError(
            "chunked batch tier diverged on: " + "; ".join(mismatches[:10])
        )

    keys = [task.trace_signature() for task in tasks]
    chunks = batchsim.chunk_lane_indices(
        lengths,
        keys=keys,
        max_lanes=int(engine._CONFIG["batch_chunk_lanes"]) or None,
        max_bytes=int(engine._CONFIG["batch_chunk_bytes"]) or None,
        workers=workers,
    )

    def plan_bytes(lanes) -> int:
        slot_ticks = {keys[i]: lengths[i] for i in lanes}
        return batchsim.estimate_plan_bytes(list(slot_ticks.values()))

    peak_chunk_bytes = max(plan_bytes(chunk) for chunk in chunks)

    return {
        "benchmark": "fleet chunk-sharded batch tier vs parallel and single-chunk",
        "version": __version__,
        "python": platform.python_version(),
        "quick": quick,
        "workers": workers,
        "devices": len(tasks),
        "long_devices": n_long,
        "chunks": len(chunks),
        "single_plan_mb": round(plan_bytes(range(len(tasks))) / 1e6, 1),
        "peak_chunk_plan_mb": round(peak_chunk_bytes / 1e6, 1),
        "parallel_s": round(parallel_s, 3),
        "single_chunk_s": round(single_s, 3),
        "chunked_s": round(chunked_s, 3),
        "speedup_vs_parallel": round(parallel_s / chunked_s, 2),
        "speedup_vs_single_chunk": round(single_s / chunked_s, 2),
        "bit_exact": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small fleet, short windows (CI smoke)"
    )
    parser.add_argument(
        "--workers", type=int, default=4, help="process count for the pooled phases"
    )
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "BENCH_fleet.json"),
        help="where to write the JSON snapshot",
    )
    args = parser.parse_args(argv)

    snapshot = run_benchmark(workers=args.workers, quick=args.quick)
    out = pathlib.Path(args.output)
    out.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(json.dumps(snapshot, indent=2))
    print(f"\nwrote {out}")
    if not args.quick and (
        snapshot["speedup_vs_parallel"] < 3.0
        or snapshot["speedup_vs_single_chunk"] < 1.5
    ):
        print("WARNING: chunked fleet speedup below the acceptance bars")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
