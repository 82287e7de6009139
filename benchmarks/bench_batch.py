"""Batch-tier perf snapshot: one ragged array program per grid.

Times the two paper grids the batch tier was built for, each two ways:

1. ``parallel`` — ``run_grid(workers=N)`` /
   ``run_executive_grid(workers=N)`` with the batch tier disabled:
   every task replays as its own one-lane plan through the same C
   kernels, fanned out over the process pool;
2. ``batch`` — the same grid replayed through the compiled batch
   kernels (:mod:`repro.system.batchsim` / :mod:`repro.core.batchexec`)
   as one ragged plan, in one in-process pass.

Grids:

* **fig15** — the fixed-bit retention sweep (profiles x bitwidths,
  median kernel);
* **fig24** — the incidental-executive pragma sweep (retention policy
  x profile, median kernel).

Both timed paths run the same kernels, so neither can vouch for the
other: every lane of both is checked field-for-field against the
per-tick reference loop (``task.run(engine="reference")``, untimed)
before any number is reported (``bit_exact`` in the JSON is asserted,
not assumed). Results land in ``BENCH_batch.json``;
CI runs ``--quick`` and requires ``bit_exact: true``. The full run
exits nonzero if either grid's batch speedup falls below the 5x
acceptance bar.

Usage::

    PYTHONPATH=src python benchmarks/bench_batch.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_batch.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import time

from repro import __version__, _accel
from repro.analysis import engine

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _fig15_spec(quick: bool) -> engine.GridSpec:
    if quick:
        return engine.GridSpec(
            profile_ids=(1, 2), bits=(8, 4, 1), kernels=("median",), duration_s=2.0
        )
    return engine.GridSpec(
        profile_ids=(1, 2, 3, 4, 5),
        bits=(8, 7, 6, 5, 4, 3, 2, 1),
        kernels=("median",),
        duration_s=10.0,
    )


def _fig24_tasks(quick: bool):
    policies = ("linear", "log", "parabola")
    profiles = (1, 2) if quick else (1, 2, 3, 4, 5)
    duration = 2.0 if quick else 10.0
    return [
        engine.ExecutiveTask(
            kernel="median",
            policy=policy,
            profile_id=pid,
            minbits=4,
            duration_s=duration,
        )
        for policy in policies
        for pid in profiles
    ]


def _time_fixed(spec, workers: int, batch: bool):
    engine.reset()
    engine.configure(use_cache=False)
    t0 = time.perf_counter()
    grid = engine.run_grid(
        spec, workers=1 if batch else workers, cache=None, batch=batch
    )
    return grid, time.perf_counter() - t0


def _time_executive(tasks, workers: int, batch: bool):
    engine.reset()
    engine.configure(use_cache=False)
    t0 = time.perf_counter()
    grid = engine.run_executive_grid(
        tasks, workers=1 if batch else workers, cache=None, batch=batch
    )
    return grid, time.perf_counter() - t0


def run_benchmark(workers: int, quick: bool) -> dict:
    if not _accel.available():
        raise SystemExit("batch accelerator unavailable on this host")

    fig15 = _fig15_spec(quick)
    fig24 = _fig24_tasks(quick)
    # Warm trace synthesis, the accelerator build and the lane-cost
    # tables so every timed phase pays for simulation only.
    for task in fig15.tasks():
        task.build_trace()
    for task in fig24:
        task.build_trace()
    from repro.core import batchexec

    batchexec._tuple_tables()

    par15, par15_s = _time_fixed(fig15, workers, batch=False)
    bat15, bat15_s = _time_fixed(fig15, workers, batch=True)
    par24, par24_s = _time_executive(fig24, workers, batch=False)
    bat24, bat24_s = _time_executive(fig24, workers, batch=True)

    mismatches = []
    for task, bat, par in zip(fig15.tasks(), bat15.results, par15.results):
        ref = task.run(engine="reference")
        for label, got in (("batch", bat), ("parallel", par)):
            if not engine.simulation_results_equal(got, ref):
                mismatches.append(f"fig15 {label} {task}")
    for task, bat, par in zip(fig24, bat24.results, par24.results):
        ref = task.run(engine="reference")
        for label, got in (("batch", bat), ("parallel", par)):
            if not engine.executive_results_equal(got, ref):
                mismatches.append(f"fig24 {label} {task}")
    if mismatches:
        raise AssertionError(
            "diverged from the reference loop on: " + "; ".join(mismatches)
        )

    return {
        "benchmark": "batched grid replay vs per-task parallel path",
        "version": __version__,
        "python": platform.python_version(),
        "quick": quick,
        "workers": workers,
        "fig15_tasks": len(fig15.tasks()),
        "fig24_tasks": len(fig24),
        "fig15_parallel_s": round(par15_s, 3),
        "fig15_batch_s": round(bat15_s, 3),
        "fig15_speedup": round(par15_s / bat15_s, 2),
        "fig24_parallel_s": round(par24_s, 3),
        "fig24_batch_s": round(bat24_s, 3),
        "fig24_speedup": round(par24_s / bat24_s, 2),
        "bit_exact": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small grids, short traces (CI smoke)"
    )
    parser.add_argument(
        "--workers", type=int, default=4, help="process count for the parallel phases"
    )
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "BENCH_batch.json"),
        help="where to write the JSON snapshot",
    )
    args = parser.parse_args(argv)

    snapshot = run_benchmark(workers=args.workers, quick=args.quick)
    out = pathlib.Path(args.output)
    out.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(json.dumps(snapshot, indent=2))
    print(f"\nwrote {out}")
    if not args.quick and (
        snapshot["fig15_speedup"] < 5.0 or snapshot["fig24_speedup"] < 5.0
    ):
        print("WARNING: batch speedup below the 5x acceptance bar")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
