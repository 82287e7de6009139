"""Engine perf snapshot: serial reference vs vectorized vs parallel.

Times the fixed-bit profile sweep (the Figure 15/16 grid: profiles x
bitwidths, median kernel) three ways:

1. ``serial_reference`` — the per-tick :class:`NVPSystemSimulator`
   loop, one task at a time (the pre-engine baseline);
2. ``vectorized`` — ``run_grid(workers=1)``: the whole grid replayed
   by the batched C kernel of :mod:`repro.system.batchsim` in one
   process (on a host without a C compiler, the reference loop again);
3. ``parallel`` — the same grid through ``run_grid(workers=N)``.

The JSON keys keep their names so ``BENCH_engine.json`` stays
comparable with older snapshots.

Every configuration's fast-path result is checked field-for-field
against the reference before the numbers are reported, so the snapshot
can never be "fast but wrong". Results land in ``BENCH_engine.json``
(repo root by default) so future PRs have a trajectory to beat; CI runs
``--quick`` as a smoke test.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_engine.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_engine.py --workers 8
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import time

from repro import __version__
from repro.analysis import engine

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _sweep_spec(quick: bool) -> engine.GridSpec:
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


def run_benchmark(workers: int, quick: bool) -> dict:
    spec = _sweep_spec(quick)
    tasks = spec.tasks()
    # Warm the per-process trace memo so every timed phase pays for
    # simulation, not trace synthesis.
    for task in tasks:
        task.build_trace()

    engine.reset()
    t0 = time.perf_counter()
    reference = [task.run(engine="reference") for task in tasks]
    serial_reference_s = time.perf_counter() - t0

    engine.reset()
    t0 = time.perf_counter()
    vectorized = engine.run_grid(spec, workers=1, cache=None)
    vectorized_s = time.perf_counter() - t0

    engine.reset()
    t0 = time.perf_counter()
    parallel = engine.run_grid(spec, workers=workers, cache=None)
    parallel_s = time.perf_counter() - t0

    mismatches = [
        str(task)
        for task, ref, fast in zip(tasks, reference, vectorized.results)
        if not engine.simulation_results_equal(ref, fast)
    ]
    if mismatches:
        raise AssertionError(
            "fast path diverged from the reference on: " + "; ".join(mismatches)
        )
    if not vectorized.equal(parallel):
        raise AssertionError("parallel grid diverged from the serial grid")

    return {
        "benchmark": "fixed-bit profile sweep (fig15/fig16 grid)",
        "version": __version__,
        "python": platform.python_version(),
        "quick": quick,
        "tasks": len(tasks),
        "workers": workers,
        "serial_reference_s": round(serial_reference_s, 3),
        "vectorized_s": round(vectorized_s, 3),
        "parallel_s": round(parallel_s, 3),
        "speedup_vectorized": round(serial_reference_s / vectorized_s, 2),
        "speedup_parallel": round(serial_reference_s / parallel_s, 2),
        "bit_exact": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small grid, short traces (CI smoke)"
    )
    parser.add_argument(
        "--workers", type=int, default=4, help="process count for the parallel phase"
    )
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "BENCH_engine.json"),
        help="where to write the JSON snapshot",
    )
    args = parser.parse_args(argv)

    snapshot = run_benchmark(workers=args.workers, quick=args.quick)
    out = pathlib.Path(args.output)
    out.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(json.dumps(snapshot, indent=2))
    print(f"\nwrote {out}")
    if not args.quick and snapshot["speedup_parallel"] < 5.0:
        print("WARNING: parallel speedup below the 5x acceptance bar")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
