"""Benchmarks for the headline results: Figures 26-28, Table 2, Section 7.

Besides the pytest-style artifact checks below, this module doubles as
the incidental-executive perf snapshot (the executive twin of
``bench_engine.py``). It times the Figure 24 + Figure 28 executive
sweep three ways:

1. ``serial_reference`` — the per-tick :class:`IncidentalExecutive`
   loop, one task at a time (the pre-engine baseline);
2. ``vectorized`` — ``run_executive_grid(workers=1)``: the whole
   grid replayed by the batched C kernel of :mod:`repro.core.batchexec`
   in one process (on a host without a C compiler, the reference loop
   again);
3. ``parallel`` — the same grid through
   ``run_executive_grid(workers=N)`` with a cold on-disk cache, then
   re-run warm (``warm_cache_s``).

The JSON keys keep their names so ``BENCH_incidental.json`` stays
comparable with older snapshots.

Every configuration's fast-path result is checked field-for-field
against the reference before the numbers are reported, so the snapshot
can never be "fast but wrong". The memoised post-hoc quality replay is
timed cold and warm as well. Results land in ``BENCH_incidental.json``
(same shape as ``BENCH_engine.json``); CI runs ``--quick``.

Usage::

    PYTHONPATH=src python benchmarks/bench_incidental.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_incidental.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_incidental.py --workers 8
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import tempfile
import time

from repro import __version__
from repro.analysis import engine
from repro.analysis import experiments as E

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_fig27_recomputation(run_once, record_artifact):
    """Figures 26-27: quality vs recompute-and-combine passes."""
    result = run_once(E.fig27_recomputation)
    record_artifact(result)
    for minbits, series in result.data["psnr"].items():
        assert series[-1] >= series[0], f"minbits={minbits}"


def test_table2_qos(run_once, record_artifact):
    """Table 2: the fine-tuned incidental policies vs QoS targets."""
    result = run_once(E.table2_qos)
    record_artifact(result)
    for name, record in result.data.items():
        assert record["met"], name


def test_fig28_overall_gain(run_once, record_artifact):
    """Figure 28: incidental FP gain, ten kernels x five profiles.

    The paper reports a 4.28x average; our calibrated behavioural
    platform lands in the high-3x band with the same per-kernel spread
    (see EXPERIMENTS.md).
    """
    result = run_once(E.fig28_overall_gain)
    record_artifact(result)
    assert result.data["average"] > 2.5
    for kernel, gains in result.data["per_kernel"].items():
        for gain in gains:
            assert gain > 1.5, kernel


def test_sec7_frame_rates(run_once, record_artifact):
    """Section 7: per-frame time of the three execution paradigms."""
    result = run_once(E.sec7_frame_rates)
    record_artifact(result)
    for kernel, (wait_s, nvp_s, incidental_s) in result.data["rates"].items():
        assert wait_s > nvp_s > incidental_s, kernel


def test_jpeg_frame_qos(run_once, record_artifact):
    """Table 2's JPEG accounting: frames meeting the 150% size target."""
    result = run_once(E.jpeg_frame_qos)
    record_artifact(result)
    for fraction in result.data["fractions"].values():
        assert fraction >= 0.9


def test_fig28_seed_robustness(run_once, record_artifact):
    """The headline gain holds across re-rolled harvester traces."""
    result = run_once(E.fig28_seed_robustness)
    record_artifact(result)
    assert result.data["mean"] > 2.0
    assert result.data["std"] < 0.5 * result.data["mean"]


# -- executive perf snapshot (python benchmarks/bench_incidental.py) -----------


def _sweep_tasks(quick: bool) -> list:
    """The fig24 + fig28 executive sweep (trimmed for --quick)."""
    duration_s = 2.0 if quick else 10.0
    fig24_profiles = (1, 2) if quick else (1, 2, 3)
    fig28_profiles = (1, 2) if quick else (1, 2, 3, 4, 5)
    fig28_kernels = ("median",) if quick else ("median", "sobel", "fft")
    tasks = [
        engine.ExecutiveTask(
            kernel="median",
            policy=policy,
            profile_id=pid,
            minbits=4,
            duration_s=duration_s,
            frame_size=12,
            frame_period_ticks=15_000,
            retention_time_scale=E.RETENTION_TIME_SCALE,
        )
        for policy in ("linear", "log", "parabola")
        for pid in fig24_profiles
    ]
    tasks += [
        engine.ExecutiveTask(
            kernel=kernel,
            policy="linear",
            profile_id=pid,
            minbits=3,
            duration_s=duration_s,
            frame_size=16,
            frame_period_ticks=2_500,
            retention_time_scale=E.RETENTION_TIME_SCALE,
        )
        for kernel in fig28_kernels
        for pid in fig28_profiles
    ]
    return tasks


def run_benchmark(workers: int, quick: bool) -> dict:
    tasks = _sweep_tasks(quick)
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
    vectorized = engine.run_executive_grid(tasks, workers=1, cache=None)
    vectorized_s = time.perf_counter() - t0

    mismatches = [
        str(task)
        for task, ref, fast in zip(tasks, reference, vectorized.results)
        if not engine.executive_results_equal(ref, fast)
    ]
    if mismatches:
        raise AssertionError(
            "fast executive diverged from the reference on: "
            + "; ".join(mismatches)
        )

    with tempfile.TemporaryDirectory() as cache_dir:
        engine.reset()
        engine.configure(cache_dir=cache_dir)
        t0 = time.perf_counter()
        parallel = engine.run_executive_grid(tasks, workers=workers)
        parallel_s = time.perf_counter() - t0

        # Quality replay: cold, then served from the per-tuple memo.
        t0 = time.perf_counter()
        quality_cold = [
            engine.executive_frame_quality(task, result, min_coverage=0.999)
            for task, result in parallel
        ]
        quality_cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        quality_warm = [
            engine.executive_frame_quality(task, result, min_coverage=0.999)
            for task, result in parallel
        ]
        quality_warm_s = time.perf_counter() - t0
        if quality_cold != quality_warm:
            raise AssertionError("memoised quality replay diverged")

        # Warm rerun: in-process memo dropped, every result served from
        # the content-addressed on-disk cache.
        engine.clear_memory_cache()
        t0 = time.perf_counter()
        warm = engine.run_executive_grid(tasks, workers=workers)
        warm_cache_s = time.perf_counter() - t0

    if not vectorized.equal(parallel):
        raise AssertionError("parallel grid diverged from the serial grid")
    if not parallel.equal(warm):
        raise AssertionError("warm-cache grid diverged from the cold grid")

    return {
        "benchmark": "incidental executive sweep (fig24 + fig28 grids)",
        "version": __version__,
        "python": platform.python_version(),
        "quick": quick,
        "tasks": len(tasks),
        "workers": workers,
        "serial_reference_s": round(serial_reference_s, 3),
        "vectorized_s": round(vectorized_s, 3),
        "parallel_s": round(parallel_s, 3),
        "warm_cache_s": round(warm_cache_s, 3),
        "quality_cold_s": round(quality_cold_s, 3),
        "quality_warm_s": round(quality_warm_s, 3),
        "speedup_vectorized": round(serial_reference_s / vectorized_s, 2),
        "speedup_parallel": round(serial_reference_s / parallel_s, 2),
        "speedup_warm_cache": round(serial_reference_s / warm_cache_s, 2),
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
        default=str(REPO_ROOT / "BENCH_incidental.json"),
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
