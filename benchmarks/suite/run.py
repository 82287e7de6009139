"""The repository's benchmark: four workloads, end-to-end and per layer.

Usage (from the repository root)::

    python benchmarks/suite/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace [0|1]] [--out DIR] [--check] [--quick]

Each workload runs in its own fresh interpreter (``workloads.py``)
after an untimed step has built the ``_accel`` kernels. Set-up runs
three times per workload (two set-up-only interpreters plus the
measured one) and ``setup_s`` is their median. Every output is checked
bit-exactly; a wrong output makes the run exit 1.

Without ``--trace`` the last line of standard output is one JSON object
with the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1``
it carries the per-layer metrics instead, measured on alternating
traced operations. ``--out DIR`` also writes the long-format rows
(``rows.csv``) and, for traced runs, one merged Chrome trace per
workload. ``--check`` runs every workload twice, in alternating order,
and fails if any end-to-end median moved by more than its bound.
``--quick`` shrinks every workload to a smoke test with a 1 s window.
``--seconds`` sets the window; it defaults to ``run_seconds`` in
``BENCHMARK.json``.

All files the run creates go under ``.bench_build/`` in the checkout.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
BUILD = ROOT / ".bench_build"

#: Set-ups per workload; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Measured window of a ``--quick`` smoke run.
QUICK_SECONDS = 1.0
#: Wall-clock allowance of one workload interpreter beyond its window.
CHILD_GRACE_S = 150.0

HOST_FIELDS = ("seed", "trace", "nproc", "python", "numpy", "accel", "git_sha")


def _fail(message: str) -> int:
    print(f"run.py: error: {message}", file=sys.stderr)
    return 2


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(SUITE)])
    env["REPRO_ACCEL_CACHE"] = str(BUILD / "accel")
    env["TMPDIR"] = str(BUILD / "tmp")
    return env


def _spawn(args: List[str], timeout_s: float) -> int:
    """Run a suite interpreter in its own process group; reap the group.

    The service workload starts a server of its own; killing the whole
    group on the way out guarantees nothing outlives the run.
    """
    proc = subprocess.Popen(
        [sys.executable, *args], env=_env(), stdout=sys.stderr,
        start_new_session=True,
    )
    try:
        return proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args[0]} exceeded {timeout_s:.0f}s; killed", file=sys.stderr)
        return -1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool,
                 run_root: Path, chrome: Optional[Path]) -> Dict[str, object]:
    """Set-ups, one measured run and the checks of one workload."""
    import inputs
    import summary

    wdir = run_root / name
    wdir.mkdir(parents=True)
    inputs_path = wdir / "inputs.json"
    inputs_path.write_text(json.dumps(inputs.generate(name, seed, quick)))
    repeats = 1 if trace or quick else SETUP_REPEATS
    setups: List[float] = []
    result: Dict[str, object] = {}
    for k in range(repeats):
        run_dir = wdir / f"run-{k}"
        run_dir.mkdir()
        result_path = run_dir / "result.json"
        measured = k == repeats - 1
        args = [
            str(SUITE / "workloads.py"), "--workload", name,
            "--inputs", str(inputs_path), "--run-dir", str(run_dir),
            "--result", str(result_path), "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(int(trace)),
        ]
        if quick:
            args.append("--quick")
        if not measured:
            args.append("--setup-only")
        if chrome is not None and trace:
            args += ["--chrome-trace", str(chrome)]
        print(f"[suite] {name}: {'run' if measured else 'set-up'} {k + 1}/{repeats}",
              file=sys.stderr)
        code = _spawn([*args, "--t0", repr(time.perf_counter())], seconds + CHILD_GRACE_S)
        if code != 0 or not result_path.exists():
            raise RuntimeError(f"{name}: workload interpreter exited with {code}")
        result = json.loads(result_path.read_text())
        setups.append(float(result["setup_s"]))
    result["rows"] = list(result["rows"]) + [
        summary.row(name, "end_to_end", "setup_s", "s", setups, seed)
    ]
    return result


# -- output --------------------------------------------------------------------------


def _fmt(value: float) -> str:
    if value == 0 or 1e-3 <= abs(value) < 1e6:
        return f"{value:.4g}" if abs(value) < 1000 else f"{value:.0f}"
    return f"{value:.3e}"


def print_workload(result: Dict[str, object], trace: bool) -> None:
    name = result["workload"]
    print(f"\n== {name}: {result['attempted']} attempted, {result['failed']} failed"
          f" (accel {'on' if result['accel'] else 'off'})")
    for error in result["errors"]:
        print(f"   FAILED: {error}")
    if result["untraced"]:
        print(f"   not traced (no longer in the program): {', '.join(result['untraced'])}")
    rows = [r for r in result["rows"] if r["metric"] != "table.self_ms"]
    width = max(len(r["metric"]) for r in rows)
    print(f"   {'metric':<{width}}  {'median':>10} {'unit':<8} {'n':>6}  "
          f"{'q1':>10} {'q3':>10}  95% CI of median")
    for r in rows:
        print(f"   {r['metric']:<{width}}  {_fmt(r['median']):>10} {r['unit']:<8} "
              f"{r['n']:>6}  {_fmt(r['q1']):>10} {_fmt(r['q3']):>10}  "
              f"[{_fmt(r['ci_lo'])}, {_fmt(r['ci_hi'])}]")
    table = [r for r in result["rows"] if r["metric"] == "table.self_ms"]
    if trace and table:
        table.sort(key=lambda r: -r["share_pct"])
        print(f"\n   {'layer (self time per op)':<26} {'p50 ms':>9} {'share':>7} {'calls/op':>9}")
        for r in table:
            print(f"   {r['layer']:<26} {_fmt(r['median']):>9} "
                  f"{r['share_pct']:>6.1f}% {_fmt(r['calls']):>9}")
        print(f"   {'sum':<26} {'':>9} {sum(r['share_pct'] for r in table):>6.1f}%")


def host_facts(seed: int, trace: bool) -> Dict[str, object]:
    import numpy

    sha = ""
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        sha = done.stdout.strip()
    return {"seed": seed, "trace": int(trace), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_sha": sha}


def write_rows(path: Path, results: List[Dict[str, object]], facts: Dict[str, object]) -> None:
    import summary

    new = not path.exists()
    with open(path, "a", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=summary.ROW_FIELDS + HOST_FIELDS,
                                extrasaction="ignore")
        if new:
            writer.writeheader()
        for result in results:
            for r in result["rows"]:
                writer.writerow({**r, **facts, "accel": result["accel"]})


def metric_values(result: Dict[str, object], specs: List[Dict[str, object]]) -> Dict[str, Dict]:
    """The median of every metric named in ``specs``, with its unit."""
    by_name = {r["metric"]: r for r in result["rows"]}
    out = {}
    for spec in specs:
        r = by_name.get(spec["name"])
        if r is None:
            raise RuntimeError(f"{result['workload']} did not report {spec['name']}")
        if r["unit"] != spec["unit"]:
            raise RuntimeError(f"{spec['name']} is in {r['unit']}, BENCHMARK.json says {spec['unit']}")
        out[spec["name"]] = {"value": r["median"], "unit": r["unit"]}
    return out


# -- modes ---------------------------------------------------------------------------


def check(workloads: List[str], bench: Dict[str, object], args, run_root: Path) -> int:
    """Two sets in alternating order; every end-to-end median within bound."""
    sets: List[Dict[str, Dict]] = [{}, {}]
    for s, order in enumerate((workloads, workloads[::-1])):
        for name in order:
            sets[s][name] = run_workload(name, args.seed, args.seconds, False,
                                         args.quick, run_root / f"set-{s}", None)
    failed = 0
    print(f"{'workload':<14} {'metric':<16} {'set 1 median [q1, q3]':>30} "
          f"{'set 2 median [q1, q3]':>30} {'diff':>8} {'bound':>6}")
    for name in workloads:
        rows = [{r["metric"]: r for r in sets[s][name]["rows"]} for s in (0, 1)]
        failed += sum(sets[s][name]["failed"] for s in (0, 1))
        for spec in bench["end_to_end"]:
            a, b = rows[0][spec["name"]], rows[1][spec["name"]]
            diff = (b["median"] - a["median"]) / a["median"]
            ok = abs(diff) <= spec["bound"]
            failed += not ok
            cells = [f"{_fmt(r['median'])} [{_fmt(r['q1'])}, {_fmt(r['q3'])}]" for r in (a, b)]
            print(f"{name:<14} {spec['name']:<16} {cells[0]:>30} {cells[1]:>30} "
                  f"{diff * 100:>7.1f}% {spec['bound'] * 100:>5.0f}%{'' if ok else '  FAIL'}")
    print(json.dumps({"check": "fail" if failed else "pass"}))
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", default=None,
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 is the paper's calibrated input")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window per workload (default: run_seconds in "
                             f"BENCHMARK.json, or {QUICK_SECONDS:g} with --quick)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="report per-layer metrics from traced operations")
    parser.add_argument("--out", type=Path, default=None,
                        help="write rows.csv (and Chrome traces) into this directory")
    parser.add_argument("--check", action="store_true",
                        help="run two alternating sets and compare them against the bounds")
    parser.add_argument("--quick", action="store_true", help="tiny inputs (smoke test)")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        return _fail(f"no package source at {SRC / 'repro'}")
    if not BENCHMARK.is_file():
        return _fail(f"missing {BENCHMARK}")
    bench = json.loads(BENCHMARK.read_text())
    known = [w["name"] for w in bench["workloads"]]
    workloads = args.workload or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        return _fail(f"unknown workload(s) {unknown}; expected some of {known}")
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else float(bench["run_seconds"])
    sys.path[:0] = [str(SRC), str(SUITE)]

    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    run_root = BUILD / "suite" / f"run-{os.getpid()}"
    if _spawn([str(SUITE / "workloads.py"), "--prewarm"], 600.0) != 0:
        print("run.py: the _accel kernels are unavailable; batch tiers fall back",
              file=sys.stderr)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    try:
        if args.check:
            return check(workloads, bench, args, run_root)
        results = []
        for name in workloads:
            chrome = args.out / f"trace-{name}.json" if args.out is not None else None
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace),
                                        args.quick, run_root, chrome))
    except RuntimeError as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(run_root, ignore_errors=True)

    for result in results:
        print_workload(result, bool(args.trace))
    if args.out is not None:
        write_rows(args.out / "rows.csv", results, host_facts(args.seed, bool(args.trace)))

    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics: Dict[str, Dict] = {}
    try:
        for result in results:
            values = metric_values(result, specs)
            prefix = "" if len(results) == 1 else f"{result['workload']}."
            metrics.update({prefix + k: v for k, v in values.items()})
    except RuntimeError as exc:
        return _fail(str(exc))
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
