"""Tests of the benchmark suite itself: ``pytest benchmarks/suite``."""

from __future__ import annotations

import hashlib
import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(SUITE)]

import inputs  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import summary  # noqa: E402
from repro import _accel  # noqa: E402
from repro.analysis import engine  # noqa: E402


# -- the percentile rule ----------------------------------------------------------


@pytest.mark.parametrize(
    "n, level",
    [(0, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, level):
    assert summary.tail_level(n) == level


def test_latency_rows_report_no_tail_below_forty_samples():
    rows = summary.latency_rows("w", "latency_ms", [1.0] * 24, seed=0)
    assert [r["metric"] for r in rows] == ["latency_ms_p50"]
    rows = summary.latency_rows("w", "latency_ms", list(range(1000)), seed=0)
    assert [r["metric"] for r in rows] == ["latency_ms_p50", "latency_ms_p99"]


def test_bootstrap_interval_is_seeded():
    values = [float(v % 17) for v in range(300)]
    assert summary.describe(values, seed=3) == summary.describe(values, seed=3)
    low, high = summary.bootstrap_median_ci(values, seed=3)
    assert low <= summary.describe(values)["median"] <= high


# -- self-time arithmetic -----------------------------------------------------------


def _span(name, start, end, pid=1, tid=1, parent=None, rid="r", sid=None):
    return spans.Span(sid or f"{name}@{start}", name, float(start), float(end),
                      parent=parent, rid=rid, pid=pid, tid=tid)


def test_self_time_subtracts_the_union_of_nested_and_overlapping_children():
    root = _span("op", 0, 10, sid="root")
    a = _span("a", 1, 4, parent="root", sid="a")
    a1 = _span("a1", 2, 3, parent="a", sid="a1")
    # Two children in other processes, overlapping each other.
    b = _span("b", 5, 9, pid=2)
    c = _span("c", 6, 8, pid=3)
    (tree,) = layers.build_trees([root, a, a1, b, c])
    assert tree.parent[b.id] == "root" and tree.parent[c.id] == "root"
    times = layers.self_times(tree)
    # root: 10 minus the union of [1,4] and [5,9]
    assert times[layers.OTHER] == pytest.approx(3.0)
    assert times["a"] == pytest.approx(2.0)
    assert times["a1"] == pytest.approx(1.0)
    # b and c share [6,8] evenly
    assert times["b"] == pytest.approx(3.0)
    assert times["c"] == pytest.approx(1.0)
    assert sum(times.values()) == pytest.approx(tree.wall)


def test_cross_thread_spans_link_to_the_deepest_containing_span():
    root = _span("op", 0, 10, sid="root")
    submit = _span("client.submit", 0.5, 2, parent="root", sid="submit")
    wait = _span("client.wait", 2, 9, parent="root", sid="wait")
    admission = _span("service.admission", 1, 1.5, pid=2, tid=7, rid="job")
    engine_span = _span("service.engine", 3, 8, pid=2, tid=8, rid="job")
    root.rid = "job"
    for span in (submit, wait):
        span.rid = None  # inherited from the root
    (tree,) = layers.build_trees([root, submit, wait, admission, engine_span])
    assert tree.parent[admission.id] == "submit"
    assert tree.parent[engine_span.id] == "wait"
    times = layers.self_times(tree)
    assert times["client.wait"] == pytest.approx(2.0)
    assert sum(times.values()) == pytest.approx(10.0)


def test_pooled_orchestration_is_reported_as_dispatch():
    root = _span("op", 0, 10, sid="root")
    grid = _span(layers.ORCHESTRATION, 1, 9, parent="root", sid="grid")
    worker = _span("batch.lanes", 2, 8, pid=2)
    (tree,) = layers.build_trees([root, grid, worker])
    times = layers.self_times(tree)
    assert layers.ORCHESTRATION not in times
    assert times[layers.DISPATCH] == pytest.approx(2.0)
    assert layers.child_busy_frac(tree) == pytest.approx(6.0 / 8.0)


def test_groups_without_a_root_are_dropped():
    assert layers.build_trees([_span("engine.encode", 0, 1)]) == []


# -- wrappers --------------------------------------------------------------------------


def _current(module, qualname):
    owner = spans._owner(module, qualname)
    return vars(owner)[qualname.rsplit(".", 1)[-1]]


def test_wrappers_are_restored_after_a_traced_block_even_on_error():
    before = [_current(m, q) for m, q, _, _ in spans.LAYER_PATCHES]
    recorder = spans.Recorder()
    with pytest.raises(RuntimeError):
        with spans.installed(recorder):
            during = [_current(m, q) for m, q, _, _ in spans.LAYER_PATCHES]
            assert all(d is not b for d, b in zip(during, before))
            raise RuntimeError("boom")
    after = [_current(m, q) for m, q, _, _ in spans.LAYER_PATCHES]
    assert all(a is b for a, b in zip(after, before))
    assert recorder.missing == set()


def test_each_call_is_recorded_once():
    from repro.service import protocol

    result = engine.FixedBitTask(profile_id=1, bits=8, duration_s=0.2).run()
    recorder = spans.Recorder()
    with spans.installed(recorder):
        protocol.fixed_entry_bytes(result)
        engine.fixed_entry_bytes(result)
    assert [s.name for s in recorder.spans] == ["engine.encode", "engine.encode"]
    assert all(s.parent is None for s in recorder.spans)


def _grid_digest(tmp_path: Path, name: str) -> str:
    data = inputs.grid_inputs(seed=1, quick=True)
    engine.reset()
    cache = engine.ResultCache(tmp_path / name)
    fixed = engine.run_grid([engine.FixedBitTask(**t) for t in data["fixed"]], cache=cache)
    executive = engine.run_executive_grid(
        [engine.ExecutiveTask(**t) for t in data["executive"]], cache=cache)
    digest = hashlib.sha256()
    for result in fixed.results:
        digest.update(engine.fixed_entry_bytes(result))
    for result in executive.results:
        digest.update(engine.executive_entry_bytes(result))
    return digest.hexdigest()


def test_traced_outputs_are_bit_identical_to_untraced(tmp_path):
    untraced = _grid_digest(tmp_path, "untraced")
    recorder = spans.Recorder()
    with spans.installed(recorder):
        traced = _grid_digest(tmp_path, "traced")
    assert traced == untraced
    expected = {"engine.orchestration", "engine.cache_put", "engine.encode"}
    if _accel.available():
        expected.add("accel.kernel")
    assert expected <= {s.name for s in recorder.spans}


# -- inputs -------------------------------------------------------------------------------


def test_inputs_are_a_function_of_the_seed():
    for workload in ("grid-cold", "service-mixed"):
        assert inputs.generate(workload, 5, quick=True) == inputs.generate(workload, 5, quick=True)
        assert inputs.generate(workload, 5, quick=True) != inputs.generate(workload, 6, quick=True)


def test_seed_zero_grids_are_figures_15_and_24():
    data = inputs.grid_inputs(0)
    fig15 = engine.GridSpec(profile_ids=(1, 2, 3, 4, 5), bits=(8, 7, 6, 5, 4, 3, 2, 1),
                            kernels=("median",)).tasks()
    assert tuple(engine.FixedBitTask(**t) for t in data["fixed"]) == fig15
    assert len(data["executive"]) == 9


def test_cold_campaigns_are_new_to_the_cache():
    data = inputs.service_inputs(2, quick=True)
    streams = [inputs.request_stream(data, c, 2) for c in range(2)]
    requests = [r for s in streams for r in itertools.islice(s, 5 * inputs.COLD_EVERY)]
    cold = [json.dumps(p, sort_keys=True) for p, warm_index in requests if warm_index is None]
    warm = {json.dumps(p, sort_keys=True) for p in data["warm"]}
    assert len(cold) == 10 and len(set(cold)) == 10
    assert not set(cold) & warm


def test_fleet_reroll_keeps_the_gateway_tail():
    base = inputs.fleet_spec_from_dict(inputs.fleet_inputs(0, quick=True)["spec"])
    other = inputs.fleet_spec_from_dict(inputs.fleet_inputs(3, quick=True)["spec"])
    assert other.seed != base.seed
    assert inputs._gateways(other) == inputs._gateways(base)


# -- end to end ------------------------------------------------------------------------------


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--quick", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )


def test_quick_smoke_of_all_four_workloads():
    done = _run()
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in bench["workloads"]:
        for metric in bench["end_to_end"]:
            value = result["metrics"][f"{workload['name']}.{metric['name']}"]
            assert value["unit"] == metric["unit"] and value["value"] > 0


def test_quick_traced_tables_sum_to_the_traced_wall_time():
    done = _run("--trace", "--workload", "grid-warm", "--workload", "service-mixed")
    assert done.returncode == 0, done.stderr[-2000:]
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    for workload in ("grid-warm", "service-mixed"):
        assert abs(metrics[f"{workload}.trace.table_sum_pct"]["value"] - 100.0) < 5.0
    assert metrics["service-mixed.service.journal.records"]["value"] >= 3
