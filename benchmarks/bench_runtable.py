"""Benchmark for the run-table statistics artifact."""

from __future__ import annotations

import pytest


@pytest.mark.benchmark(group="runtable")
def test_runtable_stats(run_once, record_artifact):
    """Regenerate and archive the run-table statistics artifact."""
    from repro.analysis import experiments as E

    result = run_once(E.runtable_stats)
    record_artifact(result)
    comparison = result.data["comparison"]
    assert result.data["n_rows"] > 0
    assert comparison["a"]["n"] == comparison["b"]["n"]
