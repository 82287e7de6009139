"""Benchmarks for the headline results: Figures 26-28, Table 2, Section 7."""

from __future__ import annotations

from repro.analysis import experiments as E


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
