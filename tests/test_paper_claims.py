"""The paper's claims, checked against the committed artifact tables.

EXPERIMENTS.md compares each figure and table of the paper's
evaluation with what this reproduction measures. Each :class:`Claim`
below names one row of that comparison (an E-ID, or a study of its
"Beyond the paper" table), the artifact tables under
``benchmarks/results/`` it reads, the quantity it derives from them
and the envelope that quantity must stay in.

``repro run <id>`` regenerates each table, and the artifact-drift CI
job fails unless the regenerated table equals its committed file byte
for byte. A claim that holds on the committed tables therefore holds
on every regeneration. A deliberate change to a table must keep every
claim inside its envelope; a change to a claim edits its record here
and its prose in EXPERIMENTS.md.

Two quantities appear in no table. Full-size tests in
``tests/test_analysis_experiments.py`` check them instead
(:data:`FULL_SIZE_TESTS`).
"""

from __future__ import annotations

import ast
import functools
import pathlib
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional

import pytest

from repro.analysis.reporting import format_table

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"


class Table:
    """One committed ``format_table`` artifact, its cells as text.

    The dash rule under the header gives each column's span: a cell is
    the stripped text above its dashes, the last column runs to the end
    of the line, and an empty cell reads ``""``.
    """

    def __init__(self, artifact_id: str) -> None:
        text = (RESULTS / f"{artifact_id}.txt").read_text()
        self.title, header, rule, *body = text.splitlines()
        starts = [m.start() for m in re.finditer(r"-+", rule)]
        spans = list(zip(starts, starts[1:] + [None]))
        self.columns = [header[a:b].strip() for a, b in spans]
        self.rows = [
            dict(zip(self.columns, (line[a:b].strip() for a, b in spans)))
            for line in body
        ]

    def select(self, **match: str) -> List[Dict[str, str]]:
        """The rows whose cells equal ``match``, in table order."""
        return [
            row for row in self.rows
            if all(row[column] == value for column, value in match.items())
        ]

    def num(self, column: str, **match: str) -> float:
        """``column`` of the one row matching ``match``, as a number."""
        [row] = self.select(**match)
        return float(row[column])

    def by(self, key: str, column: str, **match: str) -> Dict[str, float]:
        """``{row[key]: row[column]}`` over the rows matching ``match``."""
        return {row[key]: float(row[column]) for row in self.select(**match)}

    def keys(self, column: str) -> List[str]:
        """The distinct values of ``column``, in table order."""
        return list(dict.fromkeys(row[column] for row in self.rows))


@functools.lru_cache(maxsize=None)
def table(artifact_id: str) -> Table:
    return Table(artifact_id)


def steps(series: Mapping[str, float]) -> Dict[str, float]:
    """Differences between neighbours: ``{"a->b": b - a}``."""
    labels = list(series)
    return {
        f"{a}->{b}": series[b] - series[a] for a, b in zip(labels, labels[1:])
    }


@dataclass(frozen=True)
class Claim:
    """One checked predicate: a quantity read from tables and its envelope.

    ``read`` takes the tables named by ``artifacts`` (space-separated
    ids, in order) and returns one value or a ``{label: value}``
    mapping; every value must satisfy every bound given.
    """

    row: str
    artifacts: str
    quantity: str
    read: Callable[..., object]
    above: Optional[float] = None
    at_least: Optional[float] = None
    below: Optional[float] = None
    at_most: Optional[float] = None
    equals: object = None

    def envelope(self) -> str:
        bounds = (
            ("above", self.above), ("at least", self.at_least),
            ("below", self.below), ("at most", self.at_most),
            ("equal to", self.equals),
        )
        return ", ".join(f"{name} {value!r}" for name, value in bounds if value is not None)

    def holds(self, value) -> bool:
        return (
            (self.above is None or value > self.above)
            and (self.at_least is None or value >= self.at_least)
            and (self.below is None or value < self.below)
            and (self.at_most is None or value <= self.at_most)
            and (self.equals is None or value == self.equals)
        )

    def violations(self) -> Dict[str, object]:
        values = self.read(*(table(a) for a in self.artifacts.split()))
        if not isinstance(values, Mapping):
            values = {"": values}
        assert values, f"{self.row}: {self.quantity} read no values"
        return {label: v for label, v in values.items() if not self.holds(v)}


def _bits_for_psnr(t: Table, kernel: str, psnr_db: float) -> int:
    """Fewest reliable bits from which ``kernel`` stays at ``psnr_db`` or above."""
    psnr = {int(b): v for b, v in t.by("bits", "PSNR_dB", kernel=kernel).items()}
    return min(b for b in psnr if all(psnr[c] >= psnr_db for c in psnr if c >= b))


def _per_profile_ratio(t: Table, column: str, low: str, high: str) -> Dict[str, float]:
    return {
        p: t.num(column, profile=p, bits=low) / t.num(column, profile=p, bits=high)
        for p in t.keys("profile")
    }


def _per_profile_steps(t: Table, column: str) -> Dict[str, float]:
    return {
        f"p{p} {step}": delta
        for p in t.keys("profile")
        for step, delta in steps(t.by("bits", column, profile=p)).items()
    }


def _pulse_columns(t: Table) -> List[str]:
    return [c for c in t.columns if c.startswith("I@")]


def _mean_std(t: Table) -> List[float]:
    """fig28-robustness's closing ``mean±std`` gain cell, split."""
    return [float(v) for v in t.select(seed="mean±std")[0]["gain"].split("±")]


CLAIMS = (
    # -- substrates: Figures 2-5, Section 2.2 -----------------------------
    Claim("E-F2", "fig02", "profiles", lambda t: len(t.rows), equals=5),
    Claim("E-F2", "fig02", "mean_uW per profile",
          lambda t: t.by("profile", "mean_uW"), at_least=10.0, at_most=45.0),
    Claim("E-F2", "fig02", "peak_uW per profile",
          lambda t: t.by("profile", "peak_uW"), equals=2000.0),
    Claim("E-F2", "fig02", "outage_frac per profile",
          lambda t: t.by("profile", "outage_frac"), above=0.5),
    Claim("E-F3", "fig03", "outages counted",
          lambda t: sum(t.by("duration_ticks", "count").values()), above=0),
    Claim("E-F3", "fig03", "share of outages under 25 ticks (median)",
          lambda t: t.num("count", duration_ticks="0-25")
          / sum(t.by("duration_ticks", "count").values()), at_least=0.5),
    Claim("E-F3", "fig03", "outages of 3200-6400 ticks (tail)",
          lambda t: t.num("count", duration_ticks="3200-6400"), above=0),
    Claim("E-F4", "fig04", "write current step per doubled pulse width",
          lambda t: {
              f"{r} {s}": d
              for r in t.keys("retention")
              for s, d in steps({c: t.num(c, retention=r) for c in _pulse_columns(t)}).items()
          }, below=0.0),
    Claim("E-F4", "fig04", "write current step per longer retention",
          lambda t: {
              f"{c} {s}": d
              for c in _pulse_columns(t)
              for s, d in steps(t.by("retention", c)).items()
          }, above=0.0),
    Claim("E-F5", "fig05", "log over linear retention per bit",
          lambda t: {r["bit"]: float(r["log"]) / float(r["linear"]) for r in t.rows},
          at_most=1.0),
    Claim("E-F5", "fig05", "parabola over the longer other curve at bit 8",
          lambda t: t.num("parabola", bit="8")
          / max(t.num("linear", bit="8"), t.num("log", bit="8")), above=1.0),
    Claim("E-S22", "sec2.2", "nvp/wait per profile",
          lambda t: t.by("profile", "nvp/wait"), above=1.5),
    Claim("E-S22", "sec2.2", "wait-compute units on profile 5",
          lambda t: t.num("wait_units", profile="5"), equals=0.0),
    # -- system sweeps: Figures 9, 15, 16 -----------------------------------
    Claim("E-F9", "fig09", "on_% drop along the paper's order",
          lambda t: {s: -d for s, d in steps(t.by("config", "on_%")).items()},
          above=0.0),
    Claim("E-F9", "fig09", "a1 FP_total over the best other config",
          lambda t: t.num("FP_total", config="incidental (a1,b) [2..8]")
          / max(v for k, v in t.by("config", "FP_total").items() if "(a1,b)" not in k),
          at_least=1.0),
    Claim("E-F9", "fig09", "a1 FP_total over 8-bit NVP",
          lambda t: t.num("FP_total", config="incidental (a1,b) [2..8]")
          / t.num("FP_total", config="8-bit NVP"), at_least=3.0, at_most=4.5),
    Claim("E-F15", "fig15", "FP at 1 bit over 8 bits per profile",
          lambda t: _per_profile_ratio(t, "forward_progress", "1", "8"),
          above=1.5, at_most=3.2),
    Claim("E-F15", "fig15", "FP step per bit dropped",
          lambda t: _per_profile_steps(t, "forward_progress"), above=0.0),
    Claim("E-F16", "fig16", "backups at 1 bit over 8 bits per profile",
          lambda t: _per_profile_ratio(t, "backups", "1", "8"), below=1.0),
    Claim("E-F16", "fig16", "backups step per bit dropped",
          lambda t: _per_profile_steps(t, "backups"), at_most=0.0),
    # -- quality: Figures 11-14 ---------------------------------------------
    Claim("E-F11/12", "fig12", "median PSNR at 1 bit",
          lambda t: t.num("PSNR_dB", kernel="median", bits="1"), above=20.0),
    Claim("E-F11/12", "fig12", "sobel PSNR at 2 bits",
          lambda t: t.num("PSNR_dB", kernel="sobel", bits="2"), below=25.0),
    Claim("E-F11/12", "fig12", "bits for 40 dB, median and integral",
          lambda t: {k: _bits_for_psnr(t, k, 40.0) for k in ("median", "integral")},
          at_most=6),
    Claim("E-F11/12", "fig12", "bits for 40 dB, sobel",
          lambda t: _bits_for_psnr(t, "sobel", 40.0), at_least=6),
    Claim("E-F13/14", "fig14 fig12", "MSE at 2 bits, memory over ALU, median and integral",
          lambda mem, alu: {
              k: mem.num("MSE", kernel=k, bits="2") / alu.num("MSE", kernel=k, bits="2")
              for k in ("median", "integral")
          }, above=1.0),
    Claim("E-F13/14", "fig14 fig12", "MSE at 2 bits, memory over ALU, sobel",
          lambda mem, alu: mem.num("MSE", kernel="sobel", bits="2")
          / alu.num("MSE", kernel="sobel", bits="2"), below=1.0),
    # -- dynamic bitwidth: Figures 17-21 -------------------------------------
    Claim("E-F17/18", "fig18", "OFF % per profile",
          lambda t: t.by("profile", "OFF"), above=50.0),
    Claim("E-F17/18", "fig18", "lesser of 1b and 8b over the largest middle level",
          lambda t: {
              r["profile"]: min(float(r["1b"]), float(r["8b"]))
              / max(float(r[f"{b}b"]) for b in range(2, 8))
              for r in t.rows
          }, above=1.0),
    Claim("E-F19/20", "fig20", "FP_gain per profile",
          lambda t: t.by("profile", "FP_gain"), at_least=0.5, below=1.0),
    Claim("E-F21", "fig21", "FP_gain per profile",
          lambda t: t.by("profile", "FP_gain"), above=1.02),
    # -- backup approximation: Figures 22-25 ---------------------------------
    Claim("E-F22", "fig22", "b1 minus b8 failures per policy and profile",
          lambda t: {f"{r['policy']} p{r['profile']}": float(r["b1"]) - float(r["b8"])
                     for r in t.rows}, at_least=0.0),
    Claim("E-F22", "fig22", "log b1 failures over the larger other b1",
          lambda t: {
              p: t.num("b1", policy="log", profile=p)
              / max(t.num("b1", policy=q, profile=p) for q in ("linear", "parabola"))
              for p in t.keys("profile")
          }, above=2.0),
    Claim("E-F22", "fig22", "parabola minus the fewer other failures, bits 3-8",
          lambda t: {
              f"p{p} b{b}": t.num(f"b{b}", policy="parabola", profile=p)
              - min(t.num(f"b{b}", policy=q, profile=p) for q in ("linear", "log"))
              for p in t.keys("profile") for b in range(3, 9)
          }, at_most=0.0),
    Claim("E-F23/24", "fig24", "linear minus parabola PSNR, absolute",
          lambda t: {
              p: abs(t.num("PSNR_dB", policy="linear", profile=p)
                     - t.num("PSNR_dB", policy="parabola", profile=p))
              for p in t.keys("profile")
          }, below=10.0),
    Claim("E-F23/24", "fig24", "log minus the lower other PSNR",
          lambda t: {
              p: t.num("PSNR_dB", policy="log", profile=p)
              - min(t.num("PSNR_dB", policy=q, profile=p) for q in ("linear", "parabola"))
              for p in t.keys("profile")
          }, below=0.0),
    Claim("E-F25", "fig25", "FP gain per policy and profile",
          lambda t: {f"{q} p{p}": v for q in ("linear", "log", "parabola")
                     for p, v in t.by("profile", q).items()},
          at_least=1.1, at_most=1.8),
    Claim("E-F25", "fig25", "gain drop along log, linear, parabola",
          lambda t: {
              f"p{r['profile']} {a}->{b}": float(r[a]) - float(r[b])
              for r in t.rows for a, b in (("log", "linear"), ("linear", "parabola"))
          }, at_least=0.0),
    # -- recomputation, QoS and the headline gain: Figures 26-28, Table 2 ----
    Claim("E-F26/27", "fig27", "PSNR at pass 8 minus pass 1 per minbits",
          lambda t: {
              m: psnr["8"] - psnr["1"]
              for m in t.keys("minbits")
              for psnr in [t.by("pass", "PSNR_dB", minbits=m)]
          }, at_least=0.0),
    Claim("E-F26/27", "fig27", "PSNR step per pass",
          lambda t: {
              f"minbits {m} {s}": d
              for m in t.keys("minbits")
              for s, d in steps(t.by("pass", "PSNR_dB", minbits=m)).items()
          }, above=0.0),
    Claim("E-T2", "table2", "met per kernel",
          lambda t: {r["kernel"]: r["met"] for r in t.rows}, equals="yes"),
    Claim("E-F28", "fig28", "ALL-AVERAGE mean gain",
          lambda t: t.num("mean", kernel="ALL-AVERAGE"), above=2.5),
    Claim("E-F28", "fig28", "gain per kernel and profile",
          lambda t: {f"{k} {p}": t.num(p, kernel=k)
                     for k in t.keys("kernel") if k != "ALL-AVERAGE"
                     for p in ("p1", "p2", "p3", "p4", "p5")},
          above=1.5),
    Claim("E-F28", "fig28", "lowest of integral/jpeg/fft over highest of sobel/median",
          lambda t: min(t.num("mean", kernel=k) for k in ("integral", "jpeg_encode", "fft"))
          / max(t.num("mean", kernel=k) for k in ("sobel", "median")), above=1.0),
    Claim("E-S7", "sec7", "wait over NVP and NVP over incidental per kernel",
          lambda t: {
              f"{r['kernel']} {a}/{b}": float(r[a]) / float(r[b])
              for r in t.rows
              for a, b in (("wait_s", "nvp_s"), ("nvp_s", "incidental_s"))
          }, above=1.0),
    Claim("E-S7", "sec7", "susan_corners wait over incidental",
          lambda t: t.num("wait_s", kernel="susan_corners")
          / t.num("incidental_s", kernel="susan_corners"), at_least=4.5, at_most=6.5),
    # -- studies beyond the paper ----------------------------------------------
    Claim("ablation-mechanisms", "ablation-mechanisms", "full over no SIMD lanes",
          lambda t: t.num("FP_gain", variant="full incidental")
          / t.num("FP_gain", variant="no SIMD lanes"), above=1.0),
    Claim("ablation-mechanisms", "ablation-mechanisms", "full over precise backups",
          lambda t: t.num("FP_gain", variant="full incidental")
          / t.num("FP_gain", variant="precise backups"), above=1.0),
    Claim("ablation-mechanisms", "ablation-mechanisms", "no SIMD + precise backups",
          lambda t: t.num("FP_gain", variant="no SIMD + precise backups"),
          at_least=0.8, at_most=1.3),
    Claim("ablation-buffer", "ablation-buffer", "FP_gain step per added entry",
          lambda t: steps(t.by("capacity", "FP_gain")), at_least=-0.05),
    Claim("ablation-retention-scale", "ablation-retention-scale",
          "uJ_per_backup step per longer scale",
          lambda t: steps(t.by("time_scale", "uJ_per_backup")), at_least=0.0),
    Claim("ablation-retention-scale", "ablation-retention-scale",
          "PSNR at scale 8 minus the best other scale",
          lambda t: t.num("mean_PSNR_dB", time_scale="8.00")
          - max(v for k, v in t.by("time_scale", "mean_PSNR_dB").items() if k != "8.00"),
          above=0.0),
    Claim("ablation-recover-placement", "ablation-recover-placement",
          "rf completed, inner minus frame",
          lambda t: t.num("completed", source="rf", placement="inner")
          - t.num("completed", source="rf", placement="frame"), above=0.0),
    Claim("ablation-recover-placement", "ablation-recover-placement",
          "solar completed, frame minus inner",
          lambda t: t.num("completed", source="solar", placement="frame")
          - t.num("completed", source="solar", placement="inner"), at_least=-2.0),
    Claim("ablation-recover-placement", "ablation-recover-placement",
          "solar FP_total, frame minus inner",
          lambda t: t.num("FP_total", source="solar", placement="frame")
          - t.num("FP_total", source="solar", placement="inner"), at_least=0.0),
    Claim("ablation-sources", "ablation-sources", "gain per source",
          lambda t: t.by("source", "gain"), above=1.5),
    Claim("fig28-robustness", "fig28-robustness", "mean gain over seeds",
          lambda t: _mean_std(t)[0], above=2.0),
    Claim("fig28-robustness", "fig28-robustness", "std over mean gain",
          lambda t: _mean_std(t)[1] / _mean_std(t)[0], below=0.5),
    Claim("table2-jpeg-frames", "table2-jpeg-frames", "met_% per profile",
          lambda t: t.by("profile", "met_%"), at_least=90.0),
    # -- run-table statistics ---------------------------------------------------
    Claim("runtable", "runtable", "rows compared",
          lambda t: t.num("n", slice="precise vs linear"), above=0),
    Claim("runtable", "runtable", "linear n minus precise n",
          lambda t: t.num("n", slice="linear") - t.num("n", slice="precise"),
          equals=0.0),
)

#: EXPERIMENTS.md quantities that no table prints, and the full-size
#: tests in ``tests/test_analysis_experiments.py`` that check them.
FULL_SIZE_TESTS = {
    "E-F4": "TestFig04::test_write_energy_saving",  # 1 day -> 10 ms saving
    "E-F5": "TestFig05::test_shaping_curves",  # log < linear < parabola energy
}


@pytest.mark.parametrize(
    "claim", CLAIMS, ids=[f"{c.row}: {c.quantity}" for c in CLAIMS]
)
def test_claim_holds(claim):
    violations = claim.violations()
    assert not violations, (
        f"{claim.row} ({claim.artifacts}): {claim.quantity} must be "
        f"{claim.envelope()}; violated by {violations}"
    )


def test_reader_round_trips_every_committed_table():
    """Re-rendering the parsed cells gives back every file byte for byte."""
    paths = sorted(RESULTS.glob("*.txt"))
    assert len(paths) == 30
    for path in paths:
        t = table(path.stem)
        rendered = format_table(t.columns, [list(r.values()) for r in t.rows])
        assert f"{t.title}\n{rendered}\n" == path.read_text(), path.name


def test_every_experiments_row_has_a_claim():
    """Each E-ID row and each study of EXPERIMENTS.md has a record."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    e_ids = re.findall(r"^\| (E-[^ |]+) \|", text, flags=re.M)
    studies = re.findall(r"^\| `([^`]+)` \|", text, flags=re.M)
    assert len(e_ids) == 20 and len(studies) == 7
    assert set(e_ids + studies) <= {c.row for c in CLAIMS}


def test_full_size_tests_exist():
    tree = ast.parse((ROOT / "tests" / "test_analysis_experiments.py").read_text())
    defined = {
        f"{cls.name}::{node.name}"
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, ast.FunctionDef)
    }
    assert set(FULL_SIZE_TESTS.values()) <= defined
