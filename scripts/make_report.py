"""Assemble benchmarks/results/ into a single REPORT.md.

Run after ``pytest benchmarks/ --benchmark-only``:

    python scripts/make_report.py

Produces ``REPORT.md`` at the repository root: every regenerated
artifact table, in paper order, ready to diff against EXPERIMENTS.md.
"""

import pathlib

RESULTS = pathlib.Path(__file__).parent.parent / "benchmarks" / "results"
REPORT = pathlib.Path(__file__).parent.parent / "REPORT.md"

#: Paper order for the artifact tables.
ORDER = [
    "fig02", "fig03", "fig04", "fig05", "sec2.2", "fig09", "fig12", "fig14",
    "fig15", "fig16", "fig18", "fig20", "fig21", "fig22", "fig24", "fig25",
    "fig27", "table2", "table2-jpeg-frames", "fig28", "fig28-robustness",
    "sec7", "ablation-mechanisms", "ablation-buffer",
    "ablation-retention-scale", "ablation-recover-placement",
    "ablation-sources", "resilience", "fleet", "runtable",
]


def main() -> None:
    if not RESULTS.is_dir():
        raise SystemExit(
            "no benchmarks/results/ yet - run "
            "'pytest benchmarks/ --benchmark-only' first"
        )
    chunks = [
        "# Regenerated artifacts\n",
        "Produced by the benchmark harness; compare against the paper "
        "via EXPERIMENTS.md.\n",
    ]
    seen = set()
    for artifact_id in ORDER:
        path = RESULTS / f"{artifact_id}.txt"
        if path.is_file():
            chunks.append(f"\n## {artifact_id}\n\n```\n{path.read_text().rstrip()}\n```\n")
            seen.add(path.name)
    # Anything not in the canonical order still gets appended.
    for path in sorted(RESULTS.glob("*.txt")):
        if path.name not in seen:
            chunks.append(f"\n## {path.stem}\n\n```\n{path.read_text().rstrip()}\n```\n")
    images = RESULTS / "images"
    if images.is_dir():
        names = sorted(p.name for p in images.glob("*.pgm"))
        chunks.append(
            "\n## visual artifacts\n\n"
            + "\n".join(f"- `benchmarks/results/images/{n}`" for n in names)
            + "\n"
        )
    REPORT.write_text("".join(chunks))
    print(f"wrote {REPORT} ({len(chunks)} sections)")


if __name__ == "__main__":
    main()
