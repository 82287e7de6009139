"""Assemble benchmarks/results/ into a single REPORT.md.

Run from the repository root after regenerating the tables with
``repro run`` (each ``benchmarks/results/<id>.txt`` is the output of
``python -m repro run <id>`` without its trailing blank line):

    PYTHONPATH=src python scripts/make_report.py

Produces ``REPORT.md`` at the repository root: every artifact table,
in paper order, ready to diff against EXPERIMENTS.md. It also rewrites
the visual artifacts of Figures 11, 13 and 26 under
``benchmarks/results/images/``: exact and approximate outputs of three
kernels on one seeded test scene, as binary PGM files.
"""

import pathlib

from repro.kernels import ApproxContext, create_kernel, test_scene
from repro.kernels.images import save_pgm

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


def dump_images(out_dir: pathlib.Path) -> None:
    """Write each kernel's exact output and its ALU/memory approximations.

    Every kernel runs on the same 64x64 scene; the approximate runs
    keep 4 and 1 reliable bits in the ALU or in memory.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    image = test_scene(64, "mixed", seed=7)
    for name in ("sobel", "median", "integral"):
        kernel = create_kernel(name)
        save_pgm(kernel.run_exact(image), out_dir / f"{name}_baseline.pgm")
        for bits in (4, 1):
            out = kernel.run(image, ApproxContext(alu_bits=bits, seed=1))
            save_pgm(out, out_dir / f"{name}_alu{bits}bit.pgm")
            trunc = kernel.run(image, ApproxContext(mem_bits=bits, seed=1))
            save_pgm(trunc, out_dir / f"{name}_mem{bits}bit.pgm")


def main() -> None:
    if not RESULTS.is_dir():
        raise SystemExit(
            "no benchmarks/results/ yet - regenerate the tables with "
            "'python -m repro run <id>' first"
        )
    chunks = [
        "# Regenerated artifacts\n",
        "Produced by `repro run <id>`; compare against the paper via "
        "EXPERIMENTS.md.\n",
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
    dump_images(images)
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
