"""Plain-text table/series formatting for experiment outputs.

The paper's artifacts are figures; ``repro run <id>`` regenerates
their underlying data series and prints them as aligned text tables so
a terminal diff against EXPERIMENTS.md is enough to audit a run.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence, Union

__all__ = ["format_table", "format_series"]

_Cell = Union[str, int, float]


def _render(cell: _Cell) -> str:
    if isinstance(cell, bool):
        return "yes" if cell else "no"
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        magnitude = abs(cell)
        if magnitude >= 1000 or magnitude < 0.01:
            return f"{cell:.3g}"
        return f"{cell:.2f}"
    return str(cell)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[_Cell]]) -> str:
    """Render an aligned text table with a header rule."""
    rendered: List[List[str]] = [[_render(h) for h in headers]]
    for row in rows:
        rendered.append([_render(cell) for cell in row])
    widths = [max(len(r[i]) for r in rendered) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(rendered):
        line = "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        lines.append(line.rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def format_series(name: str, mapping: Mapping[_Cell, _Cell]) -> str:
    """Render a one-line ``name: k=v k=v ...`` series."""
    parts = " ".join(f"{_render(k)}={_render(v)}" for k, v in mapping.items())
    return f"{name}: {parts}"
