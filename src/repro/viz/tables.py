"""ASCII rendering of tables, heatmaps and bar charts for the experiment CLI."""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

import numpy as np


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
    float_format: str = "{:.3f}",
) -> str:
    """Render a list of rows as a fixed-width ASCII table."""
    def render(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[render(cell) for cell in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def format_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[index]) for index, cell in enumerate(cells))

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(format_row([str(h) for h in headers]))
    lines.append("-+-".join("-" * width for width in widths))
    lines.extend(format_row(row) for row in rendered)
    return "\n".join(lines)


def format_heatmap(
    matrix: np.ndarray,
    row_labels: Sequence[str],
    column_labels: Sequence[str],
    title: Optional[str] = None,
    float_format: str = "{:.3f}",
) -> str:
    """Render a small matrix (e.g. the Fig. 6 augmentation grid) as text."""
    matrix = np.asarray(matrix, dtype=np.float64)
    rows = [[label] + [float(v) for v in matrix[index]] for index, label in enumerate(row_labels)]
    return format_table([""] + list(column_labels), rows, title=title, float_format=float_format)


def format_bar_chart(
    values: Mapping[str, float],
    title: Optional[str] = None,
    width: int = 40,
) -> str:
    """Horizontal ASCII bar chart (used for the Fig. 5 group-size comparison)."""
    if not values:
        return title or ""
    maximum = max(values.values()) or 1.0
    label_width = max(len(label) for label in values)
    lines: List[str] = [title] if title else []
    for label, value in values.items():
        bar = "#" * max(1, int(round(width * value / maximum))) if value > 0 else ""
        lines.append(f"{label.ljust(label_width)} | {bar} {value:.2f}")
    return "\n".join(lines)
