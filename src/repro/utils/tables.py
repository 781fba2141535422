"""Plain-text table formatting for the benchmark harnesses.

The harnesses print rows shaped like the paper's tables; this helper keeps the
formatting consistent and dependency-free (no pandas/matplotlib offline).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

__all__ = ["format_table", "format_mean_std"]


def format_mean_std(mean: float, std: float, digits: int = 1) -> str:
    """Render ``mean ± std`` the way the paper's tables do (e.g. ``22±1``)."""
    return f"{mean:.{digits}f}±{std:.{digits}f}"


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = "") -> str:
    """Format a list of rows as an aligned plain-text table."""
    str_rows: List[List[str]] = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = " | ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
