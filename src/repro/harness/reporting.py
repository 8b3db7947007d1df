"""Result containers and plain-text/markdown table rendering."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

__all__ = ["ExperimentResult", "format_table"]


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def format_table(columns: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Fixed-width text table; first column left-aligned, rest right."""
    cells = [[_format_cell(v) for v in row] for row in rows]
    widths = [len(c) for c in columns]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row):
        parts = [row[0].ljust(widths[0])]
        parts.extend(cell.rjust(widths[i + 1])
                     for i, cell in enumerate(row[1:]))
        return "  ".join(parts)
    lines = [fmt(list(columns)), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in cells)
    return "\n".join(lines)


@dataclass
class ExperimentResult:
    """One reproduced figure/table: metadata + tabular data."""

    experiment: str                  # e.g. "fig11"
    title: str
    columns: List[str]
    rows: List[List] = field(default_factory=list)
    #: Free-form commentary (what to look for, paper reference values).
    notes: str = ""

    def render(self) -> str:
        header = f"== {self.experiment}: {self.title} =="
        body = format_table(self.columns, self.rows)
        parts = [header, body]
        if self.notes:
            parts.append(self.notes)
        return "\n".join(parts)

    def to_markdown(self) -> str:
        lines = [f"### {self.experiment}: {self.title}", ""]
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(_format_cell(v) for v in row)
                         + " |")
        if self.notes:
            lines.extend(["", self.notes])
        return "\n".join(lines)

    def to_csv(self) -> str:
        """Comma-separated rendering (header + rows) for external tools."""
        import csv
        import io
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow(row)
        return buffer.getvalue()

    def save_csv(self, path) -> None:
        from pathlib import Path
        Path(path).write_text(self.to_csv())

    def column(self, name: str) -> List:
        """Values of one column across all rows."""
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise KeyError(f"no column {name!r}; columns: {self.columns}")
        return [row[idx] for row in self.rows]

    def row(self, label) -> List:
        """The row whose first cell equals ``label``."""
        for row in self.rows:
            if row[0] == label:
                return row
        raise KeyError(f"no row labelled {label!r}")
