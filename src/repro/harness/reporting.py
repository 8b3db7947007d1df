"""Result containers and plain-text/markdown table rendering."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

__all__ = ["CacheStats", "ExperimentResult", "format_table"]


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
class CacheStats:
    """Artifact-store accounting: hit/miss counters and I/O volume.

    Compute time is not kept here: every artifact compute runs under a
    ``harness.<kind>`` span (:mod:`repro.telemetry.tracing`), and the
    CLIs print the run's span table."""

    hits: int = 0
    misses: int = 0
    #: Artifacts whose on-disk bytes failed integrity checks (treated as
    #: misses and recomputed).
    corrupt: int = 0
    #: The subset of ``corrupt`` whose payload sha256 mismatched its
    #: stored digest (bit rot / torn write, vs. format or pickle errors).
    digest_failures: int = 0
    #: Corrupt files moved into the store's ``.quarantine/`` directory
    #: (kept for forensics instead of being served or silently deleted).
    quarantined: int = 0
    #: Writes rejected because they would push a namespace past its
    #: byte quota (the artifact stays uncached; callers recompute).
    quota_rejected: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def merge(self, other: "CacheStats") -> None:
        """Fold another stats object (e.g. from a worker process) in."""
        self.hits += other.hits
        self.misses += other.misses
        self.corrupt += other.corrupt
        self.digest_failures += other.digest_failures
        self.quarantined += other.quarantined
        self.quota_rejected += getattr(other, "quota_rejected", 0)
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written

    def to_dict(self) -> Dict:
        """Plain-JSON rendering (the manifest/namespace-summary shape)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "digest_failures": self.digest_failures,
            "quarantined": self.quarantined,
            "quota_rejected": self.quota_rejected,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
        }

    @property
    def total(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.total if self.total else 0.0

    def render(self) -> str:
        """Human-readable one-line summary."""
        return (f"artifact cache: {self.hits} hits / {self.misses} misses"
                f" ({100.0 * self.hit_rate:.0f}% hit rate, "
                f"{self.corrupt} corrupt / "
                f"{self.digest_failures} digest failures / "
                f"{self.quarantined} quarantined), "
                f"{self.bytes_read / 1e6:.1f} MB read, "
                f"{self.bytes_written / 1e6:.1f} MB written")


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
