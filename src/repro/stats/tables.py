"""Paper-versus-measured experiment tables (printed and checked by the
benchmarks: a table's MISS row fails its experiment)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["ExperimentRow", "ExperimentTable"]


@dataclass

class ExperimentRow:
    """One metric in an experiment table."""

    metric: str
    paper: str
    measured: str
    ok: Optional[bool] = None

    def status(self) -> str:
        if self.ok is None:
            return "-"
        return "PASS" if self.ok else "MISS"


class ExperimentTable:
    """An ASCII table matching the EXPERIMENTS.md record format."""

    def __init__(self, experiment_id: str, title: str) -> None:
        self.experiment_id = experiment_id
        self.title = title
        self.rows: list[ExperimentRow] = []

    def add(self, metric: str, paper: str, measured: str,
            ok: Optional[bool] = None) -> None:
        self.rows.append(ExperimentRow(metric, paper, measured, ok))

    @property
    def all_ok(self) -> bool:
        return all(row.ok for row in self.rows if row.ok is not None)

    def render(self) -> str:
        headers = ("metric", "paper", "measured", "status")
        cells = [headers] + [
            (row.metric, row.paper, row.measured, row.status())
            for row in self.rows
        ]
        widths = [max(len(row[col]) for row in cells)
                  for col in range(len(headers))]
        lines = [f"== {self.experiment_id}: {self.title} =="]
        for index, row in enumerate(cells):
            line = "  ".join(cell.ljust(width)
                             for cell, width in zip(row, widths))
            lines.append(line.rstrip())
            if index == 0:
                lines.append("  ".join("-" * width for width in widths))
        return "\n".join(lines)

    def print(self) -> None:
        print()
        print(self.render())

    def check(self) -> None:
        """Print the table, then raise :class:`AssertionError` naming
        every MISS row.  A plain ``raise``, so ``python -O`` keeps it."""
        self.print()
        missed = [f"{row.metric} (paper {row.paper}, measured "
                  f"{row.measured})" for row in self.rows if row.ok is False]
        if missed:
            raise AssertionError(
                f"{self.experiment_id} MISS: " + "; ".join(missed))
