"""Tabular experiment reports with deterministic JSON and CSV serialization.

A report is a named table plus the parameters and metadata needed to
reproduce it.  Serialization is bit-stable: keys are emitted in sorted
order, floats through repr (shortest round-trip form), and no wall-clock
data is recorded.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field


def _plain(value):
    """Coerce numpy scalars and other numerics to plain Python types."""
    if hasattr(value, "item"):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


@dataclass
class ExperimentReport:
    """One experiment's output: a column-labelled numeric table along with
    the parameters (inputs) and metadata (chosen constants, seed,
    tolerances, fitting method names) that determine it."""

    name: str
    parameters: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)
    columns: list = field(default_factory=list)
    rows: list = field(default_factory=list)

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"report {self.name}: row width {len(values)} != {len(self.columns)} columns"
            )
        self.rows.append([_plain(v) for v in values])

    def to_json(self) -> str:
        doc = {
            "name": self.name,
            "parameters": {k: _plain(v) for k, v in self.parameters.items()},
            "metadata": {k: _plain(v) for k, v in self.metadata.items()},
            "columns": list(self.columns),
            "rows": self.rows,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
        return buf.getvalue()

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        raise ValueError(f"unknown report format {fmt!r}")
