"""Project operator: generated projection producing a new array-tuple."""

from __future__ import annotations

from repro.samzasql.operators.base import Operator
from repro.sql.codegen import compile_batch_projection


class ProjectOperator(Operator):
    METRIC_KIND = "project"

    def __init__(self, projection_source: str, field_names: list[str]):
        super().__init__()
        self.projection_source = projection_source
        self.field_names = list(field_names)
        self._batch_project = compile_batch_projection(projection_source)

    def process_batch(self, port: int, rows: list, timestamps: list) -> None:
        self.processed += len(rows)
        self.emit_batch(self._batch_project(rows), timestamps)

    def describe(self) -> str:
        return f"Project({', '.join(self.field_names)})"
