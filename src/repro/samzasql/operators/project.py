"""Project operator: generated projection producing a new array-tuple."""

from __future__ import annotations

from repro.samzasql.operators.base import Operator
from repro.samzasql.physical import ProjectNode
from repro.sql.codegen import compile_batch_projection


class ProjectOperator(Operator):
    METRIC_KIND = "project"

    def __init__(self, node: ProjectNode):
        super().__init__(node)
        self._batch_project = compile_batch_projection(node.exprs)

    def process_batch(self, port: int, rows: list, timestamps: list) -> None:
        self.processed += len(rows)
        self.emit_batch(self._batch_project(rows), timestamps)
