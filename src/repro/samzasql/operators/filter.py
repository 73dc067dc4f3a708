"""Filter operator: generated predicate over the array-tuple."""

from __future__ import annotations

from repro.samzasql.operators.base import Operator
from repro.samzasql.physical import FilterNode
from repro.sql.codegen import compile_batch_predicate


class FilterOperator(Operator):
    METRIC_KIND = "filter"

    def __init__(self, node: FilterNode):
        super().__init__(node)
        self._batch_predicate = compile_batch_predicate(node.predicate)

    def process_batch(self, port: int, rows: list, timestamps: list) -> None:
        self.processed += len(rows)
        pairs = self._batch_predicate(rows, timestamps)
        if pairs:
            self.emit_batch([row for row, _ in pairs], [ts for _, ts in pairs])
