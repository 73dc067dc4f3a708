"""Scan operator: message → array-tuple (the *AvroToArray* step).

The paper's Figure 4 and §5 attribute most of SamzaSQL's filter/project
overhead to exactly this conversion (and its inverse in the insert
operator): the prototype "implements SQL expressions on top of a tuple
represented as an array in memory, and we convert incoming messages to an
array at the scan operator".
"""

from __future__ import annotations

from repro.samzasql.operators.base import Operator
from repro.samzasql.physical import ScanNode
from repro.sql.codegen import compile_batch_scan


class ScanOperator(Operator):
    METRIC_KIND = "scan"

    def __init__(self, node: ScanNode):
        super().__init__(node)
        self._batch_scan = compile_batch_scan(node.field_names,
                                              node.rowtime_index)

    def process_batch(self, port: int, messages: list, timestamps: list) -> None:
        self.processed += len(messages)
        # AvroToArray: record dict -> positional array
        pairs = self._batch_scan(messages, timestamps)
        self.emit_batch([row for row, _ in pairs], [ts for _, ts in pairs])
