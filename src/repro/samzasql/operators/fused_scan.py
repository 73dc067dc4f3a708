"""Fused scan: filter + project evaluated directly on the record dict.

Implements the paper's future-work item 5: "generating expressions that
directly work on SamzaSQL specific message abstraction ... merging
operators such as filter and project with scan operator".  Rows that fail
the predicate never get an array-tuple materialized, and surviving rows
are built in one projection step — removing the AvroToArray overhead the
evaluation measured.  ``benchmarks/bench_ablation_fusion.py`` quantifies
the gain.
"""

from __future__ import annotations

from repro.samzasql.operators.base import Operator
from repro.sql.codegen import compile_batch_fused_scan


class FusedScanOperator(Operator):
    METRIC_KIND = "fused-scan"

    def __init__(self, stream: str, field_names: list[str],
                 rowtime_index: int | None,
                 predicate_source: str | None,
                 projection_source: str | None,
                 output_field_names: list[str]):
        super().__init__()
        self.stream = stream
        self.field_names = list(field_names)
        self.rowtime_field = (None if rowtime_index is None
                              else field_names[rowtime_index])
        self._stages = (["scan"]
                        + ["filter"] * (predicate_source is not None)
                        + ["project"] * (projection_source is not None))
        self.output_field_names = list(output_field_names)
        self._batch_eval = compile_batch_fused_scan(
            self.field_names, self.rowtime_field,
            predicate_source, projection_source)

    def process_batch(self, port: int, messages: list, timestamps: list) -> None:
        self.processed += len(messages)
        pairs = self._batch_eval(messages, timestamps)
        if pairs:
            self.emit_batch([row for row, _ in pairs], [ts for _, ts in pairs])

    def describe(self) -> str:
        return f"FusedScan({self.stream}: {'+'.join(self._stages)})"
