"""Stream-insert operator: array-tuple → record (the *ArrayToAvro* step)."""

from __future__ import annotations

from repro.samzasql.operators.base import Operator, OperatorContext
from repro.samzasql.physical import InsertNode


class InsertOperator(Operator):
    METRIC_KIND = "insert"

    def __init__(self, node: InsertNode):
        super().__init__(node)
        self._send_batch = None
        self._buffer: list = []

    def setup(self, context: OperatorContext) -> None:
        self._send_batch = context.send_batch

    def _key_of(self, row: list) -> str:
        return "|".join(repr(row[i]) for i in self.node.key_field_indexes)

    def process_batch(self, port: int, rows: list, timestamps: list) -> None:
        n = len(rows)
        self.processed += n
        self.emitted += n
        # ArrayToAvro: positional array -> record dict
        names = self.node.field_names
        rt = self.node.rowtime_index
        if self.node.key_field_indexes is None:
            if rt is None:
                entries = [(dict(zip(names, row)), ts, None)
                           for row, ts in zip(rows, timestamps)]
            else:
                entries = [(dict(zip(names, row)),
                            ts if row[rt] is None else row[rt], None)
                           for row, ts in zip(rows, timestamps)]
        else:
            key_of = self._key_of
            if rt is None:
                entries = [(dict(zip(names, row)), ts, key_of(row))
                           for row, ts in zip(rows, timestamps)]
            else:
                entries = [(dict(zip(names, row)),
                            ts if row[rt] is None else row[rt], key_of(row))
                           for row, ts in zip(rows, timestamps)]
        self._buffer.extend(entries)

    def deliver(self, entries: list) -> None:
        """Accept pre-built ``(message, timestamp_ms, key)`` entries.

        The whole-plan compiler produces finished entries directly (the
        ArrayToAvro step is fused into the generated function); they join
        the same buffer as interpreted output, so flush and checkpoint
        semantics are identical.  Counters are maintained by the caller.
        """
        self._buffer.extend(entries)

    def flush(self) -> None:
        """Send buffered output in one call.

        The hosting task flushes at the end of every ``process_batch`` /
        ``window`` invocation — before control returns to the container —
        so output is never held across a checkpoint, a crash loses only
        output of uncommitted (replayable) input, and quiescence detection
        still sees everything the processed input produced.
        """
        if self._buffer:
            entries, self._buffer = self._buffer, []
            self._send_batch(entries)
