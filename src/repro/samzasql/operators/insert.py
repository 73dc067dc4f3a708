"""Stream-insert operator: array-tuple → record (the *ArrayToAvro* step)."""

from __future__ import annotations

from repro.samzasql.operators.base import Operator, OperatorContext


class InsertOperator(Operator):
    METRIC_KIND = "insert"

    def __init__(self, output_stream: str, field_names: list[str],
                 rowtime_index: int | None,
                 key_field_indexes: list[int] | None = None):
        super().__init__()
        self.output_stream = output_stream
        self.field_names = list(field_names)
        self.rowtime_index = rowtime_index
        self.key_field_indexes = key_field_indexes
        self._send_batch = None
        self._buffer: list = []

    def setup(self, context: OperatorContext) -> None:
        self._send_batch = context.send_batch

    def _key_of(self, row: list) -> str | None:
        if self.key_field_indexes is None:
            return None
        return "|".join(repr(row[i]) for i in self.key_field_indexes)

    def process_batch(self, port: int, rows: list, timestamps: list) -> None:
        n = len(rows)
        self.processed += n
        self.emitted += n
        # ArrayToAvro: positional array -> record dict
        names = self.field_names
        rt = self.rowtime_index
        if self.key_field_indexes is None:
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

    def describe(self) -> str:
        return f"Insert({self.output_stream})"
