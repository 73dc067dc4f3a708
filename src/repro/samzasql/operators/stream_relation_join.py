"""Stream-to-relation join through a bootstrap changelog (§4.4).

The relation "is available as a change log stream"; Samza delivers that
stream as a *bootstrap* input, fully consumed before any stream message.
This operator caches the relation partition assigned to the task in a
task-local store keyed by the relation's primary key (changelog upserts
and tombstones keep it current), then performs the join on each arriving
stream tuple by store lookup.

The relation store's value serde is the generic object serde (the paper's
Kryo role) — the deserialization cost on every lookup is what makes
SamzaSQL's join ≈2x slower than the hand-written Samza job (§5.1).
"""

from __future__ import annotations

from repro.samzasql.operators.base import Operator, OperatorContext
from repro.sql.codegen import compile_lambda

STREAM_PORT = 0
RELATION_PORT = 1


class StreamRelationJoinOperator(Operator):
    METRIC_KIND = "relation-join"

    def __init__(self, relation: str, relation_field_names: list[str],
                 relation_key_index: int, stream_is_left: bool,
                 stream_width: int, relation_width: int,
                 condition_source: str, stream_key_source: str | None,
                 relation_key_source: str | None, join_kind: str,
                 field_names: list[str]):
        super().__init__()
        self.relation = relation
        self.relation_field_names = list(relation_field_names)
        self.relation_key_index = relation_key_index
        self.stream_is_left = stream_is_left
        self.stream_width = stream_width
        self.relation_width = relation_width
        self.condition_source = condition_source
        self.join_kind = join_kind
        self.field_names = list(field_names)
        self._condition = compile_lambda(condition_source, params="l, r")
        self._stream_key = (None if stream_key_source is None
                            else compile_lambda(stream_key_source))
        self._relation_key = (None if relation_key_source is None
                              else compile_lambda(relation_key_source))
        self._store = None
        self.store_name = f"sql-relation-{relation.lower()}"

    def setup(self, context: OperatorContext) -> None:
        self._store = context.get_store(self.store_name)

    def state_size(self) -> int:
        """Cached relation rows; backs ``window-state-size``."""
        return 0 if self._store is None else len(self._store)

    def process_batch(self, port: int, rows: list, timestamps: list) -> None:
        self.processed += len(rows)
        if port == RELATION_PORT:
            for row in rows:
                self._apply_changelog(row)
            return
        out_rows: list = []
        out_ts: list = []
        for row, ts in zip(rows, timestamps):
            self._join(row, ts, out_rows, out_ts)
        self.emit_batch(out_rows, out_ts)

    def _apply_changelog(self, row: list) -> None:
        """Upsert (or delete, for tombstones) a relation row."""
        if row is None:
            return
        if self._relation_key is not None:
            key = repr(self._relation_key(row))
        else:
            key = repr(row[self.relation_key_index])
        self._store.put(key, row)

    def delete_relation_key(self, key_value) -> None:
        self._store.delete(repr(key_value))

    def _join(self, stream_row: list, timestamp_ms: int, out_rows: list,
              out_ts: list) -> None:
        matched = False
        if self._stream_key is not None:
            relation_row = self._store.get(repr(self._stream_key(stream_row)))
            candidates = [] if relation_row is None else [relation_row]
        else:
            candidates = [value for _key, value in self._store.all()]
        for relation_row in candidates:
            if self.stream_is_left:
                left, right = stream_row, relation_row
            else:
                left, right = relation_row, stream_row
            if self._condition(left, right):
                matched = True
                out_rows.append(list(left) + list(right))
                out_ts.append(timestamp_ms)
        if not matched and self.join_kind == "LEFT":
            out_rows.append(list(stream_row) + [None] * self.relation_width)
            out_ts.append(timestamp_ms)

    def describe(self) -> str:
        return f"StreamRelationJoin({self.relation})"
