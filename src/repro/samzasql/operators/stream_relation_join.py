"""Stream-to-relation join through a bootstrap changelog (§4.4).

The relation "is available as a change log stream"; Samza delivers that
stream as a *bootstrap* input, fully consumed before any stream message.
This operator caches the relation partition assigned to the task in a
task-local store keyed by the ``repr`` of the relation row's join key
(its primary key unless the join says otherwise); changelog upserts and
tombstones keep it current.  It then performs the join on each arriving
stream tuple by store lookup.

The paper's prototype stored the relation with Kryo, and the
deserialization on every lookup made its join ≈2x slower than the
hand-written Samza job (§5.1).  Here the store's value codec is compiled
from the relation's row type, like the stream's own Avro decoder.

A join with an equi-key normally does not run :meth:`_join` at all: it
is a stage of the task's fused function
(:class:`~repro.samzasql.compile.RelationLookup`), which makes the same
one ``get`` per stream row.  This operator still owns the store, applies
the changelog on the relation port, and carries the counters; its stream
port is the interpreted reference, and the only path for a join without
an equi-key (a scan of the whole store per row).  A task holds one
partition of the relation, so the planner refuses a join that could
need another's: one without an equi-key, or keyed on anything but a
stream column, on more than one task.
"""

from __future__ import annotations

from typing import Any

from repro.samzasql.operators.base import Operator, OperatorContext
from repro.sql.codegen import compile_lambda
from repro.sql.types import SqlType

STREAM_PORT = 0
RELATION_PORT = 1

_INT_TYPES = {SqlType.INTEGER.value, SqlType.BIGINT.value,
              SqlType.TIMESTAMP.value, SqlType.INTERVAL.value}


class ChangelogTombstone:
    """A relation changelog delete on the relation port: the record's
    primary key, typed like the key field (``None`` when the changelog key
    is missing or does not parse as that type — it then names no row)."""

    __slots__ = ("key",)

    def __init__(self, key: Any):
        self.key = key

    @staticmethod
    def typed(raw_key: str | None, sql_type: str) -> "ChangelogTombstone":
        """The tombstone for a changelog key as the stream's key serde
        decoded it: ``"1"`` of an INTEGER key is ``1``, of a VARCHAR key
        ``"1"``."""
        try:
            if raw_key is not None and sql_type in _INT_TYPES:
                return ChangelogTombstone(int(raw_key))
            if raw_key is not None and sql_type == SqlType.DOUBLE.value:
                return ChangelogTombstone(float(raw_key))
        except ValueError:
            return ChangelogTombstone(None)
        return ChangelogTombstone(raw_key)


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
        # Store keys are primary keys unless the join keys on another field.
        self._keyed_by_primary_key = relation_key_source in (
            None, f"r[{relation_key_index}]")
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

    def _apply_changelog(self, row) -> None:
        """Upsert a relation row, or delete the one a tombstone names."""
        if row.__class__ is ChangelogTombstone:
            self._delete(row.key)
            return
        if self._relation_key is not None:
            key = repr(self._relation_key(row))
        else:
            key = repr(row[self.relation_key_index])
        self._store.put(key, row)

    def _delete(self, primary_key) -> None:
        if primary_key is None:
            return
        if self._keyed_by_primary_key:
            self._store.delete(repr(primary_key))
            return
        index = self.relation_key_index
        for store_key, row in list(self._store.all()):
            if row[index] == primary_key:
                self._store.delete(store_key)

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
