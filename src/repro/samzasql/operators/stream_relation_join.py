"""Stream-to-relation join through a bootstrap changelog (§4.4).

The relation "is available as a change log stream"; Samza delivers that
stream as a *bootstrap* input, fully consumed before any stream message.
This operator caches the relation partition assigned to the task in a
task-local store (named by the plan) keyed by the ``repr`` of the
relation row's primary key; changelog upserts and tombstones keep it
current.  It then performs the join on each arriving stream tuple by
store lookup when the join equates a stream column with that key, and by
a scan of the store otherwise.  So what the store holds never depends on
the join that fills it.

The paper's prototype stored the relation with Kryo, and the
deserialization on every lookup made its join ≈2x slower than the
hand-written Samza job (§5.1).  Here the store's value codec is compiled
from the relation's row type, like the stream's own Avro decoder.

A join on the relation's key normally does not run :meth:`_join` at
all: it is a stage of the task's fused function, rendered by
:meth:`StreamRelationJoinOperator.render_stage`, which makes the same one
``get`` per stream row.  This operator still owns the store, applies the
changelog on the relation port, and carries the counters; its stream
port is the interpreted reference, and the only path for a join not on
the key (a scan of the whole store per row).  A task holds one
partition of the relation, so the planner refuses a join that could
need another's: one not on the key, or keyed on anything but a stream
column, on more than one task.
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
                 join_kind: str, field_names: list[str], stores: list[str]):
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
        self.stores = list(stores)  # the cached relation
        self._condition = compile_lambda(condition_source, params="l, r")
        self._stream_key = (None if stream_key_source is None
                            else compile_lambda(stream_key_source))
        self._store = None

    def setup(self, context: OperatorContext) -> None:
        self._store = context.get_store(self.stores[0])

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
        if row.__class__ is not ChangelogTombstone:
            self._store.put(repr(row[self.relation_key_index]), row)
        elif row.key is not None:
            self._store.delete(repr(row.key))

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

    def render_stage(self, i: int, row: str,
                     exprs: list) -> tuple[dict, list, list, list]:
        """:meth:`_join` with the key as source for stage ``i`` of the
        fused function: ``(namespace, batch_lines, record_lines,
        end_lines)``.

        ``exprs`` are the stream row's key and the join condition, over
        the decoded record and the looked-up relation row ``row``.  Per
        record: one ``get`` under the key's ``repr``; a miss or a failed
        condition skips the record (INNER) or reads a row of nulls
        (LEFT).  The store's own ``get`` is bound per batch, never here:
        whatever wraps the store's class sees every lookup.
        """
        key, condition = exprs
        namespace = {f"_store{i}": self._store,
                     f"_null{i}": (None,) * self.relation_width}
        body = [f"        {row} = _get{i}(repr({key}))",
                f"        if {row} is None or not ({condition}):",
                (f"            {row} = _null{i}" if self.join_kind == "LEFT"
                 else "            continue")]
        return namespace, [f"    _get{i} = _store{i}.get"], body, []

    def describe(self) -> str:
        return f"StreamRelationJoin({self.relation})"
