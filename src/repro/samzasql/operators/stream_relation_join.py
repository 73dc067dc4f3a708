"""Stream-to-relation join through a bootstrap changelog (§4.4).

The relation "is available as a change log stream"; Samza delivers that
stream as a *bootstrap* input, fully consumed before any stream message.
This operator holds the relation partition assigned to the task decoded,
in a dict keyed by the ``repr`` of the relation row's primary key;
changelog upserts and tombstones keep it current.  It then performs the
join on each arriving stream tuple by a dict lookup when the join equates
a stream column with that key, and by a scan of the rows in key order
otherwise.  So what the operator holds never depends on the join that
reads it.

The paper's prototype kept the relation in its store and deserialized it
(Kryo) on every lookup, which made its join ≈2x slower than the
hand-written Samza job (§5.1).  Here, as for the sliding window's live
windows, the store is the relation's durability log: a task-local store
(named by the plan, its value codec compiled from the relation's row
type) takes every changelog upsert and tombstone, and is read only when
:meth:`StreamRelationJoinOperator.setup` fills the dict from it — empty
on a first start, the restored changelog after a relaunch.

A join on the relation's key normally does not run :meth:`_join` at
all: it is a stage of the job's fused function, rendered from the node
by :meth:`StreamRelationJoinOperator.render_stage`, which makes the same
one dict ``get`` per stream row on the operator each task binds.  This operator still owns the rows and the
store, applies the changelog on the relation port, and carries the
counters; its stream port is the interpreted reference, and the only
path for a join not on the key (a scan of the whole relation per row).
A task holds one partition of the relation, so the planner refuses a
join that could need another's: one not on the key, or keyed on
anything but a stream column, on more than one task.
"""

from __future__ import annotations

from typing import Any

from repro.samzasql.operators.base import Operator, OperatorContext
from repro.samzasql.physical import StreamRelationJoinNode
from repro.sql.codegen import compile_join_predicate, compile_scalar
from repro.sql.rex import RexInputRef
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

    def __init__(self, node: StreamRelationJoinNode):
        super().__init__(node)
        # the condition over the joined row, read as the rows ``l`` and ``r``
        self._condition = compile_join_predicate(
            node.condition, node.stream_width if node.stream_is_left
            else node.relation_width)
        self._stream_key = (None if node.stream_key_index is None
                            else compile_scalar(
                                RexInputRef(node.stream_key_index)))
        self._store = None
        #: The relation partition, decoded: ``repr(pk)`` -> row.
        self._rows: dict[str, Any] = {}
        #: The rows in key order, for a join not on the key (None: stale).
        self._scan: list | None = None

    def setup(self, context: OperatorContext) -> None:
        self._store = context.get_store(self.node.stores[0])  # durability log
        # Empty on a first start (the bootstrap arrives after setup), the
        # restored changelog after a relaunch.
        self._rows = dict(self._store.all())

    def state_size(self) -> int:
        """Cached relation rows; backs ``window-state-size``."""
        return len(self._rows)

    def process_batch(self, port: int, rows: list, timestamps: list) -> None:
        self.processed += len(rows)
        if port == RELATION_PORT:
            for row in rows:
                self._apply_changelog(row)
            self._scan = None
            return
        out_rows: list = []
        out_ts: list = []
        for row, ts in zip(rows, timestamps):
            self._join(row, ts, out_rows, out_ts)
        self.emit_batch(out_rows, out_ts)

    def _apply_changelog(self, row) -> None:
        """Upsert a relation row, or delete the one a tombstone names: in
        the rows, and in the store for durability."""
        if row.__class__ is not ChangelogTombstone:
            key = repr(row[self.node.relation_key_index])
            self._store.put(key, row)
            self._rows[key] = row
        elif row.key is not None:
            key = repr(row.key)
            self._store.delete(key)
            self._rows.pop(key, None)

    def _join(self, stream_row: list, timestamp_ms: int, out_rows: list,
              out_ts: list) -> None:
        node = self.node
        matched = False
        if self._stream_key is not None:
            relation_row = self._rows.get(repr(self._stream_key(stream_row)))
            candidates = [] if relation_row is None else [relation_row]
        else:
            candidates = self._scan
            if candidates is None:
                # The order the store scans in: its ordered key codec sorts
                # str keys as Python does.
                rows = self._rows
                candidates = self._scan = [rows[key] for key in sorted(rows)]
        for relation_row in candidates:
            if node.stream_is_left:
                left, right = stream_row, relation_row
            else:
                left, right = relation_row, stream_row
            if self._condition(left, right):
                matched = True
                out_rows.append(list(left) + list(right))
                out_ts.append(timestamp_ms)
        if not matched and node.join_kind == "LEFT":
            out_rows.append(list(stream_row) + [None] * node.relation_width)
            out_ts.append(timestamp_ms)

    @staticmethod
    def render_stage(node: StreamRelationJoinNode, i: int, row: str,
                     exprs: list) -> tuple[dict, list, list, list]:
        """:meth:`_join` with the key as source for stage ``i`` of the
        fused function, from the node alone: ``(constants, batch_lines,
        record_lines, end_lines)``, reading the binding task's operator
        as ``_op{i}``.

        ``exprs`` are the stream row's key and the join condition, over
        the decoded record and the looked-up relation row ``row``.  Per
        record: one ``get`` on the decoded rows under the key's ``repr``;
        a miss or a failed condition skips the record (INNER) or reads a
        row of nulls (LEFT).  The ``get`` is bound per batch, so the
        function always reads the rows the relation port keeps current.
        """
        key, condition = exprs
        body = [f"        {row} = _get{i}(repr({key}))",
                f"        if {row} is None or not ({condition}):",
                (f"            {row} = _null{i}" if node.join_kind == "LEFT"
                 else "            continue")]
        return ({f"_null{i}": (None,) * node.relation_width},
                [f"    _get{i} = _op{i}._rows.get"], body, [])
