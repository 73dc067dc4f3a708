"""Logical plan → SamzaSQL physical plan.

This is the SamzaSQL-specific physical planning step of Figure 3: map each
logical operator onto the operator layer, carrying its expressions as the
Rex trees the logical plan holds (each task renders them), classify joins
as stream-to-stream (window bounds and key family read off the join
condition by :func:`~repro.sql.rel.multi_join.analyze_multi_join`, §3.8.1)
or stream-to-relation (relation side becomes a bootstrap changelog store,
§4.4), and reject shapes the streaming runtime cannot execute (unwindowed
aggregates over unbounded streams, streaming a pure table...).  Each
operator store gets a :class:`~repro.samzasql.physical.StoreLayout` from
the row types at hand, which picks its codecs, and a name no other
operator instance shares (:meth:`PhysicalPlanBuilder._own_stores`), which
the node carries for its operator to open.
:func:`single_task_relation_joins` names the relation joins a job may only
run on one task; the shell refuses them on more.
"""

from __future__ import annotations

from repro.common.errors import PlannerError
from repro.samzasql.physical import (
    FilterNode,
    GroupWindowAggNode,
    InsertNode,
    MultiWayStreamJoinNode,
    PhysicalNode,
    PhysicalPlan,
    ProjectNode,
    ScanNode,
    SlidingWindowNode,
    StoreLayout,
    StreamRelationJoinNode,
)
from repro.sql.catalog import Catalog, StreamDefinition, TableDefinition
from repro.sql.rel.multi_join import analyze_multi_join, stream_scan_of
from repro.sql.rel.nodes import (
    LogicalAggregate,
    LogicalDelta,
    LogicalFilter,
    LogicalJoin,
    LogicalMultiJoin,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    LogicalWindowAgg,
    RelNode,
)
from repro.sql.rex import (
    AggCall,
    RexCall,
    RexInputRef,
    RexNode,
    split_conjunction,
)
from repro.sql.types import SqlType


#: The ordered-key component each SQL type is stored as (see
#: :mod:`repro.serde.state_codecs`); other types have none.
_KEY_KINDS = {
    SqlType.VARCHAR: "str",
    SqlType.INTEGER: "int",
    SqlType.BIGINT: "int",
    SqlType.TIMESTAMP: "int",
    SqlType.INTERVAL: "int",
}

#: A multi-way join bucket's index record: rows buffered, next seq.
_JOIN_INDEX_RECORD = [["count", "BIGINT"], ["seq", "BIGINT"]]


def _scan_column(node: PhysicalNode, index: int) -> bool:
    """Whether column ``index`` of ``node``'s output is a stream scan's
    column, passed through unchanged (not computed, not a relation's)."""
    while not isinstance(node, ScanNode):
        if isinstance(node, (ProjectNode, GroupWindowAggNode)):
            if isinstance(node, ProjectNode):
                elements = node.exprs
            else:  # window start, window end, the group keys, aggregates
                elements = [None, None, *node.group_keys]
            expr = elements[index] if index < len(elements) else None
            if not isinstance(expr, RexInputRef):
                return False
            index = expr.index
        elif isinstance(node, StreamRelationJoinNode):
            if not node.stream_is_left:
                index -= node.relation_width
            if not 0 <= index < node.stream_width:
                return False
        elif isinstance(node, MultiWayStreamJoinNode):
            port = 0
            while index >= node.widths[port]:
                index -= node.widths[port]
                port += 1
            node = node.inputs[port]
            continue
        elif isinstance(node, SlidingWindowNode):
            if index >= len(node.field_names) - len(node.aggs):
                return False
        elif not isinstance(node, FilterNode):
            return False
        node = node.inputs[0]
    return True


def single_task_relation_joins(plan: PhysicalPlan):
    """Each relation join that is only right on a single task, as
    ``(join, stream-side key field)`` — the key is ``None`` for a join
    not on the relation's key.

    A task bootstraps only its own partition of a relation's changelog,
    which is hashed by the relation's key; only a stream column can be
    co-partitioned with it.  A key read off another relation (``Orders ⋈
    Products ⋈ Suppliers ON p.supplierId = s.supplierId``) or computed
    finds its row in some other task's partition, and a join not on the
    relation's key scans one partition of the relation.
    """
    pending = [plan.root]
    while pending:
        node = pending.pop()
        pending.extend(node.inputs)
        if not isinstance(node, StreamRelationJoinNode):
            continue
        index = node.stream_key_index
        if index is None:
            yield node, None
        elif not _scan_column(node.inputs[0], index):
            offset = 0 if node.stream_is_left else node.relation_width
            yield node, node.field_names[offset + index]


def _contains_stream(node: RelNode) -> bool:
    if isinstance(node, LogicalScan):
        return node.is_stream
    return any(_contains_stream(child) for child in node.inputs)


def _agg_call(call: AggCall) -> RexCall:
    """The aggregate as the plan carries it: a call of its function."""
    return RexCall(call.func, () if call.arg is None else (call.arg,),
                   call.type)


def _row_fields(row_type) -> list[list[str]]:
    return [[f.name, f.type.value] for f in row_type.fields]


def _field(expr: RexNode | None, row_type, name: str) -> list[str]:
    """``[name, SQL type]`` of a stored expression: an input field keeps
    its own name; COUNT(*)'s absent argument is an always-null BIGINT."""
    if expr is None:
        return [name, SqlType.BIGINT.value]
    if isinstance(expr, RexInputRef):
        name = row_type.fields[expr.index].name
    return [name, expr.type.value]


class PhysicalPlanBuilder:
    """One-shot builder: collects job requirements while lowering."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self.input_streams: list[str] = []
        self.bootstrap_streams: list[str] = []
        self.stores: dict[str, StoreLayout] = {}

    def _own_stores(self, family: str,
                    layouts: dict[str, StoreLayout]) -> list[str]:
        """Name one operator instance's stores and record their layouts.

        The first instance of a family owns ``sql-<family>-<part>`` per
        part; a later one whose names would collide owns
        ``sql-<family><N>-<part>`` with the first free N, so no two
        instances ever share a store (nested windows, a join cascade, a
        relation joined twice)."""
        prefix, n = f"sql-{family}-", 1
        while any(prefix + part in self.stores for part in layouts):
            n += 1
            prefix = f"sql-{family}{n}-"
        names = [prefix + part for part in layouts]
        self.stores.update(zip(names, layouts.values()))
        return names

    def build(self, logical: RelNode, output_stream: str,
              relation_key: list[str] | None = None) -> PhysicalPlan:
        """Lower the plan.  With ``relation_key``, the output is a relation
        stream (future-work item 3): records are keyed by the named output
        fields and the output topic becomes a compacted changelog."""
        root = self._lower(logical)
        row_type = logical.row_type
        rowtime_index = None
        for i, f in enumerate(row_type.fields):
            if f.name.lower() == "rowtime" and f.type in (SqlType.TIMESTAMP, SqlType.ANY):
                rowtime_index = i
                break
        key_indexes = None
        if relation_key is not None:
            try:
                key_indexes = [row_type.index_of(name) for name in relation_key]
            except Exception as exc:
                raise PlannerError(
                    f"relation key {relation_key} must name output columns "
                    f"{row_type.field_names}: {exc}") from exc
            if not key_indexes:
                raise PlannerError("relation output needs at least one key column")
        insert = InsertNode(
            output_stream=output_stream,
            field_names=list(row_type.field_names),
            field_types=[t.value for t in row_type.field_types],
            rowtime_index=rowtime_index,
            key_field_indexes=key_indexes,
        )
        insert.inputs = [root]
        if not self.input_streams:
            raise PlannerError(
                "plan has no stream inputs; use the batch executor for "
                "table-only queries")
        # a literal the plan JSON would not carry exactly is refused here
        insert.to_dict()
        return PhysicalPlan(
            root=insert,
            input_streams=list(dict.fromkeys(self.input_streams)),
            bootstrap_streams=list(dict.fromkeys(self.bootstrap_streams)),
            stores=dict(self.stores),
            output_stream=output_stream,
            relation_output=key_indexes is not None,
        )

    # -- lowering ----------------------------------------------------------------

    def _lower(self, node: RelNode) -> PhysicalNode:
        if isinstance(node, LogicalDelta):
            # Leftover Delta over a stream scan is a no-op at this layer.
            if _contains_stream(node.input):
                return self._lower(node.input)
            raise PlannerError("cannot stream a table-only subplan")
        if isinstance(node, LogicalScan):
            return self._lower_scan(node)
        if isinstance(node, LogicalFilter):
            physical = FilterNode(predicate=node.condition)
            physical.inputs = [self._lower(node.input)]
            return physical
        if isinstance(node, LogicalProject):
            physical = ProjectNode(exprs=list(node.exprs),
                                   field_names=list(node.names))
            physical.inputs = [self._lower(node.input)]
            return physical
        if isinstance(node, LogicalWindowAgg):
            return self._lower_sliding_window(node)
        if isinstance(node, LogicalAggregate):
            return self._lower_aggregate(node)
        if isinstance(node, LogicalJoin):
            return self._lower_join(node)
        if isinstance(node, LogicalMultiJoin):
            return self._lower_multi_join(
                node.join_inputs, node.condition, node.row_type)
        if isinstance(node, LogicalSort):
            raise PlannerError(
                "ORDER BY / LIMIT is not defined over an unbounded stream; "
                "drop the STREAM keyword to run it over the stream's history")
        raise PlannerError(f"no physical lowering for {type(node).__name__}")

    def _lower_scan(self, node: LogicalScan) -> PhysicalNode:
        if not node.is_stream:
            raise PlannerError(
                f"table {node.source!r} can only appear as the relation side "
                f"of a stream-to-relation join in a streaming query")
        definition = self.catalog.stream(node.source)
        topic = definition.topic if definition is not None else node.source
        self.input_streams.append(topic)
        return ScanNode(
            stream=topic,
            field_names=list(node.row_type.field_names),
            rowtime_index=node.rowtime_index,
        )

    def _lower_sliding_window(self, node: LogicalWindowAgg) -> PhysicalNode:
        """The window's stores: ``sql-window-messages`` holds ``(partition
        key..., seq) → [order value, *aggregate arguments]`` — what a
        rebuild reads, not the whole input row — and ``sql-window-state``
        holds ``(partition key...) → {seq}`` (``sql-window2-*`` for a
        second window of the plan, and so on).  The partition key is its
        typed values when each has an ordered-key kind, else one string
        (their ``repr``)."""
        kinds = [_KEY_KINDS.get(expr.type) for expr in node.partition_exprs]
        repr_key = not all(kinds)
        if repr_key:
            kinds = ["str"]
        input_type = node.input.row_type
        physical = SlidingWindowNode(
            partition_keys=list(node.partition_exprs),
            repr_key=repr_key,
            order=node.order_expr,
            frame_mode=node.frame_mode,
            preceding_ms=node.preceding_ms,
            preceding_rows=node.preceding_rows,
            aggs=[_agg_call(c) for c in node.agg_calls],
            field_names=list(node.row_type.field_names),
        )
        physical.inputs = [self._lower(node.input)]
        physical.stores = self._own_stores("window", {
            "messages": StoreLayout.typed(
                [*kinds, "int"],
                row=[_field(node.order_expr, input_type, "order"),
                     *(_field(call.arg, input_type, call.name)
                       for call in node.agg_calls)]),
            "state": StoreLayout.typed(
                kinds, record=[["seq", SqlType.BIGINT.value]])})
        return physical

    def _lower_aggregate(self, node: LogicalAggregate) -> PhysicalNode:
        if node.window is None:
            if _contains_stream(node.input):
                raise PlannerError(
                    "aggregation over an unbounded stream requires a window "
                    "(TUMBLE/HOP in GROUP BY, or FLOOR(rowtime TO ...))")
            raise PlannerError(
                "table-only aggregation belongs to the batch executor")
        for call in node.agg_calls:
            if call.distinct:
                raise PlannerError("DISTINCT aggregates are not supported in "
                                   "streaming windows")
        window = node.window
        physical = GroupWindowAggNode(
            window_kind=window.kind,
            time=window.time_expr,
            emit_ms=window.emit_ms,
            retain_ms=window.retain_ms,
            align_ms=window.align_ms,
            group_keys=list(node.group_exprs),
            aggs=[_agg_call(c) for c in node.agg_calls],
            field_names=list(node.row_type.field_names),
        )
        physical.inputs = [self._lower(node.input)]
        physical.stores = self._own_stores("group", {"windows": StoreLayout(
            "str", fallback="accumulators and the meta record are not rows")})
        return physical

    # -- joins ---------------------------------------------------------------------------

    def _lower_join(self, node: LogicalJoin) -> PhysicalNode:
        left_stream = _contains_stream(node.left)
        right_stream = _contains_stream(node.right)
        if left_stream and right_stream:
            if node.kind != "INNER":
                raise PlannerError("stream-to-stream joins must be INNER joins")
            return self._lower_multi_join(
                node.inputs, node.condition, node.row_type)
        if left_stream or right_stream:
            return self._lower_stream_relation(node, stream_is_left=left_stream)
        raise PlannerError("table-to-table joins belong to the batch executor")

    def _lower_multi_join(self, inputs: tuple[RelNode, ...],
                          condition: RexNode, row_type) -> PhysicalNode:
        """Lower a windowed stream-to-stream join — a binary join (K = 2)
        or a collapsed chain (K >= 3) — onto the K-way operator.

        The probe order per arrival port is the other inputs sorted by
        *expected state size*: each input's window span (its retention in
        the shared layout) times its declared arrival rate when the
        catalog knows every rate, the window span alone otherwise.
        Smallest expected side first means an empty or sparse side
        short-circuits the probe before the big sides are touched.
        """
        analysis = analyze_multi_join(inputs, condition)
        # A collapsed chain has every rowtime (the rule proved it bounded).
        for side, index in zip(("left", "right"), analysis.rowtime_indexes):
            if index is None:
                raise PlannerError(
                    f"{side} join input has no rowtime field; stream-to-stream "
                    f"joins need event timestamps on both sides")
        if not analysis.bounded:
            raise PlannerError(
                "stream-to-stream join requires a finite time window in the "
                "join condition, e.g. `a.rowtime BETWEEN b.rowtime - INTERVAL "
                "'2' SECOND AND b.rowtime + INTERVAL '2' SECOND`")
        k = analysis.k

        input_names: list[str] = []
        rates: list[float | None] = []
        for i, child in enumerate(inputs):
            scan = stream_scan_of(child)
            if scan is not None:
                input_names.append(scan.source)
                definition = self.catalog.stream(scan.source)
                rates.append(None if definition is None
                             else definition.rate_per_sec)
            else:
                input_names.append(f"input{i}")
                rates.append(None)

        spans = [analysis.retention_ms(i) for i in range(k)]
        if all(rate is not None for rate in rates):
            weights = [span * rate / 1000.0
                       for span, rate in zip(spans, rates)]
            order_metric = "window_ms*rate"
        else:
            weights = [float(span) for span in spans]
            order_metric = "window_ms"
        probe_orders = [
            sorted((j for j in range(k) if j != i),
                   key=lambda j: (weights[j], j))
            for i in range(k)
        ]

        # Bucket granularity: a fraction of the longest retention, so a
        # probe touches a handful of buckets and purge drops whole ones.
        bucket_ms = max(1, max(spans) // 8) if max(spans) else 1

        physical = MultiWayStreamJoinNode(
            widths=list(analysis.widths),
            time_indexes=list(analysis.rowtime_indexes),
            # keyless: one constant key, every buffered row is a candidate
            key_indexes=(None if analysis.key_indexes is None
                         else list(analysis.key_indexes)),
            upper_bounds_ms=[list(row) for row in analysis.upper_ms],
            probe_orders=probe_orders,
            condition=condition,
            bucket_ms=bucket_ms,
            input_names=input_names,
            input_weights=weights,
            order_metric=order_metric,
            field_names=list(row_type.field_names),
        )
        physical.inputs = [self._lower(child) for child in inputs]
        # sql-mjoin-<port>: (bucket, seq) → buffered row; (bucket, -1) →
        # the bucket's index record, which sorts ahead of its rows
        physical.stores = self._own_stores("mjoin", {
            str(i): StoreLayout.typed(
                ["int", "int"], row=_row_fields(child.row_type),
                record=_JOIN_INDEX_RECORD)
            for i, child in enumerate(inputs)})
        return physical

    def _lower_stream_relation(self, node: LogicalJoin,
                               stream_is_left: bool) -> PhysicalNode:
        stream_side = node.left if stream_is_left else node.right
        relation_side = node.right if stream_is_left else node.left
        if not isinstance(relation_side, LogicalScan):
            raise PlannerError(
                "the relation side of a stream-to-relation join must be a "
                "plain table (push filters into the stream side or "
                "pre-materialize a view of the relation)")
        definition = self.catalog.table(relation_side.source)
        if definition is None:
            raise PlannerError(f"unknown table {relation_side.source!r}")
        if node.kind not in ("INNER", "LEFT"):
            raise PlannerError(
                "stream-to-relation joins support INNER and LEFT (stream side) only")
        if node.kind == "LEFT" and not stream_is_left:
            raise PlannerError("LEFT stream-to-relation join requires the "
                               "stream on the left")

        left_width = len(node.left.row_type)
        key_index = (definition.row_type.index_of(definition.key_field)
                     if definition.key_field else 0)

        physical = StreamRelationJoinNode(
            relation=definition.name,
            relation_stream=definition.changelog_topic,
            relation_field_names=list(definition.row_type.field_names),
            relation_key_index=key_index,
            stream_is_left=stream_is_left,
            stream_width=len(stream_side.row_type),
            relation_width=len(relation_side.row_type),
            condition=node.condition,
            stream_key_index=self._stream_key(
                node.condition, left_width, stream_is_left, key_index),
            join_kind=node.kind,
            field_names=list(node.row_type.field_names),
        )
        physical.inputs = [self._lower(stream_side)]
        self.input_streams.append(definition.changelog_topic)
        self.bootstrap_streams.append(definition.changelog_topic)
        physical.stores = self._own_stores("relation", {
            definition.name.lower(): StoreLayout.typed(
                "str", row=_row_fields(definition.row_type))})
        return physical

    # -- condition analysis -------------------------------------------------------------------

    @staticmethod
    def _stream_key(condition: RexNode, left_width: int, stream_is_left: bool,
                    key_index: int) -> int | None:
        """The stream column the join equates with the relation's primary
        key (the first such conjunct), as its index in the stream row;
        None when no conjunct is on the key — the store is keyed by it, so
        such a join scans the store."""
        key = key_index + (left_width if stream_is_left else 0)
        offset = 0 if stream_is_left else left_width
        for conjunct in split_conjunction(condition):
            if not (isinstance(conjunct, RexCall) and conjunct.op == "="):
                continue
            a, b = conjunct.operands
            if not (isinstance(a, RexInputRef) and isinstance(b, RexInputRef)):
                continue
            for ref, other in ((a, b), (b, a)):
                if (ref.index == key
                        and (other.index < left_width) == stream_is_left):
                    return other.index - offset
        return None
