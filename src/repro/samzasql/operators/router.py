"""The message router: builds the operator DAG from a physical plan and
routes each deserialized input message into the right scan (or join
relation port).

This is the task-side half of the paper's two-step planning: the plan
arrives as JSON (from ZooKeeper), each node's expression trees are rendered
to the sources its operator compiles, operators are instantiated and
chained, and incoming envelopes flow ``stream → entry operator → ... →
insert``.
"""

from __future__ import annotations

from typing import Any

from repro.common.errors import PlannerError
from repro.samzasql.operators.base import Operator, OperatorContext
from repro.samzasql.operators.filter import FilterOperator
from repro.samzasql.operators.group_window import GroupWindowAggOperator
from repro.samzasql.operators.insert import InsertOperator
from repro.samzasql.operators.project import ProjectOperator
from repro.samzasql.operators.scan import ScanOperator
from repro.samzasql.operators.sliding_window import SlidingWindowOperator
from repro.samzasql.operators.stream_relation_join import (
    RELATION_PORT,
    STREAM_PORT,
    ChangelogTombstone,
    StreamRelationJoinOperator,
)
from repro.samzasql.operators.multi_way_join import MultiWayStreamJoinOperator
from repro.samzasql.physical import (
    AggSpec,
    FilterNode,
    GroupWindowAggNode,
    InsertNode,
    MultiWayStreamJoinNode,
    PhysicalNode,
    PhysicalPlan,
    ProjectNode,
    ScanNode,
    SlidingWindowNode,
    StreamRelationJoinNode,
)
from repro.sql.codegen import render, render_projection


class _Port:
    """An entry point: deliver messages of one stream into (operator, port)."""

    __slots__ = ("operator", "port", "field_names")

    def __init__(self, operator: Operator, port: int,
                 field_names: list[str] | None = None):
        self.operator = operator
        self.port = port
        self.field_names = field_names

    def deliver_batch(self, messages: list, timestamps: list) -> None:
        names = self.field_names
        if names is not None:
            # relation changelog records arrive as dicts: convert to
            # arrays; tombstones pass as they are
            messages = [message if message.__class__ is ChangelogTombstone
                        else [message[name] for name in names]
                        for message in messages]
        self.operator.receive_batch(self.port, messages, timestamps)


class MessageRouter:
    """stream name → entry ports, plus timer fan-out over all operators."""

    def __init__(self, entries: dict[str, list[_Port]], operators: list[Operator]):
        self._entries = entries
        self.operators = operators

    def route(self, stream: str, message: Any, timestamp_ms: int) -> None:
        self.route_batch(stream, [message], [timestamp_ms])

    def route_batch(self, stream: str, messages: list, timestamps: list) -> None:
        """Route one stream's record batch; operators forward whole lists
        downstream."""
        try:
            ports = self._entries[stream]
        except KeyError:
            raise PlannerError(
                f"router has no entry for stream {stream!r}; known: "
                f"{sorted(self._entries)}") from None
        for port in ports:
            port.deliver_batch(messages, timestamps)

    def on_timer(self, now_ms: int) -> None:
        for operator in self.operators:
            operator.on_timer(now_ms)

    def flush_sinks(self) -> None:
        """Send buffered insert output."""
        for operator in self.operators:
            if isinstance(operator, InsertOperator):
                operator.flush()

    def operator_chain(self) -> str:
        return " -> ".join(op.describe() for op in self.operators)


def changelog_key_types(plan: PhysicalPlan) -> dict[str, str]:
    """Relation changelog topic → SQL type of the relation's key field,
    for every stream-to-relation join of the plan: how a tombstone's
    changelog key becomes the primary key it deletes."""
    out: dict[str, str] = {}
    pending = [plan.root]
    while pending:
        node = pending.pop()
        pending.extend(node.inputs)
        if isinstance(node, StreamRelationJoinNode):
            layout = plan.stores[node.stores[0]]
            out[node.relation_stream] = layout.row[node.relation_key_index][1]
    return out


def build_router(plan: PhysicalPlan, context: OperatorContext) -> MessageRouter:
    """Instantiate operators from the plan and wire the DAG."""
    entries: dict[str, list[_Port]] = {}
    operators: list[Operator] = []

    def build(node: PhysicalNode) -> Operator:
        operator = _instantiate(node)
        operators.append(operator)
        if isinstance(node, ScanNode):
            entries.setdefault(node.stream, []).append(_Port(operator, 0))
            return operator
        if isinstance(node, MultiWayStreamJoinNode):
            for port, child_node in enumerate(node.inputs):
                child = build(child_node)
                child.downstream = _PortAdapter(operator, port)
            return operator
        if isinstance(node, StreamRelationJoinNode):
            stream_side = build(node.inputs[0])
            stream_side.downstream = _PortAdapter(operator, STREAM_PORT)
            entries.setdefault(node.relation_stream, []).append(_Port(
                operator, RELATION_PORT,
                field_names=node.relation_field_names))
            return operator
        # single-input operators
        child = build(node.inputs[0])
        child.downstream = operator
        return operator

    root = build(plan.root)
    # Stable operator ids (metric paths): build order is deterministic for a
    # given plan, so "filter-1" names the same node on every container.
    for index, operator in enumerate(operators):
        operator.op_id = f"{operator.METRIC_KIND}-{index}"
        operator.setup(context)
    # The router's operator list is leaf-to-root; reverse for display.
    return MessageRouter(entries, list(reversed(operators)))


class _PortAdapter(Operator):
    """Adapts the single-output ``emit`` protocol onto a join input port."""

    def __init__(self, target: Operator, port: int):
        super().__init__()
        self._target = target
        self._port = port

    def process_batch(self, port: int, rows: list, timestamps: list) -> None:
        self._target.receive_batch(self._port, rows, timestamps)

    def describe(self) -> str:  # pragma: no cover - debugging aid
        return f"port{self._port}->{self._target.describe()}"


def _instantiate(node: PhysicalNode) -> Operator:
    """The node's operator, constructed with its trees rendered to source:
    over the row ``r``, a relation join's condition over ``l`` and ``r``,
    a K-way join's over the per-input rows ``p0..p{K-1}``."""
    if isinstance(node, ScanNode):
        return ScanOperator(node.stream, node.field_names, node.rowtime_index)
    if isinstance(node, FilterNode):
        return FilterOperator(render(node.predicate))
    if isinstance(node, ProjectNode):
        return ProjectOperator(render_projection(node.exprs), node.field_names)
    if isinstance(node, SlidingWindowNode):
        return SlidingWindowOperator(
            node.key_source([render(key) for key in node.partition_keys]),
            render(node.order), node.frame_mode, node.preceding_ms,
            node.preceding_rows, [AggSpec.of(call) for call in node.aggs],
            node.field_names, node.stores)
    if isinstance(node, GroupWindowAggNode):
        return GroupWindowAggOperator(
            node.window_kind, render(node.time), node.emit_ms, node.retain_ms,
            node.align_ms, render_projection(node.group_keys),
            [AggSpec.of(call) for call in node.aggs], node.field_names,
            node.stores)
    if isinstance(node, MultiWayStreamJoinNode):
        rows = [f"p{i}[{j}]" for i, width in enumerate(node.widths)
                for j in range(width)]
        keys = (["None"] * len(node.widths) if node.key_indexes is None
                else [f"r[{key}]" for key in node.key_indexes])
        return MultiWayStreamJoinOperator(
            node.widths, node.time_indexes, keys, node.upper_bounds_ms,
            node.probe_orders, render(node.condition, ref_sources=rows),
            node.bucket_ms, node.field_names, node.stores)
    if isinstance(node, StreamRelationJoinNode):
        left_width = (node.stream_width if node.stream_is_left
                      else node.relation_width)
        return StreamRelationJoinOperator(
            node.relation, node.relation_field_names, node.relation_key_index,
            node.stream_is_left, node.stream_width, node.relation_width,
            render(node.condition, left_width=left_width),
            None if node.stream_key_index is None
            else f"r[{node.stream_key_index}]",
            node.join_kind, node.field_names, node.stores)
    if isinstance(node, InsertNode):
        return InsertOperator(node.output_stream, node.field_names,
                              node.rowtime_index, node.key_field_indexes)
    raise PlannerError(f"cannot instantiate operator for {node.kind!r}")
