"""The message router: builds the operator DAG from a physical plan and
routes each deserialized input message into the right scan (or join
relation port).

This is the task-side half of the paper's two-step planning: the plan
arrives as JSON (from ZooKeeper), each node becomes the operator its kind
names in :data:`OPERATOR_TYPES` — ``Operator(node)``, which compiles the
node's expression trees itself — operators are chained, and incoming
envelopes flow ``stream → entry operator → ... → insert``.
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
    MultiWayStreamJoinNode,
    PhysicalNode,
    PhysicalPlan,
    ScanNode,
    StreamRelationJoinNode,
)

#: The operator class of each physical node kind (``PhysicalNode.kind``,
#: the keys of :data:`repro.samzasql.physical._NODE_TYPES`).
OPERATOR_TYPES: dict[str, type[Operator]] = {
    "scan": ScanOperator,
    "filter": FilterOperator,
    "project": ProjectOperator,
    "sliding_window": SlidingWindowOperator,
    "group_window_agg": GroupWindowAggOperator,
    "multi_way_join": MultiWayStreamJoinOperator,
    "stream_relation_join": StreamRelationJoinOperator,
    "insert": InsertOperator,
}


class _Port:
    """Delivers batches into one input port of an operator: a stream's
    entry into its scan or a relation join's relation port, and a join
    input's upstream operator into the join (its ``downstream``)."""

    __slots__ = ("operator", "port", "field_names")

    def __init__(self, operator: Operator, port: int,
                 field_names: list[str] | None = None):
        self.operator = operator
        self.port = port
        self.field_names = field_names

    def receive_batch(self, _port: int, messages: list,
                      timestamps: list) -> None:
        names = self.field_names
        if names is not None:
            # relation changelog records arrive as dicts: convert to
            # arrays; tombstones pass as they are
            messages = [message if message.__class__ is ChangelogTombstone
                        else [message[name] for name in names]
                        for message in messages]
        self.operator.receive_batch(self.port, messages, timestamps)


class MessageRouter:
    """stream name → entry ports, and the operators leaf to root."""

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
            port.receive_batch(0, messages, timestamps)

    def flush_sinks(self) -> None:
        """Send buffered insert output."""
        for operator in self.operators:
            if isinstance(operator, InsertOperator):
                operator.flush()


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
        operator = OPERATOR_TYPES[node.kind](node)
        operators.append(operator)
        if isinstance(node, ScanNode):
            entries.setdefault(node.stream, []).append(_Port(operator, 0))
            return operator
        if isinstance(node, MultiWayStreamJoinNode):
            for port, child_node in enumerate(node.inputs):
                build(child_node).downstream = _Port(operator, port)
            return operator
        if isinstance(node, StreamRelationJoinNode):
            build(node.inputs[0]).downstream = _Port(operator, STREAM_PORT)
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

