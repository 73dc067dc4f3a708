"""The physical plan: a serializable tree of SamzaSQL operators.

"The physical plan is a tree of relational algebra operators such as scan,
filter, project and join where scan operators are at the leaf nodes" (§4.2).

Every node is a plain dataclass convertible to/from JSON dictionaries, so
the whole plan can be written to ZooKeeper by the shell and re-read by the
SamzaSQL tasks at init time.  Nodes carry their expressions as Rex trees
(:mod:`repro.sql.rex`, in its JSON form on the wire), never rendered code:
each task builds every operator from its node, and the operator compiles
the node's trees itself (:mod:`repro.sql.codegen`); the fused function,
rendered once per container start, renders the same trees over its
columns — the paper's two-phase planning.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Any, Iterator, Optional

from repro.common.errors import PlannerError
from repro.serde.base import Serde
from repro.serde.state_codecs import ordered_key_serde, positional_value_serde
from repro.sql.codegen import render
from repro.sql.rex import RexCall, RexNode, rex_from_json, rex_to_json
from repro.sql.types import SQL_TO_AVRO, SqlType

#: Avro kind a stored SQL value is written as.  State holds Python ints,
#: so INTEGER is written as a long: no int32 range check at commit.
_STATE_AVRO = {**SQL_TO_AVRO, SqlType.INTEGER: "long"}


@dataclass
class StoreLayout:
    """How one operator store is typed, as the planner derives it.

    ``key`` is the key's component kinds — one kind for scalar keys, a
    list for tuple keys (see :mod:`repro.serde.state_codecs`).  Values are
    rows (``row``: ``[name, SQL type]`` per list position), records
    (``record``: ``[name, SQL type]`` per dict field), or either one in a
    store that holds both.  ``fallback`` says why the values keep the
    object serde: a field the SQL → Avro mapping cannot type, or values
    that are not rows at all.  The key always gets the ordered codec.
    The codecs' names in the job config are the layouts themselves, so
    config and ``EXPLAIN`` read alike.
    """

    key: Any
    row: Optional[list[list[str]]] = None
    record: Optional[list[list[str]]] = None
    fallback: Optional[str] = None

    @staticmethod
    def typed(key: Any, row: list | None = None,
              record: list | None = None) -> "StoreLayout":
        """A layout over typed fields; falls back to the object serde
        for its values when one of them has no Avro mapping."""
        untyped = [f"field {name!r} is {sql_type}"
                   for name, sql_type in [*(row or ()), *(record or ())]
                   if SqlType(sql_type) not in _STATE_AVRO]
        return StoreLayout(key, row, record,
                           untyped[0] if untyped else None)

    @property
    def key_serde_name(self) -> str:
        if isinstance(self.key, str):
            return f"ordered:{self.key}"
        kinds = ", ".join(self.key)
        return f"ordered:({kinds}{',' if len(self.key) == 1 else ''})"

    @property
    def msg_serde_name(self) -> str:
        """``object``, or the value layout: ``row(...)``, ``record(...)``
        or both joined by ``|``."""
        if self.fallback is not None:
            return "object"
        shapes = [f"{shape}({', '.join(f'{n} {t}' for n, t in fields)})"
                  for shape, fields in (("row", self.row),
                                        ("record", self.record))
                  if fields is not None]
        return "|".join(shapes)

    def key_serde(self) -> Serde:
        return ordered_key_serde(
            self.key if isinstance(self.key, str) else tuple(self.key))

    def msg_serde(self) -> Serde | None:
        """The typed value codec, or None when the values keep ``object``."""
        if self.fallback is not None:
            return None
        return positional_value_serde(
            None if self.row is None
            else tuple(_STATE_AVRO[SqlType(t)] for _n, t in self.row),
            None if self.record is None
            else tuple((n, _STATE_AVRO[SqlType(t)]) for n, t in self.record))


def _to_json(value: Any) -> Any:
    if isinstance(value, RexNode):
        return rex_to_json(value)
    if isinstance(value, list):
        return [_to_json(item) for item in value]
    return value


def _from_json(value: Any) -> Any:
    """A node field back from JSON: a dict is always an expression tree."""
    if isinstance(value, dict):
        return rex_from_json(value)
    if isinstance(value, list):
        return [_from_json(item) for item in value]
    return value


@dataclass
class PhysicalNode:
    kind: str = field(init=False, default="")
    inputs: list["PhysicalNode"] = field(init=False, default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        payload = {f.name: _to_json(getattr(self, f.name))
                   for f in fields(self)}
        payload["inputs"] = [child.to_dict() for child in self.inputs]
        return payload

    def expressions(self) -> Iterator[RexNode]:
        """Every expression tree the node carries, whatever its kind."""
        for f in fields(self):
            value = getattr(self, f.name)
            for item in value if isinstance(value, list) else [value]:
                if isinstance(item, RexNode):
                    yield item


@dataclass
class ScanNode(PhysicalNode):
    """Leaf: consume one stream; AvroToArray happens here (Figure 4)."""

    stream: str
    field_names: list[str]
    rowtime_index: Optional[int]

    def __post_init__(self) -> None:
        self.kind = "scan"
        self.inputs = []


@dataclass
class FilterNode(PhysicalNode):
    predicate: RexNode

    def __post_init__(self) -> None:
        self.kind = "filter"


@dataclass
class ProjectNode(PhysicalNode):
    exprs: list[RexNode]            # one per output field
    field_names: list[str]

    def __post_init__(self) -> None:
        self.kind = "project"


@dataclass
class SlidingWindowNode(PhysicalNode):
    """Algorithm 1: per-tuple advance + emit over changelog-backed state."""

    partition_keys: list[RexNode]   # the PARTITION BY expressions
    repr_key: bool                  # the key is their repr, not their values
    order: RexNode                  # the ORDER BY timestamp
    frame_mode: str                 # RANGE or ROWS
    preceding_ms: Optional[int]
    preceding_rows: Optional[int]
    aggs: list[RexCall]             # op: the function; operands: its argument
    field_names: list[str]          # input fields ++ agg output names
    stores: list[str] = field(default_factory=list)  # messages, state

    def __post_init__(self) -> None:
        self.kind = "sliding_window"

    def key_source(self, keys: list[str]) -> str:
        """The partition key's tuple over the rendered PARTITION BY
        expressions: their values, or one ``repr`` of them all."""
        if self.repr_key:
            return f"(repr([{', '.join(keys)}]),)"
        return "(" + "".join(key + ", " for key in keys) + ")"


@dataclass
class GroupWindowAggNode(PhysicalNode):
    """Hopping/tumbling windowed GROUP BY aggregation (§3.6)."""

    window_kind: str                # TUMBLE or HOP
    time: RexNode
    emit_ms: int
    retain_ms: int
    align_ms: int
    group_keys: list[RexNode]
    aggs: list[RexCall]             # as a sliding window's
    field_names: list[str]          # wstart, wend, keys..., aggs...
    stores: list[str] = field(default_factory=list)  # the open windows

    def __post_init__(self) -> None:
        self.kind = "group_window_agg"


@dataclass
class MultiWayStreamJoinNode(PhysicalNode):
    """One K-input windowed stream join (§3.8.1): a binary join is K = 2,
    a collapsed chain K >= 3.

    ``inputs[i]`` is the i-th stream subplan; output fields are the
    concatenation of all inputs in order.  ``upper_bounds_ms[i][j]`` is
    the transitively-closed max of ``rowtime_i - rowtime_j`` (for K = 2,
    ``[[0, upper], [lower, 0]]`` of ``left.rowtime - right.rowtime ∈
    [-lower, upper]``), so an
    arrival on port *i* probes port *j* for rows with
    ``t_j ∈ [t_i - upper[i][j], t_i + upper[j][i]]``.  ``probe_orders[i]``
    is the planner-chosen probe sequence for arrivals on port *i* —
    smallest expected state first, so empty sides short-circuit the
    probe before larger sides are touched.  ``condition`` is the full
    join condition over the concatenated inputs, applied as the residual
    predicate; its operator reads it over per-input rows ``p0..p{K-1}``.
    """

    widths: list[int]
    time_indexes: list[int]          # per-input local rowtime index
    key_indexes: Optional[list[int]]  # per-input equi-key; None: keyless
    upper_bounds_ms: list[list[int]]
    probe_orders: list[list[int]]
    condition: RexNode
    bucket_ms: int
    input_names: list[str]           # for EXPLAIN
    input_weights: list[float]       # expected-state metric per input
    order_metric: str                # "window_ms*rate" | "window_ms"
    field_names: list[str]
    stores: list[str] = field(default_factory=list)  # one per input port

    def __post_init__(self) -> None:
        self.kind = "multi_way_join"

    def state_order(self) -> list[int]:
        """Input indexes ordered by expected state size (ascending)."""
        return sorted(range(len(self.widths)),
                      key=lambda i: (self.input_weights[i], i))


@dataclass
class StreamRelationJoinNode(PhysicalNode):
    """Stream-to-relation join through a bootstrap changelog (§4.4).

    ``inputs[0]`` is the stream subplan.  The relation side is loaded from
    its changelog stream into a local store, keyed by its primary key,
    before any stream message is processed (Samza bootstrap semantics).
    """

    relation: str
    relation_stream: str            # the changelog topic consumed as bootstrap
    relation_field_names: list[str]
    relation_key_index: int         # primary-key field of the relation
    stream_is_left: bool
    stream_width: int
    relation_width: int
    condition: RexNode              # over the output row
    stream_key_index: Optional[int]  # stream column = the primary key
    join_kind: str
    field_names: list[str]
    stores: list[str] = field(default_factory=list)  # the cached relation

    def __post_init__(self) -> None:
        self.kind = "stream_relation_join"


@dataclass
class InsertNode(PhysicalNode):
    """Root: ArrayToAvro + write to the output stream (Figure 4).

    With ``key_field_indexes`` set, the output is a *relation stream*
    (paper future-work item 3, CQL Rstream): records are written keyed so
    the output topic, configured compacted, is the changelog of a relation
    — re-emissions (early results, replays) upsert rather than append.
    """

    output_stream: str
    field_names: list[str]
    field_types: list[str]          # SqlType names, for output schema synthesis
    rowtime_index: Optional[int]
    key_field_indexes: Optional[list[int]] = None

    def __post_init__(self) -> None:
        self.kind = "insert"


_NODE_TYPES = {
    "scan": ScanNode,
    "filter": FilterNode,
    "project": ProjectNode,
    "sliding_window": SlidingWindowNode,
    "group_window_agg": GroupWindowAggNode,
    "multi_way_join": MultiWayStreamJoinNode,
    "stream_relation_join": StreamRelationJoinNode,
    "insert": InsertNode,
}


def node_from_dict(payload: dict[str, Any]) -> PhysicalNode:
    data = dict(payload)
    kind = data.pop("kind", None)
    inputs = data.pop("inputs", [])
    try:
        node_type = _NODE_TYPES[kind]
    except KeyError:
        raise PlannerError(f"unknown physical node kind {kind!r}") from None
    node = node_type(**{name: _from_json(value)
                        for name, value in data.items()})
    node.inputs = [node_from_dict(child) for child in inputs]
    return node


@dataclass
class PhysicalPlan:
    """Root node + the job-level requirements derived from the tree."""

    root: PhysicalNode
    input_streams: list[str]
    bootstrap_streams: list[str]
    stores: dict[str, StoreLayout]  # every node's ``stores``, by name
    output_stream: str
    relation_output: bool = False  # output topic is a compacted changelog

    @property
    def store_names(self) -> list[str]:
        return list(self.stores)

    def to_dict(self) -> dict[str, Any]:
        return {
            "root": self.root.to_dict(),
            "input_streams": self.input_streams,
            "bootstrap_streams": self.bootstrap_streams,
            "stores": {name: asdict(layout)
                       for name, layout in self.stores.items()},
            "output_stream": self.output_stream,
            "relation_output": self.relation_output,
        }

    @staticmethod
    def from_dict(payload: dict[str, Any]) -> "PhysicalPlan":
        return PhysicalPlan(
            root=node_from_dict(payload["root"]),
            input_streams=list(payload["input_streams"]),
            bootstrap_streams=list(payload["bootstrap_streams"]),
            stores={name: StoreLayout(**layout)
                    for name, layout in payload["stores"].items()},
            output_stream=payload["output_stream"],
            relation_output=bool(payload.get("relation_output", False)),
        )

    def explain(self) -> str:
        lines: list[str] = []

        def walk(node: PhysicalNode, depth: int) -> None:
            description = node.kind
            if isinstance(node, ScanNode):
                description += f"({node.stream})"
            elif isinstance(node, FilterNode):
                description += f"({render(node.predicate)})"
            elif isinstance(node, InsertNode):
                description += f"({node.output_stream})"
            elif isinstance(node, StreamRelationJoinNode):
                description += f"(relation={node.relation})"
            elif isinstance(node, MultiWayStreamJoinNode):
                order = ", ".join(node.input_names[i]
                                  for i in node.state_order())
                description += (f"(k={len(node.widths)}, "
                                f"order=[{order}] by {node.order_metric})")
            lines.append("  " * depth + description)
            for child in node.inputs:
                walk(child, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)
