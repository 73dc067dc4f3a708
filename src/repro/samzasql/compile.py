"""Whole-plan query compilation (Calcite's enumerable codegen, §4.2 scaled up).

For the *chain* of a plan — ``scan → filter → project → insert``, the
whole of the paper's fig5a/b queries, with any number of stream-to-relation
joins on the relation's key (fig 5c, §4.4) and sliding windows (fig 6,
Algorithm 1 of §4.3) as stages of it — this module renders every node
down to composed expressions (:func:`chain_expressions`), from which
:func:`repro.samzasql.serde_plan.render_fused` generates ONE function
spanning decode → chain → encode, once per job program
(:class:`repro.samzasql.decision.JobProgram`).  Each task's
:class:`CompiledExecutor` binds that function to its own operators and
runs it in place of the router's per-operator dispatch.

:func:`repro.sql.codegen.render` renders the plan's Rex trees straight
over the chain's columns — at the scan, the decoded input fields
``f<k>`` — so no array-tuple is ever materialized (the paper's
future-work item 5), and each :class:`Expr` knows the input fields it
reads.  Each counted node is one :class:`Stage`; a relation join leaves
its row as ``_rel<i>[j]``, a window its aggregates as ``_win<i>[j]``.

Every other shape runs the interpreted router (:func:`chain_fallback`
names why); the integration suite enforces byte equivalence between the
two paths, counters included.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter_ns

from repro.common.errors import PlannerError
from repro.samzasql.operators.sliding_window import BUILTIN_AGGREGATES
from repro.samzasql.physical import (
    FilterNode,
    InsertNode,
    PhysicalNode,
    PhysicalPlan,
    ProjectNode,
    ScanNode,
    SlidingWindowNode,
    StreamRelationJoinNode,
)
from repro.sql.codegen import render
from repro.sql.rex import RexCall, RexInputRef, RexNode, walk_rex

#: Node kinds the compiler can fuse.  Everything else falls back.
CHAIN_KINDS = frozenset({"scan", "filter", "project", "sliding_window",
                         "stream_relation_join", "insert"})

_STATEFUL_KINDS = frozenset({"group_window_agg"})


def chain_nodes(plan: PhysicalPlan) -> list[PhysicalNode]:
    """The plan's operator chain in leaf-to-root (execution) order: a
    node's chain position is its index here, and in the router's
    operators."""
    nodes: list[PhysicalNode] = []
    node: PhysicalNode | None = plan.root
    while node is not None:
        nodes.append(node)
        if not node.inputs:
            break
        node = node.inputs[0] if len(node.inputs) == 1 else None
    nodes.reverse()
    return nodes


def chain_fallback(plan: PhysicalPlan) -> str | None:
    """Why the plan's chain does not exec-compile; None when it does."""
    nodes = chain_nodes(plan)
    for node in reversed(nodes):  # root first
        kind = node.kind
        if kind in _STATEFUL_KINDS:
            return f"stateful operator: {kind}"
        if kind == "multi_way_join":
            return f"join operator: {kind}"
        if kind not in CHAIN_KINDS:
            return f"unsupported operator: {kind}"
        if (isinstance(node, StreamRelationJoinNode)
                and node.stream_key_index is None):
            return "relation join not on the relation's key"
        if isinstance(node, SlidingWindowNode):
            for call in node.aggs:
                if call.op not in BUILTIN_AGGREGATES:
                    return f"window aggregate is a UDAF: {call.op}"
        if any(isinstance(n, RexCall) and n.op.startswith("UDF:")
               for tree in node.expressions() for n in walk_rex(tree)):
            return "expression calls a UDF (resolved via live registry)"
        if len(node.inputs) > 1:
            return f"multi-input operator: {kind}"
    if not isinstance(nodes[0], ScanNode):
        return f"chain does not end at a scan: {nodes[0].kind}"
    if not isinstance(plan.root, InsertNode):
        return f"chain root is not an insert: {plan.root.kind}"
    return None


# -- rendering over the chain's columns ---------------------------------------


@dataclass(frozen=True)
class Expr:
    """One rendered expression of the chain, and the input fields it reads.

    ``source`` is Python over the decoded input fields ``f<k>`` (``k``:
    the field's index in the input record schema), the wire timestamp
    ``t`` and the tuples earlier stages leave (``_rel<i>``, ``_win<i>``).
    ``fields`` holds each ``k`` it reads — or, for a scan column the input
    schema lacks, the column's name: reading one keeps the task
    interpreted.  ``field`` is ``k`` when the expression is the input
    field ``f<k>`` alone."""

    source: str
    fields: frozenset = frozenset()
    field: int | None = None


def _render(tree: RexNode, columns: list[Expr]) -> Expr:
    """``tree`` rendered over the chain's ``columns``: each reference reads
    its column's expression, parenthesized."""
    source = render(tree, ref_sources=[f"({c.source})" for c in columns])
    fields = frozenset().union(*(columns[i].fields
                                 for i in tree.accept_fields()))
    return Expr(source, fields, columns[tree.index].field
                if isinstance(tree, RexInputRef) else None)


# -- whole-chain code generation ----------------------------------------------


@dataclass(frozen=True)
class Stage:
    """One counted node of the chain: its survivors are counted per batch.

    A filter is its predicate, rendered inline.  Any other stage is
    rendered by its node's operator class, ``render_stage(node, i, row,
    sources)``, and leaves ``row``, the tuple downstream columns read: a
    relation join reads its stream key and condition and leaves the
    looked-up row; a window reads its partition key, order value and
    aggregate arguments and leaves the aggregates."""

    position: int           # the node's chain position (leaf = 0)
    node: PhysicalNode      # the plan node it renders
    exprs: tuple            # the Exprs it reads
    row: str | None = None  # its output tuple; None for a filter


@dataclass(frozen=True)
class ChainExpressions:
    """A compilable chain rendered down to expressions over its stream's
    input record: what the serde-fused codegen in
    :mod:`repro.samzasql.serde_plan` builds its generated function from.
    """

    stream: str          # the single input stream the chain consumes
    columns: tuple       # one Expr per output field
    stages: tuple        # the Stages, in execution order
    ts_expr: Expr        # output timestamp (insert rowtime fallback folded in)
    key_expr: Expr       # output key expression ("None" when unkeyed)
    insert: InsertNode   # the chain's root


def chain_expressions(plan: PhysicalPlan,
                      input_fields: list[str]) -> ChainExpressions:
    """Render a compilable chain's nodes (:func:`chain_fallback` is None)
    into composed expressions over the input record whose fields, in
    schema order, are ``input_fields``."""
    scan, *nodes = chain_nodes(plan)
    index = {name: k for k, name in enumerate(input_fields)}
    # a column the schema lacks is never rendered: reading it falls back
    columns = [Expr(f"f{index[name]}", frozenset({index[name]}), index[name])
               if name in index else Expr("None", frozenset({name}))
               for name in scan.field_names]
    ts_expr = (Expr("t") if scan.rowtime_index is None
               else columns[scan.rowtime_index])
    stages: list[Stage] = []

    for position, node in enumerate(nodes, start=1):
        if isinstance(node, FilterNode):
            stages.append(Stage(position, node,
                                (_render(node.predicate, columns),)))
        elif isinstance(node, ProjectNode):
            columns = [_render(expr, columns) for expr in node.exprs]
        elif isinstance(node, StreamRelationJoinNode):
            row = f"_rel{len(stages)}"
            relation = [Expr(f"{row}[{i}]")
                        for i in range(node.relation_width)]
            joined = (columns + relation if node.stream_is_left
                      else relation + columns)
            stages.append(Stage(position, node, (
                _render(RexInputRef(node.stream_key_index), columns),
                _render(node.condition, joined)), row))
            columns = joined
        elif isinstance(node, SlidingWindowNode):
            row = f"_win{len(stages)}"
            keys = [_render(key, columns) for key in node.partition_keys]
            key = Expr(node.key_source([key.source for key in keys]),
                       frozenset().union(*(key.fields for key in keys)))
            # a stage that passes every record: its count is its input's
            stages.append(Stage(position, node, (
                key, _render(node.order, columns),
                *(_render(call.operands[0], columns) for call in node.aggs
                  if call.operands)), row))
            columns = columns + [Expr(f"{row}[{j}]")
                                 for j in range(len(node.aggs))]

    insert = plan.root
    assert isinstance(insert, InsertNode)
    if insert.rowtime_index is not None:
        rt_col = columns[insert.rowtime_index]
        if ts_expr.field is None or rt_col.field != ts_expr.field:
            # Interpreted insert keeps the upstream timestamp when the
            # rowtime value is NULL; when both are the same input field
            # the branch is a no-op and is elided.
            ts_expr = Expr(f"(({ts_expr.source}) if ({rt_col.source}) is None "
                           f"else ({rt_col.source}))",
                           ts_expr.fields | rt_col.fields)
    if insert.key_field_indexes is None:
        key_expr = Expr("None")
    else:
        keys = [columns[i] for i in insert.key_field_indexes]
        reprs = ", ".join(f"repr({key.source})" for key in keys)
        key_expr = Expr(reprs if len(keys) == 1 else f'"|".join(({reprs}))',
                        frozenset().union(*(key.fields for key in keys)))

    return ChainExpressions(stream=scan.stream, columns=tuple(columns),
                            stages=tuple(stages), ts_expr=ts_expr,
                            key_expr=key_expr, insert=insert)


class CompiledExecutor:
    """Binds the job program's fused function (raw value bytes in, encoded
    bytes out) to one task's operators and runs it in place of the
    router's dispatch: it maintains the chain operators'
    ``processed``/``emitted`` counters exactly as the interpreted path
    would, and hands the finished entries to the insert operator's
    buffer, so flush/checkpoint semantics are untouched.  A relation join
    is counted like a filter stage: its stream rows in, its matches (all
    of them, for LEFT) out; the rows its relation port takes keep going
    through the router, which counts them.  A window stage passes every
    record it advances.

    With metrics on, the leaf operator carries the chain's one inclusive
    ``process-ns`` timer ("the whole chain per message"); each non-empty
    batch records its per-message mean on it, decode and encode included.
    """

    def __init__(self, program, router):
        operators = list(router.operators)  # leaf-to-root, like the chain
        exprs = program.decision.serde.exprs
        counted = {stage.position for stage in exprs.stages}
        self._counters = [(operator, position in counted)
                          for position, operator in enumerate(operators)]
        self._insert = operators[-1]  # a fused chain's root is an insert
        self._timer = operators[0]._process_timer  # None: metrics off
        # this task's own namespace: no task shares a function or globals
        namespace = dict(program.constants)
        for slot, position in program.slots:
            namespace[slot] = operators[position]
        exec(program.code, namespace)  # noqa: S102 - trusted, self-generated
        self._fn = namespace["_fused_plan"]
        self.stream = exprs.stream
        #: The generated Python source (EXPLAIN, tests, debugging).
        self.source = program.source

    def route_batch(self, stream: str, messages: list, timestamps: list) -> None:
        if stream != self.stream:
            raise PlannerError(
                f"router has no entry for stream {stream!r}; known: "
                f"{[self.stream]}")
        self.run(messages, timestamps)

    def run(self, inputs: list, timestamps: list) -> None:
        """One batch of the chain's input stream through the function."""
        timer = self._timer
        if timer is None or not inputs:
            entries, stage_counts = self._fn(inputs, timestamps)
        else:
            start = perf_counter_ns()
            entries, stage_counts = self._fn(inputs, timestamps)
            timer.update((perf_counter_ns() - start) // len(inputs))
        count = len(inputs)
        stage = iter(stage_counts)
        for operator, is_stage in self._counters:
            operator.processed += count
            if is_stage:
                count = next(stage)
            operator.emitted += count
        if entries:
            self._insert.deliver(entries)
