"""Whole-plan query compilation (Calcite's enumerable codegen, §4.2 scaled up).

For the *chain* of a plan — ``scan → filter → project → insert``, the
whole of the paper's fig5a/b queries, with any number of equi-key
stream-to-relation joins (fig 5c, §4.4) and a sliding window (fig 6,
Algorithm 1 of §4.3) as stages of it — this module renders every node
down to composed expression sources (:func:`chain_expressions`), from
which :func:`repro.samzasql.serde_plan.compile_serde_fused` generates ONE
function spanning decode → chain → encode.  :class:`CompiledExecutor`
runs that function in place of the router's per-operator dispatch.

Expression sources are the ones the existing :mod:`repro.sql.codegen`
rex compiler rendered into the plan JSON; positional references
(``r[2]``) are substituted with the scan's per-field expressions over the
record, so the whole chain works tuple-at-a-time directly on the
incoming message — no array-tuple is ever materialized (the paper's
future-work item 5, taken to its endpoint).  A relation join is one
more expression: a :class:`RelationLookup` reads the looked-up row's
columns as ``_rel<k>[i]``.  So is a sliding window: a
:class:`WindowAdvance` advances the record's partition in the window
operator's own state and exposes the aggregates as ``_win<k>[j]``.

Unsupported shapes — the group window (a hopping/tumbling GROUP BY), the
windowed stream-to-stream join, a relation join without an equi-key (it
scans the whole store per message), a window over a UDAF or a second
window in the chain (the two would share the window stores), and UDF
calls (resolved through a live registry) — run the interpreted router,
selected per task at plan time
(:func:`repro.samzasql.decision.decide_execution`).  Byte
equivalence between the two paths is enforced by the integration suite;
the per-operator ``processed``/``emitted`` counters are maintained
exactly, so metrics snapshots are indistinguishable too.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter_ns

from repro.common.errors import PlannerError
from repro.samzasql.operators.insert import InsertOperator
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

#: Node kinds the compiler can fuse.  Everything else falls back.
CHAIN_KINDS = frozenset({"scan", "filter", "project", "sliding_window",
                         "stream_relation_join", "insert"})

_STATEFUL_KINDS = frozenset({"group_window_agg"})


def _chain_nodes(plan: PhysicalPlan) -> list[PhysicalNode]:
    """The plan's operator chain in leaf-to-root (execution) order."""
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
    node: PhysicalNode = plan.root
    windows = 0
    while True:
        kind = node.kind
        if kind in _STATEFUL_KINDS:
            return f"stateful operator: {kind}"
        if kind == "multi_way_join":
            return f"join operator: {kind}"
        if kind not in CHAIN_KINDS:
            return f"unsupported operator: {kind}"
        if (isinstance(node, StreamRelationJoinNode)
                and node.stream_key_source is None):
            return "relation join without an equi-key"
        if isinstance(node, SlidingWindowNode):
            windows += 1
            if windows > 1:
                return "more than one sliding window (they share the stores)"
            for spec in node.aggs:
                if spec.func not in BUILTIN_AGGREGATES:
                    return f"window aggregate is a UDAF: {spec.func}"
        for source in _expression_sources(node):
            if "_udf_call(" in source:
                return "expression calls a UDF (resolved via live registry)"
        if not node.inputs:
            break
        if len(node.inputs) != 1:
            return f"multi-input operator: {kind}"
        node = node.inputs[0]
    if not isinstance(node, ScanNode):
        return f"chain does not end at a scan: {node.kind}"
    if not isinstance(plan.root, InsertNode):
        return f"chain root is not an insert: {plan.root.kind}"
    return None


def _expression_sources(node: PhysicalNode) -> list[str]:
    sources: list[str] = []
    for attr in ("predicate_source", "projection_source", "condition_source",
                 "partition_key_source", "order_source"):
        value = getattr(node, attr, None)
        if value is not None:
            sources.append(value)
    sources += [spec.arg_source for spec in getattr(node, "aggs", ())
                if spec.arg_source is not None]
    return sources


# -- source manipulation ------------------------------------------------------


def _scan_string(source: str, start: int) -> int:
    """Index just past the string literal opening at ``start``."""
    quote = source[start]
    i = start + 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\\":
            i += 2
            continue
        if ch == quote:
            return i + 1
        i += 1
    return n


def strip_parens(source: str) -> str:
    """``source`` without the redundant parentheses that enclose all of
    it (``((r['a']))`` → ``r['a']``; ``(a) + (b)`` stays as it is)."""
    s = source.strip()
    while s.startswith("(") and s.endswith(")"):
        depth = 0
        for idx, ch in enumerate(s):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and idx != len(s) - 1:
                    return s
        s = s[1:-1].strip()
    return s


def _substitute_refs(source: str, columns: list[str], var: str = "r") -> str:
    """Replace positional refs ``r[<int>]`` with the column expressions.

    A character scanner rather than a regex so that string literals in
    the expression (``_like(r[1], '%r[0]%')``) are never rewritten.
    """
    out: list[str] = []
    i = 0
    n = len(source)
    vlen = len(var)
    while i < n:
        ch = source[i]
        if ch in ("'", '"'):
            j = _scan_string(source, i)
            out.append(source[i:j])
            i = j
            continue
        if (source.startswith(var, i)
                and (i == 0 or not (source[i - 1].isalnum()
                                    or source[i - 1] == "_"))
                and i + vlen < n and source[i + vlen] == "["):
            j = i + vlen + 1
            k = j
            while k < n and source[k].isdigit():
                k += 1
            if k > j and k < n and source[k] == "]":
                index = int(source[j:k])
                if index >= len(columns):
                    raise PlannerError(
                        f"reference r[{index}] out of range for "
                        f"{len(columns)} columns in {source!r}")
                out.append(f"({columns[index]})")
                i = k + 1
                continue
        out.append(ch)
        i += 1
    return "".join(out)


def _split_projection(source: str) -> list[str]:
    """Split a rendered projection ``[e0, e1, ...]`` into element sources."""
    stripped = source.strip()
    if not (stripped.startswith("[") and stripped.endswith("]")):
        raise PlannerError(f"projection source is not a list literal: {source!r}")
    inner = stripped[1:-1]
    parts: list[str] = []
    buf: list[str] = []
    depth = 0
    i = 0
    n = len(inner)
    while i < n:
        ch = inner[i]
        if ch in ("'", '"'):
            j = _scan_string(inner, i)
            buf.append(inner[i:j])
            i = j
            continue
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append("".join(buf).strip())
            buf = []
            i += 1
            continue
        buf.append(ch)
        i += 1
    tail = "".join(buf).strip()
    if tail:
        parts.append(tail)
    return parts


# -- whole-chain code generation ----------------------------------------------


@dataclass(frozen=True)
class CompiledChain:
    """The generated function plus the bookkeeping the executor needs."""

    source: str            # generated Python, kept for EXPLAIN / debugging
    fn: object             # f(values, timestamps) -> (entries, stage_counts)
    stream: str            # the single input stream the chain consumes
    stage_flags: list      # per chain node (leaf->root): a counted stage?


@dataclass(frozen=True)
class RelationLookup:
    """A stream-to-relation join as a stage of the chain: one ``get`` on
    the relation's task-local store per record, under the key the
    operator would use (the ``repr`` of the stream-side equi-key)."""

    row: str             # the looked-up row's name in the generated body
    store: str           # the task-local store caching the relation
    key_expr: str        # the stream-side equi-key
    condition: str       # the full join condition
    outer: bool          # LEFT: no matching row pads with nulls
    width: int           # relation columns


@dataclass(frozen=True)
class WindowAdvance:
    """A sliding window as a stage of the chain: each record advances its
    partition's window in the window operator's own state (Algorithm 1,
    rendered by
    :meth:`~repro.samzasql.operators.sliding_window.SlidingWindowOperator.render_advance`),
    and its aggregates read as ``<row>[j]``."""

    row: str             # the aggregates' tuple in the generated body
    operator: int        # the window operator's chain position (leaf = 0)
    key_expr: str        # the partition key tuple
    order_expr: str      # the ORDER BY value
    arg_exprs: tuple     # per aggregate: its argument (None: COUNT(*))


@dataclass(frozen=True)
class ChainExpressions:
    """A compilable chain rendered down to expression sources.

    All expressions are over the record dict ``r`` (``r['name']`` field
    refs), the wire timestamp ``t``, the rows relation lookups found
    (``_rel<k>[i]``) and a window's aggregates (``_win<k>[j]``).  This is
    the analysis the serde-fused codegen in :mod:`repro.samzasql.serde_plan`
    builds its generated function from.
    """

    stream: str          # the single input stream the chain consumes
    columns: list        # one expression per output field
    stages: list         # predicates, RelationLookups, WindowAdvances
    ts_expr: str         # output timestamp (insert rowtime fallback folded in)
    key_expr: str        # output key expression ("None" when unkeyed)
    stage_flags: list    # per chain node (leaf->root): a counted stage?
    insert: InsertNode   # the chain's root


def chain_expressions(plan: PhysicalPlan) -> ChainExpressions:
    """Render the chain's nodes into composed expressions."""
    reason = chain_fallback(plan)
    if reason is not None:
        raise PlannerError(f"plan does not compile: {reason}")
    nodes = _chain_nodes(plan)

    columns: list[str] = []
    ts_expr = "t"
    stages: list = []            # filters, lookups, windows: execution order
    stage_flags: list[bool] = []
    stream = ""

    for node in nodes:
        if isinstance(node, ScanNode):
            stream = node.stream
            columns = [f"r[{name!r}]" for name in node.field_names]
            if node.rowtime_index is not None:
                ts_expr = columns[node.rowtime_index]
            stage_flags.append(False)
        elif isinstance(node, FilterNode):
            stages.append(_substitute_refs(node.predicate_source, columns))
            stage_flags.append(True)
        elif isinstance(node, ProjectNode):
            columns = [
                _substitute_refs(element, columns)
                for element in _split_projection(node.projection_source)
            ]
            stage_flags.append(False)
        elif isinstance(node, StreamRelationJoinNode):
            row = f"_rel{len(stages)}"
            relation = [f"{row}[{i}]" for i in range(node.relation_width)]
            left, right = ((columns, relation) if node.stream_is_left
                           else (relation, columns))
            # r[i] before l[i]: the stream's columns render as r['name']
            condition = _substitute_refs(
                _substitute_refs(node.condition_source, right), left, "l")
            stages.append(RelationLookup(
                row=row, store=node.store_name,
                key_expr=_substitute_refs(node.stream_key_source, columns),
                condition=condition, outer=node.join_kind == "LEFT",
                width=node.relation_width))
            columns = left + right
            stage_flags.append(True)
        elif isinstance(node, SlidingWindowNode):
            row = f"_win{len(stages)}"
            stages.append(WindowAdvance(
                row=row, operator=len(stage_flags),
                key_expr=_substitute_refs(node.partition_key_source, columns),
                order_expr=_substitute_refs(node.order_source, columns),
                arg_exprs=tuple(
                    None if spec.arg_source is None
                    else _substitute_refs(spec.arg_source, columns)
                    for spec in node.aggs)))
            columns = columns + [f"{row}[{j}]" for j in range(len(node.aggs))]
            # a stage that passes every record: its count is its input's
            stage_flags.append(True)
        elif isinstance(node, InsertNode):
            stage_flags.append(False)
        else:  # pragma: no cover - chain_fallback already rejected it
            raise PlannerError(f"cannot compile node kind {node.kind!r}")

    insert = plan.root
    assert isinstance(insert, InsertNode)
    if insert.rowtime_index is not None:
        rt_col = columns[insert.rowtime_index]
        if strip_parens(rt_col) != strip_parens(ts_expr):
            # Interpreted insert keeps the upstream timestamp when the
            # rowtime value is NULL; when the two expressions are the same
            # up to redundant parentheses the branch is a no-op and is
            # elided.
            ts_expr = f"(({ts_expr}) if ({rt_col}) is None else ({rt_col}))"
    if insert.key_field_indexes is None:
        key_expr = "None"
    elif len(insert.key_field_indexes) == 1:
        key_expr = f"repr({columns[insert.key_field_indexes[0]]})"
    else:
        reprs = ", ".join(f"repr({columns[i]})"
                          for i in insert.key_field_indexes)
        key_expr = f'"|".join(({reprs}))'

    return ChainExpressions(stream=stream, columns=columns,
                            stages=stages, ts_expr=ts_expr,
                            key_expr=key_expr, stage_flags=stage_flags,
                            insert=insert)


class CompiledExecutor:
    """Runs a :class:`CompiledChain` in place of the router's dispatch.

    The chain is the serde-fused one from
    :func:`repro.samzasql.serde_plan.compile_serde_fused` (raw value bytes
    in, encoded bytes out).  The executor runs the generated function over
    each delivered batch, maintains the chain operators'
    ``processed``/``emitted`` counters exactly as the interpreted path
    would, and hands the finished entries to the insert operator's
    buffer, so flush/checkpoint semantics are untouched.  A relation join
    is counted like a filter stage: its stream rows in, its matches (all
    of them, for LEFT) out; the rows its relation port takes keep going
    through the router, which counts them.  A window stage passes every
    record it advances.

    With metrics on, the leaf operator carries the chain's one
    ``process-ns`` timer (operator timers are inclusive of everything
    downstream, so the leaf's means "the whole chain per message") and
    each non-empty batch records its per-message mean on it, decode and
    encode included.
    """

    def __init__(self, chain: CompiledChain, router):
        operators = list(router.operators)  # leaf-to-root, like the chain
        if len(operators) != len(chain.stage_flags):
            raise PlannerError(
                "router operator count does not match the compiled chain "
                f"({len(operators)} vs {len(chain.stage_flags)})")
        self._counters = list(zip(operators, chain.stage_flags))
        insert = operators[-1]
        if not isinstance(insert, InsertOperator):
            raise PlannerError("compiled chain must end in an insert operator")
        self._insert = insert
        self._timer = operators[0]._process_timer  # None: metrics off
        self._fn = chain.fn
        self.stream = chain.stream
        #: The generated Python source (EXPLAIN, tests, debugging).
        self.source = chain.source

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
