"""Whole-plan query compilation (Calcite's enumerable codegen, §4.2 scaled up).

For the *stateless prefix* of a plan — the ``scan → filter → project →
insert`` chain that the paper's fig5a/b queries consist of entirely —
this module renders every node down to composed expression sources
(:func:`chain_expressions`), from which
:func:`repro.samzasql.serde_plan.compile_serde_fused` generates ONE
function spanning decode → chain → encode.  :class:`CompiledExecutor`
runs that function in place of the router's per-operator dispatch.

Expression sources are the ones the existing :mod:`repro.sql.codegen`
rex compiler rendered into the plan JSON; positional references
(``r[2]``) are substituted with the scan's per-field expressions over the
record, so the whole chain works tuple-at-a-time directly on the
incoming message — no array-tuple is ever materialized (the paper's
future-work item 5, taken to its endpoint).

Unsupported shapes — stateful operators (windows, aggregations), joins,
and UDF calls (resolved through a live registry) — run the interpreted
router, selected per task at plan time
(:func:`repro.samzasql.decision.decide_execution`).  Byte equivalence
between the two paths is enforced by the integration suite; the
per-operator ``processed``/``emitted`` counters are maintained exactly,
so metrics snapshots are indistinguishable too.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter_ns

from repro.common.errors import PlannerError
from repro.samzasql.operators.insert import InsertOperator
from repro.samzasql.physical import (
    FilterNode,
    InsertNode,
    PhysicalNode,
    PhysicalPlan,
    ProjectNode,
    ScanNode,
)

#: Node kinds the compiler can fuse.  Everything else falls back.
STATELESS_KINDS = frozenset({"scan", "filter", "project", "insert"})

_STATEFUL_KINDS = frozenset({"sliding_window", "group_window_agg"})
_JOIN_KINDS = frozenset({"stream_relation_join", "multi_way_join"})


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
    while True:
        kind = node.kind
        if kind in _STATEFUL_KINDS:
            return f"stateful operator: {kind}"
        if kind in _JOIN_KINDS:
            return f"join operator: {kind}"
        if kind not in STATELESS_KINDS:
            return f"unsupported operator: {kind}"
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
    for attr in ("predicate_source", "projection_source"):
        value = getattr(node, attr, None)
        if value is not None:
            sources.append(value)
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
    filter_flags: list     # per chain node (leaf->root): is it a filter stage?


@dataclass(frozen=True)
class ChainExpressions:
    """A compilable chain rendered down to expression sources.

    All expressions are over the record dict ``r`` (``r['name']`` field
    refs) and the wire timestamp ``t``.  This is the analysis the
    serde-fused codegen in :mod:`repro.samzasql.serde_plan` builds its
    generated function from.
    """

    stream: str          # the single input stream the chain consumes
    columns: list        # one expression per output field
    conditions: list     # filter-stage predicates, in execution order
    ts_expr: str         # output timestamp (insert rowtime fallback folded in)
    key_expr: str        # output key expression ("None" when unkeyed)
    filter_flags: list   # per chain node (leaf->root): is it a filter stage?
    insert: InsertNode   # the chain's root


def chain_expressions(plan: PhysicalPlan) -> ChainExpressions:
    """Render the stateless chain's nodes into composed expressions."""
    reason = chain_fallback(plan)
    if reason is not None:
        raise PlannerError(f"plan does not compile: {reason}")
    nodes = _chain_nodes(plan)

    columns: list[str] = []
    ts_expr = "t"
    conditions: list[str] = []   # filter stages, in execution order
    filter_flags: list[bool] = []
    stream = ""

    for node in nodes:
        if isinstance(node, ScanNode):
            stream = node.stream
            columns = [f"r[{name!r}]" for name in node.field_names]
            if node.rowtime_index is not None:
                ts_expr = columns[node.rowtime_index]
            filter_flags.append(False)
        elif isinstance(node, FilterNode):
            conditions.append(_substitute_refs(node.predicate_source, columns))
            filter_flags.append(True)
        elif isinstance(node, ProjectNode):
            columns = [
                _substitute_refs(element, columns)
                for element in _split_projection(node.projection_source)
            ]
            filter_flags.append(False)
        elif isinstance(node, InsertNode):
            filter_flags.append(False)
        else:  # pragma: no cover - chain_fallback already rejected it
            raise PlannerError(f"cannot compile node kind {node.kind!r}")

    insert = plan.root
    assert isinstance(insert, InsertNode)
    if insert.rowtime_index is not None:
        rt_col = columns[insert.rowtime_index]
        if rt_col != ts_expr:
            # Interpreted insert keeps the upstream timestamp when the
            # rowtime value is NULL; when the two expressions are textually
            # identical the branch is a no-op and is elided.
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
                            conditions=conditions, ts_expr=ts_expr,
                            key_expr=key_expr, filter_flags=filter_flags,
                            insert=insert)


class CompiledExecutor:
    """Runs a :class:`CompiledChain` in place of the router's dispatch.

    The chain is the serde-fused one from
    :func:`repro.samzasql.serde_plan.compile_serde_fused` (raw value bytes
    in, encoded bytes out).  The executor runs the generated function over
    each delivered batch, maintains the chain operators'
    ``processed``/``emitted`` counters exactly as the interpreted path
    would, and hands the finished entries to the insert operator's
    buffer, so flush/checkpoint semantics are untouched.

    With metrics on, the leaf operator carries the chain's one
    ``process-ns`` timer (operator timers are inclusive of everything
    downstream, so the leaf's means "the whole chain per message") and
    each non-empty batch records its per-message mean on it, decode and
    encode included.
    """

    def __init__(self, chain: CompiledChain, router):
        operators = list(router.operators)  # leaf-to-root, like the chain
        if len(operators) != len(chain.filter_flags):
            raise PlannerError(
                "router operator count does not match the compiled chain "
                f"({len(operators)} vs {len(chain.filter_flags)})")
        self._counters = list(zip(operators, chain.filter_flags))
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
        for operator, is_filter in self._counters:
            operator.processed += count
            if is_filter:
                count = next(stage)
            operator.emitted += count
        if entries:
            self._insert.deliver(entries)
