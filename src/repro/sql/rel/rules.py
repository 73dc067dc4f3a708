"""Logical optimization rules.

"SamzaSQL uses Apache Calcite to parse, validate, convert the query to a
logical plan and finally apply some generic optimizations bundled with
Apache Calcite" (§4.2).  The generic rules implemented here are the ones a
streaming filter/project/join/window workload actually exercises:

* constant folding over Rex trees,
* Filter merge, Project merge, identity-Project removal,
* Filter pushdown through Project and into Join inputs,
* Delta pushdown (the Calcite streaming rule set): the ``STREAM`` keyword
  introduces a Delta at the root which these rules push to the scans,
  where a Delta over a stream scan is absorbed.
"""

from __future__ import annotations

from repro.sql.codegen import eval_constant
from repro.sql.rel.multi_join import analyze_multi_join
from repro.sql.rel.nodes import (
    LogicalAggregate,
    LogicalDelta,
    LogicalFilter,
    LogicalJoin,
    LogicalMultiJoin,
    LogicalProject,
    LogicalScan,
    LogicalWindowAgg,
    RelNode,
)
from repro.sql.rex import (
    RexCall,
    RexInputRef,
    RexLiteral,
    RexNode,
    make_conjunction,
    split_conjunction,
)
from repro.sql.types import SqlType


class Rule:
    """A local rewrite: ``apply`` returns a replacement node or None."""

    name = "rule"

    def apply(self, node: RelNode) -> RelNode | None:
        raise NotImplementedError


# -- Rex utilities -----------------------------------------------------------


def substitute_refs(node: RexNode, exprs: tuple[RexNode, ...]) -> RexNode:
    """Replace every input ref with the corresponding expression."""
    if isinstance(node, RexInputRef):
        return exprs[node.index]
    if isinstance(node, RexCall):
        return RexCall(node.op,
                       tuple(substitute_refs(o, exprs) for o in node.operands),
                       node.type)
    return node


def fold_constants(node: RexNode) -> RexNode:
    """Bottom-up constant folding; keeps the node's declared type."""
    if not isinstance(node, RexCall):
        return node
    operands = tuple(fold_constants(o) for o in node.operands)
    folded = RexCall(node.op, operands, node.type)
    if node.op.startswith("UDF:"):
        return folded  # UDFs may be impure; never fold them at plan time
    if all(isinstance(o, RexLiteral) for o in operands):
        try:
            return RexLiteral(eval_constant(folded), node.type)
        except Exception:
            return folded  # division by zero etc.: leave for runtime
    # Boolean short-circuits with partial literals.
    if node.op == "AND":
        kept = []
        for operand in operands:
            if isinstance(operand, RexLiteral):
                if operand.value is False:
                    return RexLiteral(False, SqlType.BOOLEAN)
                continue  # TRUE conjunct drops out
            kept.append(operand)
        result = make_conjunction(kept)
        return result if result is not None else RexLiteral(True, SqlType.BOOLEAN)
    if node.op == "OR":
        kept = []
        for operand in operands:
            if isinstance(operand, RexLiteral):
                if operand.value is True:
                    return RexLiteral(True, SqlType.BOOLEAN)
                continue
            kept.append(operand)
        if not kept:
            return RexLiteral(False, SqlType.BOOLEAN)
        if len(kept) == 1:
            return kept[0]
        return RexCall("OR", tuple(kept), SqlType.BOOLEAN)
    return folded


# -- rules ---------------------------------------------------------------------


class ConstantFoldingRule(Rule):
    name = "ConstantFolding"

    def apply(self, node: RelNode) -> RelNode | None:
        if isinstance(node, LogicalFilter):
            folded = fold_constants(node.condition)
            if folded != node.condition:
                return LogicalFilter(node.input, folded)
        if isinstance(node, LogicalProject):
            folded_exprs = tuple(fold_constants(e) for e in node.exprs)
            if folded_exprs != node.exprs:
                return LogicalProject(node.input, folded_exprs, node.names)
        if isinstance(node, LogicalJoin):
            folded = fold_constants(node.condition)
            if folded != node.condition:
                return LogicalJoin(node.left, node.right, node.kind, folded)
        return None


class TrueFilterRemoveRule(Rule):
    name = "TrueFilterRemove"

    def apply(self, node: RelNode) -> RelNode | None:
        if (isinstance(node, LogicalFilter)
                and isinstance(node.condition, RexLiteral)
                and node.condition.value is True):
            return node.input
        return None


class FilterMergeRule(Rule):
    name = "FilterMerge"

    def apply(self, node: RelNode) -> RelNode | None:
        if isinstance(node, LogicalFilter) and isinstance(node.input, LogicalFilter):
            inner = node.input
            combined = make_conjunction(
                split_conjunction(inner.condition) + split_conjunction(node.condition))
            return LogicalFilter(inner.input, combined)
        return None


class ProjectMergeRule(Rule):
    name = "ProjectMerge"

    def apply(self, node: RelNode) -> RelNode | None:
        if isinstance(node, LogicalProject) and isinstance(node.input, LogicalProject):
            inner = node.input
            merged = tuple(substitute_refs(e, inner.exprs) for e in node.exprs)
            return LogicalProject(inner.input, merged, node.names)
        return None


class ProjectRemoveRule(Rule):
    name = "ProjectRemove"

    def apply(self, node: RelNode) -> RelNode | None:
        if isinstance(node, LogicalProject) and node.is_identity():
            return node.input
        return None


class FilterProjectTransposeRule(Rule):
    """Filter(Project(x)) -> Project(Filter'(x)): evaluate the predicate
    before materializing projections (cheaper rows sooner)."""

    name = "FilterProjectTranspose"

    def apply(self, node: RelNode) -> RelNode | None:
        if isinstance(node, LogicalFilter) and isinstance(node.input, LogicalProject):
            project = node.input
            pushed = substitute_refs(node.condition, project.exprs)
            return LogicalProject(
                LogicalFilter(project.input, pushed), project.exprs, project.names)
        return None


class FilterJoinPushRule(Rule):
    """Push single-side conjuncts of a filter above an inner join into the
    corresponding join input."""

    name = "FilterJoinPush"

    def apply(self, node: RelNode) -> RelNode | None:
        if not (isinstance(node, LogicalFilter) and isinstance(node.input, LogicalJoin)):
            return None
        join = node.input
        if join.kind != "INNER":
            return None
        left_width = len(join.left.row_type)
        total_width = left_width + len(join.right.row_type)
        left_pushed: list[RexNode] = []
        right_pushed: list[RexNode] = []
        remaining: list[RexNode] = []
        for conjunct in split_conjunction(node.condition):
            fields = conjunct.accept_fields()
            if fields and max(fields) < left_width:
                left_pushed.append(conjunct)
            elif fields and min(fields) >= left_width:
                mapping = {i: i - left_width for i in range(left_width, total_width)}
                from repro.sql.rex import remap_input_refs
                right_pushed.append(remap_input_refs(conjunct, mapping))
            else:
                remaining.append(conjunct)
        if not left_pushed and not right_pushed:
            return None
        left = join.left
        if left_pushed:
            left = LogicalFilter(left, make_conjunction(left_pushed))
        right = join.right
        if right_pushed:
            right = LogicalFilter(right, make_conjunction(right_pushed))
        new_join = LogicalJoin(left, right, join.kind, join.condition)
        rest = make_conjunction(remaining)
        return LogicalFilter(new_join, rest) if rest is not None else new_join


def _contains_stream_scan(node: RelNode) -> bool:
    if isinstance(node, LogicalScan):
        return node.is_stream
    return any(_contains_stream_scan(child) for child in node.inputs)


class MultiJoinCollapseRule(Rule):
    """Collapse a left-deep chain of windowed stream-stream INNER joins
    into one :class:`LogicalMultiJoin` (arXiv 2411.15835).

    Fires on a join whose left child is itself a join (or an already
    collapsed multi-join), when the *combined* condition decomposes into
    equi-key conjuncts sharing one key family across every input plus
    finite pairwise rowtime windows — the shapes the N-way operator's
    shared state layout can serve.  Everything else (stream-to-relation
    joins, non-equi residuals, unbounded windows, binary joins) is left
    alone and plans as a cascade of binary joins, each a K = 2 instance
    of the same operator.
    """

    name = "MultiJoinCollapse"

    def apply(self, node: RelNode) -> RelNode | None:
        if not (isinstance(node, LogicalJoin) and node.kind == "INNER"):
            return None
        left = node.left
        if isinstance(left, LogicalMultiJoin):
            inputs = left.join_inputs + (node.right,)
            inner_condition = left.condition
        elif isinstance(left, LogicalJoin) and left.kind == "INNER":
            inputs = (left.left, left.right, node.right)
            inner_condition = left.condition
        else:
            return None
        if not all(_contains_stream_scan(child) for child in inputs):
            return None  # a relation side: stays a stream-to-relation join
        condition = make_conjunction(
            split_conjunction(inner_condition) + split_conjunction(node.condition))
        if not analyze_multi_join(inputs, condition).collapsible:
            return None
        return LogicalMultiJoin(inputs, condition)


class DeltaPushRule(Rule):
    """Push Delta toward the leaves; absorb it into stream scans.

    For joins, Delta goes only into stream-containing sides; a Delta over
    a table-only side would be empty (tables don't produce inserts during
    the query), which is exactly the stream-to-relation join shape.
    """

    name = "DeltaPush"

    def apply(self, node: RelNode) -> RelNode | None:
        if not isinstance(node, LogicalDelta):
            return None
        child = node.input
        if isinstance(child, LogicalScan):
            return child if child.is_stream else None  # absorbed / stuck
        if isinstance(child, LogicalDelta):
            return child  # Delta is idempotent
        if isinstance(child, LogicalFilter):
            return LogicalFilter(LogicalDelta(child.input), child.condition)
        if isinstance(child, LogicalProject):
            return LogicalProject(LogicalDelta(child.input), child.exprs, child.names)
        if isinstance(child, LogicalAggregate):
            return child.with_inputs([LogicalDelta(child.input)])
        if isinstance(child, LogicalWindowAgg):
            return child.with_inputs([LogicalDelta(child.input)])
        if isinstance(child, LogicalJoin):
            left_stream = _contains_stream_scan(child.left)
            right_stream = _contains_stream_scan(child.right)
            left = LogicalDelta(child.left) if left_stream else child.left
            right = LogicalDelta(child.right) if right_stream else child.right
            if not left_stream and not right_stream:
                return None  # fully relational join under a Delta: stuck
            return LogicalJoin(left, right, child.kind, child.condition)
        if isinstance(child, LogicalMultiJoin):
            # Every collapsed input is a stream side by construction.
            return LogicalMultiJoin(
                tuple(LogicalDelta(i) for i in child.join_inputs),
                child.condition)
        return None


DEFAULT_RULES: list[Rule] = [
    ConstantFoldingRule(),
    TrueFilterRemoveRule(),
    FilterMergeRule(),
    FilterProjectTransposeRule(),
    FilterJoinPushRule(),
    ProjectMergeRule(),
    ProjectRemoveRule(),
    DeltaPushRule(),
    MultiJoinCollapseRule(),
]
