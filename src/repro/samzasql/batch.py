"""Batch execution of non-STREAM queries.

§3.3: "In the absence of a STREAM keyword, SamzaSQL will consider the
stream as a table consisting of the history of the stream up to the point
of execution of the query, and work as a standard relational query."

This evaluator runs an optimized *logical* plan over materialized rows.
It reuses the same generated expressions as the streaming operators, so
language semantics are identical across both execution modes — the paper's
"produce the same results on a stream as if the same data were in a
table" design goal, testable directly (see
``tests/test_samzasql_integration.py::TestStreamTableEquivalence``).
"""

from __future__ import annotations

from typing import Callable

from repro.common.errors import PlannerError
from repro.sql.codegen import (
    compile_join_predicate,
    compile_projection,
    compile_scalar,
)
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
from repro.sql.rex import make_conjunction, split_conjunction

RowSource = Callable[[str], list[list]]


class BatchExecutor:
    """Evaluates a logical plan over rows supplied by ``row_source(name)``."""

    def __init__(self, row_source: RowSource):
        self._rows_for = row_source

    def execute(self, plan: RelNode) -> list[list]:
        return self._eval(plan)

    # -- node evaluation ---------------------------------------------------------

    def _eval(self, node: RelNode) -> list[list]:
        if isinstance(node, LogicalDelta):
            raise PlannerError("Delta (STREAM) plans belong to the streaming engine")
        if isinstance(node, LogicalScan):
            return [list(row) for row in self._rows_for(node.source)]
        if isinstance(node, LogicalFilter):
            rows = self._eval(node.input)
            predicate = compile_scalar(node.condition)
            return [row for row in rows if predicate(row)]
        if isinstance(node, LogicalProject):
            rows = self._eval(node.input)
            project = compile_projection(node.exprs)
            return [project(row) for row in rows]
        if isinstance(node, LogicalJoin):
            return self._eval_join(node)
        if isinstance(node, LogicalMultiJoin):
            return self._eval_multi_join(node)
        if isinstance(node, LogicalSort):
            return self._eval_sort(node)
        if isinstance(node, LogicalAggregate):
            return self._eval_aggregate(node)
        if isinstance(node, LogicalWindowAgg):
            return self._eval_window_agg(node)
        raise PlannerError(f"batch executor cannot evaluate {type(node).__name__}")

    def _eval_join(self, node: LogicalJoin) -> list[list]:
        left_rows = self._eval(node.left)
        right_rows = self._eval(node.right)
        predicate = compile_join_predicate(node.condition, len(node.left.row_type))
        out: list[list] = []
        right_width = len(node.right.row_type)
        left_width = len(node.left.row_type)
        matched_right: set[int] = set()
        for left in left_rows:
            matched = False
            for j, right in enumerate(right_rows):
                if predicate(left, right):
                    matched = True
                    matched_right.add(j)
                    out.append(left + right)
            if not matched and node.kind in ("LEFT", "FULL"):
                out.append(left + [None] * right_width)
        if node.kind in ("RIGHT", "FULL"):
            for j, right in enumerate(right_rows):
                if j not in matched_right:
                    out.append([None] * left_width + right)
        return out

    def _eval_multi_join(self, node: LogicalMultiJoin) -> list[list]:
        """Nested loops, one input at a time; each conjunct of the combined
        condition filters at the first level that has all its fields."""
        pending = split_conjunction(node.condition)
        out: list[list] = [[]]
        width = 0
        for child in node.join_inputs:
            width += len(child.row_type)
            ready = [c for c in pending
                     if max(c.accept_fields(), default=0) < width]
            pending = [c for c in pending if c not in ready]
            keep = (compile_scalar(make_conjunction(ready))
                    if ready else lambda row: True)
            rows = self._eval(child)
            out = [joined for prefix in out for row in rows
                   if keep(joined := prefix + row)]
        return out

    def _eval_sort(self, node: LogicalSort) -> list[list]:
        rows = self._eval(node.input)
        # stable multi-key sort: apply keys last-to-first
        for rex, ascending in reversed(node.sort_keys):
            key_fn = compile_scalar(rex)
            rows.sort(key=key_fn, reverse=not ascending)
        if node.limit is not None:
            rows = rows[:node.limit]
        return rows

    def _eval_aggregate(self, node: LogicalAggregate) -> list[list]:
        rows = self._eval(node.input)
        key_fn = compile_projection(node.group_exprs)
        arg_fns = [
            None if call.arg is None else compile_scalar(call.arg)
            for call in node.agg_calls
        ]
        window = node.window
        time_fn = compile_scalar(window.time_expr) if window else None

        groups: dict[tuple, dict] = {}
        for row in rows:
            keys = key_fn(row)
            if window is not None:
                for wstart in _windows_for(time_fn(row), window.emit_ms,
                                           window.retain_ms, window.align_ms):
                    group_key = (wstart, *map(repr, keys))
                    bucket = groups.setdefault(group_key, {
                        "wstart": wstart, "keys": keys,
                        "values": [[] for _ in node.agg_calls]})
                    self._accumulate(bucket, arg_fns, row)
            else:
                group_key = tuple(map(repr, keys))
                bucket = groups.setdefault(group_key, {
                    "wstart": None, "keys": keys,
                    "values": [[] for _ in node.agg_calls]})
                self._accumulate(bucket, arg_fns, row)

        out: list[list] = []
        for bucket in groups.values():
            aggs = [
                _finalize(call.func, values)
                for call, values in zip(node.agg_calls, bucket["values"])
            ]
            if window is not None:
                out.append([bucket["wstart"], bucket["wstart"] + window.retain_ms,
                            *bucket["keys"], *aggs])
            else:
                out.append([*bucket["keys"], *aggs])
        return out

    @staticmethod
    def _accumulate(bucket: dict, arg_fns, row: list) -> None:
        for values, fn in zip(bucket["values"], arg_fns):
            values.append(None if fn is None else fn(row))

    def _eval_window_agg(self, node: LogicalWindowAgg) -> list[list]:
        rows = self._eval(node.input)
        key_fn = compile_projection(node.partition_exprs)
        order_fn = compile_scalar(node.order_expr)
        arg_fns = [
            None if call.arg is None else compile_scalar(call.arg)
            for call in node.agg_calls
        ]
        partitions: dict[str, list[tuple]] = {}
        ordered_input: list[tuple] = []
        for index, row in enumerate(rows):
            key = repr(key_fn(row))
            entry = (order_fn(row), index, row)
            partitions.setdefault(key, []).append(entry)
            ordered_input.append((key, entry))
        for bucket in partitions.values():
            bucket.sort(key=lambda e: (e[0], e[1]))

        results: dict[int, list] = {}
        for key, bucket in partitions.items():
            for position, (ts, index, row) in enumerate(bucket):
                in_frame = self._frame_rows(node, bucket, position, ts)
                aggs = []
                for call, fn in zip(node.agg_calls, arg_fns):
                    values = [None if fn is None else fn(r) for _, _, r in in_frame]
                    aggs.append(_finalize(call.func, values))
                results[index] = row + aggs
        return [results[i] for i in range(len(rows))]

    @staticmethod
    def _frame_rows(node: LogicalWindowAgg, bucket: list[tuple], position: int,
                    ts) -> list[tuple]:
        if node.frame_mode == "ROWS" and node.preceding_rows is not None:
            start = max(0, position - node.preceding_rows)
            return bucket[start:position + 1]
        if node.frame_mode == "RANGE" and node.preceding_ms is not None:
            cutoff = ts - node.preceding_ms
            return [entry for entry in bucket[:position + 1] if entry[0] >= cutoff]
        return bucket[:position + 1]  # UNBOUNDED PRECEDING


def _windows_for(ts: int, emit_ms: int, retain_ms: int, align_ms: int) -> list[int]:
    shifted = ts - align_ms
    start = (shifted // emit_ms) * emit_ms
    out = []
    while start > shifted - retain_ms:
        out.append(start + align_ms)
        start -= emit_ms
    return out


def _finalize(func: str, values: list):
    non_null = [v for v in values if v is not None]
    if func == "COUNT":
        return len(values)
    if func == "SUM":
        return sum(non_null) if non_null else None
    if func == "AVG":
        return sum(non_null) / len(non_null) if non_null else None
    if func == "MIN":
        return min(non_null) if non_null else None
    if func == "MAX":
        return max(non_null) if non_null else None
    from repro.sql.udf import UDF_REGISTRY

    udaf = UDF_REGISTRY.udaf(func)
    if udaf is not None:
        state = udaf.create()
        for value in values:
            state = udaf.add(state, value)
        return udaf.result(state)
    raise PlannerError(f"unsupported aggregate {func}")
