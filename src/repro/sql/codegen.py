"""Expression code generation — the Janino/Linq4j role (§4.2).

"We use code generation to generate filter conditions, projection
expressions, window operators and join operators."  Here Rex trees are
rendered to Python expression *source* and compiled once per operator, so
the per-row hot path is straight-line compiled bytecode with no tree
walking — the same motivation as Calcite's generated Java.  :func:`render`
is the one producer of expression source: the physical plan carries the
trees themselves; each operator renders them over a row, and a job's
program renders a chain once over the fused function's columns.

Rows are Python lists (the paper's array-tuple representation, Figure 4);
``r[i]`` reads field *i*.  Join predicates see two rows ``l`` and ``r``.
"""

from __future__ import annotations

import math
import re
from typing import Any, Callable

from repro.common.codegen import compile_source
from repro.common.errors import PlannerError
from repro.sql.rex import RexCall, RexInputRef, RexLiteral, RexNode
from repro.sql.types import SqlType

# -- runtime helpers available inside generated code -------------------------


def _int_div(a, b):
    """SQL integer division truncates toward zero."""
    q = a / b
    return int(q) if q >= 0 else -int(-q)


def _like(value, pattern):
    regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
    return re.fullmatch(regex, value) is not None


def _substring(value, start, length=None):
    """SQL SUBSTRING is 1-based; length optional."""
    begin = start - 1
    if length is None:
        return value[begin:]
    return value[begin:begin + length]


def _coalesce(*args):
    for arg in args:
        if arg is not None:
            return arg
    return None


def _cast_int(value):
    return None if value is None else int(value)


def _udf_call(name, *args):
    """Invoke a registered scalar UDF (resolved live, so deserialized plans
    work as long as the UDF is registered in this process)."""
    from repro.sql.udf import UDF_REGISTRY

    udf = UDF_REGISTRY.scalar(name)
    if udf is None:
        raise PlannerError(f"scalar UDF {name!r} is not registered in this process")
    return udf.fn(*args)


CODEGEN_NAMESPACE: dict[str, Any] = {
    "_int_div": _int_div,
    "_like": _like,
    "_substring": _substring,
    "_coalesce": _coalesce,
    "_cast_int": _cast_int,
    "_udf_call": _udf_call,
    "_floor": math.floor,
    "_ceil": math.ceil,
    "_sqrt": math.sqrt,
    "__builtins__": {"abs": abs, "max": max, "min": min, "len": len,
                     "str": str, "float": float, "bool": bool, "int": int,
                     "zip": zip, "repr": repr},
}

_COMPARISON = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_ARITH = {"+": "+", "-": "-", "*": "*", "%": "%"}


def render(node: RexNode, var: str = "r", left_width: int | None = None,
           left_var: str = "l", right_var: str = "r",
           ref_sources: list[str] | None = None) -> str:
    """Render a Rex tree to Python expression source.

    With ``left_width`` set, input refs below it read ``left_var`` and the
    rest read ``right_var`` shifted — the join-predicate calling convention.
    With ``ref_sources``, ref *i* renders as the pre-built source
    ``ref_sources[i]`` verbatim — the multi-way join convention, where the
    condition spans K per-input rows ``p0..p{K-1}``.
    """

    def ref(index: int) -> str:
        if ref_sources is not None:
            return ref_sources[index]
        if left_width is None:
            return f"{var}[{index}]"
        if index < left_width:
            return f"{left_var}[{index}]"
        return f"{right_var}[{index - left_width}]"

    def go(n: RexNode) -> str:
        if isinstance(n, RexInputRef):
            return ref(n.index)
        if isinstance(n, RexLiteral):
            return repr(n.value)
        if isinstance(n, RexCall):
            return call(n)
        raise PlannerError(f"cannot generate code for {n!r}")

    def call(n: RexCall) -> str:
        op = n.op
        args = [go(o) for o in n.operands]
        if op in _COMPARISON:
            return f"({args[0]} {_COMPARISON[op]} {args[1]})"
        if op in _ARITH:
            return f"({args[0]} {_ARITH[op]} {args[1]})"
        if op == "/":
            if n.type in (SqlType.INTEGER, SqlType.BIGINT):
                return f"_int_div({args[0]}, {args[1]})"
            return f"({args[0]} / {args[1]})"
        if op == "AND":
            return "(" + " and ".join(args) + ")"
        if op == "OR":
            return "(" + " or ".join(args) + ")"
        if op == "NOT":
            return f"(not {args[0]})"
        if op == "NEG":
            return f"(-{args[0]})"
        if op == "||":
            return f"({args[0]} + {args[1]})"
        if op == "LIKE":
            return f"_like({args[0]}, {args[1]})"
        if op == "IS_NULL":
            return f"({args[0]} is None)"
        if op == "IS_NOT_NULL":
            return f"({args[0]} is not None)"
        if op == "CASE":
            # operands: c1, r1, c2, r2, ..., else
            source = args[-1]
            pairs = list(zip(args[:-1:2], args[1:-1:2]))
            for condition, result in reversed(pairs):
                source = f"({result} if {condition} else {source})"
            return source
        if op == "CAST":
            target = n.type
            if target in (SqlType.INTEGER, SqlType.BIGINT, SqlType.TIMESTAMP):
                return f"_cast_int({args[0]})"
            if target is SqlType.DOUBLE:
                return f"float({args[0]})"
            if target is SqlType.VARCHAR:
                return f"str({args[0]})"
            if target is SqlType.BOOLEAN:
                return f"bool({args[0]})"
            raise PlannerError(f"unsupported CAST target {target}")
        if op == "FLOOR_TIME":
            return f"({args[0]} // {args[1]} * {args[1]})"
        if op == "FLOOR":
            return f"_floor({args[0]})"
        if op == "CEIL":
            return f"_ceil({args[0]})"
        if op == "GREATEST":
            return f"max({', '.join(args)})"
        if op == "LEAST":
            return f"min({', '.join(args)})"
        if op == "ABS":
            return f"abs({args[0]})"
        if op == "MOD":
            return f"({args[0]} % {args[1]})"
        if op == "POWER":
            return f"({args[0]} ** {args[1]})"
        if op == "SQRT":
            return f"_sqrt({args[0]})"
        if op == "UPPER":
            return f"({args[0]}).upper()"
        if op == "LOWER":
            return f"({args[0]}).lower()"
        if op == "TRIM":
            return f"({args[0]}).strip()"
        if op == "CHAR_LENGTH":
            return f"len({args[0]})"
        if op == "SUBSTRING":
            return f"_substring({', '.join(args)})"
        if op == "COALESCE":
            return f"_coalesce({', '.join(args)})"
        if op == "NULLIF":
            return f"(None if ({args[0]}) == ({args[1]}) else ({args[0]}))"
        if op.startswith("UDF:"):
            udf_args = ", ".join(args)
            separator = ", " if udf_args else ""
            return f"_udf_call({op[4:]!r}{separator}{udf_args})"
        raise PlannerError(f"no code generation rule for operator {op!r}")

    return go(node)


def compile_lambda(source: str, params: str = "r") -> Callable:
    """Compile rendered source into a callable; shared by planner and task."""
    code = compile_source(f"lambda {params}: {source}", "<samzasql-codegen>",
                          "eval")
    return eval(code, dict(CODEGEN_NAMESPACE))  # noqa: S307 - trusted, self-generated


def compile_scalar(node: RexNode) -> Callable[[list], Any]:
    """One expression over a row ``r``: a predicate, a key, an argument."""
    return compile_lambda(render(node))


def _list_source(exprs: list[RexNode]) -> str:
    return "[" + ", ".join(render(e) for e in exprs) + "]"


def compile_projection(exprs: list[RexNode]) -> Callable[[list], list]:
    """The list of ``exprs`` over a row ``r``: a projection, a group key."""
    return compile_lambda(_list_source(exprs))


def compile_join_predicate(node: RexNode, left_width: int) -> Callable[[list, list], bool]:
    """A condition over a joined row, read as two rows ``l`` and ``r``:
    refs below ``left_width`` read ``l``, the rest ``r``."""
    return compile_lambda(render(node, left_width=left_width), params="l, r")


# -- batch compilers ----------------------------------------------------------
#
# The batched execution path evaluates one compiled expression over a whole
# record batch: a single list comprehension with the rendered expression
# inlined in it, so the per-row cost is the expression itself — no lambda
# call, no operator dispatch.  Trees render as for the single-row compilers
# (``r`` is one row/record).


def compile_batch_predicate(node: RexNode) -> Callable[[list, list], list]:
    """Filter a batch in one call: ``f(rows, timestamps)`` returns the
    surviving ``(row, timestamp)`` pairs, evaluating ``node`` once per
    row inside a single comprehension."""
    return compile_lambda(
        f"[(r, t) for r, t in zip(rows, timestamps) if ({render(node)})]",
        params="rows, timestamps")


def compile_batch_projection(exprs: list[RexNode]) -> Callable[[list], list]:
    """Project a batch in one call: ``f(rows)`` maps the list of ``exprs``
    over every row."""
    return compile_lambda(f"[{_list_source(exprs)} for r in rows]",
                          params="rows")


def compile_batch_scan(field_names: list[str],
                       rowtime_index: int | None) -> Callable[[list, list], list]:
    """Batch AvroToArray: ``f(messages, timestamps)`` converts record dicts
    to array-tuples, pairing each with its rowtime (or the wire timestamp
    when the stream has no rowtime column)."""
    row_expr = "[" + ", ".join(f"r[{name!r}]" for name in field_names) + "]"
    ts_expr = ("t" if rowtime_index is None
               else f"r[{field_names[rowtime_index]!r}]")
    return compile_lambda(
        f"[({row_expr}, {ts_expr}) for r, t in zip(messages, timestamps)]",
        params="messages, timestamps")


def eval_constant(node: RexNode) -> Any:
    """Evaluate a reference-free expression (constant folding)."""
    if node.accept_fields():
        raise PlannerError("expression is not constant")
    return compile_lambda(render(node), params="")()
