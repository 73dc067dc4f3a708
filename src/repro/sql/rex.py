"""Row expressions (Calcite's RexNode role).

A Rex tree is a *typed* expression over the fields of an input row,
produced by the converter and consumed by the optimizer (constant folding,
pushdown reasoning) and the code generator.  The physical plan carries
the trees themselves through ZooKeeper, in the JSON form of
:func:`rex_to_json`; each task renders them (:mod:`repro.sql.codegen`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterator, Optional

from repro.common.errors import PlannerError
from repro.sql.types import SqlType


class RexNode:
    """Base class; every node carries its result type."""

    type: SqlType

    def accept_fields(self) -> set[int]:
        """The set of input field indexes this expression reads."""
        raise NotImplementedError


@dataclass(frozen=True)
class RexInputRef(RexNode):
    """Reference to input field ``index``."""

    index: int
    type: SqlType = SqlType.ANY

    def accept_fields(self) -> set[int]:
        return {self.index}

    def __str__(self) -> str:
        return f"$[{self.index}]"


@dataclass(frozen=True)
class RexLiteral(RexNode):
    value: object
    type: SqlType = SqlType.ANY

    def accept_fields(self) -> set[int]:
        return set()

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class RexCall(RexNode):
    """Operator or function application.

    ``op`` is an upper-case operator name: comparison (``=``, ``<`` ...),
    arithmetic (``+`` ...), logic (``AND``/``OR``/``NOT``), or a scalar
    function name from :mod:`repro.sql.functions` (``GREATEST``,
    ``FLOOR_TIME``, ``CASE``, ``IS_NULL`` ...).
    """

    op: str
    operands: tuple[RexNode, ...]
    type: SqlType = SqlType.ANY

    def accept_fields(self) -> set[int]:
        out: set[int] = set()
        for operand in self.operands:
            out |= operand.accept_fields()
        return out

    def __str__(self) -> str:
        args = ", ".join(str(o) for o in self.operands)
        return f"{self.op}({args})"


@dataclass(frozen=True)
class AggCall:
    """One aggregate in an Aggregate/WindowAgg node.

    ``arg`` is None for COUNT(*).  ``name`` is the output field name.
    """

    func: str  # COUNT / SUM / MIN / MAX / AVG
    arg: Optional[RexNode]
    type: SqlType
    name: str
    distinct: bool = False

    def __str__(self) -> str:
        inner = "*" if self.arg is None else str(self.arg)
        prefix = "DISTINCT " if self.distinct else ""
        return f"{self.func}({prefix}{inner})"


def shift_input_refs(node: RexNode, offset: int) -> RexNode:
    """Return a copy with all input refs shifted by ``offset`` (join rewrites)."""
    if isinstance(node, RexInputRef):
        return RexInputRef(node.index + offset, node.type)
    if isinstance(node, RexCall):
        return RexCall(node.op,
                       tuple(shift_input_refs(o, offset) for o in node.operands),
                       node.type)
    return node


def remap_input_refs(node: RexNode, mapping: dict[int, int]) -> RexNode:
    """Return a copy with input refs renumbered through ``mapping``."""
    if isinstance(node, RexInputRef):
        return RexInputRef(mapping[node.index], node.type)
    if isinstance(node, RexCall):
        return RexCall(node.op,
                       tuple(remap_input_refs(o, mapping) for o in node.operands),
                       node.type)
    return node


def split_conjunction(node: RexNode) -> list[RexNode]:
    """Flatten nested ANDs into a conjunct list."""
    if isinstance(node, RexCall) and node.op == "AND":
        out: list[RexNode] = []
        for operand in node.operands:
            out.extend(split_conjunction(operand))
        return out
    return [node]


def make_conjunction(conjuncts: list[RexNode]) -> RexNode | None:
    if not conjuncts:
        return None
    if len(conjuncts) == 1:
        return conjuncts[0]
    return RexCall("AND", tuple(conjuncts), SqlType.BOOLEAN)


def walk_rex(node: RexNode) -> Iterator[RexNode]:
    """Every node of the tree, parents before their operands."""
    yield node
    if isinstance(node, RexCall):
        for operand in node.operands:
            yield from walk_rex(operand)


def _json_literal(value: Any) -> Any:
    """``value`` when JSON carries it back to the same ``repr``; a
    :class:`PlannerError` otherwise — a plan never changes a literal."""
    if value is None or type(value) in (bool, int, str):
        return value
    if type(value) is float and math.isfinite(value):
        return value
    raise PlannerError(f"literal {value!r} cannot travel in the plan JSON")


def rex_to_json(node: RexNode) -> dict[str, Any]:
    """The tree as JSON: ``{"input": i}``, ``{"literal": v}`` or ``{"op":
    op, "operands": [...]}``, each with its ``"type"``."""
    if isinstance(node, RexInputRef):
        return {"input": node.index, "type": node.type.value}
    if isinstance(node, RexLiteral):
        return {"literal": _json_literal(node.value), "type": node.type.value}
    return {"op": node.op, "operands": [rex_to_json(o) for o in node.operands],
            "type": node.type.value}


def rex_from_json(payload: dict[str, Any]) -> RexNode:
    sql_type = SqlType(payload["type"])
    if "input" in payload:
        return RexInputRef(payload["input"], sql_type)
    if "literal" in payload:
        return RexLiteral(payload["literal"], sql_type)
    return RexCall(payload["op"],
                   tuple(rex_from_json(o) for o in payload["operands"]),
                   sql_type)
