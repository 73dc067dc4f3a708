"""The SamzaSQL operator layer (§4.3–4.4).

Operators process array-tuples one at a time and forward results to their
downstream operator; the :class:`~repro.samzasql.operators.router.MessageRouter`
is "a DAG of streaming SQL operators responsible for flowing messages
through query operators" (§4.2).
"""

from repro.samzasql.operators.base import Operator, OperatorContext
from repro.samzasql.operators.scan import ScanOperator
from repro.samzasql.operators.filter import FilterOperator
from repro.samzasql.operators.project import ProjectOperator
from repro.samzasql.operators.sliding_window import SlidingWindowOperator
from repro.samzasql.operators.group_window import GroupWindowAggOperator
from repro.samzasql.operators.multi_way_join import MultiWayStreamJoinOperator
from repro.samzasql.operators.stream_relation_join import StreamRelationJoinOperator
from repro.samzasql.operators.insert import InsertOperator
from repro.samzasql.operators.router import MessageRouter, build_router

__all__ = [
    "Operator",
    "OperatorContext",
    "ScanOperator",
    "FilterOperator",
    "ProjectOperator",
    "SlidingWindowOperator",
    "GroupWindowAggOperator",
    "MultiWayStreamJoinOperator",
    "StreamRelationJoinOperator",
    "InsertOperator",
    "MessageRouter",
    "build_router",
]
