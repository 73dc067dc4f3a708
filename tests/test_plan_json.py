"""The physical plan survives its own JSON.

The shell writes the plan to ZooKeeper and every task reads it back, so a
plan restored from its JSON must build its operators from nodes equal to
the shell's, generate the same fused function and explain the same way as
the plan the shell built.  Literals travel as JSON values: each
comes back with the ``repr`` the renderer writes, and one JSON cannot
carry exactly is refused when the plan is built.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import PlannerError
from repro.samza.storage import InMemoryKeyValueStore
from repro.samzasql.decision import JobProgram
from repro.samzasql.operators import Operator, OperatorContext, build_router
from repro.samzasql.operators.router import OPERATOR_TYPES
from repro.samzasql.physical import _NODE_TYPES, PhysicalPlan
from repro.sql.codegen import render
from repro.sql.rex import (
    RexCall,
    RexInputRef,
    RexLiteral,
    rex_from_json,
    rex_to_json,
)
from repro.sql.types import SqlType
from repro.zk.client import ZkClient

from tests.samzasql_fixtures import Deployment, sql_tasks

_WINDOW = ("OVER (PARTITION BY {key} ORDER BY rowtime "
           "RANGE INTERVAL '5' MINUTE PRECEDING)")


def _packet_join(i):
    return (f"JOIN PacketsR{i} ON PacketsR1.rowtime BETWEEN "
            f"PacketsR{i}.rowtime - INTERVAL '2' SECOND AND "
            f"PacketsR{i}.rowtime + INTERVAL '2' SECOND AND "
            f"PacketsR{i - 1}.packetId = PacketsR{i}.packetId")


#: Every physical node kind: name -> (query, keyword arguments of
#: ``shell.execute``).
CORPUS = {
    "filter": ("SELECT STREAM * FROM Orders WHERE units > 50", {}),
    "project": ("SELECT STREAM rowtime, units * 2 AS twice, "
                "'it''s \\ r[0]' AS tag FROM Orders", {}),
    "window-typed-key": (
        f"SELECT STREAM rowtime, SUM(units) {_WINDOW.format(key='productId')}"
        " s FROM Orders", {}),
    "window-repr-key": (
        "SELECT STREAM rowtime, COUNT(*) "
        f"{_WINDOW.format(key='productId, units > 5')} c FROM Orders", {}),
    "group-window": ("SELECT STREAM START(rowtime) AS ws, productId, "
                     "COUNT(*) AS c, SUM(units) AS u FROM Orders GROUP BY "
                     "TUMBLE(rowtime, INTERVAL '1' MINUTE), productId", {}),
    "join-k2": ("SELECT STREAM PacketsR1.packetId FROM PacketsR1 "
                + _packet_join(2), {}),
    "join-k3": ("SELECT STREAM PacketsR1.packetId FROM PacketsR1 "
                + _packet_join(2) + " " + _packet_join(3), {}),
    "relation-join-keyed": (
        "SELECT STREAM o.rowtime, o.orderId, p.name FROM Orders o "
        "JOIN Products p ON o.productId = p.productId", {}),
    "relation-join-keyless": (
        "SELECT STREAM o.orderId, p.name FROM Orders o "
        "JOIN Products p ON o.units > p.supplierId", {}),
    "relation-join-left": (
        "SELECT STREAM o.rowtime, o.orderId, p.name FROM Orders o "
        "LEFT JOIN Products p ON o.productId = p.productId", {}),
    "keyed-insert": ("SELECT STREAM rowtime, productId, units FROM Orders "
                     "WHERE units > 10", {"relation_key": ["productId"]}),
}

def restored(plan: PhysicalPlan) -> PhysicalPlan:
    """The plan as a task reads it: back from its JSON bytes."""
    return PhysicalPlan.from_dict(json.loads(json.dumps(plan.to_dict())))


def preorder(node):
    """The nodes below ``node`` in the order the router builds them."""
    yield node
    for child in node.inputs:
        yield from preorder(child)


def fused_source(plan: PhysicalPlan, handle) -> str | None:
    """The fused function of the program the shell builds from ``plan``
    under the handle's job config, as ``EXPLAIN`` builds it; None when
    the plan runs interpreted."""
    [container] = handle.master.samza_containers.values()
    return JobProgram.build(ZkClient.encode_json(plan.to_dict()),
                            container.config, container.serdes).source


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_plan_survives_its_json(name):
    sql, kwargs = CORPUS[name]
    dep = Deployment(partitions=1).with_orders(5).with_products(4)
    dep.with_packets(routers=3)
    handle = dep.shell.execute(sql, **kwargs)
    dep.runner.run_until_quiescent()
    plan = handle.plan
    read_back = restored(plan)
    assert read_back.to_dict() == plan.to_dict()
    assert read_back.explain() == plan.explain()
    source = fused_source(plan, handle)
    assert fused_source(read_back, handle) == source
    # and it is the program the task built from the plan it read from ZK
    [task] = sql_tasks(handle)
    assert (task.executor.source if task.serde_fused else None) == source
    fuses = name not in ("group-window", "join-k2", "join-k3",
                         "relation-join-keyless")
    assert (source is not None) == fuses


@pytest.mark.parametrize("kind", sorted(_NODE_TYPES))
def test_every_node_kind_has_an_operator(kind):
    assert issubclass(OPERATOR_TYPES[kind], Operator)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_router_builds_operators_from_the_plan_nodes(name):
    """Each operator of a router built from the restored plan holds the
    node it was built from, equal to the shell's node."""
    sql, kwargs = CORPUS[name]
    dep = Deployment(partitions=1).with_orders(5).with_products(4)
    dep.with_packets(routers=3)
    plan = dep.shell.execute(sql, **kwargs).plan
    read_back = restored(plan)
    context = OperatorContext(
        {store: InMemoryKeyValueStore() for store in read_back.stores},
        send_batch=None)
    router = build_router(read_back, context)
    assert ([operator.node for operator in router.operators]
            == list(reversed(list(preorder(plan.root)))))
    assert all(isinstance(operator, OPERATOR_TYPES[operator.node.kind])
               for operator in router.operators)


_SPECIAL = [2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 0, -0.0, 0.0, 1e300,
            -1e-300, 5e-324, "", "it's", 'say "hi"', "both ' and \"",
            "back\\slash", "\\'", "ünïcødé ☃ 日本", "r[0]", "l[1]", "p0[2]",
            "_udf_call(", "None", None, True, False]


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.sampled_from(_SPECIAL),
    st.none(), st.booleans(),
    st.integers(min_value=-(2**64), max_value=2**64),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text()))
def test_literal_round_trips_to_the_same_repr(value):
    """A literal comes back from the canonical plan bytes rendering as it
    rendered before, beside a reference whose text it may spell."""
    tree = RexCall("=", (RexInputRef(0, SqlType.ANY),
                         RexLiteral(value, SqlType.ANY)), SqlType.BOOLEAN)
    blob = json.dumps(rex_to_json(tree), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    restored = rex_from_json(json.loads(blob.decode("utf-8")))
    assert render(restored) == render(tree)
    assert render(restored, ref_sources=["(f3)"]) == f"((f3) == {value!r})"
    [_ref, literal] = restored.operands
    assert type(literal.value) is type(value)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, (1, 2),
                                   b"raw"])
def test_literal_json_cannot_carry_is_refused(value):
    with pytest.raises(PlannerError, match="cannot travel in the plan JSON"):
        rex_to_json(RexLiteral(value, SqlType.ANY))


def test_folded_infinity_is_refused_when_the_plan_is_built():
    dep = Deployment(partitions=1).with_orders(1)
    sql = ("SELECT STREAM rowtime FROM Orders "
           "WHERE units < POWER(10.0, 200) * POWER(10.0, 200)")
    for statement in (f"EXPLAIN {sql}", sql):
        with pytest.raises(PlannerError, match="literal inf cannot travel"):
            dep.shell.execute(statement)
    assert dep.shell._masters == []
