"""Unit tests for the physical plan builder and plan serialization."""

import pytest

from repro.chaos.validate import NESTED_WINDOW_SQL
from repro.common import PlannerError
from repro.samza.storage import InMemoryKeyValueStore
from repro.samzasql.operators.base import OperatorContext
from repro.samzasql.operators.router import OPERATOR_TYPES
from repro.samzasql.physical import (
    FilterNode,
    GroupWindowAggNode,
    InsertNode,
    MultiWayStreamJoinNode,
    PhysicalPlan,
    ProjectNode,
    ScanNode,
    SlidingWindowNode,
    StreamRelationJoinNode,
)
from repro.samzasql.plan_builder import PhysicalPlanBuilder
from repro.sql import QueryPlanner
from repro.sql.catalog import Catalog, StreamDefinition, TableDefinition
from repro.sql.codegen import render
from repro.sql.types import RowType, SqlType

from tests.sql_fixtures import paper_catalog


@pytest.fixture
def catalog():
    return paper_catalog()


def build(catalog, sql):
    logical = QueryPlanner(catalog).plan_query(sql)
    return PhysicalPlanBuilder(catalog).build(logical, "Out")


class TestLowering:
    def test_filter_plan_shape(self, catalog):
        plan = build(catalog, "SELECT STREAM * FROM Orders WHERE units > 50")
        assert isinstance(plan.root, InsertNode)
        [filter_node] = plan.root.inputs
        assert isinstance(filter_node, FilterNode)
        assert isinstance(filter_node.inputs[0], ScanNode)
        assert plan.input_streams == ["Orders"]
        assert plan.store_names == []

    def test_project_names(self, catalog):
        plan = build(catalog, "SELECT STREAM rowtime, units FROM Orders")
        [project] = plan.root.inputs
        assert isinstance(project, ProjectNode)
        assert project.field_names == ["rowtime", "units"]

    def test_sliding_window_requirements(self, catalog):
        plan = build(catalog,
                     "SELECT STREAM rowtime, SUM(units) OVER (PARTITION BY "
                     "productId ORDER BY rowtime RANGE INTERVAL '5' MINUTE "
                     "PRECEDING) s FROM Orders")
        assert "sql-window-messages" in plan.store_names
        assert "sql-window-state" in plan.store_names
        window = plan.root.inputs[0].inputs[0]
        assert isinstance(window, SlidingWindowNode)
        assert window.preceding_ms == 300_000

    def test_group_window_plan(self, catalog):
        plan = build(catalog,
                     "SELECT STREAM START(rowtime), COUNT(*) FROM Orders "
                     "GROUP BY TUMBLE(rowtime, INTERVAL '1' HOUR)")
        agg = plan.root.inputs[0].inputs[0]
        assert isinstance(agg, GroupWindowAggNode)
        assert agg.window_kind == "TUMBLE"
        assert plan.store_names == ["sql-group-windows"]

    def test_stream_relation_join_requirements(self, catalog):
        plan = build(catalog,
                     "SELECT STREAM Orders.units, Products.supplierId "
                     "FROM Orders JOIN Products "
                     "ON Orders.productId = Products.productId")
        join = plan.root.inputs[0].inputs[0]
        assert isinstance(join, StreamRelationJoinNode)
        assert join.stream_is_left
        assert plan.bootstrap_streams == ["Products-changelog"]
        assert "Products-changelog" in plan.input_streams
        assert plan.store_names == ["sql-relation-products"]

    def test_relation_on_left_supported(self, catalog):
        plan = build(catalog,
                     "SELECT STREAM Orders.units FROM Products JOIN Orders "
                     "ON Orders.productId = Products.productId")
        join = plan.root.inputs[0].inputs[0]
        assert isinstance(join, StreamRelationJoinNode)
        assert not join.stream_is_left

    def test_output_rowtime_detected(self, catalog):
        plan = build(catalog, "SELECT STREAM rowtime, units FROM Orders")
        assert plan.root.rowtime_index == 0

    def test_output_without_rowtime(self, catalog):
        plan = build(catalog, "SELECT STREAM units FROM Orders")
        assert plan.root.rowtime_index is None


def window_sql(partition, aggregate="SUM(units)", stream="Orders"):
    return (f"SELECT STREAM rowtime, {aggregate} OVER (PARTITION BY "
            f"{partition} ORDER BY rowtime RANGE INTERVAL '5' MINUTE "
            f"PRECEDING) s FROM {stream}")


def rendered_key(window):
    """The window's partition key as its operator compiles it."""
    return window.key_source([render(key) for key in window.partition_keys])


class TestStoreLayouts:
    """Each store's layout comes from the row types the builder holds, and
    travels in the plan JSON."""

    def test_window_persists_order_value_and_arguments(self, catalog):
        over = ("OVER (PARTITION BY productId ORDER BY rowtime "
                "RANGE INTERVAL '5' MINUTE PRECEDING)")
        plan = build(catalog, f"SELECT STREAM rowtime, SUM(units) {over} s, "
                              f"COUNT(*) {over} c FROM Orders")
        window = plan.root.inputs[0].inputs[0]
        assert not window.repr_key
        assert rendered_key(window) == "(r[1], )"
        messages = plan.stores["sql-window-messages"]
        assert messages.key == ["int", "int"]
        assert messages.row == [["rowtime", "TIMESTAMP"],
                                ["units", "INTEGER"],
                                ["wcount$1", "BIGINT"]]   # COUNT(*): null
        assert messages.fallback is None
        state = plan.stores["sql-window-state"]
        assert (state.key, state.record) == (["int"], [["seq", "BIGINT"]])

    def test_window_key_without_an_ordered_kind_is_one_string(self, catalog):
        """A PARTITION BY value of a type the ordered key codec does not
        hold — DOUBLE, BOOLEAN — makes the whole partition key its repr."""
        plan = build(catalog, window_sql("productId, units > 5"))
        window = plan.root.inputs[0].inputs[0]
        assert window.repr_key
        assert rendered_key(window) == "(repr([r[1], (r[3] > 5)]),)"
        assert plan.stores["sql-window-messages"].key == ["str", "int"]
        assert plan.stores["sql-window-state"].key == ["str"]

    def test_untyped_argument_keeps_object_values(self, catalog):
        catalog.register_stream(StreamDefinition("Events", RowType([
            ("rowtime", SqlType.TIMESTAMP), ("k", SqlType.VARCHAR),
            ("payload", SqlType.ANY)])))
        plan = build(catalog, window_sql("k", "MAX(payload)", "Events"))
        messages = plan.stores["sql-window-messages"]
        assert messages.key == ["str", "int"]
        assert messages.fallback == "field 'payload' is ANY"
        assert messages.msg_serde_name == "object"
        assert plan.stores["sql-window-state"].fallback is None

    def test_join_stores_hold_input_rows_and_index_records(self, catalog):
        plan = build(catalog, """
            SELECT STREAM PacketsR1.packetId FROM PacketsR1 JOIN PacketsR2 ON
            PacketsR1.rowtime BETWEEN PacketsR2.rowtime - INTERVAL '2' SECOND
              AND PacketsR2.rowtime + INTERVAL '2' SECOND
            AND PacketsR1.packetId = PacketsR2.packetId""")
        for store in ("sql-mjoin-0", "sql-mjoin-1"):
            layout = plan.stores[store]
            assert layout.key == ["int", "int"]
            assert layout.row == [["rowtime", "TIMESTAMP"],
                                  ["sourcetime", "TIMESTAMP"],
                                  ["packetId", "BIGINT"]]
            assert layout.record == [["count", "BIGINT"], ["seq", "BIGINT"]]
            assert layout.msg_serde_name == (
                "row(rowtime TIMESTAMP, sourcetime TIMESTAMP, packetId "
                "BIGINT)|record(count BIGINT, seq BIGINT)")

    def test_relation_store_holds_the_relation_row(self, catalog):
        plan = build(catalog,
                     "SELECT STREAM Orders.units, Products.supplierId "
                     "FROM Orders JOIN Products "
                     "ON Orders.productId = Products.productId")
        layout = plan.stores["sql-relation-products"]
        assert (layout.key, layout.key_serde_name) == ("str", "ordered:str")
        assert layout.row == [["productId", "INTEGER"], ["name", "VARCHAR"],
                              ["supplierId", "INTEGER"]]

    def test_group_window_values_stay_object(self, catalog):
        plan = build(catalog,
                     "SELECT STREAM START(rowtime), COUNT(*) FROM Orders "
                     "GROUP BY TUMBLE(rowtime, INTERVAL '1' HOUR)")
        layout = plan.stores["sql-group-windows"]
        assert layout.key_serde_name == "ordered:str"
        assert layout.msg_serde() is None and layout.fallback

    def test_layouts_round_trip_through_plan_json(self, catalog):
        plan = build(catalog, window_sql("productId"))
        assert PhysicalPlan.from_dict(plan.to_dict()).stores == plan.stores


class TestStreamStreamBounds:
    def test_symmetric_between(self, catalog):
        plan = build(catalog, """
            SELECT STREAM PacketsR1.packetId FROM PacketsR1 JOIN PacketsR2 ON
            PacketsR1.rowtime BETWEEN PacketsR2.rowtime - INTERVAL '2' SECOND
              AND PacketsR2.rowtime + INTERVAL '2' SECOND
            AND PacketsR1.packetId = PacketsR2.packetId""")
        join = plan.root.inputs[0].inputs[0]
        assert isinstance(join, MultiWayStreamJoinNode)
        assert join.upper_bounds_ms == [[0, 2000], [2000, 0]]
        assert join.probe_orders == [[1], [0]]
        assert join.key_indexes == [2, 2]  # packetId
        assert join.bucket_ms == 250
        assert plan.store_names == ["sql-mjoin-0", "sql-mjoin-1"]

    def test_asymmetric_bounds(self, catalog):
        plan = build(catalog, """
            SELECT STREAM PacketsR1.packetId FROM PacketsR1 JOIN PacketsR2 ON
            PacketsR1.rowtime >= PacketsR2.rowtime - INTERVAL '1' SECOND
            AND PacketsR1.rowtime <= PacketsR2.rowtime + INTERVAL '3' SECOND
            AND PacketsR1.packetId = PacketsR2.packetId""")
        join = plan.root.inputs[0].inputs[0]
        # left.rowtime - right.rowtime ∈ [-1000, 3000]
        assert join.upper_bounds_ms == [[0, 3000], [1000, 0]]

    def test_missing_bounds_rejected(self, catalog):
        with pytest.raises(PlannerError, match="time window"):
            build(catalog,
                  "SELECT STREAM PacketsR1.packetId FROM PacketsR1 JOIN PacketsR2 "
                  "ON PacketsR1.packetId = PacketsR2.packetId")

    def test_one_sided_bound_rejected(self, catalog):
        with pytest.raises(PlannerError, match="time window"):
            build(catalog, """
                SELECT STREAM PacketsR1.packetId FROM PacketsR1 JOIN PacketsR2
                ON PacketsR1.rowtime >= PacketsR2.rowtime - INTERVAL '2' SECOND
                AND PacketsR1.packetId = PacketsR2.packetId""")

    def test_join_without_equi_key_allowed(self, catalog):
        plan = build(catalog, """
            SELECT STREAM PacketsR1.packetId FROM PacketsR1 JOIN PacketsR2 ON
            PacketsR1.rowtime BETWEEN PacketsR2.rowtime - INTERVAL '1' SECOND
              AND PacketsR2.rowtime + INTERVAL '1' SECOND""")
        join = plan.root.inputs[0].inputs[0]
        assert join.key_indexes is None  # keyless: one bucket


class TestRejections:
    def test_unwindowed_aggregate(self, catalog):
        with pytest.raises(PlannerError, match="window"):
            build(catalog,
                  "SELECT STREAM productId, COUNT(*) FROM Orders GROUP BY productId")

    def test_distinct_aggregate_rejected(self, catalog):
        with pytest.raises(PlannerError, match="DISTINCT"):
            build(catalog,
                  "SELECT STREAM COUNT(DISTINCT productId) FROM Orders "
                  "GROUP BY TUMBLE(rowtime, INTERVAL '1' HOUR)")

    def test_table_only_query_rejected(self, catalog):
        logical = QueryPlanner(catalog).plan_query("SELECT * FROM Products")
        with pytest.raises(PlannerError):
            PhysicalPlanBuilder(catalog).build(logical, "Out")

    def test_full_outer_stream_relation_rejected(self, catalog):
        with pytest.raises(PlannerError, match="INNER and LEFT"):
            build(catalog,
                  "SELECT STREAM Orders.units FROM Orders FULL OUTER JOIN Products "
                  "ON Orders.productId = Products.productId")


def _walk(node):
    yield node
    for child in node.inputs:
        yield from _walk(child)


def build_cascade(catalog, sql):
    """Build with the multi-way collapse rule left out of the rule list
    (the pairwise-cascade reference arm)."""
    from tests.samzasql_fixtures import cascade_planner

    return PhysicalPlanBuilder(catalog).build(
        cascade_planner(catalog).plan_query(sql), "Out")


def _join_widths(plan):
    return [len(n.widths) for n in _walk(plan.root)
            if isinstance(n, MultiWayStreamJoinNode)]


def _window_join(i):
    """One anchored JOIN clause: R1's rowtime within ±2s of R{i}'s."""
    return (f"JOIN PacketsR{i} ON PacketsR1.rowtime BETWEEN "
            f"PacketsR{i}.rowtime - INTERVAL '2' SECOND AND "
            f"PacketsR{i}.rowtime + INTERVAL '2' SECOND AND "
            f"PacketsR{i - 1}.packetId = PacketsR{i}.packetId")


class TestMultiWayCollapse:
    THREE_WAY = ("SELECT STREAM PacketsR1.packetId FROM PacketsR1 "
                 + _window_join(2) + " " + _window_join(3))
    FOUR_WAY = THREE_WAY + " " + _window_join(4)

    def test_three_way_collapses(self, catalog):
        plan = build(catalog, self.THREE_WAY)
        [join] = [n for n in _walk(plan.root)
                  if isinstance(n, MultiWayStreamJoinNode)]
        assert join.widths == [3, 3, 3]
        assert join.input_names == ["PacketsR1", "PacketsR2", "PacketsR3"]
        assert plan.store_names == ["sql-mjoin-0", "sql-mjoin-1", "sql-mjoin-2"]
        # stated bounds plus the transitively derived R2-R3 pair
        assert join.upper_bounds_ms[0][1] == 2000
        assert join.upper_bounds_ms[1][0] == 2000
        assert join.upper_bounds_ms[1][2] == 4000
        assert join.upper_bounds_ms[2][1] == 4000

    def test_four_way_collapses(self, catalog):
        plan = build(catalog, self.FOUR_WAY)
        [join] = [n for n in _walk(plan.root)
                  if isinstance(n, MultiWayStreamJoinNode)]
        assert len(join.widths) == 4

    def test_cascade_planner_keeps_binary_chain(self, catalog):
        plan = build_cascade(catalog, self.THREE_WAY)
        joins = [n for n in _walk(plan.root)
                 if isinstance(n, MultiWayStreamJoinNode)]
        assert [len(j.widths) for j in joins] == [2, 2]
        # each join instance gets its own stores
        assert sorted(plan.store_names) == ["sql-mjoin-0", "sql-mjoin-1",
                                            "sql-mjoin2-0", "sql-mjoin2-1"]
        assert sorted(j.stores for j in joins) == [
            ["sql-mjoin-0", "sql-mjoin-1"], ["sql-mjoin2-0", "sql-mjoin2-1"]]

    def test_two_way_not_collapsed(self, catalog):
        plan = build(catalog, """
            SELECT STREAM PacketsR1.packetId FROM PacketsR1 JOIN PacketsR2 ON
            PacketsR1.rowtime BETWEEN PacketsR2.rowtime - INTERVAL '2' SECOND
              AND PacketsR2.rowtime + INTERVAL '2' SECOND
            AND PacketsR1.packetId = PacketsR2.packetId""")
        assert _join_widths(plan) == [2]

    def test_non_time_comparison_blocks_collapse(self, catalog):
        sql = (self.THREE_WAY
               + " AND PacketsR1.sourcetime < PacketsR2.sourcetime")
        plan = build(catalog, sql)
        assert _join_widths(plan) == [2, 2]  # no join node with K >= 3

    def test_missing_key_family_blocks_collapse(self, catalog):
        # R3 is windowed against R1 but shares no equi key with anyone.
        sql = ("SELECT STREAM PacketsR1.packetId FROM PacketsR1 "
               + _window_join(2) +
               " JOIN PacketsR3 ON PacketsR1.rowtime BETWEEN "
               "PacketsR3.rowtime - INTERVAL '2' SECOND AND "
               "PacketsR3.rowtime + INTERVAL '2' SECOND")
        plan = build(catalog, sql)
        assert _join_widths(plan) == [2, 2]

    def test_relation_input_blocks_collapse(self, catalog):
        sql = ("SELECT STREAM PacketsR1.packetId FROM PacketsR1 "
               + _window_join(2)
               + " JOIN Products ON PacketsR1.packetId = Products.productId")
        plan = build(catalog, sql)
        assert _join_widths(plan) == [2]
        assert any(isinstance(n, StreamRelationJoinNode)
                   for n in _walk(plan.root))


class _OpeningContext(OperatorContext):
    """Records the name of every store an operator opens at setup."""

    def __init__(self):
        super().__init__({}, send_batch=None)
        self.opened = []

    def get_store(self, name):
        self.opened.append(name)
        return InMemoryKeyValueStore()


class TestStoreOwnership:
    """The plan names each stateful operator instance's stores once; the
    operator opens exactly those.  No two window or join instances share
    a store — nested windows once did, and a restore rebuilt each from
    the other's rows — and together they are the plan's stores."""

    PLANS = {
        "nested-sliding-windows": (build, NESTED_WINDOW_SQL),
        "nested-group-windows": (
            build, "SELECT STREAM START(ws), COUNT(*) FROM (SELECT STREAM "
                   "START(rowtime) AS ws, COUNT(*) AS n FROM Orders GROUP BY "
                   "TUMBLE(rowtime, INTERVAL '10' SECOND)) "
                   "GROUP BY TUMBLE(ws, INTERVAL '20' SECOND)"),
        "join-cascade": (build_cascade, TestMultiWayCollapse.THREE_WAY),
        "relation-joined-twice": (
            build, "SELECT STREAM o.orderId, p.name, q.name AS qname FROM "
                   "Orders o JOIN Products p ON o.productId = p.productId "
                   "JOIN Products q ON o.productId = q.supplierId"),
        "window-over-relation-join": (
            build, "SELECT STREAM rowtime, SUM(supplierId) OVER (PARTITION "
                   "BY productId ORDER BY rowtime ROWS 2 PRECEDING) s FROM "
                   "(SELECT STREAM o.rowtime, o.productId, p.supplierId FROM "
                   "Orders o JOIN Products p ON o.productId = p.productId)"),
    }

    @pytest.mark.parametrize("case", sorted(PLANS))
    def test_instances_open_disjoint_stores_naming_the_plan(self, catalog,
                                                            case):
        lower, sql = self.PLANS[case]
        plan = lower(catalog, sql)
        opened = []
        for node in _walk(plan.root):
            context = _OpeningContext()
            OPERATOR_TYPES[node.kind](node).setup(context)
            assert context.opened == getattr(node, "stores", [])
            if context.opened:
                opened.append(context.opened)
        names = [name for instance in opened for name in instance]
        assert len(opened) == 2
        assert len(names) == len(set(names))
        assert sorted(names) == sorted(plan.stores)


class TestMultiWayProbeOrder:
    def _catalog(self, rates):
        from tests.sql_fixtures import paper_catalog

        catalog = Catalog()
        base = paper_catalog()
        for i, rate in enumerate(rates, start=1):
            name = f"PacketsR{i}"
            definition = base.stream(name)
            catalog.register_stream(StreamDefinition(
                name, definition.row_type, rate_per_sec=rate))
        return catalog

    def test_probe_order_by_declared_rate(self):
        catalog = self._catalog([100.0, 1.0, 10.0])
        plan = build(catalog, TestMultiWayCollapse.THREE_WAY)
        [join] = [n for n in _walk(plan.root)
                  if isinstance(n, MultiWayStreamJoinNode)]
        assert join.order_metric == "window_ms*rate"
        # retention spans are [2000, 4000, 4000] (anchored windows close
        # R2-R3 at 4s), so weights are [200, 4, 40] rows of expected state
        assert join.input_weights == [200.0, 4.0, 40.0]
        assert join.state_order() == [1, 2, 0]
        assert join.probe_orders == [[1, 2], [2, 0], [1, 0]]

    def test_unknown_rate_falls_back_to_window_span(self):
        catalog = self._catalog([100.0, None, 10.0])
        plan = build(catalog, TestMultiWayCollapse.THREE_WAY)
        [join] = [n for n in _walk(plan.root)
                  if isinstance(n, MultiWayStreamJoinNode)]
        assert join.order_metric == "window_ms"
        assert join.input_weights == [2000.0, 4000.0, 4000.0]
        assert join.state_order() == [0, 1, 2]


class TestSerialization:
    QUERIES = [
        "SELECT STREAM * FROM Orders WHERE units > 50",
        "SELECT STREAM rowtime, productId, units FROM Orders",
        ("SELECT STREAM rowtime, SUM(units) OVER (PARTITION BY productId "
         "ORDER BY rowtime RANGE INTERVAL '5' MINUTE PRECEDING) s FROM Orders"),
        ("SELECT STREAM START(rowtime), COUNT(*) FROM Orders "
         "GROUP BY HOP(rowtime, INTERVAL '30' MINUTE, INTERVAL '1' HOUR)"),
        ("SELECT STREAM Orders.units, Products.supplierId FROM Orders "
         "JOIN Products ON Orders.productId = Products.productId"),
        ("SELECT STREAM PacketsR1.packetId FROM PacketsR1 JOIN PacketsR2 ON "
         "PacketsR1.rowtime BETWEEN PacketsR2.rowtime - INTERVAL '2' SECOND "
         "AND PacketsR2.rowtime + INTERVAL '2' SECOND "
         "AND PacketsR1.packetId = PacketsR2.packetId"),
        ("SELECT STREAM PacketsR1.packetId FROM PacketsR1 "
         "JOIN PacketsR2 ON PacketsR1.rowtime BETWEEN "
         "PacketsR2.rowtime - INTERVAL '2' SECOND AND "
         "PacketsR2.rowtime + INTERVAL '2' SECOND "
         "AND PacketsR1.packetId = PacketsR2.packetId "
         "JOIN PacketsR3 ON PacketsR1.rowtime BETWEEN "
         "PacketsR3.rowtime - INTERVAL '2' SECOND AND "
         "PacketsR3.rowtime + INTERVAL '2' SECOND "
         "AND PacketsR2.packetId = PacketsR3.packetId"),
    ]

    @pytest.mark.parametrize("sql", QUERIES)
    def test_json_roundtrip(self, catalog, sql):
        """The plan must survive the ZooKeeper round trip byte-identically
        (the two-phase planning contract)."""
        plan = build(catalog, sql)
        restored = PhysicalPlan.from_dict(plan.to_dict())
        assert restored.to_dict() == plan.to_dict()
        assert restored.input_streams == plan.input_streams
        assert restored.bootstrap_streams == plan.bootstrap_streams
        assert restored.explain() == plan.explain()

    def test_unknown_kind_rejected(self):
        from repro.samzasql.physical import node_from_dict

        # "stream_stream_join": a plan JSON written before the pairwise
        # join node was retired
        for kind in ("teleport", "stream_stream_join"):
            with pytest.raises(PlannerError, match="unknown physical node"):
                node_from_dict({"kind": kind, "inputs": []})
