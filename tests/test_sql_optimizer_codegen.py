"""Tests for optimizer rules, interval parsing, and expression codegen."""

import pytest

from repro.common import PlannerError, SqlParseError
from repro.sql import QueryPlanner
from repro.sql.codegen import (
    compile_join_predicate,
    compile_projection,
    compile_scalar,
    render,
)
from repro.sql.converter import Converter
from repro.sql.interval import parse_interval, parse_time_literal
from repro.sql.parser import parse_query
from repro.sql.rel.nodes import (
    LogicalAggregate,
    LogicalDelta,
    LogicalFilter,
    LogicalJoin,
    LogicalProject,
    LogicalScan,
)
from repro.sql.rel.optimizer import Optimizer
from repro.sql.rex import RexCall, RexInputRef, RexLiteral
from repro.sql.types import SqlType

from tests.sql_fixtures import paper_catalog


@pytest.fixture
def planner():
    return QueryPlanner(paper_catalog())


class TestIntervals:
    @pytest.mark.parametrize("value,unit,expected_ms", [
        ("2", "SECOND", 2000),
        ("5", "MINUTE", 300_000),
        ("1", "HOUR", 3_600_000),
        ("1", "DAY", 86_400_000),
        ("500", "MILLISECOND", 500),
        ("1.5", "SECOND", 1500),
    ])
    def test_single_unit(self, value, unit, expected_ms):
        assert parse_interval(value, unit) == expected_ms

    def test_compound_hour_to_minute(self):
        assert parse_interval("1:30", "HOUR", "MINUTE") == 90 * 60 * 1000

    def test_compound_day_to_second(self):
        assert parse_interval("1:2:3:4", "DAY", "SECOND") == (
            86_400_000 + 2 * 3_600_000 + 3 * 60_000 + 4000)

    def test_compound_wrong_field_count(self):
        with pytest.raises(SqlParseError):
            parse_interval("1:2:3", "HOUR", "MINUTE")

    def test_invalid_qualifier_order(self):
        with pytest.raises(SqlParseError):
            parse_interval("1:2", "MINUTE", "HOUR")

    def test_time_literal(self):
        assert parse_time_literal("0:30") == 30 * 60 * 1000
        assert parse_time_literal("1:05:30") == 3_600_000 + 5 * 60_000 + 30_000

    def test_time_literal_out_of_range(self):
        with pytest.raises(SqlParseError):
            parse_time_literal("1:99")


class TestOptimizerRules:
    def test_delta_absorbed_by_stream_scan(self, planner):
        plan = planner.plan_query("SELECT STREAM * FROM Orders")
        assert isinstance(plan, LogicalScan)

    def test_delta_pushed_below_filter_project(self, planner):
        plan = planner.plan_query(
            "SELECT STREAM rowtime, units FROM Orders WHERE units > 25")
        assert "LogicalDelta" not in plan.explain()
        assert isinstance(plan, LogicalProject)
        assert isinstance(plan.input, LogicalFilter)

    def test_stream_of_table_rejected(self, planner):
        with pytest.raises(PlannerError, match="stream"):
            planner.plan_query("SELECT STREAM * FROM Products")

    def test_delta_into_join_stream_side_only(self, planner):
        plan = planner.plan_query(
            "SELECT STREAM Orders.units, Products.supplierId FROM Orders "
            "JOIN Products ON Orders.productId = Products.productId")
        join = plan.input
        assert isinstance(join, LogicalJoin)
        assert isinstance(join.left, LogicalScan) and join.left.is_stream
        assert isinstance(join.right, LogicalScan) and not join.right.is_stream

    def test_filters_merge(self, planner):
        plan = planner.plan_query(
            "SELECT * FROM (SELECT * FROM Orders WHERE units > 10) WHERE units < 90")
        assert isinstance(plan, LogicalFilter)
        assert isinstance(plan.input, LogicalScan)
        assert plan.condition.op == "AND"

    def test_projects_merge(self, planner):
        plan = planner.plan_query(
            "SELECT u * 2 FROM (SELECT units AS u FROM Orders)")
        assert isinstance(plan, LogicalProject)
        assert isinstance(plan.input, LogicalScan)

    def test_identity_project_removed(self, planner):
        plan = planner.plan_query(
            "SELECT rowtime, productId, orderId, units FROM Orders")
        assert isinstance(plan, LogicalScan)

    def test_filter_pushed_through_project(self, planner):
        plan = planner.plan_query(
            "SELECT u FROM (SELECT units AS u FROM Orders) WHERE u > 5")
        # filter should sit below the projection, directly on the scan
        assert isinstance(plan, LogicalProject)
        assert isinstance(plan.input, LogicalFilter)
        assert isinstance(plan.input.input, LogicalScan)

    def test_filter_pushed_into_join_side(self, planner):
        plan = planner.plan_query(
            "SELECT Orders.units, Products.supplierId FROM Orders "
            "JOIN Products ON Orders.productId = Products.productId "
            "WHERE Orders.units > 50 AND Products.supplierId = 3")
        join = plan.input
        assert isinstance(join, LogicalJoin)
        assert isinstance(join.left, LogicalFilter)   # units > 50 on Orders
        assert isinstance(join.right, LogicalFilter)  # supplierId = 3 on Products

    def test_constant_folding(self, planner):
        plan = planner.plan_query("SELECT units FROM Orders WHERE units > 10 + 20")
        condition = plan.input.condition
        assert condition == RexCall(
            ">", (RexInputRef(3, SqlType.INTEGER), RexLiteral(30, SqlType.INTEGER)),
            SqlType.BOOLEAN)

    def test_true_filter_removed(self, planner):
        plan = planner.plan_query("SELECT units FROM Orders WHERE 1 < 2")
        assert "LogicalFilter" not in plan.explain()

    def test_distinct_becomes_aggregate(self, planner):
        plan = planner.plan_query("SELECT DISTINCT productId FROM Orders")
        assert isinstance(plan, LogicalAggregate)
        assert plan.agg_calls == ()

    def test_optimizer_fixed_point_guard(self):
        class PingPong:
            name = "pingpong"
            flip = False
            def apply(self, node):
                if isinstance(node, LogicalFilter):
                    # alternates two equivalent-but-different conditions forever
                    lit = node.condition
                    other = RexLiteral(not lit.value, SqlType.BOOLEAN)
                    return LogicalFilter(node.input, other)
                return None

        catalog = paper_catalog()
        converter = Converter(catalog)
        plan = converter.convert_query(parse_query("SELECT * FROM Products"))
        plan = LogicalFilter(plan, RexLiteral(True, SqlType.BOOLEAN))
        with pytest.raises(PlannerError, match="fixed point"):
            Optimizer(rules=[PingPong()], max_passes=5).optimize(plan)


def _rex(planner, sql):
    """Compile the WHERE condition of a query over Orders."""
    plan = planner.plan_query(f"SELECT * FROM Orders WHERE {sql}")
    assert isinstance(plan, LogicalFilter)
    return plan.condition


ORDER = [1_000_000, 7, 99, 60]  # rowtime, productId, orderId, units


class TestCodegen:
    def test_comparison(self, planner):
        predicate = compile_scalar(_rex(planner, "units > 50"))
        assert predicate(ORDER) is True
        assert predicate([0, 0, 0, 50]) is False

    def test_boolean_connectives(self, planner):
        predicate = compile_scalar(
            _rex(planner, "units > 50 AND NOT (productId = 3 OR orderId < 10)"))
        assert predicate(ORDER) is True
        assert predicate([0, 3, 99, 60]) is False

    def test_between(self, planner):
        predicate = compile_scalar(_rex(planner, "units BETWEEN 50 AND 70"))
        assert predicate(ORDER) is True
        assert predicate([0, 0, 0, 71]) is False

    def test_in_list(self, planner):
        predicate = compile_scalar(_rex(planner, "productId IN (1, 7, 9)"))
        assert predicate(ORDER) is True

    def test_arithmetic(self, planner):
        plan = planner.plan_query(
            "SELECT units * 2 + 1, units / 7, units / 8.0 FROM Orders")
        project = compile_projection(list(plan.exprs))
        out = project(ORDER)
        assert out == [121, 8, 7.5]  # integer division truncates

    def test_integer_division_truncates_negative(self, planner):
        plan = planner.plan_query("SELECT (0 - units) / 7 FROM Orders")
        assert compile_projection(list(plan.exprs))(ORDER) == [-8]

    def test_case(self, planner):
        plan = planner.plan_query(
            "SELECT CASE WHEN units > 50 THEN 'big' WHEN units > 10 THEN 'mid' "
            "ELSE 'small' END FROM Orders")
        scalar = compile_scalar(plan.exprs[0])
        assert scalar(ORDER) == "big"
        assert scalar([0, 0, 0, 20]) == "mid"
        assert scalar([0, 0, 0, 1]) == "small"

    def test_floor_time(self, planner):
        plan = planner.plan_query("SELECT FLOOR(rowtime TO HOUR) FROM Orders")
        scalar = compile_scalar(plan.exprs[0])
        assert scalar([7_200_123, 0, 0, 0]) == 7_200_000

    def test_greatest_least(self, planner):
        plan = planner.plan_query("SELECT GREATEST(units, 80), LEAST(units, 10) FROM Orders")
        assert compile_projection(list(plan.exprs))(ORDER) == [80, 10]

    def test_string_functions(self):
        catalog = paper_catalog()
        planner = QueryPlanner(catalog)
        plan = planner.plan_query(
            "SELECT UPPER(name), CHAR_LENGTH(name), SUBSTRING(name, 2, 3) FROM Products")
        project = compile_projection(list(plan.exprs))
        assert project([1, "widget", 2]) == ["WIDGET", 6, "idg"]

    def test_like(self, planner):
        catalog = paper_catalog()
        p = QueryPlanner(catalog)
        plan = p.plan_query("SELECT * FROM Products WHERE name LIKE 'wid%'")
        predicate = compile_scalar(plan.condition)
        assert predicate([1, "widget", 2]) is True
        assert predicate([1, "gadget", 2]) is False

    def test_is_null_coalesce(self, planner):
        plan = planner.plan_query(
            "SELECT COALESCE(units, 0), units IS NULL FROM Orders")
        project = compile_projection(list(plan.exprs))
        assert project([0, 0, 0, None]) == [0, True]
        assert project(ORDER) == [60, False]

    def test_cast(self, planner):
        plan = planner.plan_query(
            "SELECT CAST(units AS DOUBLE), CAST(units AS VARCHAR) FROM Orders")
        assert compile_projection(list(plan.exprs))(ORDER) == [60.0, "60"]

    def test_join_predicate_two_rows(self, planner):
        plan = planner.plan_query(
            "SELECT Orders.units FROM Orders JOIN Products "
            "ON Orders.productId = Products.productId AND Products.supplierId > 1")
        join = plan.input
        predicate = compile_join_predicate(join.condition, left_width=4)
        assert predicate(ORDER, [7, "x", 5]) is True
        assert predicate(ORDER, [8, "x", 5]) is False
        assert predicate(ORDER, [7, "x", 1]) is False

    def test_render_is_plain_source(self, planner):
        source = render(_rex(planner, "units > 50"))
        assert source == "(r[3] > 50)"
