"""Unit + property tests for the batch executor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import PlannerError
from repro.samzasql.batch import BatchExecutor
from repro.sql import QueryPlanner
from repro.sql.parser import parse_query
from repro.sql.converter import Converter

from tests.sql_fixtures import paper_catalog

ORDERS = [
    # rowtime, productId, orderId, units
    [1000, 1, 0, 30],
    [2000, 2, 1, 60],
    [3000, 1, 2, 10],
    [4000, 3, 3, 90],
    [5000, 2, 4, 20],
]

PRODUCTS = [
    # productId, name, supplierId
    [1, "alpha", 10],
    [2, "beta", 20],
]


def execute(sql, orders=None, products=None):
    catalog = paper_catalog()
    planner = QueryPlanner(catalog)
    plan = planner.plan_query(sql)
    data = {"Orders": orders if orders is not None else ORDERS,
            "Products": products if products is not None else PRODUCTS}
    return BatchExecutor(lambda name: data[name]).execute(plan)


class TestRelationalBasics:
    def test_scan(self):
        assert execute("SELECT * FROM Orders") == ORDERS

    def test_filter(self):
        rows = execute("SELECT * FROM Orders WHERE units > 25")
        assert [r[2] for r in rows] == [0, 1, 3]

    def test_project(self):
        rows = execute("SELECT orderId, units * 2 FROM Orders")
        assert rows[0] == [0, 60]

    def test_inner_join(self):
        rows = execute(
            "SELECT Orders.orderId, Products.name FROM Orders JOIN Products "
            "ON Orders.productId = Products.productId")
        assert sorted(rows) == [[0, "alpha"], [1, "beta"], [2, "alpha"], [4, "beta"]]

    def test_left_join(self):
        rows = execute(
            "SELECT Orders.orderId, Products.name FROM Orders "
            "LEFT JOIN Products ON Orders.productId = Products.productId")
        assert [None, 3] in [[r[1], r[0]] for r in rows]

    def test_right_join(self):
        rows = execute(
            "SELECT Orders.orderId, Products.name FROM Orders "
            "RIGHT JOIN Products ON Orders.productId = Products.productId",
            products=PRODUCTS + [[9, "ghost", 0]])
        assert [None, "ghost"] in rows

    def test_group_by(self):
        rows = execute(
            "SELECT productId, COUNT(*), SUM(units) FROM Orders GROUP BY productId")
        assert sorted(rows) == [[1, 2, 40], [2, 2, 80], [3, 1, 90]]

    def test_having(self):
        rows = execute(
            "SELECT productId FROM Orders GROUP BY productId HAVING COUNT(*) > 1")
        assert sorted(r[0] for r in rows) == [1, 2]

    def test_distinct(self):
        rows = execute("SELECT DISTINCT productId FROM Orders")
        assert sorted(r[0] for r in rows) == [1, 2, 3]

    def test_aggregates_over_empty_input(self):
        rows = execute("SELECT productId, SUM(units) FROM Orders GROUP BY productId",
                       orders=[])
        assert rows == []

    def test_delta_rejected(self):
        catalog = paper_catalog()
        plan = Converter(catalog).convert_query(
            parse_query("SELECT STREAM * FROM Orders"))
        with pytest.raises(PlannerError):
            BatchExecutor(lambda name: ORDERS).execute(plan)


class TestWindowedBatch:
    def test_tumble(self):
        rows = execute(
            "SELECT START(rowtime) AS ws, COUNT(*) AS c FROM Orders "
            "GROUP BY TUMBLE(rowtime, INTERVAL '2' SECOND)")
        assert sorted(rows) == [[0, 1], [2000, 2], [4000, 2]]

    def test_sliding_window(self):
        rows = execute(
            "SELECT orderId, SUM(units) OVER (PARTITION BY productId "
            "ORDER BY rowtime RANGE INTERVAL '3' SECOND PRECEDING) s FROM Orders")
        by_id = {r[0]: r[1] for r in rows}
        assert by_id[0] == 30          # product 1 at t=1000
        assert by_id[2] == 40          # product 1 at t=3000: 30+10
        assert by_id[4] == 80          # product 2 at t=5000: 60+20

    def test_rows_frame(self):
        rows = execute(
            "SELECT orderId, SUM(units) OVER (ORDER BY rowtime ROWS 1 PRECEDING) s "
            "FROM Orders")
        by_id = {r[0]: r[1] for r in rows}
        assert by_id[0] == 30
        assert by_id[1] == 90  # 30 + 60

    def test_unbounded_frame(self):
        rows = execute(
            "SELECT orderId, SUM(units) OVER (ORDER BY rowtime "
            "RANGE UNBOUNDED PRECEDING) s FROM Orders")
        assert rows[-1][1] == 210

    def test_window_output_order_matches_input(self):
        rows = execute(
            "SELECT orderId, COUNT(*) OVER (PARTITION BY productId "
            "ORDER BY rowtime RANGE INTERVAL '1' HOUR PRECEDING) c FROM Orders")
        assert [r[0] for r in rows] == [0, 1, 2, 3, 4]


@st.composite
def orders_rows(draw):
    n = draw(st.integers(min_value=0, max_value=25))
    rows = []
    for i in range(n):
        rows.append([
            draw(st.integers(min_value=0, max_value=10_000)),  # rowtime
            draw(st.integers(min_value=0, max_value=4)),       # productId
            i,                                                  # orderId
            draw(st.integers(min_value=0, max_value=100)),     # units
        ])
    return rows


class TestProperties:
    @given(orders_rows())
    @settings(max_examples=30, deadline=None)
    def test_filter_matches_python(self, rows):
        out = execute("SELECT * FROM Orders WHERE units > 50", orders=rows)
        assert out == [r for r in rows if r[3] > 50]

    @given(orders_rows())
    @settings(max_examples=30, deadline=None)
    def test_group_by_matches_python(self, rows):
        out = execute(
            "SELECT productId, COUNT(*), SUM(units) FROM Orders GROUP BY productId",
            orders=rows)
        expected = {}
        for r in rows:
            c, s = expected.get(r[1], (0, 0))
            expected[r[1]] = (c + 1, s + r[3])
        assert {r[0]: (r[1], r[2]) for r in out} == expected

    @given(orders_rows())
    @settings(max_examples=20, deadline=None)
    def test_sliding_window_matches_quadratic_reference(self, rows):
        out = execute(
            "SELECT orderId, SUM(units) OVER (PARTITION BY productId "
            "ORDER BY rowtime RANGE INTERVAL '2' SECOND PRECEDING) s FROM Orders",
            orders=rows)
        window = 2000
        # reference must break ties the same way the executor sorts
        # (rowtime, then input order)
        order = sorted(range(len(rows)), key=lambda i: (rows[i][0], i))
        rank = {i: pos for pos, i in enumerate(order)}
        by_id = {r[0]: r[1] for r in out}
        for i, row in enumerate(rows):
            expected = sum(
                other[3] for j, other in enumerate(rows)
                if other[1] == row[1]
                and row[0] - window <= other[0]
                and (other[0], rank[j]) <= (row[0], rank[i]))
            assert by_id[row[2]] == expected


#: Streaming-side modules the oracle must not import: the batch executor
#: is the independent reference streaming output is audited against.
STREAMING_MODULES = (
    "repro.samzasql.operators", "repro.samzasql.compile",
    "repro.samzasql.serde_plan", "repro.samzasql.decision",
    "repro.samzasql.task", "repro.samza",
)


def imported_modules(path):
    """Every module an ``import`` statement in ``path`` names, nested and
    relative imports included (``from a import b`` names ``a`` and ``a.b``)."""
    import ast

    package = "repro.samzasql"
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package.rsplit(".", node.level - 1)[0] if node.level else ""
            module = ".".join(p for p in (base, node.module) if p)
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


class TestOracleIndependence:
    def test_batch_executor_imports_no_streaming_code(self):
        """Checked on the source, not ``sys.modules``: importing
        ``repro.samzasql.batch`` runs ``repro/samzasql/__init__.py``, which
        loads the streaming side anyway."""
        from pathlib import Path

        import repro.samzasql.batch as batch

        offending = sorted(
            module for module in set(imported_modules(Path(batch.__file__)))
            if any(module == banned or module.startswith(banned + ".")
                   for banned in STREAMING_MODULES))
        assert offending == []

    def test_guard_sees_a_streaming_import(self, tmp_path):
        source = tmp_path / "mutant.py"
        source.write_text("def f():\n"
                          "    from .operators.scan import ScanOperator\n"
                          "    from repro.samza import storage\n")
        names = set(imported_modules(source))
        assert "repro.samzasql.operators.scan" in names
        assert "repro.samza.storage" in names
