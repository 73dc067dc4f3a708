"""Golden corpus of fused sources: the generated program as a file.

Each case runs one query on a one-partition fixture deployment and reads
the fused function's source off the job program its container built
(``task.program.source``, the string every task's executor binds); the
test diffs it against
``tests/golden/fused/<name>.py``.  A change to the generator, or to what
the planner hands it, shows as a diff of these files.  Rewrite them on
purpose, from the repo root, with::

    PYTHONPATH=src python -m tests.test_fused_golden
"""

from __future__ import annotations

import difflib
import sys
from pathlib import Path

import pytest

from repro.chaos.validate import NESTED_WINDOW_SQL

from tests.samzasql_fixtures import Deployment, sql_tasks

GOLDEN = Path(__file__).parent / "golden" / "fused"

_FIVE_MINUTES = ("OVER (PARTITION BY productId ORDER BY rowtime "
                 "RANGE INTERVAL '5' MINUTE PRECEDING)")

#: name -> (query, keyword arguments of ``Deployment.run``).
CASES = {
    # fig 5a: every column splices, the encode is one verbatim span
    "filter": ("SELECT STREAM rowtime, productId, orderId, units "
               "FROM Orders WHERE units > 50", {}),
    # fig 5b with a computed column: re-encoded, the rest spliced
    "computed-projection": ("SELECT STREAM rowtime, productId, units * 2 "
                            "AS twice FROM Orders WHERE productId = 3", {}),
    "identity-projection": ("SELECT STREAM rowtime, productId, orderId, "
                            "units FROM Orders", {}),
    # fig 5c, as the table_join workload runs it
    "relation-join": ("SELECT STREAM Orders.rowtime, Orders.orderId, "
                      "Orders.productId, Orders.units, Products.supplierId "
                      "FROM Orders JOIN Products "
                      "ON Orders.productId = Products.productId", {}),
    "left-relation-join": ("SELECT STREAM o.rowtime, o.orderId, o.productId, "
                           "p.name, p.supplierId FROM Orders o LEFT JOIN "
                           "Products p ON o.productId = p.productId", {}),
    "two-relations": ("SELECT STREAM o.orderId, p.name, s.city FROM Orders o "
                      "JOIN Products p ON o.productId = p.productId "
                      "JOIN Suppliers s ON p.supplierId = s.supplierId", {}),
    # fig 6, as the sliding_window workload runs it
    "sliding-window": ("SELECT STREAM rowtime, productId, units, SUM(units) "
                       f"{_FIVE_MINUTES} unitsLastFiveMinutes FROM Orders", {}),
    "window-all-aggregates": (
        "SELECT STREAM rowtime, productId, units, "
        + ", ".join(f"{func}({arg}) OVER (PARTITION BY productId ORDER BY "
                    f"rowtime ROWS 2 PRECEDING) {name}"
                    for func, arg, name in (
                        ("SUM", "units", "s"), ("COUNT", "*", "c"),
                        ("AVG", "units", "a"), ("MIN", "units", "mn"),
                        ("MAX", "units", "mx")))
        + " FROM Orders", {}),
    # a BOOLEAN has no ordered-key kind: the key is one repr string
    "window-repr-key": ("SELECT STREAM rowtime, orderId, COUNT(*) OVER "
                        "(PARTITION BY productId, units > 50 ORDER BY rowtime "
                        "ROWS 2 PRECEDING) c FROM Orders", {}),
    "nested-windows": (NESTED_WINDOW_SQL, {}),
    "window-over-relation-join": (
        f"SELECT STREAM rowtime, productId, name, SUM(units) {_FIVE_MINUTES} "
        "s FROM (SELECT STREAM o.rowtime, o.productId, o.units, p.name "
        "FROM Orders o JOIN Products p ON o.productId = p.productId)", {}),
    # a relation stream: the output key is the repr of its key columns
    "keyed-sink": ("SELECT STREAM rowtime, productId, orderId, units "
                   "FROM Orders WHERE units > 50",
                   {"relation_key": ["productId", "orderId"]}),
}


def fused_source(name: str) -> str:
    """The fused source of the program ``CASES[name]``'s container built."""
    sql, kwargs = CASES[name]
    dep = Deployment(partitions=1).with_orders(5).with_products(4)
    dep.with_suppliers(2)
    handle = dep.run(sql, **kwargs)
    [task] = sql_tasks(handle)
    assert task.decision.path == "fused", task.decision
    # one program per container start, and it is the one the task binds
    [container] = handle.master.samza_containers.values()
    [instance] = container.tasks.values()
    [program] = instance.context.container.values()
    assert task.program is program
    assert task.executor.source == program.source
    return program.source + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_fused_source_matches_golden(name):
    path = GOLDEN / f"{name}.py"
    expected = path.read_text()
    actual = fused_source(name)
    diff = "".join(difflib.unified_diff(
        expected.splitlines(keepends=True), actual.splitlines(keepends=True),
        str(path), "generated"))
    assert actual == expected, (
        f"fused source of {name!r} changed; if on purpose, rewrite the "
        f"corpus with `PYTHONPATH=src python -m tests.test_fused_golden`\n"
        f"{diff}")


def test_corpus_has_no_stray_files():
    assert sorted(p.stem for p in GOLDEN.glob("*.py")) == sorted(CASES)


def main() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for stale in GOLDEN.glob("*.py"):
        if stale.stem not in CASES:
            stale.unlink()
    for name in sorted(CASES):
        (GOLDEN / f"{name}.py").write_text(fused_source(name))
        print(f"wrote {GOLDEN / name}.py", file=sys.stderr)


if __name__ == "__main__":
    main()
