"""Claim S1 — the Avro↔array transforms explain SamzaSQL's filter/project gap.

Paper (§5.1 + Figure 4): "the performance overhead ... is due primarily to
message format transformations (AvroToArray and ArrayToAvro steps) ...
SamzaSQL's operator router layer also adds very little overhead when
compared with message transformation overheads."

We decompose the SamzaSQL project pipeline: full pipeline and the bare
router layer (pre-converted arrays) — showing the transform steps carry
the cost.
"""

import time

import pytest

from repro.bench.micro import samzasql_pipeline
from repro.samzasql.operators.filter import FilterOperator
from repro.samzasql.operators.project import ProjectOperator
from repro.samzasql.physical import FilterNode, ProjectNode
from repro.sql.rex import RexCall, RexInputRef, RexLiteral

from benchmarks.conftest import write_result


#: The query's ``units > 50`` over its array-tuple.
UNITS_OVER_50 = FilterNode(RexCall(">", (RexInputRef(3), RexLiteral(50))))


@pytest.fixture(scope="module")
def standard():
    return samzasql_pipeline("project")


def test_project_pipeline_standard(benchmark, standard):
    benchmark(standard.step)


def test_router_layer_alone(benchmark):
    """Filter+project over pre-converted arrays: the router's own cost."""
    filter_op = FilterOperator(UNITS_OVER_50)
    project_op = ProjectOperator(ProjectNode(
        [RexInputRef(0), RexInputRef(1), RexInputRef(3)],
        ["rowtime", "productId", "units"]))
    filter_op.downstream = project_op
    row = [1_000_000, 7, 99, 60, "x" * 60]

    def run():
        filter_op.process(0, row, 1_000_000)

    benchmark(run)


def test_claim_transforms_dominate(benchmark, results_dir):
    """Transform share of the per-message cost must dominate router share."""
    standard_p = samzasql_pipeline("project")
    router_filter = FilterOperator(UNITS_OVER_50)
    row = [1_000_000, 7, 99, 60, "x" * 60]

    def measure():
        n = 20_000
        start = time.perf_counter()
        for _ in range(n):
            standard_p.step()
        full_ms = (time.perf_counter() - start) * 1000 / n
        start = time.perf_counter()
        for _ in range(n):
            router_filter.process(0, row, 0)
        router_ms = (time.perf_counter() - start) * 1000 / n
        return full_ms, router_ms

    full_ms, router_ms = benchmark.pedantic(measure, rounds=1, iterations=1)
    share = router_ms / full_ms
    write_result(
        results_dir, "claim_overhead",
        f"project pipeline: {full_ms:.4f} ms/msg total, router layer alone "
        f"{router_ms:.4f} ms/msg ({share:.0%}) — serde+transform steps carry "
        f"the remaining {1 - share:.0%} (paper: router adds 'very little "
        f"overhead' next to message transformations)")
    assert share < 0.5
