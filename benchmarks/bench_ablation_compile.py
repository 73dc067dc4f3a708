"""Ablation — whole-plan compilation against the interpreted chain.

The compiled path removes two costs from the interpreted chain: the
intermediate row/timestamp lists between scan, filter and insert, and
the per-operator ``process_batch`` calls with their batch entry/exit
bookkeeping — the whole chain is one generated comprehension.  Two
variants over identical pre-decoded batches with a discard sink:

  A  interpreted chain, separate operators      (baseline)
  B  compiled whole-plan function

(The operator-level fused scan that used to sit between them — 29 % of
the gain at its last measurement — is retired; see EXPERIMENTS.md.)
"""

import time

import pytest

from repro.bench.calibration import SQL_QUERIES
from repro.bench.micro import _catalog
from repro.samzasql.compile import CompiledExecutor, compile_chain
from repro.samzasql.operators.base import OperatorContext
from repro.samzasql.operators.router import build_router
from repro.samzasql.plan_builder import PhysicalPlanBuilder
from repro.sql.planner import QueryPlanner
from repro.workloads.orders import OrdersGenerator

from benchmarks.conftest import write_result

BATCH_SIZE = 256


class ChainRunner:
    """One variant of the fig5a chain, fed pre-decoded record batches."""

    def __init__(self, compiled: bool = False, messages: int = 4096):
        catalog = _catalog()
        logical = QueryPlanner(catalog).plan_query(SQL_QUERIES["filter"])
        plan = PhysicalPlanBuilder(catalog).build(logical, "bench-output")
        self._stream = plan.input_streams[0]
        self.sink_count = 0

        def send_batch(entries):
            self.sink_count += len(entries)

        self._router = build_router(plan, OperatorContext({}, send_batch))
        self._route_batch = (
            CompiledExecutor(compile_chain(plan), self._router).route_batch
            if compiled else self._router.route_batch)

        generator = OrdersGenerator(interarrival_ms=1000)
        records = [(record, record["rowtime"])
                   for record in generator.records(messages)]
        self._chunks = [
            ([record for record, _ts in records[i:i + BATCH_SIZE]],
             [ts for _record, ts in records[i:i + BATCH_SIZE]])
            for i in range(0, len(records), BATCH_SIZE)]
        self._index = 0
        self.messages_per_step = BATCH_SIZE

    def step(self) -> None:
        batch_records, timestamps = self._chunks[self._index]
        self._index = (self._index + 1) % len(self._chunks)
        self._route_batch(self._stream, batch_records, timestamps)
        self._router.flush_sinks()


@pytest.fixture(scope="module")
def interpreted():
    return ChainRunner()


@pytest.fixture(scope="module")
def compiled():
    return ChainRunner(compiled=True)


def test_chain_interpreted(benchmark, interpreted):
    benchmark(interpreted.step)


def test_chain_compiled(benchmark, compiled):
    benchmark(compiled.step)


def test_ablation_compile_shares(benchmark, results_dir):
    def measure():
        """Interleaved best-of-3 per variant: load drift hits all equally."""
        steps = 120
        runners = {
            "interpreted": ChainRunner(),
            "compiled": ChainRunner(compiled=True),
        }
        out = {name: float("inf") for name in runners}
        for _ in range(3):
            for name, runner in runners.items():
                start = time.perf_counter()
                for _ in range(steps):
                    runner.step()
                per_msg = ((time.perf_counter() - start) * 1000
                           / (steps * runner.messages_per_step))
                out[name] = min(out[name], per_msg)
        return out

    costs = benchmark.pedantic(measure, rounds=1, iterations=1)
    write_result(
        results_dir, "ablation_compile",
        "Whole-plan compilation ablation (fig5a chain, ms/msg):\n"
        f"  interpreted, separate operators: {costs['interpreted']:.5f}\n"
        f"  compiled whole-plan function:    {costs['compiled']:.5f}\n"
        f"  speedup compiled/interpreted:    "
        f"{costs['interpreted'] / max(costs['compiled'], 1e-9):.2f}x")
    assert costs["compiled"] < costs["interpreted"]
