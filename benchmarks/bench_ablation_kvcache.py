"""Ablation — cached vs uncached state store for the window operator.

Samza's cached-store layer absorbs repeated reads of hot keys; since the
sliding window re-reads each partition key's state on every tuple, a small
object cache removes most deserialization on the read path (writes still
hit the store for changelog consistency).
"""

import time

import pytest

from repro.samza.storage import (
    CachedKeyValueStore,
    InMemoryKeyValueStore,
    SerializedKeyValueStore,
)
from repro.samzasql.operators.base import OperatorContext
from repro.samzasql.operators.sliding_window import SlidingWindowOperator
from repro.samzasql.physical import AggSpec
from repro.serde import ObjectSerde

from benchmarks.conftest import write_result


def _stores(cached: bool):
    def make():
        store = SerializedKeyValueStore(
            InMemoryKeyValueStore(), ObjectSerde(), ObjectSerde())
        return CachedKeyValueStore(store, capacity=256) if cached else store

    return {"sql-window-messages": make(), "sql-window-state": make()}


def _operator(cached: bool) -> SlidingWindowOperator:
    operator = SlidingWindowOperator(
        partition_key_source="[r[1]]", order_source="r[0]",
        frame_mode="RANGE", preceding_ms=300_000, preceding_rows=None,
        aggs=[AggSpec(func="SUM", arg_source="r[3]")],
        field_names=["rowtime", "productId", "orderId", "units", "sum"])
    operator.setup(OperatorContext(_stores(cached),
                                   send_batch=lambda _entries: None))

    class _Sink:
        def receive_batch(self, port, rows, timestamps):
            pass

    operator.downstream = _Sink()
    return operator


def _rows(count):
    return [[1_000_000 + i * 1000, i % 10, i, (i * 7) % 100] for i in range(count)]


def test_window_uncached(benchmark):
    operator = _operator(cached=False)
    rows = _rows(2000)
    index = [0]

    def step():
        row = rows[index[0] % len(rows)]
        index[0] += 1
        operator.process(0, list(row), row[0])

    benchmark(step)


def test_window_cached(benchmark):
    operator = _operator(cached=True)
    rows = _rows(2000)
    index = [0]

    def step():
        row = rows[index[0] % len(rows)]
        index[0] += 1
        operator.process(0, list(row), row[0])

    benchmark(step)


def test_ablation_cache_helps_reads(benchmark, results_dir):
    rows = _rows(5000)

    def measure():
        out = {}
        for name, cached in (("uncached", False), ("cached", True)):
            operator = _operator(cached)
            start = time.perf_counter()
            for row in rows:
                operator.process(0, list(row), row[0])
            out[name] = (time.perf_counter() - start) * 1e6 / len(rows)
        return out

    costs = benchmark.pedantic(measure, rounds=1, iterations=1)
    write_result(
        results_dir, "ablation_kvcache",
        f"KV-cache ablation (sliding window, us/msg): uncached "
        f"{costs['uncached']:.1f}, cached {costs['cached']:.1f} "
        f"({1 - costs['cached'] / costs['uncached']:.0%} saved on the "
        f"store-bound path)")
    assert costs["cached"] < costs["uncached"]
