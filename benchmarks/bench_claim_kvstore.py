"""Claim S4 — sliding-window throughput is dominated by KV-store access.

Paper: "Monitoring of access to key-value store (local storage) shows that
throughput is dominated by access to the key-value store, and this makes
the overhead of message transformations negligible."

We run the window pipeline twice: once on the real serialized store stack,
once on a no-op-serde store (same algorithm, near-free state access).  The
difference is the store share of the cost.
"""

import time

import pytest

from repro.samza.storage import (
    InMemoryKeyValueStore,
    KeyValueStore,
    SerializedKeyValueStore,
)
from repro.samzasql.operators.base import OperatorContext
from repro.samzasql.operators.sliding_window import SlidingWindowOperator
from repro.samzasql.physical import SlidingWindowNode
from repro.serde import NoOpSerde, ObjectSerde
from repro.sql.rex import RexCall, RexInputRef

from benchmarks.conftest import write_result


class _DictStore(KeyValueStore):
    """Object-keyed store for the no-serde variant: keys and values stay
    objects, and scans visit keys in sorted order (every key of one
    window store has the same shape)."""

    def __init__(self):
        self._data = {}

    def get(self, key):
        return self._data.get(key)

    def put(self, key, value):
        self._data[key] = value

    def delete(self, key):
        self._data.pop(key, None)

    def all(self):
        return ((key, self._data[key]) for key in sorted(self._data))

    def __len__(self):
        return len(self._data)


def _window_operator(stores) -> SlidingWindowOperator:
    operator = SlidingWindowOperator(SlidingWindowNode(
        partition_keys=[RexInputRef(1)], repr_key=False, order=RexInputRef(0),
        frame_mode="RANGE", preceding_ms=300_000, preceding_rows=None,
        aggs=[RexCall("SUM", (RexInputRef(3),))],
        field_names=["rowtime", "productId", "orderId", "units", "sum"],
        stores=list(stores)))
    operator.setup(OperatorContext(stores, send_batch=lambda _entries: None))

    class _Sink:
        def receive_batch(self, port, rows, timestamps):
            pass

    operator.downstream = _Sink()
    return operator


def _rows(count):
    return [[1_000_000 + i * 1000, i % 10, i, (i * 7) % 100] for i in range(count)]


def _serialized_stores():
    return {
        "sql-window-messages": SerializedKeyValueStore(
            InMemoryKeyValueStore(), ObjectSerde(), ObjectSerde()),
        "sql-window-state": SerializedKeyValueStore(
            InMemoryKeyValueStore(), ObjectSerde(), ObjectSerde()),
    }


def _noop_stores():
    return {"sql-window-messages": _DictStore(), "sql-window-state": _DictStore()}


def test_window_on_serialized_store(benchmark):
    operator = _window_operator(_serialized_stores())
    rows = _rows(2000)
    index = [0]

    def step():
        row = rows[index[0] % len(rows)]
        index[0] += 1
        operator.process(0, list(row), row[0])

    benchmark(step)


def test_window_on_noop_store(benchmark):
    operator = _window_operator(_noop_stores())
    rows = _rows(2000)
    index = [0]

    def step():
        row = rows[index[0] % len(rows)]
        index[0] += 1
        operator.process(0, list(row), row[0])

    benchmark(step)


def test_claim_store_access_dominates(benchmark, results_dir):
    rows = _rows(5000)

    def measure():
        serialized = _window_operator(_serialized_stores())
        start = time.perf_counter()
        for row in rows:
            serialized.process(0, list(row), row[0])
        with_store = time.perf_counter() - start

        noop = _window_operator(_noop_stores())
        start = time.perf_counter()
        for row in rows:
            noop.process(0, list(row), row[0])
        without_store = time.perf_counter() - start
        return with_store, without_store

    with_store, without_store = benchmark.pedantic(measure, rounds=1, iterations=1)
    store_share = 1 - without_store / with_store
    write_result(
        results_dir, "claim_kvstore",
        f"sliding window: {with_store * 1e6 / len(rows):.1f} us/msg with "
        f"serialized store, {without_store * 1e6 / len(rows):.1f} us/msg with "
        f"free state access -> store serde accounts for {store_share:.0%} of "
        f"the cost (paper: 'dominated by access to the key-value store')")
    assert store_share > 0.5
