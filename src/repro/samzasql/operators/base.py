"""Operator base class and shared context."""

from __future__ import annotations

import time
from typing import Callable

from repro.samza.storage import KeyValueStore
from repro.samzasql.physical import PhysicalNode


class OperatorContext:
    """What operators get at setup: stores, an output sink, metrics."""

    def __init__(self, stores: dict[str, KeyValueStore],
                 send_batch: Callable[[list], None], partition_id: int = 0,
                 metrics=None):
        self._stores = stores
        # send_batch(entries) with entries of (message, timestamp_ms, key);
        # key set for relation-stream outputs (compacted/upserting output
        # topics)
        self.send_batch = send_batch
        self.partition_id = partition_id
        # MetricsRegistry of the hosting container, or None when the job
        # runs without metrics reporting.
        self.metrics = metrics

    def get_store(self, name: str) -> KeyValueStore:
        try:
            return self._stores[name]
        except KeyError:
            raise KeyError(
                f"operator needs store {name!r}; configured: "
                f"{sorted(self._stores)}") from None


class Operator:
    """One node of the router DAG, built from its physical plan node.

    ``Operator(node)`` keeps the node as ``node`` and compiles the node's
    expression trees itself: the node is the operator's one description,
    read wherever the operator needs a field of it.

    ``process_batch(port, rows, timestamps)`` receives a batch of
    array-tuples on an input port (port 0 for single-input operators;
    joins use 0/1 plus a relation port) and forwards zero or more tuples
    downstream via ``emit_batch``.  A single message is a batch of one:
    :meth:`process` is that convenience, for tests.

    Delivery goes through ``receive_batch`` — normally just a bound alias
    of ``process_batch``.  On an interpreted task whose job reports
    metrics, a :class:`~repro.metrics.instrument.TimingSampler` at the
    task entry point flips it to :meth:`_timed_process_batch` for
    sampled bursts, so unsampled traffic crosses no wrapper at all.  Each
    operator carries a stable ``op_id`` (assigned by the router in plan
    order) under which its metrics appear in snapshots.
    """

    #: Stable path segment for metrics (``<METRIC_KIND>-<index>``);
    #: overridden by every concrete operator.
    METRIC_KIND = "operator"

    def __init__(self, node: PhysicalNode):
        self.node = node
        self.downstream: Operator | None = None
        self.processed = 0
        self.emitted = 0
        self.op_id = ""
        self.receive_batch: Callable[[int, list, list], None] = self.process_batch
        self._process_timer = None

    def setup(self, context: OperatorContext) -> None:
        """Bind stores / compile state; called once at task init."""

    def process_batch(self, port: int, rows: list, timestamps: list) -> None:
        raise NotImplementedError

    def process(self, port: int, row: list, timestamp_ms: int) -> None:
        self.process_batch(port, [row], [timestamp_ms])

    def emit_batch(self, rows: list, timestamps: list) -> None:
        self.emitted += len(rows)
        if rows and self.downstream is not None:
            self.downstream.receive_batch(0, rows, timestamps)

    # -- instrumentation ------------------------------------------------------

    def enable_timing(self, timer) -> None:
        """Attach a ``process-ns`` timer; deliveries are NOT rerouted here.

        The :class:`~repro.metrics.instrument.TimingSampler` binds
        ``receive_batch`` to :meth:`_timed_process_batch` only for the
        bursts it samples, so a plain (unsampled) delivery costs nothing
        extra.
        """
        self._process_timer = timer

    def _timed_process_batch(self, port: int, rows: list,
                             timestamps: list) -> None:
        """Timed delivery path; bound to ``receive_batch`` during a sample.

        Records the per-message mean of the batch.  The timer measures
        *inclusive* time: an operator's sample covers its own work plus
        everything it forwards downstream synchronously (the DAG executes
        depth-first in-process).
        """
        start = time.perf_counter_ns()
        self.process_batch(port, rows, timestamps)
        self._process_timer.update(
            (time.perf_counter_ns() - start) // len(rows))
