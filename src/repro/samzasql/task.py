"""The SamzaSQL stream task.

"A SamzaSQL query is a Samza job with SamzaSQL specific stream task
implementation that performs the computation described in the query" (§2).

At ``init`` the task performs the second phase of the two-step planning
(§4.2): it instantiates the physical plan the shell wrote to ZooKeeper.
Plan read, parse, decision and fused render are the container's
:class:`~repro.samzasql.decision.JobProgram`, built by the first task of
a container start; every task only binds it: its stores, its operators
and, when fused, its own copy of the generated function.  ``process``
then routes each deserialized message into the operator DAG; operator
output leaves through the task's collector.
"""

from __future__ import annotations

from repro.common.config import Config
from repro.common.errors import ZkSessionExpiredError
from repro.metrics.instrument import TimingSampler, instrument_operators
from repro.samza.system import OutgoingMessageEnvelope, SystemStream
from repro.samza.task import (
    InitableTask,
    MessageCollector,
    StreamTask,
    TaskContext,
    TaskCoordinator,
    WindowableTask,
)
from repro.samzasql.compile import CompiledExecutor
from repro.samzasql.decision import FUSED, ExecutionDecision, JobProgram
from repro.samzasql.operators.base import OperatorContext
from repro.samzasql.operators.group_window import GroupWindowAggOperator
from repro.samzasql.operators.router import build_router
from repro.samzasql.operators.stream_relation_join import ChangelogTombstone
from repro.zk.client import ZkClient


class _CollectorSink:
    """Bridges operator output onto the collector of the current callback."""

    def __init__(self, output_stream: str, pre_serialized: bool):
        self.output_stream = SystemStream("kafka", output_stream)
        self.collector: MessageCollector | None = None
        # The serde-fused path emits encoded bytes: its entries take the
        # collector's pre-serialized lane, no envelope objects at all.
        self.send_batch = (self._send_pre_serialized if pre_serialized
                           else self._send_envelopes)

    def _send_pre_serialized(self, entries: list) -> None:
        self.collector.send_pre_serialized_batch(
            self.output_stream.stream, entries)

    def _send_envelopes(self, entries: list) -> None:
        """Send many ``(message, timestamp_ms, key)`` entries in one call."""
        stream = self.output_stream
        self.collector.send_batch([
            OutgoingMessageEnvelope(
                system_stream=stream, message=message, key=key,
                partition_key=key, timestamp_ms=timestamp_ms)
            for message, timestamp_ms, key in entries])


class SamzaSqlTask(StreamTask, InitableTask, WindowableTask):
    """Executes one streaming SQL query's operator DAG."""

    def __init__(self, zk: ZkClient, plan_path: str):
        self._zk = zk
        self._plan_path = plan_path
        self.program: JobProgram | None = None  # the container's, bound
        self.router = None
        self.executor: CompiledExecutor | None = None  # fused tasks only
        self._route_batch = None
        self._sink = None
        #: Streams the container should deliver *undecoded*: the fused
        #: chain's stream; empty when the interpreted path runs.
        self.raw_input_streams: frozenset[str] = frozenset()

    def init(self, config: Config, context: TaskContext) -> None:
        program = context.container.get(self._plan_path)
        if program is None:  # the container's first task
            try:
                plan_json = self._zk.get(self._plan_path)[0]
            except ZkSessionExpiredError:
                # The server expired our session (chaos, GC pause...)
                # between client creation and plan load; the plan znode
                # is persistent, so a fresh session reads it fine.
                self._zk.reconnect()
                plan_json = self._zk.get(self._plan_path)[0]
            program = context.container[self._plan_path] = JobProgram.build(
                plan_json, config, context.serdes)
        self.program, plan, decision = program, program.plan, program.decision
        fused = decision.path == FUSED
        self._sink = _CollectorSink(plan.output_stream, pre_serialized=fused)
        stores = {name: context.get_store(name) for name in plan.store_names}
        # The interpreted router is always built: its operators carry the
        # counters (and, with metrics on, the timers) either path updates.
        self.router = build_router(plan, OperatorContext(
            stores=stores, send_batch=self._sink.send_batch,
            partition_id=context.partition_id, metrics=context.metrics))
        operators = self.router.operators
        self._route_batch = self.router.route_batch
        if decision.sampled:
            # Before the executor is built (it picks up the leaf's timer):
            # its one run-time boundary is the function call, timed on the
            # chain's leaf; interpreted operators each get a timer.
            instrument_operators(
                operators, context.metrics, context.partition_id,
                timed=operators[:1] if fused else operators)
        if fused:
            # One generated function spans decode→chain→encode; the
            # container delivers the chain's stream undecoded.  Relation
            # changelogs stay decoded: they reach the join's relation
            # port through the router, tombstones included.  A join or
            # window stage reads the state and stores this task's
            # operator opened at setup.
            self.executor = CompiledExecutor(program, self.router)
            self.raw_input_streams = frozenset({self.executor.stream})
        elif decision.sampled:
            self._route_batch = TimingSampler(
                self.router.route_batch, operators).route_batch

    def _tombstones(self, stream: str, keys: list, messages: list) -> list:
        """A relation changelog's null records as the
        :class:`ChangelogTombstone` s of their keys; other streams, and
        batches without one, pass unchanged."""
        key_type = self.program.changelog_key_types.get(stream)
        if key_type is None or None not in messages:
            return messages
        return [ChangelogTombstone.typed(key, key_type) if message is None
                else message for key, message in zip(keys, messages)]

    def process_batch_raw(self, ssp, records: list,
                          collector: MessageCollector,
                          coordinator: TaskCoordinator) -> None:
        """Serde-fused path: route one partition's *undecoded* batch.

        The generated function decodes only the columns the plan needs
        and emits encoded output bytes; flush semantics match
        :meth:`process_batch` exactly.
        """
        self._sink.collector = collector
        self.executor.run([record.value for record in records],
                           [record.timestamp_ms for record in records])
        self.router.flush_sinks()

    def process(self, envelope, collector: MessageCollector,
                coordinator: TaskCoordinator) -> None:
        """One decoded message: a batch of one."""
        self._sink.collector = collector
        self._route_batch(envelope.stream, self._tombstones(
            envelope.stream, [envelope.key], [envelope.message]),
            [envelope.timestamp_ms])
        self.router.flush_sinks()

    def process_batch(self, ssp, records: list, keys: list, messages: list,
                      collector: MessageCollector,
                      coordinator: TaskCoordinator) -> None:
        """Route one partition's decoded record batch through the DAG.

        Buffered insert output is flushed before returning, so by the time
        the container fires its per-message bookkeeping (fault injection,
        commits) everything this batch produced is already out.
        """
        self._sink.collector = collector
        timestamps = [record.timestamp_ms for record in records]
        self._route_batch(ssp.stream, self._tombstones(
            ssp.stream, keys, messages), timestamps)
        self.router.flush_sinks()

    def window(self, collector: MessageCollector,
               coordinator: TaskCoordinator) -> None:
        """Wall-clock tick: optionally emit partial (early) window results.

        §3: "There will be multiple outputs for the same window due to
        early results policy that send out partial results as soon as a
        window boundary condition is met without waiting for delayed
        arrivals."
        """
        self._sink.collector = collector
        if self.program.early_emit:
            for operator in self.router.operators:
                if isinstance(operator, GroupWindowAggOperator):
                    operator.emit_partials()
        self.router.flush_sinks()

    @property
    def decision(self) -> ExecutionDecision:
        """The plan-time decision this task executes (what EXPLAIN prints)."""
        return self.program.decision

    @property
    def serde_fused(self) -> bool:
        """True when this task routes raw batches through the fused path."""
        return self.program.decision.path == FUSED
