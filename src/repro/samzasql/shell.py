"""The SamzaSQL shell, JDBC-style driver and query executor (§4.1–4.2).

The shell is the user-facing entry point (the paper builds it on SqlLine +
a custom JDBC driver).  ``execute`` takes one statement and:

* ``CREATE VIEW`` — registers the view in the catalog;
* non-STREAM ``SELECT`` — runs the batch executor over the retained
  history of the referenced streams/tables and returns rows;
* ``SELECT STREAM`` / ``INSERT INTO ... SELECT STREAM`` — performs the
  *first* planning phase: logical planning + optimization, lowering to the
  physical plan, writing the plan JSON to ZooKeeper, generating the Samza
  job configuration (input streams, bootstrap flags, serdes, stores with
  changelogs and plan-derived codecs), and submitting the job through the
  YARN client.  Returns a :class:`QueryHandle`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.common.config import Config
from repro.common.errors import PlannerError
from repro.common.execution import parallel_execution
from repro.kafka.cluster import KafkaCluster
from repro.kafka.message import TopicPartition
from repro.metrics import (
    METRICS_SNAPSHOT_SCHEMA,
    METRICS_STREAM,
    latest_by_container,
)
from repro.samza.job import JobRunner, SamzaApplicationMaster, SamzaJob
from repro.samza.serdes import SerdeRegistry
from repro.samzasql.batch import BatchExecutor
from repro.samzasql.decision import JobProgram
from repro.samzasql.physical import PhysicalPlan
from repro.samzasql.plan_builder import (
    PhysicalPlanBuilder,
    single_task_relation_joins,
)
from repro.samzasql.task import SamzaSqlTask
from repro.serde.avro import AvroSchema, AvroSerde
from repro.serde.json_serde import JsonSerde
from repro.sql.catalog import Catalog, StreamDefinition, TableDefinition
from repro.sql.planner import QueryPlanner
from repro.sql.types import SQL_TO_AVRO, RowType
from repro.zk.client import ZkClient
from repro.zk.server import ZkServer


def _nullable_row_type(schema: AvroSchema) -> RowType:
    """RowType for a synthesized nullable-field output schema."""
    from repro.sql.types import row_type_from_avro

    return row_type_from_avro(schema)


def sql_row_type_to_avro(name: str, row_type: RowType) -> AvroSchema | None:
    """Synthesize a nullable-field Avro schema for a query output row type.

    Returns None when a field type has no Avro mapping (falls back to JSON).
    """
    fields = []
    for f in row_type.fields:
        avro_type = SQL_TO_AVRO.get(f.type)
        if avro_type is None:
            return None
        fields.append((f.name, ["null", avro_type]))
    return AvroSchema.record(name, fields)


class ResultCursor:
    """Incremental reader over a query's output stream.

    Remembers the next offset per partition, so each :meth:`poll` returns
    only records produced since the previous one — no re-scan from
    earliest.  Iterating the cursor drains whatever is new right now.
    """

    def __init__(self, cluster: KafkaCluster, topic: str, serde: Any,
                 from_earliest: bool = True):
        self._cluster = cluster
        self._topic = topic
        self._serde = serde
        self._positions: dict[TopicPartition, int] = {
            tp: (cluster.earliest_offset(tp) if from_earliest
                 else cluster.latest_offset(tp))
            for tp in cluster.partitions_for(topic)
        }

    def poll(self) -> list[dict]:
        """Deserialized records appended since the last poll."""
        out = []
        for tp in sorted(self._positions, key=lambda t: t.partition):
            for message in self._cluster.fetch(tp, self._positions[tp]):
                if message.value is not None:
                    out.append(self._serde.from_bytes(message.value))
                self._positions[tp] = message.offset + 1
        return out

    def __iter__(self):
        return iter(self.poll())


@dataclass
class QueryHandle:
    """A running streaming query."""

    query_id: str
    sql: str
    output_stream: str
    plan: PhysicalPlan
    master: SamzaApplicationMaster
    output_serde: Any
    warnings: list[str] = field(default_factory=list)
    _shell: "SamzaSQLShell" = field(repr=False, default=None)
    _stop_listeners: list = field(repr=False, default_factory=list)
    _stop_fired: bool = field(repr=False, default=False)

    def _ensure_running(self, what: str) -> None:
        """Reject live-observation calls on a stopped query with a
        structured error instead of whatever internal exception the
        stale lookup happens to hit."""
        if self.master.finished:
            # Imported lazily: repro.serving sits above the samzasql layer.
            from repro.serving.errors import ErrorCode, PipelineError

            raise PipelineError(
                ErrorCode.QUERY_STOPPED,
                f"query {self.query_id} is stopped; {what} requires a "
                f"running query (use results() to read its final output)",
                details={"query_id": self.query_id, "operation": what})

    def _cursor(self, from_earliest: bool = True) -> ResultCursor:
        return ResultCursor(self._shell.cluster, self.output_stream,
                            self.output_serde, from_earliest=from_earliest)

    def results(self) -> list[dict]:
        """All records currently in the output stream (deserialized).
        Works on stopped queries too — the output topic outlives the job."""
        return self._cursor().poll()

    def iter_results(self, from_earliest: bool = True) -> ResultCursor:
        """Cursor over the output stream; each ``poll()`` yields only
        records produced since the previous poll.  Raises a structured
        ``QUERY_STOPPED`` :class:`~repro.serving.errors.PipelineError`
        once the query has been stopped."""
        self._ensure_running("iter_results()")
        return self._cursor(from_earliest=from_earliest)

    def relation(self) -> dict[str, dict]:
        """Latest record per key — the relation a relation-stream output
        represents (latest-wins over the compacted changelog)."""
        cluster = self._shell.cluster
        latest: dict[str, dict] = {}
        for tp in cluster.partitions_for(self.output_stream):
            for message in cluster.fetch(tp, cluster.earliest_offset(tp)):
                if message.key is None:
                    continue
                key = message.key.decode("utf-8")
                if message.value is None:
                    latest.pop(key, None)
                else:
                    latest[key] = self.output_serde.from_bytes(message.value)
        return latest

    def metrics(self) -> dict[str, dict[str, float]]:
        """Per-container runtime counters (processed, sent, commits, lag)."""
        coordinator = self.master.parallel_coordinator
        if coordinator is not None:
            # Parent-side container objects are idle shells in parallel
            # mode; the coordinator's status rounds are the live numbers.
            return coordinator.container_metrics()
        out: dict[str, dict[str, float]] = {}
        for samza_container in self.master.samza_containers.values():
            out[samza_container.container_id] = {
                "processed": samza_container.processed_count,
                "lag": samza_container.total_lag(),
                "bootstrapping": float(samza_container.is_bootstrapping),
            }
        return out

    @property
    def stopped(self) -> bool:
        """True once the query's job has finished (stopped or torn down)."""
        return self.master.finished

    def add_stop_listener(self, listener) -> None:
        """Register ``listener(handle)`` to fire once on the first stop.

        The serving layer uses this to release admission-control slots
        and catalog pins when a query ends — including ends driven by
        admission eviction rather than the owning session.
        """
        self._stop_listeners.append(listener)

    def stop(self) -> None:
        """Stop the query.  Idempotent: double-stop (user + admission
        eviction racing) must not raise, and stop listeners fire exactly
        once.  A raising listener no longer masks the stop or starves the
        listeners after it: every listener fires, then the first failure
        is re-raised."""
        self.master.finish()
        if self._stop_fired:
            return
        self._stop_fired = True
        errors: list[Exception] = []
        for listener in list(self._stop_listeners):
            try:
                listener(self)
            except Exception as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)
        if errors:
            raise errors[0]

    def snapshots(self, force: bool = True) -> list[dict]:
        """Latest operator-level metrics snapshot records for this query,
        read back from the ``__metrics`` stream (requires the shell's
        metrics reporting to be enabled).  Raises a structured
        ``QUERY_STOPPED`` error once the query has been stopped — there
        are no live containers left to snapshot."""
        self._ensure_running("snapshots()")
        return self._shell.latest_snapshots(job=self.query_id, force=force)

    def explain(self) -> str:
        return self.plan.explain()


class SamzaSQLShell:
    """The end-to-end SamzaSQL entry point over the in-process substrates."""

    def __init__(self, cluster: KafkaCluster, runner: JobRunner,
                 zk: ZkServer | None = None, catalog: Catalog | None = None,
                 metrics_interval_ms: int = 0,
                 default_overrides: dict | None = None):
        self.cluster = cluster
        self.runner = runner
        self.zk = zk or ZkServer()
        self.catalog = catalog or Catalog()
        self.planner = QueryPlanner(self.catalog)
        self._query_counter = 0
        self._masters: list[SamzaApplicationMaster] = []
        self._default_overrides = dict(default_overrides or {})
        self.metrics_interval_ms = metrics_interval_ms
        if metrics_interval_ms > 0:
            self.enable_metrics_stream()

    # -- catalog management ----------------------------------------------------

    def enable_metrics_stream(self) -> StreamDefinition:
        """Create and catalog the ``__metrics`` stream so snapshot records
        are queryable: ``SELECT STREAM * FROM __metrics WHERE ...``."""
        self.cluster.create_topic(METRICS_STREAM, partitions=1,
                                  if_not_exists=True)
        existing = self.catalog.stream(METRICS_STREAM)
        if existing is not None:
            return existing
        return self.catalog.register_stream_from_avro(
            METRICS_STREAM, METRICS_SNAPSHOT_SCHEMA, rowtime_field="rowtime")

    def register_stream(self, name: str, schema: AvroSchema,
                        partitions: int = 4,
                        rowtime_field: str = "rowtime",
                        rate_per_sec: float | None = None) -> StreamDefinition:
        """Register a stream and ensure its topic exists.

        ``rate_per_sec`` is an optional arrival-rate hint the multi-way
        join planner uses to order join inputs by expected state size.
        """
        definition = self.catalog.register_stream_from_avro(
            name, schema, rowtime_field=rowtime_field,
            rate_per_sec=rate_per_sec)
        self.cluster.create_topic(definition.topic, partitions=partitions,
                                  if_not_exists=True)
        return definition

    def register_table(self, name: str, schema: AvroSchema, key_field: str,
                       partitions: int = 4,
                       changelog_topic: str = "") -> TableDefinition:
        """Register a relation backed by a compacted changelog topic (§4.4)."""
        definition = self.catalog.register_table_from_avro(
            name, schema, key_field=key_field, changelog_topic=changelog_topic)
        self.cluster.create_topic(definition.changelog_topic,
                                  partitions=partitions,
                                  cleanup_policy="compact", if_not_exists=True)
        return definition

    def register_derived_stream(self, name: str, handle: "QueryHandle",
                                rowtime_field: str = "rowtime") -> StreamDefinition:
        """Register a running query's output stream as a queryable stream.

        This is how Kappa-style pipelines chain: query 2 consumes query 1's
        output topic ("formation of DAGs through connecting multiple Samza
        jobs via intermediate Kafka streams", §2).
        """
        serde = handle.output_serde
        schema = serde.schema if isinstance(serde, AvroSerde) else None
        if schema is not None:
            definition = StreamDefinition(
                name=name, row_type=_nullable_row_type(schema),
                topic=handle.output_stream, rowtime_field=rowtime_field,
                avro_schema=schema)
        else:
            raise PlannerError(
                f"output of {handle.query_id} has no Avro schema; register the "
                f"derived stream manually with an explicit row type")
        return self.catalog.register_stream(definition)

    # -- statement execution ---------------------------------------------------------

    def execute(self, sql: str, containers: int = 1,
                window_ms: int = -1, config_overrides: dict | None = None,
                relation_key: list[str] | None = None):
        """Execute one statement.

        Returns a :class:`QueryHandle` for streaming queries, a list of row
        dicts for batch SELECTs, and None for CREATE VIEW.
        ``relation_key`` turns the output into a relation stream keyed by
        the named output columns (future-work item 3).
        """
        # A retired execution key fails the statement, EXPLAIN included.
        parallel_execution(
            Config(self._default_overrides).merge(config_overrides or {}))
        planned = self.planner.plan_statement(sql)
        if planned.kind == "view":
            return None
        if planned.kind == "explain":
            return self._explain_report(planned, containers,
                                        config_overrides or {}, relation_key)
        if not planned.is_streaming:
            return self._execute_batch(planned)
        return self._submit_streaming(sql, planned, containers, window_ms,
                                      config_overrides or {}, relation_key)

    # -- EXPLAIN ------------------------------------------------------------------------

    def _explain_report(self, planned, containers: int, overrides: dict,
                        relation_key: list[str] | None) -> str:
        """The EXPLAIN report: logical plan, physical operator chain, the
        serdes each operator store is configured with (and why its values
        fell back to ``object``), and the per-task execution decision
        with its fallback reasons.

        Runs the exact planning pipeline a submission would — physical
        lowering, job config, and the same
        :meth:`~repro.samzasql.decision.JobProgram.build` call a container
        makes, from the plan bytes its tasks would read — but writes
        nothing to ZooKeeper and submits no job.
        """
        lines = ["logical plan:"]
        lines += ["  " + line for line in planned.plan.explain().splitlines()]
        if not planned.is_streaming:
            lines.append("execution: batch query over retained history "
                         "(no job submitted)")
            return "\n".join(lines)

        output_stream = planned.output_stream or "<query>-output"
        builder = PhysicalPlanBuilder(self.catalog)
        plan = builder.build(planned.plan, output_stream,
                             relation_key=relation_key)
        lines.append("physical plan:")
        lines += ["  " + line for line in plan.explain().splitlines()]
        lines += self._describe_join_strategy(plan)

        serdes, config = self._job_config(
            "explain", plan, planned.plan.row_type, containers, -1, overrides)
        for store, layout in plan.stores.items():
            prefix = f"stores.{store}."
            lines.append(
                f"store {store}: key.serde={config.get(prefix + 'key.serde')}"
                f", msg.serde={config.get(prefix + 'msg.serde')}"
                + (f" (fallback: {layout.fallback})" if layout.fallback
                   else ""))

        # One task per input partition (GroupByPartitionId), like the job
        # would get; fall back to the container count for unknown topics.
        try:
            tasks = max(self.cluster.topic(s).partition_count
                        for s in plan.input_streams)
        except Exception:  # noqa: BLE001 - unregistered topic
            tasks = containers
        decision = JobProgram.build(ZkClient.encode_json(plan.to_dict()),
                                    config, serdes).decision
        lines.append(f"tasks: {tasks} × {decision.task_status}")
        lines.append("  " + decision.serde_status)
        return "\n".join(lines)

    @staticmethod
    def _describe_join_strategy(plan: PhysicalPlan) -> list[str]:
        """The multi-way collapse decision for EXPLAIN: which join chains
        collapsed into one K-way operator (and the chosen probe order), or
        that a chain is running as the pairwise cascade (a join feeding a
        join, each a K = 2 instance)."""
        from repro.samzasql.physical import MultiWayStreamJoinNode

        lines: list[str] = []

        def walk(node) -> None:
            k = (len(node.widths)
                 if isinstance(node, MultiWayStreamJoinNode) else 0)
            if k >= 3:
                order = [node.input_names[i] for i in node.state_order()]
                lines.append(
                    f"multi-way join: collapsed {k} inputs "
                    f"[{', '.join(node.input_names)}]; probe order by "
                    f"{node.order_metric}: [{', '.join(order)}]")
            elif k and any(isinstance(child, MultiWayStreamJoinNode)
                           for child in node.inputs):
                lines.append(
                    "multi-way join: not collapsed; running the pairwise "
                    "cascade")
            for child in node.inputs:
                walk(child)

        walk(plan.root)
        return lines

    # -- batch path ---------------------------------------------------------------------

    def _execute_batch(self, planned) -> list[dict]:
        executor = BatchExecutor(self._history_rows)
        rows = executor.execute(planned.plan)
        names = planned.plan.row_type.field_names
        return [dict(zip(names, row)) for row in rows]

    def _history_rows(self, source: str) -> list[list]:
        """Materialize a stream's retained history or a table's latest state."""
        stream = self.catalog.stream(source)
        if stream is not None:
            serde = self._serde_for_schema(stream.avro_schema)
            rows = []
            for tp in self.cluster.partitions_for(stream.topic):
                for message in self.cluster.fetch(tp, self.cluster.earliest_offset(tp)):
                    if message.value is None:
                        continue
                    record = serde.from_bytes(message.value)
                    rows.append([record[f] for f in stream.row_type.field_names])
            return rows
        table = self.catalog.table(source)
        if table is not None:
            serde = self._serde_for_schema(table.avro_schema)
            latest: dict[bytes, list] = {}
            for tp in self.cluster.partitions_for(table.changelog_topic):
                for message in self.cluster.fetch(tp, self.cluster.earliest_offset(tp)):
                    key = message.key or b""
                    if message.value is None:
                        latest.pop(key, None)
                        continue
                    record = serde.from_bytes(message.value)
                    latest[key] = [record[f] for f in table.row_type.field_names]
            return list(latest.values())
        raise PlannerError(f"no data source for {source!r}")

    @staticmethod
    def _serde_for_schema(schema: AvroSchema | None):
        return AvroSerde(schema) if schema is not None else JsonSerde()

    # -- streaming path -------------------------------------------------------------------

    def _submit_streaming(self, sql: str, planned, containers: int,
                          window_ms: int, overrides: dict,
                          relation_key: list[str] | None = None) -> QueryHandle:
        self._query_counter += 1
        query_id = f"samzasql-query-{self._query_counter}"
        output_stream = planned.output_stream or f"{query_id}-output"

        builder = PhysicalPlanBuilder(self.catalog)
        plan = builder.build(planned.plan, output_stream,
                             relation_key=relation_key)
        serdes, config = self._job_config(
            query_id, plan, planned.plan.row_type, containers, window_ms,
            overrides)

        # Output topic, co-partitioned with the widest input; relation
        # streams are compacted (the topic IS the relation's changelog).
        partitions = max(
            self.cluster.topic(s).partition_count for s in plan.input_streams)
        self.cluster.create_topic(
            output_stream, partitions=partitions,
            cleanup_policy="compact" if plan.relation_output else "delete",
            if_not_exists=True)

        # Phase 1 -> ZooKeeper: share the plan with the task-side planner.
        zk_path = f"/samza-sql/queries/{query_id}/plan"
        shell_zk = ZkClient(self.zk)
        shell_zk.write_json(zk_path, plan.to_dict())

        job = SamzaJob(
            config=config,
            task_factory=lambda: SamzaSqlTask(ZkClient(self.zk), zk_path),
            serdes=serdes,
        )
        master = self.runner.submit(job)
        self._masters.append(master)

        output_schema = sql_row_type_to_avro(
            f"{query_id}_output", planned.plan.row_type)
        output_serde = AvroSerde(output_schema) if output_schema else JsonSerde()
        return QueryHandle(
            query_id=query_id, sql=sql, output_stream=output_stream,
            plan=plan, master=master, output_serde=output_serde,
            warnings=list(planned.warnings), _shell=self)

    def _job_config(self, query_id: str, plan: PhysicalPlan,
                    output_row_type: RowType, containers: int,
                    window_ms: int, overrides: dict
                    ) -> tuple[SerdeRegistry, Config]:
        """The job's serde registry and merged config: what the shell
        derives from the plan, then the shell's default overrides, then
        the statement's.  Refuses a relation join that would lose rows on
        the job's tasks (EXPLAIN and submission alike)."""
        for join, key in single_task_relation_joins(plan):
            tasks = max((self.cluster.topic(s).partition_count
                         for s in plan.input_streams
                         if self.cluster.has_topic(s)), default=1)
            if tasks > 1:
                on = (f"on {key!r}, which is not a column of the stream"
                      if key is not None else "not on its key")
                raise PlannerError(
                    f"relation {join.relation} is joined {on}: each of the "
                    f"{tasks} tasks bootstraps only its own partition of "
                    f"{join.relation_stream}, so rows would be lost; join "
                    f"a stream column to its key, or use one partition per "
                    f"input")
        serdes = SerdeRegistry()
        config: dict[str, Any] = {
            "job.name": query_id,
            "job.container.count": containers,
            "task.inputs": ",".join(f"kafka.{s}" for s in plan.input_streams),
            # Declared so the parallel mesh can owner-sequence this topic
            # when a later parallel job consumes it (peer-routed pipeline).
            "task.outputs": f"kafka.{plan.output_stream}",
            "task.window.ms": window_ms,
            "samzasql.plan.path": f"/samza-sql/queries/{query_id}/plan",
        }

        # Input stream serdes (Avro when the catalog has a schema).
        for stream_name in plan.input_streams:
            serde_name = self._register_stream_serde(serdes, stream_name)
            prefix = f"systems.kafka.streams.{stream_name}.samza."
            config[prefix + "msg.serde"] = serde_name
            config[prefix + "key.serde"] = "string"

        for stream_name in plan.bootstrap_streams:
            config[f"systems.kafka.streams.{stream_name}.samza.bootstrap"] = "true"

        # Output stream serde.
        output_schema = sql_row_type_to_avro(f"{query_id}_output", output_row_type)
        if output_schema is not None:
            serdes.register(f"avro-{plan.output_stream}", AvroSerde(output_schema))
            output_serde_name = f"avro-{plan.output_stream}"
        else:
            output_serde_name = "json"
        prefix = f"systems.kafka.streams.{plan.output_stream}.samza."
        config[prefix + "msg.serde"] = output_serde_name
        config[prefix + "key.serde"] = "string"

        # Stores: changelog-backed, with the codecs each store's layout
        # names — ordered keys, positional values; values that are not
        # typed rows keep the generic object serde.
        for store, layout in plan.stores.items():
            config[f"stores.{store}.changelog"] = f"kafka.{query_id}-{store}-changelog"
            serdes.register(layout.key_serde_name, layout.key_serde())
            config[f"stores.{store}.key.serde"] = layout.key_serde_name
            msg_serde = layout.msg_serde()
            if msg_serde is not None:
                serdes.register(layout.msg_serde_name, msg_serde)
            config[f"stores.{store}.msg.serde"] = layout.msg_serde_name

        # Monitoring: every job reports snapshots — except jobs that *consume*
        # __metrics, which must not also produce to it (feedback loop).
        if (self.metrics_interval_ms > 0
                and METRICS_STREAM not in plan.input_streams):
            config["metrics.reporter.interval.ms"] = self.metrics_interval_ms
        return serdes, Config(config).merge(self._default_overrides).merge(
            overrides)

    def _schema_for_topic(self, topic: str) -> AvroSchema | None:
        """The Avro schema a topic carries (stream or table changelog), or
        None when the catalog has no schema for it.

        Lookups go by *topic* (plan input streams are topics), matching both
        catalog streams (whose topic may differ from their name — derived
        streams) and table changelogs.
        """
        for name in self.catalog.object_names():
            stream = self.catalog.stream(name)
            if stream is not None and stream.topic == topic:
                return stream.avro_schema
            table = self.catalog.table(name)
            if table is not None and table.changelog_topic == topic:
                return table.avro_schema
        return None

    def _register_stream_serde(self, serdes: SerdeRegistry, topic: str) -> str:
        schema = self._schema_for_topic(topic)
        if schema is not None:
            serdes.register(f"avro-{topic}", AvroSerde(schema))
            return f"avro-{topic}"
        return "json"

    # -- observability -----------------------------------------------------------------------

    def latest_snapshots(self, job: str | None = None,
                         force: bool = False) -> list[dict]:
        """The most recent snapshot batch per (job, container) from the
        ``__metrics`` stream, optionally filtered to one job.

        ``force=True`` asks every live container reporter to publish an
        out-of-cycle snapshot first, so the result reflects *now* rather
        than the last interval boundary.
        """
        if force:
            for master in self._masters:
                coordinator = master.parallel_coordinator
                if coordinator is not None:
                    # Reporters live in the worker processes; ask them for
                    # an out-of-cycle snapshot, mirrored back before the
                    # barrier returns.
                    if not master.finished:
                        coordinator.force_metrics()
                    continue
                for container in master.samza_containers.values():
                    reporter = getattr(container, "metrics_reporter", None)
                    if reporter is not None:
                        reporter.report()
        if not self.cluster.has_topic(METRICS_STREAM):
            return []
        serde = AvroSerde(METRICS_SNAPSHOT_SCHEMA)
        records = []
        for tp in self.cluster.partitions_for(METRICS_STREAM):
            for message in self.cluster.fetch(tp, self.cluster.earliest_offset(tp)):
                if message.value is not None:
                    records.append(serde.from_bytes(message.value))
        return latest_by_container(records, job=job)

    # -- maintenance -----------------------------------------------------------------------

    def explain(self, sql: str) -> str:
        """Logical plan text for a query (EXPLAIN flavour)."""
        return self.planner.explain(sql)
