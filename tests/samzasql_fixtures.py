"""Shared end-to-end fixture: a full SamzaSQL deployment in-process."""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from repro.common import SystemClock, VirtualClock
from repro.kafka import KafkaCluster, Producer
from repro.samza import JobRunner
from repro.samzasql import SamzaSQLShell
from repro.samzasql.decision import (
    FUSED,
    INTERPRETED,
    ExecutionDecision,
    decide_execution,
)
from repro.serde import AvroSchema, AvroSerde
from repro.sql.planner import QueryPlanner
from repro.sql.rel.optimizer import Optimizer
from repro.sql.rel.rules import DEFAULT_RULES, MultiJoinCollapseRule
from repro.yarn import NodeManager, Resource, ResourceManager

ORDERS_SCHEMA = AvroSchema.record(
    "Orders",
    [("rowtime", "long"), ("productId", "int"), ("orderId", "long"), ("units", "int")],
)
PRODUCTS_SCHEMA = AvroSchema.record(
    "Products",
    [("productId", "int"), ("name", "string"), ("supplierId", "int")],
)
PACKETS_SCHEMA = AvroSchema.record(
    "Packets",
    [("rowtime", "long"), ("sourcetime", "long"), ("packetId", "long")],
)


def sql_tasks(handle):
    """Every SamzaSqlTask behind a handle (one per input partition)."""
    return [instance.task
            for container in handle.master.samza_containers.values()
            for instance in container.tasks.values()]


@contextmanager
def reference_arm(path: str):
    """Run the enclosed jobs on ``path``: ``"fused"`` (a no-op) or
    ``"interpreted"``.

    The runtime has no switch for this: which path a task runs comes from
    its plan alone.  The equivalence suites still need the reference
    router for queries that would fuse, so this substitutes the decision
    where the task and ``EXPLAIN`` read it.  Tasks decide at init, so keep
    the context open across every (re)launch of the job; forked workers
    inherit the patch.
    """
    assert path in (FUSED, INTERPRETED), path

    def decide(plan, config, serdes):
        decision = decide_execution(plan, config, serdes)
        if path != INTERPRETED or decision.path == INTERPRETED:
            return decision
        return ExecutionDecision(
            INTERPRETED, decision.sampled,
            fallback="reference arm: held at interpreted by the test fixture")

    with mock.patch("repro.samzasql.task.decide_execution", decide), \
            mock.patch("repro.samzasql.shell.decide_execution", decide):
        yield


def cascade_planner(catalog) -> QueryPlanner:
    """A planner that never collapses join chains: the default rule list
    minus ``MultiJoinCollapseRule`` — the pairwise-cascade arm (a chain of
    K = 2 instances of the one join operator; the table query is the
    independent reference).
    Install with ``shell.planner = cascade_planner(shell.catalog)``."""
    return QueryPlanner(catalog, Optimizer(rules=[
        rule for rule in DEFAULT_RULES
        if not isinstance(rule, MultiJoinCollapseRule)]))


class Deployment:
    """Cluster + YARN + shell, with helpers to feed the paper's workloads."""

    #: Merged under every ``run``'s ``config_overrides``.  Test modules
    #: parametrize this (e.g. over ``task.poll.batch.size``) to drive the
    #: same end-to-end scenarios at every poll size / deployment setting.
    default_overrides: dict[str, str] = {}

    def __init__(self, partitions: int = 4, nodes: int = 2):
        if self.default_overrides.get("cluster.parallel.execution") == "true":
            # Virtual time cannot advance across forked worker processes.
            self.clock = SystemClock()
        else:
            self.clock = VirtualClock(0)
        self.cluster = KafkaCluster(broker_count=3, clock=self.clock)
        self.rm = ResourceManager()
        for i in range(nodes):
            self.rm.add_node(NodeManager(f"node-{i}", Resource(61_000, 8)))
        self.runner = JobRunner(self.cluster, self.rm, self.clock)
        self.shell = SamzaSQLShell(self.cluster, self.runner)
        self.partitions = partitions
        self.producer = Producer(self.cluster)

    # -- catalog + data helpers --------------------------------------------------

    def with_orders(self, count: int = 0, start_ts: int = 1_000_000,
                    step_ms: int = 1000):
        self.shell.register_stream("Orders", ORDERS_SCHEMA, partitions=self.partitions)
        if count:
            self.feed_orders(count, start_ts, step_ms)
        return self

    def feed_orders(self, count: int, start_ts: int = 1_000_000,
                    step_ms: int = 1000, start_id: int = 0) -> list[dict]:
        serde = AvroSerde(ORDERS_SCHEMA)
        written = []
        for i in range(start_id, start_id + count):
            record = {"rowtime": start_ts + (i - start_id) * step_ms,
                      "productId": i % 10, "orderId": i, "units": (i * 7) % 100}
            self.producer.send("Orders", serde.to_bytes(record),
                               key=str(record["productId"]).encode(),
                               timestamp_ms=record["rowtime"])
            written.append(record)
        return written

    def with_products(self, count: int = 10):
        self.shell.register_table("Products", PRODUCTS_SCHEMA,
                                  key_field="productId", partitions=self.partitions)
        serde = AvroSerde(PRODUCTS_SCHEMA)
        for pid in range(count):
            record = {"productId": pid, "name": f"product-{pid}",
                      "supplierId": pid % 3}
            self.producer.send("Products-changelog", serde.to_bytes(record),
                               key=str(pid).encode())
        return self

    def with_packets(self, routers: int = 2,
                     rates: dict[str, float] | None = None):
        for i in range(1, routers + 1):
            name = f"PacketsR{i}"
            self.shell.register_stream(
                name, PACKETS_SCHEMA, partitions=self.partitions,
                rate_per_sec=(rates or {}).get(name))
        return self

    def feed_packet(self, stream: str, packet_id: int, rowtime: int,
                    sourcetime: int | None = None) -> None:
        serde = AvroSerde(PACKETS_SCHEMA)
        record = {"rowtime": rowtime,
                  "sourcetime": sourcetime if sourcetime is not None else rowtime,
                  "packetId": packet_id}
        self.producer.send(stream, serde.to_bytes(record),
                           key=str(packet_id).encode(), timestamp_ms=rowtime)

    def run(self, sql: str, containers: int = 1, **kwargs):
        if self.default_overrides:
            overrides = dict(self.default_overrides)
            overrides.update(kwargs.pop("config_overrides", None) or {})
            kwargs["config_overrides"] = overrides
        handle = self.shell.execute(sql, containers=containers, **kwargs)
        self.runner.run_until_quiescent()
        return handle
