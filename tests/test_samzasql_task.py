"""Direct tests of SamzaSqlTask: the task-side half of two-phase planning."""

import pytest

from repro.common import Config, ZkError
from repro.samza.storage import InMemoryKeyValueStore, SerializedKeyValueStore
from repro.samza.system import (
    IncomingMessageEnvelope,
    SystemStreamPartition,
)
from repro.samza.task import ListCollector, TaskContext
from repro.samzasql.plan_builder import PhysicalPlanBuilder
from repro.samzasql.task import SamzaSqlTask
from repro.serde import ObjectSerde
from repro.sql import QueryPlanner
from repro.zk import ZkClient, ZkServer

from tests.sql_fixtures import paper_catalog


class _Coordinator:
    def commit(self):
        pass

    def shutdown(self):
        pass


def make_task(sql, stores=()):
    """Plan a query, push the plan through ZooKeeper, init a task from it."""
    catalog = paper_catalog()
    logical = QueryPlanner(catalog).plan_query(sql)
    builder = PhysicalPlanBuilder(catalog)
    plan = builder.build(logical, "Out")

    zk = ZkServer()
    shell_client = ZkClient(zk)
    shell_client.write_json("/samza-sql/queries/q1/plan", plan.to_dict())

    task = SamzaSqlTask(ZkClient(zk), "/samza-sql/queries/q1/plan")
    store_map = {
        name: SerializedKeyValueStore(InMemoryKeyValueStore(),
                                      ObjectSerde(), ObjectSerde())
        for name in plan.store_names
    }
    context = TaskContext("Partition 0", 0, store_map)
    task.init(Config({}), context)
    return task, plan


def envelope(stream, message, ts=0):
    return IncomingMessageEnvelope(
        system_stream_partition=SystemStreamPartition("kafka", stream, 0),
        offset=0, key=None, message=message, timestamp_ms=ts)


class TestTaskInit:
    def test_plan_loaded_from_zookeeper(self):
        task, plan = make_task("SELECT STREAM * FROM Orders WHERE units > 50")
        assert task.router is not None
        kinds = [operator.METRIC_KIND for operator in task.router.operators]
        assert kinds == ["scan", "filter", "insert"]

    def test_missing_plan_raises(self):
        zk = ZkServer()
        task = SamzaSqlTask(ZkClient(zk), "/missing")
        with pytest.raises(ZkError):
            task.init(Config({}), TaskContext("Partition 0", 0, {}))

    def test_process_routes_and_collects(self):
        task, _ = make_task("SELECT STREAM * FROM Orders WHERE units > 50")
        collector = ListCollector()
        task.process(envelope("Orders", {"rowtime": 1, "productId": 1,
                                         "orderId": 1, "units": 60}),
                     collector, _Coordinator())
        task.process(envelope("Orders", {"rowtime": 2, "productId": 1,
                                         "orderId": 2, "units": 10}),
                     collector, _Coordinator())
        assert len(collector.envelopes) == 1
        assert collector.envelopes[0].message["units"] == 60
        assert collector.envelopes[0].system_stream.stream == "Out"

    def test_stateful_task_uses_context_stores(self):
        task, plan = make_task(
            "SELECT STREAM rowtime, SUM(units) OVER (PARTITION BY productId "
            "ORDER BY rowtime RANGE INTERVAL '1' HOUR PRECEDING) s FROM Orders")
        assert set(plan.store_names) == {"sql-window-messages", "sql-window-state"}
        collector = ListCollector()
        for i, units in enumerate([5, 7]):
            task.process(envelope("Orders", {"rowtime": 1000 + i, "productId": 1,
                                             "orderId": i, "units": units}),
                         collector, _Coordinator())
        assert collector.envelopes[-1].message["s"] == 12

    def test_window_callback_noop_without_early_emit(self):
        task, _ = make_task("SELECT STREAM * FROM Orders")
        collector = ListCollector()
        task.window(collector, _Coordinator())  # must not raise or emit
        assert collector.envelopes == []
