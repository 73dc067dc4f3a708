"""Tests for the four paper future-work items implemented as extensions.

1. stream repartitioning (repro.samza.repartition)
2. planner warnings when a projection drops the rowtime field
3. relation-stream outputs (compacted keyed output topics)
4. user-defined scalar functions and aggregates
"""

import pytest

from repro.common import PlannerError, SqlValidationError
from repro.samza.repartition import repartition_stream
from repro.serde import AvroSerde
from repro.sql.types import SqlType
from repro.sql.udf import UDF_REGISTRY, Udaf, register_scalar_udf, register_udaf

from tests.samzasql_fixtures import ORDERS_SCHEMA, Deployment, sql_tasks


@pytest.fixture(autouse=True)
def clean_udf_registry():
    UDF_REGISTRY.clear()
    yield
    UDF_REGISTRY.clear()


class TestRepartitioning:
    def test_repartition_by_new_key(self):
        """Orders keyed by productId get re-keyed by orderId-mod bucket."""
        deployment = Deployment(partitions=4).with_orders(100)
        report = repartition_stream(
            deployment.cluster, deployment.runner,
            source_topic="Orders", target_topic="OrdersByOrder",
            key_field="orderId", serde=AvroSerde(ORDERS_SCHEMA))
        assert report.records == 100
        assert report.partitions == 4
        # every record made it over, re-keyed
        serde = AvroSerde(ORDERS_SCHEMA)
        seen = set()
        for tp in deployment.cluster.partitions_for("OrdersByOrder"):
            for msg in deployment.cluster.fetch(tp, 0):
                record = serde.from_bytes(msg.value)
                assert msg.key == str(record["orderId"]).encode()
                seen.add(record["orderId"])
        assert seen == set(range(100))

    def test_same_new_key_colocates(self):
        deployment = Deployment(partitions=4).with_orders(60)
        repartition_stream(
            deployment.cluster, deployment.runner,
            "Orders", "OrdersByUnits", "units", AvroSerde(ORDERS_SCHEMA))
        serde = AvroSerde(ORDERS_SCHEMA)
        partition_of: dict[int, set[int]] = {}
        for tp in deployment.cluster.partitions_for("OrdersByUnits"):
            for msg in deployment.cluster.fetch(tp, 0):
                units = serde.from_bytes(msg.value)["units"]
                partition_of.setdefault(units, set()).add(tp.partition)
        assert all(len(parts) == 1 for parts in partition_of.values())

    def test_reordering_detected(self):
        """Merging partitions can break rowtime order — the report says so."""
        deployment = Deployment(partitions=4)
        deployment.with_orders(0)
        # interleave timestamps across source partitions such that re-keying
        # to a single bucket mixes them
        from repro.serde import AvroSerde as _A
        serde = _A(ORDERS_SCHEMA)
        for i, ts in enumerate([100, 50, 200, 10]):
            record = {"rowtime": ts, "productId": i, "orderId": i, "units": 1}
            deployment.producer.send("Orders", serde.to_bytes(record),
                                     partition=i % 4, timestamp_ms=ts)
        report = repartition_stream(
            deployment.cluster, deployment.runner,
            "Orders", "OrdersByUnits2", "units", serde, partitions=1)
        assert not report.preserved_time_order
        assert report.reordered_partitions == [0]


class TestPlannerWarnings:
    def test_warning_when_rowtime_dropped(self):
        deployment = Deployment().with_orders(5)
        handle = deployment.run("SELECT STREAM orderId, units FROM Orders")
        assert handle.warnings
        assert "rowtime" in handle.warnings[0]

    def test_no_warning_when_rowtime_kept(self):
        deployment = Deployment().with_orders(5)
        handle = deployment.run("SELECT STREAM rowtime, units FROM Orders")
        assert handle.warnings == []

    def test_no_warning_for_batch(self):
        deployment = Deployment().with_orders(5)
        planned = deployment.shell.planner.plan_statement(
            "SELECT orderId FROM Orders")
        assert planned.warnings == []


class TestRelationStreamOutput:
    QUERY = ("SELECT STREAM START(rowtime) AS ws, productId, COUNT(*) AS c "
             "FROM Orders GROUP BY TUMBLE(rowtime, INTERVAL '1' HOUR), productId")

    def _deploy(self):
        deployment = Deployment(partitions=2)
        deployment.with_orders(0)
        serde = AvroSerde(ORDERS_SCHEMA)
        hour = 3_600_000
        times = [hour + 1, hour + 2, 2 * hour + 1, 3 * hour + 1]
        for i, ts in enumerate(times):
            deployment.producer.send(
                "Orders", serde.to_bytes(
                    {"rowtime": ts, "productId": 0, "orderId": i, "units": 1}),
                key=b"0", timestamp_ms=ts)
        return deployment

    def test_output_topic_compacted_and_keyed(self):
        deployment = self._deploy()
        handle = deployment.run(self.QUERY, relation_key=["ws", "productId"])
        topic = deployment.cluster.topic(handle.output_stream)
        assert topic.config.cleanup_policy == "compact"
        for tp in deployment.cluster.partitions_for(handle.output_stream):
            for msg in deployment.cluster.fetch(tp, 0):
                assert msg.key is not None

    def test_relation_view_latest_wins(self):
        deployment = self._deploy()
        handle = deployment.run(self.QUERY, relation_key=["ws", "productId"],
                                window_ms=0,
                                config_overrides={
                                    "samzasql.window.early.emit": "true"})
        relation = handle.relation()
        hour = 3_600_000
        counts = {record["ws"] // hour: record["c"]
                  for record in relation.values()}
        # hour 1 saw two orders; early emits were superseded by the final value
        assert counts[1] == 2

    def test_replay_upserts_not_duplicates(self):
        """After compaction, each (window, key) appears once — the relation
        changelog property the paper's future-work item 3 asks for."""
        deployment = self._deploy()
        handle = deployment.run(self.QUERY, relation_key=["ws", "productId"])
        deployment.cluster.run_retention()  # compaction pass
        keys = []
        for tp in deployment.cluster.partitions_for(handle.output_stream):
            for msg in deployment.cluster.fetch(tp, 0):
                keys.append(msg.key)
        assert len(keys) == len(set(keys))

    def test_bad_relation_key_rejected(self):
        deployment = self._deploy()
        with pytest.raises(PlannerError, match="relation key"):
            deployment.shell.execute(self.QUERY, relation_key=["nope"])


class TestScalarUdf:
    def test_udf_in_projection(self):
        register_scalar_udf("DOUBLE_IT", lambda x: x * 2,
                            result_type=SqlType.INTEGER)
        deployment = Deployment().with_orders(10)
        handle = deployment.run(
            "SELECT STREAM orderId, DOUBLE_IT(units) AS d FROM Orders")
        for record in handle.results():
            assert record["d"] == ((record["orderId"] * 7) % 100) * 2

    def test_udf_in_where(self):
        register_scalar_udf("IS_EVEN", lambda x: x % 2 == 0,
                            result_type=SqlType.BOOLEAN)
        deployment = Deployment().with_orders(10)
        handle = deployment.run(
            "SELECT STREAM orderId FROM Orders WHERE IS_EVEN(orderId)")
        assert sorted(r["orderId"] for r in handle.results()) == [0, 2, 4, 6, 8]

    def test_udf_arity_checked(self):
        register_scalar_udf("ONE_ARG", lambda x: x, min_args=1, max_args=1)
        deployment = Deployment().with_orders(1)
        with pytest.raises(SqlValidationError, match="argument"):
            deployment.shell.execute(
                "SELECT STREAM ONE_ARG(units, orderId) FROM Orders")

    def test_udf_not_constant_folded(self):
        calls = []
        register_scalar_udf("TICK", lambda x: calls.append(x) or x,
                            result_type=SqlType.INTEGER)
        deployment = Deployment().with_orders(3)
        deployment.run("SELECT STREAM orderId FROM Orders WHERE TICK(1) = 1")
        assert len(calls) == 3  # once per row, not once at plan time

    def test_udf_in_group_key_runs_once_per_row(self):
        calls = []
        register_scalar_udf("TICK", lambda x: calls.append(x) or x,
                            result_type=SqlType.INTEGER)
        deployment = Deployment(partitions=1).with_orders(20)
        deployment.run(
            "SELECT STREAM START(rowtime) AS ws, TICK(productId) AS p, "
            "COUNT(*) AS c FROM Orders GROUP BY "
            "TUMBLE(rowtime, INTERVAL '1' MINUTE), TICK(productId)")
        assert len(calls) == 20

    def test_duplicate_registration_rejected(self):
        register_scalar_udf("F", lambda x: x)
        with pytest.raises(SqlValidationError, match="already registered"):
            register_scalar_udf("f", lambda x: x)

    def test_unknown_function_error_mentions_udfs(self):
        deployment = Deployment().with_orders(1)
        with pytest.raises(SqlValidationError, match="UDF"):
            deployment.shell.execute("SELECT STREAM NOPE(units) FROM Orders")


class GeometricMean(Udaf):
    name = "GEOMEAN"
    result_type = SqlType.DOUBLE

    def create(self):
        return [0.0, 0]  # [sum of logs, count]

    def add(self, state, value):
        import math

        if value is not None and value > 0:
            state[0] += math.log(value)
            state[1] += 1
        return state

    def result(self, state):
        import math

        return math.exp(state[0] / state[1]) if state[1] else None


class TestUdaf:
    def test_udaf_in_tumbling_window(self):
        register_udaf(GeometricMean())
        deployment = Deployment(partitions=1)
        deployment.with_orders(0)
        serde = AvroSerde(ORDERS_SCHEMA)
        hour = 3_600_000
        for i, units in enumerate([2, 8]):  # geomean = 4
            deployment.producer.send(
                "Orders", serde.to_bytes(
                    {"rowtime": hour + i, "productId": 0, "orderId": i,
                     "units": units}), key=b"0", timestamp_ms=hour + i)
        # sentinel closes the window
        deployment.producer.send(
            "Orders", serde.to_bytes(
                {"rowtime": 3 * hour, "productId": 0, "orderId": 9, "units": 1}),
            key=b"0", timestamp_ms=3 * hour)
        handle = deployment.run(
            "SELECT STREAM START(rowtime) AS ws, GEOMEAN(units) AS g "
            "FROM Orders GROUP BY TUMBLE(rowtime, INTERVAL '1' HOUR)")
        [row] = [r for r in handle.results() if r["ws"] == hour]
        assert row["g"] == pytest.approx(4.0)

    def test_udaf_in_sliding_window(self):
        register_udaf(GeometricMean())
        deployment = Deployment(partitions=1).with_orders(0)
        serde = AvroSerde(ORDERS_SCHEMA)
        for i, units in enumerate([2, 8, 4]):
            deployment.producer.send(
                "Orders", serde.to_bytes(
                    {"rowtime": 1000 + i, "productId": 0, "orderId": i,
                     "units": units}), key=b"0", timestamp_ms=1000 + i)
        handle = deployment.run(
            "SELECT STREAM orderId, GEOMEAN(units) OVER (PARTITION BY productId "
            "ORDER BY rowtime RANGE INTERVAL '1' MINUTE PRECEDING) g FROM Orders")
        by_id = {r["orderId"]: r["g"] for r in handle.results()}
        assert by_id[1] == pytest.approx(4.0)       # geomean(2, 8)
        assert by_id[2] == pytest.approx(4.0)       # geomean(2, 8, 4)
        # a UDAF re-folds the retained rows at emit: no fused stage
        assert all(task.decision.fallback
                   == "window aggregate is a UDAF: GEOMEAN"
                   for task in sql_tasks(handle))

    def test_udaf_in_batch(self):
        register_udaf(GeometricMean())
        deployment = Deployment().with_orders(0)
        serde = AvroSerde(ORDERS_SCHEMA)
        for i, units in enumerate([3, 9]):
            deployment.producer.send(
                "Orders", serde.to_bytes(
                    {"rowtime": 1000 + i, "productId": 0, "orderId": i,
                     "units": units}), key=b"0", timestamp_ms=1000 + i)
        rows = deployment.shell.execute(
            "SELECT productId, GEOMEAN(units) AS g FROM Orders GROUP BY productId")
        assert rows[0]["g"] == pytest.approx((3 * 9) ** 0.5)

    def test_udaf_requires_name(self):
        class Anonymous(Udaf):
            pass

        with pytest.raises(SqlValidationError, match="name"):
            register_udaf(Anonymous())
