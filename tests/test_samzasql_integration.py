"""End-to-end tests: streaming SQL text in, output stream records out.

These exercise the full stack: shell planning, ZooKeeper plan sharing,
YARN submission, Samza containers, and the operator layer.
"""

import pytest

from repro.chaos.validate import restored_entries
from repro.common import PlannerError
from repro.samzasql.operators.multi_way_join import INDEX_SEQ

from tests.samzasql_fixtures import Deployment, cascade_planner, reference_arm


@pytest.fixture(autouse=True,
                params=[("200", "fused"), ("200", "interpreted"),
                        ("1", "fused"), ("1", "interpreted")],
                ids=["batched-compiled", "batched-interpreted",
                     "single-message-compiled", "single-message-interpreted"])
def execution_mode(request, monkeypatch):
    """Run every end-to-end scenario at two poll sizes, compiled and not.

    A single message is a batch of one: the ``single-message`` arm polls
    one record at a time through the same code 200-record polls take.
    The ``compiled`` arm is the path the plan gets by default (the fused
    function wherever one exists); the ``interpreted`` arm
    holds every task on the operator DAG, and the two must be
    byte-identical.
    """
    poll_size, path = request.param
    monkeypatch.setattr(Deployment, "default_overrides",
                        {"task.poll.batch.size": poll_size})
    with reference_arm(path):
        yield request.param


class TestFilterQuery:
    """The paper's Filter benchmark query."""

    SQL = "SELECT STREAM * FROM Orders WHERE units > 50"

    def test_only_matching_rows(self):
        deployment = Deployment().with_orders(100)
        handle = deployment.run(self.SQL)
        results = handle.results()
        expected = [i for i in range(100) if (i * 7) % 100 > 50]
        assert sorted(r["orderId"] for r in results) == expected
        assert all(r["units"] > 50 for r in results)

    def test_all_columns_preserved(self):
        deployment = Deployment().with_orders(20)
        handle = deployment.run(self.SQL)
        for record in handle.results():
            assert set(record) == {"rowtime", "productId", "orderId", "units"}

    def test_multi_container_same_output(self):
        single = Deployment().with_orders(100)
        multi = Deployment().with_orders(100)
        one = single.run(self.SQL, containers=1).results()
        four = multi.run(self.SQL, containers=4).results()
        key = lambda r: r["orderId"]
        assert sorted(one, key=key) == sorted(four, key=key)

    def test_continuous_processing(self):
        """A streaming query keeps consuming new input (§3.3: 'this query
        will continue to run')."""
        deployment = Deployment().with_orders(10)
        handle = deployment.run(self.SQL)
        first = len(handle.results())
        deployment.feed_orders(10, start_ts=2_000_000, start_id=100)
        deployment.runner.run_until_quiescent()
        assert len(handle.results()) > first


class TestProjectQuery:
    SQL = "SELECT STREAM rowtime, productId, units FROM Orders"

    def test_projected_columns(self):
        deployment = Deployment().with_orders(30)
        handle = deployment.run(self.SQL)
        results = handle.results()
        assert len(results) == 30
        assert all(set(r) == {"rowtime", "productId", "units"} for r in results)

    def test_computed_projection(self):
        deployment = Deployment().with_orders(10)
        handle = deployment.run(
            "SELECT STREAM orderId, units * 2 AS doubled FROM Orders")
        assert all(r["doubled"] == (r["orderId"] * 7) % 100 * 2
                   for r in handle.results())


class TestStreamRelationJoin:
    """Listing 8 — the paper's join benchmark query."""

    SQL = ("SELECT STREAM Orders.rowtime, Orders.orderId, Orders.productId, "
           "Orders.units, Products.supplierId FROM Orders JOIN Products "
           "ON Orders.productId = Products.productId")

    def test_join_enriches_every_order(self):
        deployment = Deployment().with_orders(50).with_products(10)
        handle = deployment.run(self.SQL)
        results = handle.results()
        assert len(results) == 50
        for record in results:
            assert record["supplierId"] == record["productId"] % 3

    def test_missing_relation_rows_drop_orders(self):
        deployment = Deployment().with_orders(50).with_products(5)  # products 0-4
        handle = deployment.run(self.SQL)
        results = handle.results()
        assert len(results) == 25
        assert all(r["productId"] < 5 for r in results)

    def test_relation_updates_seen_by_later_orders(self):
        """Changelog updates arriving after bootstrap keep the cache current."""
        from repro.serde import AvroSerde
        from tests.samzasql_fixtures import PRODUCTS_SCHEMA

        deployment = Deployment().with_orders(10).with_products(10)
        handle = deployment.run(self.SQL)
        before = {r["orderId"]: r["supplierId"] for r in handle.results()}
        # update product 3's supplier, then send more orders for product 3
        serde = AvroSerde(PRODUCTS_SCHEMA)
        deployment.producer.send(
            "Products-changelog",
            serde.to_bytes({"productId": 3, "name": "product-3", "supplierId": 99}),
            key=b"3")
        deployment.feed_orders(10, start_ts=5_000_000, start_id=200)
        deployment.runner.run_until_quiescent()
        after = {r["orderId"]: r["supplierId"] for r in handle.results()}
        assert after[203] == 99          # new order sees the update
        assert after[3] == before[3] == 0  # old output unchanged

    def test_relation_tombstone_deletes_the_row(self):
        """A changelog tombstone removes the product from the cache (it
        used to crash the container, and every relaunch replayed it):
        orders fed after it join exactly as the same SQL without STREAM
        joins them against the table's latest state."""
        deployment = Deployment().with_orders(10).with_products(10)
        handle = deployment.run(self.SQL)
        deployment.producer.send("Products-changelog", None, key=b"1")
        deployment.runner.run_until_quiescent()
        deployment.feed_orders(20, start_ts=5_000_000, start_id=200)
        deployment.runner.run_until_quiescent()

        def later(rows):
            return sorted((row for row in rows if row["orderId"] >= 200),
                          key=lambda row: row["orderId"])

        streamed = later(handle.results())
        assert streamed == later(deployment.shell.execute(
            self.SQL.replace("SELECT STREAM", "SELECT")))
        assert len(streamed) == 18              # product 1's two orders gone

    def test_bootstrap_happens_before_stream(self):
        """Orders produced before the job starts must still all join — the
        relation is fully bootstrapped before stream processing."""
        deployment = Deployment().with_orders(40).with_products(10)
        handle = deployment.run(self.SQL, containers=2)
        assert len(handle.results()) == 40


class TestSlidingWindowQuery:
    """The paper's sliding-window benchmark query (Listing 6 shape)."""

    SQL = ("SELECT STREAM rowtime, productId, units, SUM(units) OVER "
           "(PARTITION BY productId ORDER BY rowtime RANGE INTERVAL '5' MINUTE "
           "PRECEDING) unitsLastFiveMinutes FROM Orders")

    def test_one_output_per_input(self):
        deployment = Deployment().with_orders(50)
        handle = deployment.run(self.SQL)
        assert len(handle.results()) == 50

    def test_window_sums_match_reference(self):
        deployment = Deployment(partitions=1).with_orders(60, step_ms=30_000)
        handle = deployment.run(self.SQL)
        results = sorted(handle.results(), key=lambda r: r["rowtime"])
        window_ms = 5 * 60 * 1000
        rows = [(r["rowtime"], r["productId"], r["units"]) for r in results]
        for record in results:
            expected = sum(
                units for ts, pid, units in rows
                if pid == record["productId"]
                and record["rowtime"] - window_ms <= ts <= record["rowtime"])
            assert record["unitsLastFiveMinutes"] == expected

    def test_partition_by_a_boolean_matches_the_table_query(self):
        """A BOOLEAN has no ordered-key kind, so this window's partition
        key is stored as one repr string; what it computes must not
        change, and a replacement container must rebuild from it."""
        sql = ("SELECT STREAM rowtime, orderId, COUNT(*) OVER (PARTITION BY "
               "productId, units > 50 ORDER BY rowtime RANGE INTERVAL "
               "'5' MINUTE PRECEDING) c FROM Orders")
        deployment = Deployment(partitions=2).with_orders(40, step_ms=20_000)
        handle = deployment.run(sql, containers=2, config_overrides={
            "task.checkpoint.interval.messages": "7"})
        deployment.runner.kill_container(handle.master, index=0)
        deployment.feed_orders(40, start_ts=1_800_000, step_ms=20_000,
                               start_id=100)
        deployment.runner.run_until_quiescent()
        assert restored_entries(handle.master) > 0
        streamed = {r["orderId"]: r for r in handle.results()}  # dedup replays
        table = deployment.shell.execute(sql.replace("SELECT STREAM", "SELECT"))
        assert streamed == {r["orderId"]: r for r in table}

    def test_old_rows_leave_the_window(self):
        deployment = Deployment(partitions=1)
        deployment.with_orders(0)
        # two bursts 10 minutes apart: second burst must not include first
        deployment.feed_orders(5, start_ts=1_000_000, step_ms=1)
        deployment.feed_orders(5, start_ts=1_000_000 + 10 * 60 * 1000,
                               step_ms=1, start_id=100)
        handle = deployment.run(self.SQL)
        results = sorted(handle.results(), key=lambda r: r["rowtime"])
        by_order = {r["rowtime"]: r for r in results}
        late = [r for r in results if r["rowtime"] >= 1_000_000 + 10 * 60 * 1000]
        for record in late:
            assert record["unitsLastFiveMinutes"] <= sum(
                x["units"] for x in late)


class TestStreamStreamJoin:
    """Listing 7 — packet latency between two routers."""

    SQL = ("SELECT STREAM GREATEST(PacketsR1.rowtime, PacketsR2.rowtime) AS rowtime, "
           "PacketsR1.sourcetime, PacketsR1.packetId, "
           "PacketsR2.rowtime - PacketsR1.rowtime AS timeToTravel "
           "FROM PacketsR1 JOIN PacketsR2 ON "
           "PacketsR1.rowtime BETWEEN PacketsR2.rowtime - INTERVAL '2' SECOND "
           "AND PacketsR2.rowtime + INTERVAL '2' SECOND "
           "AND PacketsR1.packetId = PacketsR2.packetId")

    def test_packets_within_window_join(self):
        deployment = Deployment(partitions=2).with_packets()
        for pid in range(10):
            t0 = 1_000_000 + pid * 10_000
            deployment.feed_packet("PacketsR1", pid, t0)
            deployment.feed_packet("PacketsR2", pid, t0 + 500)  # 0.5s later
        handle = deployment.run(self.SQL)
        results = handle.results()
        assert len(results) == 10
        assert all(r["timeToTravel"] == 500 for r in results)

    def test_packets_outside_window_do_not_join(self):
        deployment = Deployment(partitions=2).with_packets()
        deployment.feed_packet("PacketsR1", 1, 1_000_000)
        deployment.feed_packet("PacketsR2", 1, 1_000_000 + 5000)  # 5s > 2s window
        handle = deployment.run(self.SQL)
        assert handle.results() == []

    def test_key_mismatch_does_not_join(self):
        deployment = Deployment(partitions=2).with_packets()
        deployment.feed_packet("PacketsR1", 1, 1_000_000)
        deployment.feed_packet("PacketsR2", 2, 1_000_500)
        handle = deployment.run(self.SQL)
        assert handle.results() == []

    def test_join_works_regardless_of_arrival_order(self):
        deployment = Deployment(partitions=1).with_packets()
        deployment.feed_packet("PacketsR2", 7, 1_000_500)  # R2 first
        deployment.feed_packet("PacketsR1", 7, 1_000_000)
        handle = deployment.run(self.SQL)
        results = handle.results()
        assert len(results) == 1
        assert results[0]["timeToTravel"] == 500


def _row_multiset(rows):
    return sorted(tuple(sorted(r.items())) for r in rows)


def _join_operators(handle):
    return [operator
            for container in handle.master.samza_containers.values()
            for instance in container.tasks.values()
            for operator in instance.task.router.operators
            if operator.METRIC_KIND == "multi-join"]


class TestStreamJoinPurge:
    """A join side is purged against the *other* side's watermark.  The
    pairwise operator this suite used to run purged a side by its own
    clock, and only when the same key recurred: it lost matches on
    in-order feeds and never released a unique key."""

    def test_in_order_join_equals_table_query(self):
        """§3.3: the streaming join over a finite feed returns what the
        same SQL without STREAM returns over the feed's history."""
        from repro.workloads.market import (
            ASKS_SCHEMA, BIDS_SCHEMA, MarketGenerator, ticker_universe)

        deployment = Deployment(partitions=4)
        MarketGenerator(interarrival_ms=5, tickers=ticker_universe(64)).produce(
            deployment.cluster, "Bids", "Asks", 4000, partitions=4)
        deployment.shell.register_stream("Bids", BIDS_SCHEMA, partitions=4)
        deployment.shell.register_stream("Asks", ASKS_SCHEMA, partitions=4)
        core = ("Bids.bidId AS bidId, Asks.askId AS askId, "
                "Asks.rowtime - Bids.rowtime AS lag FROM Bids JOIN Asks ON "
                "Bids.rowtime BETWEEN Asks.rowtime - INTERVAL '10' SECOND "
                "AND Asks.rowtime + INTERVAL '10' SECOND "
                "AND Bids.ticker = Asks.ticker")
        streaming = deployment.run(f"SELECT STREAM {core}", containers=1)
        table = deployment.shell.execute(f"SELECT {core}")
        assert len(table) == 46_881
        assert _row_multiset(streaming.results()) == _row_multiset(table)

    def test_unique_keys_do_not_pin_state(self):
        """Listing 7 in rowtime order on both topics: every packetId occurs
        once per side, and what is retained at quiescence is the tail of
        the feed — window + one bucket + the longest transit per side —
        not all 2N rows."""
        from repro.workloads import PacketsGenerator

        deployment = Deployment(partitions=2).with_packets()
        PacketsGenerator(interarrival_ms=10, max_transit_ms=1500).produce(
            deployment.cluster, "PacketsR1", "PacketsR2", 3000, partitions=2)
        handle = deployment.run(TestStreamStreamJoin.SQL)
        assert len(handle.results()) == 3000
        retained = sum(op.state_size() for op in _join_operators(handle))
        assert 0 < retained <= 2 * (2000 + 250 + 1500) // 10


class TestMultiWayStreamJoin:
    """K-way windowed stream joins: the collapsed shared-state operator,
    the cascade of K = 2 instances of it and the table query (nested
    loops in the batch executor, sharing no code with either) must
    produce exactly the same output multiset."""

    @staticmethod
    def _sql(k):
        parts = ["SELECT STREAM PacketsR1.rowtime AS rowtime, "
                 "PacketsR1.packetId, "
                 f"PacketsR{k}.rowtime - PacketsR1.rowtime AS lag "
                 "FROM PacketsR1"]
        for i in range(2, k + 1):
            parts.append(
                f"JOIN PacketsR{i} ON PacketsR1.rowtime BETWEEN "
                f"PacketsR{i}.rowtime - INTERVAL '2' SECOND AND "
                f"PacketsR{i}.rowtime + INTERVAL '2' SECOND AND "
                f"PacketsR{i - 1}.packetId = PacketsR{i}.packetId")
        return " ".join(parts)

    @staticmethod
    def _feed(deployment, k):
        for pid in range(8):
            t0 = 1_000_000 + pid * 5_000
            deployment.feed_packet("PacketsR1", pid, t0)
            deployment.feed_packet("PacketsR2", pid, t0 + 400)
            deployment.feed_packet("PacketsR2", pid, t0 + 700)  # fan-out
            for i in range(3, k + 1):
                deployment.feed_packet(f"PacketsR{i}", pid, t0 + 200 * i)
        # never join: unmatched key, and an R1 row inside no window
        deployment.feed_packet("PacketsR2", 999, 1_000_000)
        deployment.feed_packet("PacketsR1", 500, 2_000_000)

    def _run(self, k, cascade=False, stream=True):
        deployment = Deployment(partitions=2).with_packets(routers=k)
        if cascade:
            deployment.shell.planner = cascade_planner(deployment.shell.catalog)
        self._feed(deployment, k)
        if not stream:
            return _row_multiset(deployment.shell.execute(
                self._sql(k).replace("SELECT STREAM", "SELECT")))
        return _row_multiset(deployment.run(self._sql(k)).results())

    @pytest.mark.parametrize("routers", [3, 4])
    def test_output_identical_to_cascade(self, routers):
        multi = self._run(routers)
        assert multi == self._run(routers, cascade=True)
        # the collapse rule fires on the table plan too: the batch
        # executor evaluates the collapsed node, and the nested joins
        assert multi == self._run(routers, stream=False)
        assert multi == self._run(routers, cascade=True, stream=False)
        assert len(multi) == 16  # 8 packet ids x 2 matching R2 rows

    def test_window_chain_needs_the_multiway_operator(self):
        """Windows chained pairwise (R2-R3, not all anchored to R1) are
        collapsible via the transitive closure, but the cascade cannot
        derive a window for its outer join — the collapse is a net new
        capability, not just a faster plan."""
        sql = ("SELECT STREAM PacketsR1.packetId FROM PacketsR1 "
               "JOIN PacketsR2 ON PacketsR1.rowtime BETWEEN "
               "PacketsR2.rowtime - INTERVAL '2' SECOND AND "
               "PacketsR2.rowtime + INTERVAL '2' SECOND AND "
               "PacketsR1.packetId = PacketsR2.packetId "
               "JOIN PacketsR3 ON PacketsR2.rowtime BETWEEN "
               "PacketsR3.rowtime - INTERVAL '2' SECOND AND "
               "PacketsR3.rowtime + INTERVAL '2' SECOND AND "
               "PacketsR2.packetId = PacketsR3.packetId")
        deployment = Deployment(partitions=1).with_packets(routers=3)
        deployment.feed_packet("PacketsR1", 1, 1_000_000)
        deployment.feed_packet("PacketsR2", 1, 1_000_500)
        deployment.feed_packet("PacketsR3", 1, 1_000_900)
        handle = deployment.run(sql)
        assert len(handle.results()) == 1

        cascade = Deployment(partitions=1).with_packets(routers=3)
        cascade.shell.planner = cascade_planner(cascade.shell.catalog)
        with pytest.raises(PlannerError, match="time window"):
            cascade.run(sql)

    def test_explain_reports_collapse_and_order(self):
        deployment = Deployment(partitions=1).with_packets(routers=3)
        report = deployment.shell.execute("EXPLAIN " + self._sql(3))
        assert "multi-way join: collapsed 3 inputs" in report
        assert "probe order by window_ms" in report
        deployment.shell.planner = cascade_planner(deployment.shell.catalog)
        cascade = deployment.shell.execute("EXPLAIN " + self._sql(3))
        assert "running the pairwise cascade" in cascade


class TestGroupWindows:
    def test_tumbling_hourly_count(self):
        """Listing 4 — hourly order counts."""
        deployment = Deployment(partitions=1)
        deployment.with_orders(0)
        hour = 3_600_000
        # 3 orders in hour 1, 2 in hour 2, 1 in hour 3 (h3 emits on watermark
        # from a later sentinel order in hour 4)
        times = [hour + 1, hour + 2, hour + 3,
                 2 * hour + 1, 2 * hour + 2,
                 3 * hour + 1,
                 4 * hour + 1]
        from repro.serde import AvroSerde
        from tests.samzasql_fixtures import ORDERS_SCHEMA
        serde = AvroSerde(ORDERS_SCHEMA)
        for i, ts in enumerate(times):
            deployment.producer.send(
                "Orders", serde.to_bytes(
                    {"rowtime": ts, "productId": 0, "orderId": i, "units": 1}),
                key=b"0", timestamp_ms=ts)
        handle = deployment.run(
            "SELECT STREAM START(rowtime) AS ws, END(rowtime) AS we, COUNT(*) AS c "
            "FROM Orders GROUP BY TUMBLE(rowtime, INTERVAL '1' HOUR)")
        results = sorted(handle.results(), key=lambda r: r["ws"])
        # the hour-4 window never closes (no later watermark), so 3 outputs
        assert [(r["ws"] // hour, r["c"]) for r in results] == [(1, 3), (2, 2), (3, 1)]
        assert all(r["we"] - r["ws"] == hour for r in results)

    def test_hopping_window_overlap(self):
        """HOP(emit=1m, retain=2m): each tuple lands in two windows."""
        deployment = Deployment(partitions=1)
        deployment.with_orders(0)
        minute = 60_000
        from repro.serde import AvroSerde
        from tests.samzasql_fixtures import ORDERS_SCHEMA
        serde = AvroSerde(ORDERS_SCHEMA)
        # one order per minute for 6 minutes
        for i in range(6):
            ts = minute * (i + 1) + 1
            deployment.producer.send(
                "Orders", serde.to_bytes(
                    {"rowtime": ts, "productId": 0, "orderId": i, "units": 1}),
                key=b"0", timestamp_ms=ts)
        handle = deployment.run(
            "SELECT STREAM START(rowtime) AS ws, COUNT(*) AS c FROM Orders "
            "GROUP BY HOP(rowtime, INTERVAL '1' MINUTE, INTERVAL '2' MINUTE)")
        results = sorted(handle.results(), key=lambda r: r["ws"])
        # interior closed windows hold 2 tuples each (overlap)
        interior = [r for r in results if r["c"] == 2]
        assert len(interior) >= 3

    def test_floor_group_by_is_hourly_tumble(self):
        """Listing 3's FLOOR(rowtime TO HOUR) GROUP BY idiom."""
        deployment = Deployment(partitions=1)
        deployment.with_orders(0)
        hour = 3_600_000
        from repro.serde import AvroSerde
        from tests.samzasql_fixtures import ORDERS_SCHEMA
        serde = AvroSerde(ORDERS_SCHEMA)
        for i, ts in enumerate([hour + 1, hour + 2, 2 * hour + 5, 3 * hour + 1]):
            deployment.producer.send(
                "Orders", serde.to_bytes(
                    {"rowtime": ts, "productId": i % 2, "orderId": i, "units": 20}),
                key=str(i % 2).encode(), timestamp_ms=ts)
        handle = deployment.run(
            "SELECT STREAM FLOOR(rowtime TO HOUR) AS hr, productId, COUNT(*) AS c, "
            "SUM(units) AS su FROM Orders "
            "GROUP BY FLOOR(rowtime TO HOUR), productId")
        results = handle.results()
        hour1 = [r for r in results if r["hr"] == hour]
        assert sorted((r["productId"], r["c"], r["su"]) for r in hour1) == [
            (0, 1, 20), (1, 1, 20)]


class TestBatchMode:
    def test_select_without_stream_reads_history(self):
        deployment = Deployment().with_orders(40)
        rows = deployment.shell.execute(
            "SELECT productId, COUNT(*) AS c, SUM(units) AS su FROM Orders "
            "GROUP BY productId")
        assert len(rows) == 10
        assert all(r["c"] == 4 for r in rows)

    def test_table_query(self):
        deployment = Deployment().with_orders(0).with_products(10)
        rows = deployment.shell.execute(
            "SELECT name FROM Products WHERE supplierId = 0")
        assert sorted(r["name"] for r in rows) == [
            "product-0", "product-3", "product-6", "product-9"]

    def test_stream_table_join_batch(self):
        deployment = Deployment().with_orders(20).with_products(10)
        rows = deployment.shell.execute(
            "SELECT Orders.orderId, Products.name FROM Orders JOIN Products "
            "ON Orders.productId = Products.productId")
        assert len(rows) == 20

    def test_create_view_then_query(self):
        deployment = Deployment().with_orders(50)
        assert deployment.shell.execute(
            "CREATE VIEW BigOrders AS SELECT * FROM Orders WHERE units > 50") is None
        rows = deployment.shell.execute("SELECT COUNT(*) AS c FROM BigOrders")
        expected = sum(1 for i in range(50) if (i * 7) % 100 > 50)
        assert rows[0]["c"] == expected


class TestStreamTableEquivalence:
    """§3.2: same results on a stream as if the data were in a table."""

    def test_filter_equivalence(self):
        deployment = Deployment().with_orders(80)
        streaming = deployment.run("SELECT STREAM orderId, units FROM Orders "
                                   "WHERE units BETWEEN 20 AND 60").results()
        batch = deployment.shell.execute(
            "SELECT orderId, units FROM Orders WHERE units BETWEEN 20 AND 60")
        key = lambda r: r["orderId"]
        assert sorted(streaming, key=key) == sorted(batch, key=key)

    def test_join_equivalence(self):
        deployment = Deployment().with_orders(30).with_products(10)
        sql_core = ("Orders.orderId AS orderId, Products.supplierId AS supplierId "
                    "FROM Orders JOIN Products "
                    "ON Orders.productId = Products.productId")
        streaming = deployment.run(f"SELECT STREAM {sql_core}").results()
        batch = deployment.shell.execute(f"SELECT {sql_core}")
        key = lambda r: r["orderId"]
        assert sorted(streaming, key=key) == sorted(batch, key=key)


class TestPlannerRejections:
    def test_unwindowed_stream_aggregate_rejected(self):
        deployment = Deployment().with_orders(5)
        with pytest.raises(PlannerError, match="window"):
            deployment.shell.execute(
                "SELECT STREAM productId, COUNT(*) FROM Orders GROUP BY productId")

    def test_stream_of_table_rejected(self):
        deployment = Deployment().with_orders(0).with_products(3)
        with pytest.raises(PlannerError, match="stream"):
            deployment.shell.execute("SELECT STREAM * FROM Products")

    def test_unbounded_stream_join_rejected(self):
        deployment = Deployment().with_packets()
        with pytest.raises(PlannerError, match="time window"):
            deployment.shell.execute(
                "SELECT STREAM PacketsR1.packetId FROM PacketsR1 JOIN PacketsR2 "
                "ON PacketsR1.packetId = PacketsR2.packetId")


class TestInsertInto:
    def test_named_output_stream(self):
        deployment = Deployment().with_orders(20)
        handle = deployment.run(
            "INSERT INTO BigOrders SELECT STREAM * FROM Orders WHERE units > 50")
        assert handle.output_stream == "BigOrders"
        assert deployment.cluster.has_topic("BigOrders")
        assert len(handle.results()) > 0

    def test_chained_queries_via_insert(self):
        """Kappa-style pipeline: query 2 consumes query 1's output stream."""
        deployment = Deployment().with_orders(40)
        first = deployment.run(
            "INSERT INTO BigOrders SELECT STREAM * FROM Orders WHERE units > 50")
        deployment.shell.register_derived_stream("BigOrdersIn", first)
        handle = deployment.run(
            "SELECT STREAM orderId FROM BigOrdersIn WHERE units > 90")
        expected = [i for i in range(40) if (i * 7) % 100 > 90]
        assert sorted(r["orderId"] for r in handle.results()) == expected


class TestFaultTolerance:
    SQL = ("SELECT STREAM rowtime, productId, orderId, units, SUM(units) OVER "
           "(PARTITION BY productId ORDER BY rowtime RANGE INTERVAL '5' MINUTE "
           "PRECEDING) unitsLastFiveMinutes FROM Orders")

    def test_sliding_window_survives_container_failure(self):
        """Kill a container mid-query; the replacement restores window state
        from the changelog and outputs stay deterministic (§4.3)."""
        deployment = Deployment(partitions=2).with_orders(30, step_ms=1000)
        handle = deployment.shell.execute(self.SQL, containers=2)
        for _ in range(3):
            deployment.runner.run_iteration()
        deployment.runner.kill_container(handle.master, index=0)
        deployment.feed_orders(30, start_ts=2_000_000, start_id=100)
        deployment.runner.run_until_quiescent()
        results = handle.results()
        # at-least-once: every input produced at least one output, and window
        # sums for late (post-failure) records are still correct
        order_ids = {r["orderId"] for r in results}
        assert set(range(100, 130)) <= order_ids
        window_ms = 5 * 60 * 1000
        by_id = {}
        for r in results:
            by_id[r["orderId"]] = r  # replays overwrite with identical values
        rows = sorted(by_id.values(), key=lambda r: r["rowtime"])
        for record in rows:
            if record["orderId"] < 100:
                continue
            expected = sum(
                x["units"] for x in rows
                if x["productId"] == record["productId"]
                and record["rowtime"] - window_ms <= x["rowtime"] <= record["rowtime"])
            assert record["unitsLastFiveMinutes"] == expected


def _without_arrival_seq(store, key, value):
    """Join stores number buffered rows in arrival order, which depends on
    how the inputs interleave — exactly what the poll size changes."""
    if not store.startswith("sql-mjoin"):
        return key, value
    if key[1] == INDEX_SEQ:                          # join bucket index
        return key, value["count"]
    return key[:1], value                            # join row entry


class TestBatchSingleEquivalence:
    """Poll-batch-size independence: whatever ``task.poll.batch.size`` cuts
    the input into, the output records, final task offsets, checkpoints and
    the state the changelog restores to must be the same.  (Commit points
    move with the poll size, so the changelog bytes need not match.)"""

    POLL_SIZES = ("1", "7", "200")

    QUERIES = {
        "filter": "SELECT STREAM * FROM Orders WHERE units > 50",
        "project": "SELECT STREAM rowtime, productId, units FROM Orders",
        "window": ("SELECT STREAM rowtime, productId, units, SUM(units) OVER "
                   "(PARTITION BY productId ORDER BY rowtime RANGE "
                   "INTERVAL '5' MINUTE PRECEDING) unitsLastFiveMinutes "
                   "FROM Orders"),
        "join": ("SELECT STREAM GREATEST(PacketsR1.rowtime, PacketsR2.rowtime) "
                 "AS rowtime, PacketsR1.sourcetime, PacketsR1.packetId, "
                 "PacketsR2.rowtime - PacketsR1.rowtime AS timeToTravel "
                 "FROM PacketsR1 JOIN PacketsR2 ON "
                 "PacketsR1.rowtime BETWEEN PacketsR2.rowtime - INTERVAL '2' SECOND "
                 "AND PacketsR2.rowtime + INTERVAL '2' SECOND "
                 "AND PacketsR1.packetId = PacketsR2.packetId"),
        "relation_join": TestStreamRelationJoin.SQL,
        "multiway_join": TestMultiWayStreamJoin._sql(3),
        "group_window": ("SELECT STREAM START(rowtime) AS ws, END(rowtime) AS we, "
                         "COUNT(*) AS c, SUM(units) AS s FROM Orders "
                         "GROUP BY TUMBLE(rowtime, INTERVAL '1' MINUTE)"),
    }

    @staticmethod
    def _deployment(query: str) -> Deployment:
        if query == "join":
            deployment = Deployment(partitions=2).with_packets()
            for pid in range(40):
                t0 = 1_000_000 + pid * 700
                deployment.feed_packet("PacketsR1", pid, t0)
                deployment.feed_packet("PacketsR2", pid, t0 + (pid % 5) * 400)
            return deployment
        if query == "multiway_join":
            deployment = Deployment(partitions=1).with_packets(routers=3)
            TestMultiWayStreamJoin._feed(deployment, 3)
            return deployment
        deployment = Deployment().with_orders(120)
        return (deployment.with_products(10) if query == "relation_join"
                else deployment)

    @staticmethod
    def _restored_stores(deployment: Deployment, handle) -> dict:
        """What a replacement container would restore: each changelog
        partition replayed (latest value per key, None is a tombstone) and
        decoded with the store serdes the job configures."""
        job = handle.master.job
        cluster = deployment.cluster
        restored = {}
        for store in handle.plan.store_names:
            key_serde = job.serdes.get(job.config[f"stores.{store}.key.serde"])
            msg_serde = job.serdes.get(job.config[f"stores.{store}.msg.serde"])
            topic = f"{handle.query_id}-{store}-changelog"
            for tp in cluster.partitions_for(topic):
                latest = {message.key: message.value for message
                          in cluster.fetch(tp, cluster.earliest_offset(tp))}
                restored[store, tp.partition] = sorted(
                    repr(_without_arrival_seq(store,
                                              key_serde.from_bytes(key),
                                              msg_serde.from_bytes(value)))
                    for key, value in latest.items() if value is not None)
        return restored

    @classmethod
    def _run_mode(cls, query: str, poll_size: str, containers: int = 2):
        deployment = cls._deployment(query)
        handle = deployment.run(
            cls.QUERIES[query], containers=containers,
            config_overrides={"task.poll.batch.size": poll_size})
        if query in ("join", "multiway_join"):
            # A port is purged only when *another* port advances, so what
            # is retained at quiescence depends on arrival order; closing
            # packets per router (ids 7000 and 7001 reach both partitions
            # of the two-partition join) move every watermark past the feed.
            routers = ("PacketsR1", "PacketsR2", "PacketsR3")
            for router in routers[:2 if query == "join" else 3]:
                for pid in (7000, 7001):
                    deployment.feed_packet(router, pid, 9_000_000)
            deployment.runner.run_until_quiescent()
        outputs = sorted(handle.results(),
                         key=lambda r: sorted(r.items()))
        offsets = {}
        checkpoints = {}
        for container in handle.master.samza_containers.values():
            for name, instance in container.tasks.items():
                offsets[name] = {str(ssp): off
                                 for ssp, off in instance.offsets.items()}
                instance.commit()
                checkpoint = instance._checkpoints.read_last_checkpoint(name)
                checkpoints[name] = checkpoint.to_payload()
        return (outputs, offsets, checkpoints,
                cls._restored_stores(deployment, handle))

    @pytest.mark.parametrize("query", sorted(QUERIES))
    def test_outputs_offsets_checkpoints_identical(self, query):
        reference, *others = [self._run_mode(query, size)
                              for size in self.POLL_SIZES]
        assert reference[0], "query produced no output"
        for run in others:
            assert run[0] == reference[0], "output records differ"
            assert run[1] == reference[1], "task offsets differ"
            assert run[2] == reference[2], "checkpoint contents differ"
            assert run[3] == reference[3], "restored store state differs"
