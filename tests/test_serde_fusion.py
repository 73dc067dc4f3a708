"""Serde fusion: column-pruned decode, re-encode elision, fused chains.

The contract under test is strict observational equivalence: on the
fused path (what the plan gets by default) every byte the job writes —
output records, their keys, offsets, timestamps, and checkpoint topics —
must be identical to the interpreted full decode/re-encode path, at
every poll size and across crash/replay.  The reference arm is selected
by ``reference_arm``; the runtime has no switch.
"""

import pytest

from repro.chaos import FaultInjector, FaultSchedule
from repro.chaos.supervisor import ChaosSupervisor
from repro.chaos.validate import NESTED_WINDOW_SQL, restored_entries
from repro.common import PlannerError
from repro.metrics import METRICS_STREAM
from repro.samzasql.environment import SamzaSqlEnvironment
from repro.serde import AvroSchema, AvroSerde, JsonSerde

from tests.samzasql_fixtures import (
    ORDERS_SCHEMA,
    PRODUCTS_SCHEMA,
    Deployment,
    operator_counters,
    reference_arm,
    sql_tasks,
)

FILTER_SQL = ("SELECT STREAM rowtime, productId, orderId, units "
              "FROM Orders WHERE units > 50")
PROJECT_SQL = "SELECT STREAM orderId, units FROM Orders WHERE units > 50"
#: The fig 5a filter into a named sink that a user override makes JSON.
JSON_SINK_SQL = "INSERT INTO Big SELECT STREAM * FROM Orders WHERE units > 50"
JSON_SINK = {"systems.kafka.streams.Big.samza.msg.serde": "json"}
JSON_SINK_REASON = "input/output streams are not Avro with string keys"
SLIDING_WINDOW_SQL = (
    "SELECT STREAM rowtime, productId, orderId, units, "
    "SUM(units) OVER (PARTITION BY productId ORDER BY rowtime "
    "RANGE INTERVAL '5' MINUTE PRECEDING) unitsLastFiveMinutes "
    "FROM Orders WHERE units > 10"
)
#: The fig 5c join (Listing 8).
JOIN_SQL = ("SELECT STREAM Orders.rowtime, Orders.orderId, Orders.productId, "
            "Orders.units, Products.supplierId FROM Orders JOIN Products "
            "ON Orders.productId = Products.productId")

#: A HOP group window: interpreted, its open windows in a changelogged store.
HOP_SQL = ("SELECT STREAM START(rowtime) AS ws, productId, COUNT(*) AS c, "
           "SUM(units) AS s FROM Orders GROUP BY "
           "HOP(rowtime, INTERVAL '10' SECOND, INTERVAL '20' SECOND), productId")


def enable_metrics(dep):
    """Give the fixture's hand-built shell a default environment's
    reporter (``SamzaSqlEnvironment()``: on, 1 s interval)."""
    dep.shell.metrics_interval_ms = 1_000
    dep.shell.enable_metrics_stream()


def chaos_sql_deployment(schedule, orders=80, partitions=2, metrics=False,
                         products=0):
    dep = Deployment(partitions=partitions)
    if metrics:
        enable_metrics(dep)
    dep.with_orders(count=orders)
    if products:
        dep.with_products(products)
    injector = FaultInjector(schedule, clock=dep.clock)
    dep.cluster.install_fault_injector(injector)
    dep.runner.fault_injector = injector
    return dep, injector


def cluster_dump(dep):
    """Every topic's full contents: (offset, key, value, timestamp) —
    except ``__metrics``, whose timer values are wall-clock readings."""
    dump = {}
    for topic in sorted(set(dep.cluster.topics()) - {METRICS_STREAM}):
        for tp in dep.cluster.partitions_for(topic):
            msgs = dep.cluster.fetch(tp, dep.cluster.earliest_offset(tp), None)
            dump[str(tp)] = [(m.offset, m.key, m.value, m.timestamp_ms)
                             for m in msgs]
    return dump


def run_filter(path: str = "fused", poll_size: str = "200",
               sql: str = FILTER_SQL, metrics: bool = False):
    dep = Deployment().with_orders(60)
    if metrics:
        enable_metrics(dep)
    with reference_arm(path):
        handle = dep.shell.execute(sql, containers=1, config_overrides={
            "task.poll.batch.size": poll_size})
        dep.runner.run_until_quiescent()
    return dep, handle


class TestPrunedDecoder:
    """AvroSerde.pruned_decoder — skip-scan over unreferenced columns."""

    def setup_method(self):
        self.schema = ORDERS_SCHEMA
        self.serde = AvroSerde(ORDERS_SCHEMA)
        self.record = {"rowtime": 1_000_000, "productId": 7,
                       "orderId": 1234, "units": 55}
        self.buf = self.serde.to_bytes(self.record)

    def test_materializes_only_required_fields(self):
        decoder = self.schema.pruned_decoder(frozenset({"units"}))
        row, pos = decoder(self.buf, 0)
        assert row["units"] == 55
        assert pos == len(self.buf)
        assert "orderId" not in row and "productId" not in row

    def test_required_values_match_full_decode(self):
        full = self.serde.from_bytes(self.buf)
        decoder = self.schema.pruned_decoder(frozenset({"rowtime", "orderId"}))
        row, pos = decoder(self.buf, 0)
        assert pos == len(self.buf)
        assert {k: row[k] for k in ("rowtime", "orderId")} == \
            {k: full[k] for k in ("rowtime", "orderId")}

    def test_unknown_required_names_are_ignored(self):
        decoder = self.schema.pruned_decoder(frozenset({"units", "nope"}))
        row, pos = decoder(self.buf, 0)
        assert row["units"] == 55
        assert pos == len(self.buf)

    def test_empty_required_still_scans_to_end(self):
        decoder = self.schema.pruned_decoder(frozenset())
        row, pos = decoder(self.buf, 0)
        assert row == {}
        assert pos == len(self.buf)

    def test_non_record_schema_returns_none(self):
        from repro.serde import AvroSchema

        assert AvroSchema("long").pruned_decoder(frozenset({"x"})) is None


class TestSerdePlanAnalysis:
    """The per-task analysis decision, observed through the live tasks."""

    def test_filter_query_prunes_and_elides(self):
        _dep, handle = run_filter()
        tasks = sql_tasks(handle)
        assert tasks and all(t.serde_fused for t in tasks)
        decision = tasks[0].decision
        assert decision.path == "fused"
        assert "units" in decision.serde.required
        assert not decision.serde.computed  # identity projection: raw byte splice out
        assert decision.serde_status.startswith("serde: decode pruned")

    def test_fusion_off_runs_decoded_path(self):
        """A sink serde the generator cannot inline (JSON) keeps the whole
        task on the decoded path: the interpreted router."""
        dep = Deployment().with_orders(5)
        handle = dep.run(JSON_SINK_SQL, config_overrides=JSON_SINK)
        for task in sql_tasks(handle):
            assert not task.serde_fused
            assert task.decision.fallback == JSON_SINK_REASON

    def test_batches_of_one_still_fuse(self):
        _dep, handle = run_filter(poll_size="1")
        assert all(t.serde_fused for t in sql_tasks(handle))

    def test_interpreted_chain_never_fuses(self):
        _dep, handle = run_filter("interpreted")
        assert all(not t.serde_fused for t in sql_tasks(handle))


class TestByteEquivalence:
    """The fused path must leave the whole cluster byte-identical to
    each reference path."""

    @pytest.mark.parametrize("poll_size", ["200", "1"],
                             ids=["batched-interpreted", "single-interpreted"])
    def test_filter_all_modes(self, poll_size):
        dep_off, handle_off = run_filter("interpreted", poll_size)
        dep_on, handle_on = run_filter("fused", poll_size)
        assert cluster_dump(dep_off) == cluster_dump(dep_on)
        # equivalence must hold *because* both paths actually ran
        assert all(t.serde_fused for t in sql_tasks(handle_on))
        assert all(t.decision.path == "interpreted"
                   for t in sql_tasks(handle_off))

    @pytest.mark.parametrize("poll_size", ["200", "1"])
    def test_filter_with_metrics_on(self, poll_size):
        """Reporting on (what a default environment runs) changes neither
        the path nor a byte outside ``__metrics``."""
        dep_off, _ = run_filter("interpreted", poll_size, metrics=True)
        dep_on, handle_on = run_filter("fused", poll_size, metrics=True)
        assert cluster_dump(dep_off) == cluster_dump(dep_on)
        assert cluster_dump(dep_on) == cluster_dump(
            run_filter("fused", poll_size)[0])
        for task in sql_tasks(handle_on):
            assert task.decision.sampled and task.serde_fused
        assert any(r["metric"] == "process-ns.count" and r["value"] > 0
                   for r in handle_on.snapshots())

    def test_project_query(self):
        dep_off, _ = run_filter("interpreted", sql=PROJECT_SQL)
        dep_on, _ = run_filter("fused", sql=PROJECT_SQL)
        assert cluster_dump(dep_off) == cluster_dump(dep_on)

    def test_results_match_decoded(self):
        _dep, handle_on = run_filter("fused")
        _dep2, handle_off = run_filter("interpreted")
        key = lambda r: r["orderId"]
        assert sorted(handle_on.results(), key=key) == \
            sorted(handle_off.results(), key=key)


class TestCrashMidBatchElision:
    def test_crash_mid_batch_replays_identically(self, metrics=False):
        """A crash landing inside a poll batch while the elision path is
        splicing raw bytes must recover exactly like the decoded path:
        the uncommitted suffix replays through the freshly fused plan on
        the replacement container and the surviving output set matches."""
        outputs = {}
        for mode, path in (("fused", "fused"), ("decoded", "interpreted")):
            schedule = FaultSchedule.script().add_crash(25)
            dep, injector = chaos_sql_deployment(schedule, metrics=metrics)
            with reference_arm(path):  # held across the relaunch
                handle = dep.shell.execute(
                    FILTER_SQL, containers=2, config_overrides={
                        "task.checkpoint.interval.messages": 10,
                        "task.poll.batch.size": 8,
                    })
                supervisor = ChaosSupervisor(dep.runner, injector,
                                             zk=dep.shell.zk)
                supervisor.run_until_quiescent()
            assert supervisor.restarts == 1
            # the replacement container re-ran the fusion analysis and
            # landed on the same decision the original did
            for task in sql_tasks(handle):
                assert task.serde_fused is (mode == "fused")
            with injector.suspended():
                outputs[mode] = {r["orderId"] for r in handle.results()}

        expected = {i for i in range(80) if (i * 7) % 100 > 50}
        assert outputs["fused"] == expected
        assert outputs["fused"] == outputs["decoded"]

    def test_crash_mid_batch_replays_identically_with_metrics_on(self):
        self.test_crash_mid_batch_replays_identically(metrics=True)

    @pytest.mark.parametrize("crash_at", [35, 55])
    def test_group_window_restores_its_open_windows(self, crash_at):
        """A crash of an interpreted group-window task, past its first
        commit: the relaunch fills the open windows from the restored
        ``sql-group-windows`` store, and the replayed suffix closes them
        as the uncrashed run does."""
        outputs = {}
        for crash in (crash_at, None):
            schedule = FaultSchedule.script()
            if crash is not None:
                schedule.add_crash(crash)
            dep, injector = chaos_sql_deployment(schedule)
            handle = dep.shell.execute(
                HOP_SQL, containers=2, config_overrides={
                    "task.checkpoint.interval.messages": 10,
                    "task.poll.batch.size": 8,
                })
            supervisor = ChaosSupervisor(dep.runner, injector,
                                         zk=dep.shell.zk)
            supervisor.run_until_quiescent()
            assert supervisor.restarts == (crash is not None)
            with injector.suspended():
                outputs[crash] = {repr(sorted(r.items()))
                                  for r in handle.results()}
                table = {repr(sorted(r.items()))
                         for r in table_rows(dep, HOP_SQL)}
            if crash is not None:
                restored = sum(
                    gauge.value
                    for container in handle.master.samza_containers.values()
                    for group, metric, gauge in container.metrics.gauges()
                    if metric == "restored-entries"
                    and group.startswith("store.sql-group-windows."))
                assert restored > 0
        assert outputs[crash_at] == outputs[None]
        assert len(outputs[None]) == 70
        assert outputs[crash_at] <= table

    def test_fused_join_restores_its_relation(self):
        """A crash inside a poll batch of the fused join, after an upsert
        and a tombstone followed the first commit: the relaunch restores
        ``sql-relation-products`` from its changelog, fills the join's
        rows from it, looks the replayed suffix up in them, and emits
        what the interpreted arm emits."""
        def relation_stores(handle):
            return [instance.stores["sql-relation-products"]
                    for container in handle.master.samza_containers.values()
                    for instance in container.tasks.values()]

        outputs = {}
        for path in ("fused", "interpreted"):
            # past the crashing container's first commit, inside a batch
            schedule = FaultSchedule.script().add_crash(35)
            dep, injector = chaos_sql_deployment(schedule, products=10)
            with reference_arm(path):  # held across the relaunch
                handle = dep.shell.execute(
                    JOIN_SQL, containers=2, config_overrides={
                        "task.checkpoint.interval.messages": 10,
                        "task.poll.batch.size": 8,
                    })
                supervisor = ChaosSupervisor(dep.runner, injector,
                                             zk=dep.shell.zk)
                # every task's first commit logged its relation partition
                while not all(store.flushed_count
                              for store in relation_stores(handle)):
                    supervisor.run_iteration()
                assert supervisor.restarts == 0
                with injector.suspended():
                    dep.send_product(3, 4)     # upsert: a new supplier
                    dep.send_product(1, None)  # tombstone: product 1 is gone
                supervisor.run_until_quiescent()
            assert supervisor.restarts == 1
            for join in relation_joins(handle):
                assert join._rows == dict(join._store.all())
            assert all(task.decision.path == path
                       for task in sql_tasks(handle))
            restored = sum(
                gauge.value
                for container in handle.master.samza_containers.values()
                for group, metric, gauge in container.metrics.gauges()
                if metric == "restored-entries"
                and group.startswith("store.sql-relation-products."))
            assert restored > 0
            with injector.suspended():
                outputs[path] = {(r["orderId"], r["supplierId"])
                                 for r in handle.results()}
        assert outputs["fused"] == outputs["interpreted"]
        kept = {(i, s) for i, s in outputs["fused"] if i % 10 not in (1, 3)}
        assert kept == {(i, i % 10 % 3) for i in range(80)
                        if i % 10 not in (1, 3)}
        # the last orders of products 3 and 1 saw the upsert and the tombstone
        assert (73, 4) in outputs["fused"]
        assert not any(i == 71 for i, _ in outputs["fused"])


def feed_packets(dep, count=30):
    """Packets 0..count-1 through three routers, one a second."""
    dep.with_packets(routers=3)
    for pid in range(count):
        for router in (1, 2, 3):
            dep.feed_packet(f"PacketsR{router}", pid, 1_000_000 + pid * 1_000)


#: One query per stateful SQL operator kind: (sql, the path its tasks
#: take, the deployment's set-up beyond the orders).  The 3-way packet
#: join collapses into one multi-way join operator with a store per input.
STATEFUL_QUERIES = {
    "sliding-window": (SLIDING_WINDOW_SQL, "fused", None),
    "relation-join": (JOIN_SQL, "fused", lambda dep: dep.with_products(10)),
    "group-window": (HOP_SQL, "interpreted", None),
    "multi-way-join": (
        "SELECT STREAM PacketsR1.packetId FROM PacketsR1 " + " ".join(
            f"JOIN PacketsR{i} ON PacketsR1.rowtime BETWEEN "
            f"PacketsR{i}.rowtime - INTERVAL '2' SECOND AND "
            f"PacketsR{i}.rowtime + INTERVAL '2' SECOND AND "
            f"PacketsR{i - 1}.packetId = PacketsR{i}.packetId"
            for i in (2, 3)),
        "interpreted", feed_packets),
}


class TestStoreTrafficUnderRelaunch:
    """What the store stack serves a SQL job: writes, and one open scan.
    Every stateful operator holds its state decoded, so across a crash
    and relaunch no SQL store is read with ``get``, and each store
    instance — one per task open, the relaunched container's included —
    is scanned exactly once, with nothing deferred yet."""

    @staticmethod
    def _crash_and_relaunch(kind, monkeypatch, partitions=2):
        """Runs ``kind``'s query on two containers through one crash;
        returns the deployment, the handle and every task open's
        ``(model, stores)``, in open order."""
        from repro.samza.container import SamzaContainer

        opened = []
        build = SamzaContainer._build_stores

        def build_stores(container, model):
            stores = build(container, model)
            opened.append((model, stores))
            return stores

        monkeypatch.setattr(SamzaContainer, "_build_stores", build_stores)
        sql, path, set_up = STATEFUL_QUERIES[kind]
        dep, injector = chaos_sql_deployment(
            FaultSchedule.script().add_crash(35), partitions=partitions)
        if set_up is not None:
            set_up(dep)
        handle = dep.shell.execute(sql, containers=2, config_overrides={
            "task.checkpoint.interval.messages": 10,
            "task.poll.batch.size": 8})
        supervisor = ChaosSupervisor(dep.runner, injector, zk=dep.shell.zk)
        supervisor.run_until_quiescent()

        assert supervisor.restarts == 1
        assert restored_entries(handle.master) > 0
        assert {task.decision.path for task in sql_tasks(handle)} == {path}
        with injector.suspended():
            assert handle.results()
        return dep, handle, opened

    @pytest.mark.parametrize("kind", sorted(STATEFUL_QUERIES))
    def test_one_open_scan_per_store_and_no_get(self, kind, monkeypatch):
        from repro.samza.storage import WriteBehindKeyValueStore

        gets, scans = {}, {}  # instance -> gets; instance -> dirty at each scan
        get, scan = WriteBehindKeyValueStore.get, WriteBehindKeyValueStore.all

        def counted_get(store, key):
            gets[store] = gets.get(store, 0) + 1
            return get(store, key)

        def counted_scan(store):
            scans.setdefault(store, []).append(store.dirty_count)
            return scan(store)

        monkeypatch.setattr(WriteBehindKeyValueStore, "get", counted_get)
        monkeypatch.setattr(WriteBehindKeyValueStore, "all", counted_scan)

        _dep, handle, opened = self._crash_and_relaunch(kind, monkeypatch)
        opened = [item for _model, stores in opened for item in stores.items()]
        tasks = sum(len(c.tasks) for c in handle.master.samza_containers.values())
        names = {name for name, _ in opened}
        assert all(name.startswith("sql-") for name in names)
        assert len(opened) > tasks * len(names)  # the relaunch opened more
        assert gets == {}
        assert all(scans.get(store) == [0] for _, store in opened)

    @pytest.mark.parametrize("kind", sorted(STATEFUL_QUERIES))
    def test_relaunch_reads_each_log_once(self, kind, monkeypatch):
        """Counted at the broker, across a crash and relaunch of containers
        holding two tasks each: every store changelog partition is fetched
        once per task open, the relaunched container's included, and the
        checkpoint topic once per container start."""
        from repro.kafka.cluster import KafkaCluster
        from repro.samza.container import SamzaContainer

        fetches = {}  # (topic, partition) -> fetch calls
        fetch, start = KafkaCluster.fetch, SamzaContainer.start
        starts = []

        def counted_fetch(cluster, tp, *args, **kwargs):
            fetches[tp.topic, tp.partition] = fetches.get(
                (tp.topic, tp.partition), 0) + 1
            return fetch(cluster, tp, *args, **kwargs)

        def counted_start(container):
            starts.append(container.container_id)
            return start(container)

        monkeypatch.setattr(KafkaCluster, "fetch", counted_fetch)
        monkeypatch.setattr(SamzaContainer, "start", counted_start)

        _dep, handle, opened = self._crash_and_relaunch(
            kind, monkeypatch, partitions=4)
        job = handle.master.job
        changelogs = {value.split(".", 1)[1] for key, value in job.config.items()
                      if key.startswith("stores.") and key.endswith(".changelog")}
        opens = {}  # partition -> task opens
        for model, _stores in opened:
            opens[model.partition_id] = opens.get(model.partition_id, 0) + 1
        assert len(opened) == 4 + 2  # the relaunch reopened two tasks
        assert len(starts) == 2 + 1
        assert changelogs and {
            (topic, partition): fetches.get((topic, partition), 0)
            for topic in changelogs for partition in opens} == {
            (topic, partition): count
            for topic in changelogs for partition, count in opens.items()}
        assert fetches[handle.master.checkpoints.topic, 0] == len(starts)


class TestOneProgramPerContainerStart:
    """What a job derives from its plan, it derives once per container
    start: one plan read, one parse, one decision and — when it fuses —
    one render, relaunch included; every task of the container binds
    that one program into a function of its own."""

    @pytest.mark.parametrize("kind", ["sliding-window", "group-window"])
    def test_one_derivation_per_container_start(self, kind, monkeypatch):
        from repro.samza.container import SamzaContainer
        from repro.samzasql import decision
        from repro.samzasql.physical import PhysicalPlan
        from repro.zk.client import ZkClient

        counts = {"start": 0, "read": 0, "from_dict": 0, "decide": 0,
                  "render": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        get = ZkClient.get

        def counted_get(client, path, *args, **kwargs):
            if path.startswith("/samza-sql/queries/"):
                counts["read"] += 1
            return get(client, path, *args, **kwargs)

        monkeypatch.setattr(SamzaContainer, "start",
                            counted("start", SamzaContainer.start))
        monkeypatch.setattr(ZkClient, "get", counted_get)
        monkeypatch.setattr(PhysicalPlan, "from_dict", staticmethod(
            counted("from_dict", PhysicalPlan.from_dict)))
        monkeypatch.setattr(decision, "decide_execution",
                            counted("decide", decision.decide_execution))
        monkeypatch.setattr(decision, "render_fused",
                            counted("render", decision.render_fused))

        _dep, handle, _opened = TestStoreTrafficUnderRelaunch \
            ._crash_and_relaunch(kind, monkeypatch, partitions=4)
        starts = counts.pop("start")
        assert starts == 2 + 1  # two containers, one relaunched
        fused = STATEFUL_QUERIES[kind][1] == "fused"
        assert counts == {"read": starts, "from_dict": starts,
                          "decide": starts, "render": starts if fused else 0}

        containers = list(handle.master.samza_containers.values())
        programs = set()
        for container in containers:
            tasks = [instance.task for instance in container.tasks.values()]
            assert len(tasks) == 2
            [program] = {id(task.program): task.program
                         for task in tasks}.values()
            programs.add(id(program))
            if fused:
                functions = [task.executor._fn for task in tasks]
                assert len({id(fn.__globals__) for fn in functions}) == 2
        # the relaunched container built its own
        assert len(programs) == len(containers)


#: Orders carry productId 0..9; products 0..7 exist (8 and 9 never
#: match), supplierId = productId % 5 (a residual on it is selective);
#: suppliers 0..3 exist (supplier 4 never matches).
JOIN_ORDERS, JOIN_PRODUCTS, JOIN_SUPPLIERS = 40, 8, 4
FUSED_JOINS = {
    "inner": "SELECT STREAM o.rowtime, o.orderId, o.productId, p.name, "
             "p.supplierId FROM Orders o JOIN Products p "
             "ON o.productId = p.productId",
    "left": "SELECT STREAM o.rowtime, o.orderId, o.productId, p.name, "
            "p.supplierId FROM Orders o LEFT JOIN Products p "
            "ON o.productId = p.productId",
    "residual": "SELECT STREAM o.orderId, p.supplierId FROM Orders o "
                "JOIN Products p ON o.productId = p.productId "
                "AND p.supplierId > 2",
    "filter-above": "SELECT STREAM o.orderId, o.units, p.name FROM Orders o "
                    "JOIN Products p ON o.productId = p.productId "
                    "WHERE o.units > p.supplierId * 20",
    "relation-left": "SELECT STREAM p.name, o.orderId, o.rowtime "
                     "FROM Products p JOIN Orders o "
                     "ON p.productId = o.productId",
    "two-relations": "SELECT STREAM o.orderId, p.name, s.city FROM Orders o "
                     "JOIN Products p ON o.productId = p.productId "
                     "JOIN Suppliers s ON p.supplierId = s.supplierId",
}


def run_join(path, poll_size, sql, between=None):
    """``sql`` over the join feed on ``path``.  With ``between``, it changes
    the relations after the first stream batch, and a second batch
    (orderId 200..) follows."""
    # a key read off a relation is only co-partitioned on one partition
    dep = Deployment(partitions=1 if "Suppliers" in sql else 4)
    dep.with_orders(JOIN_ORDERS).with_products(JOIN_PRODUCTS, suppliers=5)
    dep.with_suppliers(JOIN_SUPPLIERS)
    with reference_arm(path):
        handle = dep.shell.execute(sql, config_overrides={
            "task.poll.batch.size": poll_size})
        dep.runner.run_until_quiescent()
        if between is not None:
            between(dep)
            dep.runner.run_until_quiescent()
            dep.feed_orders(JOIN_ORDERS, start_ts=5_000_000, start_id=200)
            dep.runner.run_until_quiescent()
    assert all(task.decision.path == path for task in sql_tasks(handle))
    return dep, handle


def table_rows(dep, sql):
    """The same SQL without STREAM, over the feed's history."""
    return dep.shell.execute(sql.replace("SELECT STREAM", "SELECT"))


class TestFusedRelationJoin:
    """Equi-key relation joins run as stages of the fused chain: every
    byte, and every operator counter, as the interpreted router leaves
    them, and the rows the table query returns."""

    @pytest.mark.parametrize("poll_size", ["200", "1"])
    @pytest.mark.parametrize("case", sorted(FUSED_JOINS))
    def test_fused_equals_interpreted_and_table(self, case, poll_size):
        sql = FUSED_JOINS[case]
        dep_on, fused = run_join("fused", poll_size, sql)
        dep_off, interpreted = run_join("interpreted", poll_size, sql)
        assert cluster_dump(dep_on) == cluster_dump(dep_off)
        counters = operator_counters(fused)
        assert counters == operator_counters(interpreted)
        assert sorted(fused.results(), key=repr) == sorted(
            table_rows(dep_on, sql), key=repr)
        if case in ("inner", "left"):
            # the join counts its relation rows too, and INNER drops the
            # orders of the two missing products
            [join] = [c for op, c in counters.items()
                      if op.startswith("relation-join")]
            matched = sum(1 for i in range(JOIN_ORDERS)
                          if i % 10 < JOIN_PRODUCTS)
            assert join == (JOIN_ORDERS + JOIN_PRODUCTS,
                            matched if case == "inner" else JOIN_ORDERS)

    @pytest.mark.parametrize("poll_size", ["200", "1"])
    @pytest.mark.parametrize("case", ["inner", "left"])
    def test_relation_changes_between_stream_batches(self, case, poll_size):
        def change(dep):
            dep.send_product(3, 4)     # upsert: a new supplier
            dep.send_product(1, None)  # tombstone: product 1 is gone
            dep.send_product(9, 2)     # a key no earlier order matched

        sql = FUSED_JOINS[case]
        dep_on, fused = run_join("fused", poll_size, sql, between=change)
        dep_off, interpreted = run_join("interpreted", poll_size, sql,
                                        between=change)
        assert cluster_dump(dep_on) == cluster_dump(dep_off)
        assert operator_counters(fused) == operator_counters(interpreted)

        def later(rows):
            return sorted((r for r in rows if r["orderId"] >= 200), key=repr)

        streamed = later(fused.results())
        assert streamed == later(table_rows(dep_on, sql))
        by_product = {r["productId"]: r["supplierId"] for r in streamed}
        assert by_product[3] == 4 and by_product[9] == 2
        assert by_product.get(1) is None


def relation_joins(handle):
    return [op for task in sql_tasks(handle) for op in task.router.operators
            if op.METRIC_KIND == "relation-join"]


class TestDecodedRelation:
    """The join operator holds its relation partition decoded: a lookup
    is a dict hit, and the store takes the changelog's own traffic and is
    read only to fill the rows at setup."""

    def test_fused_drain_reads_no_store(self, monkeypatch):
        """Counted the way a tracer wraps the store class: over a fused
        drain with relation changes between stream batches no ``get``
        reaches a store, and the relation stores take one put or delete
        per changelog record their tasks consumed."""
        from repro.samza.storage import WriteBehindKeyValueStore

        calls = dict.fromkeys(("get", "put", "delete"), 0)
        for name in calls:
            method = getattr(WriteBehindKeyValueStore, name)
            monkeypatch.setattr(
                WriteBehindKeyValueStore, name,
                lambda self, *args, _m=method, _n=name: (
                    calls.__setitem__(_n, calls[_n] + 1), _m(self, *args))[1])

        def change(dep):
            dep.send_product(3, 4)
            dep.send_product(1, None)
            dep.send_product(9, 2)

        dep, handle = run_join("fused", "200", FUSED_JOINS["inner"],
                               between=change)
        assert "    _get0 = _op0._rows.get" in sql_tasks(
            handle)[0].executor.source
        consumed = sum(
            dep.cluster.latest_offset(tp) - dep.cluster.earliest_offset(tp)
            for tp in dep.cluster.partitions_for("Products-changelog"))
        assert consumed == JOIN_PRODUCTS + 3
        assert calls == {"get": 0, "put": consumed - 1, "delete": 1}

    #: Sent in this order; a scan meets them in key order: "1" < "12" <
    #: "18" < "25" < "3" < "30" < "7".
    SCAN_PRODUCTS = (12, 3, 25, 7, 30, 1, 18)

    def test_keyless_scan_meets_rows_in_key_order(self):
        """A join not on the key scans the relation in the order the
        store's own scan yields (its ordered key codec, not arrival), so
        it emits what the join that scanned the store emitted; a relation
        change between stream batches reorders the scan."""
        sql = ("SELECT STREAM o.orderId, q.name FROM Orders o "
               "JOIN Products q ON o.productId = q.supplierId")
        dep = Deployment(partitions=1).with_orders(20).with_products(0)
        for pid in self.SCAN_PRODUCTS:
            dep.send_product(pid, pid % 3)
        handle = dep.run(sql)
        dep.send_product(21, 0)    # a new match for supplier 0
        dep.send_product(3, None)  # and one gone
        dep.runner.run_until_quiescent()
        dep.feed_orders(20, start_ts=5_000_000, start_id=200)
        dep.runner.run_until_quiescent()

        def matches(order_ids, products):
            return [(i, f"product-{pid}") for i in order_ids
                    for pid in sorted(products, key=repr)
                    if pid % 3 == i % 10]

        later = set(self.SCAN_PRODUCTS) - {3} | {21}
        assert [(r["orderId"], r["name"]) for r in handle.results()] == (
            matches(range(20), self.SCAN_PRODUCTS)
            + matches(range(200, 220), later))


class TestRelationJoinPartitioning:
    """Each task bootstraps its own partition of a relation's changelog,
    so a relation join is only right on many tasks when its key is a
    column of the stream — the partitioning both topics share."""

    SQL = FUSED_JOINS["two-relations"]

    def test_key_off_the_stream_is_refused(self):
        dep = Deployment().with_orders(20).with_products(10).with_suppliers()
        for sql in (f"EXPLAIN {self.SQL}", self.SQL):
            with pytest.raises(PlannerError, match=(
                    "relation Suppliers is joined on 'supplierId', which is "
                    "not a column of the stream: each of the 4 tasks")):
                dep.shell.execute(sql)
        with pytest.raises(PlannerError, match="joined not on its key"):
            dep.shell.execute("SELECT STREAM o.orderId FROM Orders o "
                              "JOIN Products p ON o.units > p.supplierId")
        assert dep.shell._masters == []
        assert not any(topic.endswith("-output")
                       for topic in dep.cluster.topics())

    def test_the_key_is_followed_down_to_the_stream(self):
        dep = Deployment().with_orders(5).with_products()
        grouped = ("SELECT STREAM g.productId, g.c, p.name FROM "
                   "(SELECT STREAM START(rowtime) AS ws, productId, "
                   "COUNT(*) AS c FROM Orders GROUP BY "
                   "TUMBLE(rowtime, INTERVAL '1' MINUTE), productId) g "
                   "JOIN Products p ON g.{} = p.productId")
        assert "tasks: 4 ×" in dep.shell.execute(
            "EXPLAIN " + grouped.format("productId"))
        for sql, key in ((grouped.format("c"), "c"), (
                "SELECT STREAM o.orderId, p.name FROM (SELECT STREAM "
                "orderId, productId + 1 AS pid FROM Orders) o "
                "JOIN Products p ON o.pid = p.productId", "pid")):
            with pytest.raises(PlannerError, match=f"joined on '{key}'"):
                dep.shell.execute(f"EXPLAIN {sql}")

    #: Products 0..9 with supplierId = productId % 3: each order of
    #: product 0, 1 or 2 matches three or four products by supplier.
    NOT_ON_THE_KEY = {
        "other-field": "SELECT STREAM o.orderId, q.name FROM Orders o "
                       "JOIN Products q ON o.productId = q.supplierId",
        "key-then-other-field": (
            "SELECT STREAM o.orderId, p.name, q.name AS qname FROM Orders o "
            "JOIN Products p ON o.productId = p.productId "
            "JOIN Products q ON o.productId = q.supplierId"),
    }

    @pytest.mark.parametrize("case", sorted(NOT_ON_THE_KEY))
    def test_join_not_on_the_key_scans_the_keyed_cache(self, case):
        """The cache is keyed by the relation's primary key whatever the
        join is on: a join on another field scans it, so it loses no row
        on one task (a cache keyed by supplier kept one product each) and
        is refused on four, with nothing submitted."""
        sql = self.NOT_ON_THE_KEY[case]
        dep = Deployment().with_orders(40).with_products(10)
        with pytest.raises(PlannerError, match="joined not on its key"):
            dep.shell.execute(sql)
        assert dep.shell._masters == []
        dep = Deployment(partitions=1).with_orders(40).with_products(10)
        handle = dep.run(sql)
        assert all(task.decision.fallback
                   == "relation join not on the relation's key"
                   for task in sql_tasks(handle))
        table = table_rows(dep, sql)
        assert len(table) == 40
        assert sorted(handle.results(), key=repr) == sorted(table, key=repr)

    def test_one_partition_runs_fused_and_equals_the_table(self):
        dep = Deployment(partitions=1).with_orders(20).with_products(10)
        dep.with_suppliers()
        handle = dep.run(self.SQL)
        assert all(task.decision.path == "fused"
                   for task in sql_tasks(handle))
        table = table_rows(dep, self.SQL)
        assert len(table) == 20
        assert sorted(handle.results(), key=repr) == sorted(table, key=repr)


RANGE = ("PARTITION BY productId ORDER BY rowtime "
         "RANGE INTERVAL '30' SECOND PRECEDING")
ROWS = "PARTITION BY productId ORDER BY rowtime ROWS 2 PRECEDING"
ALL_AGGREGATES = ("SUM(units) OVER ({w}) s, COUNT(*) OVER ({w}) c, "
                  "AVG(units) OVER ({w}) a, MIN(units) OVER ({w}) mn, "
                  "MAX(units) OVER ({w}) mx")
#: Nullable readings: ``v`` is NULL in three of the four rows.
READINGS_SCHEMA = AvroSchema.record(
    "Readings", [("rowtime", "long"), ("k", "int"), ("v", ["null", "int"])])
NULL_FEED = [(1, None), (1, 4), (1, None), (2, None)]
NULL_WINDOW = ("PARTITION BY k ORDER BY rowtime "
               "RANGE INTERVAL '5' MINUTE PRECEDING")
#: Orders carry one order a second over ten products, so a 30 s RANGE
#: frame holds up to four rows of a product and ROWS 2 PRECEDING three.
FUSED_WINDOWS = {
    "range-all-aggregates": ("SELECT STREAM rowtime, productId, units, "
                             + ALL_AGGREGATES.format(w=RANGE)
                             + " FROM Orders"),
    "rows-all-aggregates": ("SELECT STREAM rowtime, productId, units, "
                            + ALL_AGGREGATES.format(w=ROWS) + " FROM Orders"),
    "two-column-key": ("SELECT STREAM rowtime, orderId, units, SUM(units) "
                       "OVER (PARTITION BY productId, orderId % 2 ORDER BY "
                       "rowtime RANGE INTERVAL '30' SECOND PRECEDING) s "
                       "FROM Orders"),
    # a BOOLEAN has no ordered-key kind: the key is one repr string
    "repr-key": ("SELECT STREAM rowtime, orderId, COUNT(*) OVER (PARTITION "
                 "BY productId, units > 50 ORDER BY rowtime ROWS 2 "
                 "PRECEDING) c FROM Orders"),
    "filter-below": SLIDING_WINDOW_SQL,
    # every output column splices: the encode is elided, the state kept
    "aggregate-projected-away": (
        "SELECT STREAM rowtime, units FROM (SELECT STREAM rowtime, "
        f"productId, units, SUM(units) OVER ({RANGE}) s FROM Orders)"),
    "filter-below-and-above": (
        "SELECT STREAM rowtime, orderId, s FROM (SELECT STREAM rowtime, "
        f"orderId, units, SUM(units) OVER ({RANGE}) s FROM Orders "
        "WHERE units > 10) WHERE s > 100"),
    "null-arguments": (f"SELECT STREAM rowtime, k, v, SUM(v) OVER "
                       f"({NULL_WINDOW}) s, AVG(v) OVER ({NULL_WINDOW}) a "
                       "FROM Readings"),
}


def window_deployment(sql, partitions=4, orders=60):
    dep = Deployment(partitions=partitions).with_orders(orders)
    if "Readings" in sql:
        dep.shell.register_stream("Readings", READINGS_SCHEMA,
                                  partitions=partitions)
        serde = AvroSerde(READINGS_SCHEMA)
        for i, (k, v) in enumerate(NULL_FEED):
            dep.producer.send("Readings", serde.to_bytes(
                {"rowtime": 1_000_000 + i * 1_000, "k": k, "v": v}),
                key=str(k).encode(), timestamp_ms=1_000_000 + i * 1_000)
    return dep


def window_operators(handle):
    return [op for task in sql_tasks(handle) for op in task.router.operators
            if op.METRIC_KIND == "sliding-window"]


class TestFusedSlidingWindow:
    """The fig 6 window as a stage of the fused chain: every byte (rows,
    both window stores' changelogs, checkpoints), every operator counter
    and the retained state as the interpreted router leaves them, and the
    rows the same SQL without STREAM returns."""

    @staticmethod
    def run(path, poll_size, sql):
        dep = window_deployment(sql)
        with reference_arm(path):
            handle = dep.shell.execute(sql, config_overrides={
                "task.poll.batch.size": poll_size,
                "task.checkpoint.interval.messages": "3"})
            dep.runner.run_until_quiescent()
        assert all(task.decision.path == path for task in sql_tasks(handle))
        return dep, handle

    @pytest.mark.parametrize("poll_size", ["200", "1"])
    @pytest.mark.parametrize("case", sorted(FUSED_WINDOWS))
    def test_fused_equals_interpreted_and_table(self, case, poll_size):
        sql = FUSED_WINDOWS[case]
        dep_on, fused = self.run("fused", poll_size, sql)
        dep_off, interpreted = self.run("interpreted", poll_size, sql)
        dump = cluster_dump(dep_on)
        assert dump == cluster_dump(dep_off)
        assert any("sql-window-messages-changelog" in tp and records
                   for tp, records in dump.items())
        assert operator_counters(fused) == operator_counters(interpreted)
        retained = [op.state_size() for op in window_operators(fused)]
        assert retained == [op.state_size()
                            for op in window_operators(interpreted)]
        assert sum(retained) > 0
        assert sorted(fused.results(), key=repr) == sorted(
            table_rows(dep_on, sql), key=repr)
        if case == "null-arguments":
            # SUM/AVG read the frame's non-null rows; none read NULL
            rows = sorted(fused.results(), key=lambda r: r["rowtime"])
            assert [(r["s"], r["a"]) for r in rows] == [
                (None, None), (4, 4.0), (4, 4.0), (None, None)]

    def test_store_writes_reach_the_store_class(self, monkeypatch):
        """The fused stage writes through the stores' own put/delete, so
        whatever wraps the store class (a tracer) counts every write —
        the same writes, in the same order, as the interpreted arm."""
        from repro.samza.storage import WriteBehindKeyValueStore

        writes = []
        for name in ("put", "delete"):
            method = getattr(WriteBehindKeyValueStore, name)
            monkeypatch.setattr(
                WriteBehindKeyValueStore, name,
                lambda self, key, *value, _m=method, _n=name: (
                    writes.append((_n, key)), _m(self, key, *value))[1])
        logs = {}
        for path in ("fused", "interpreted"):
            writes.clear()
            _dep, handle = self.run(
                path, "200", FUSED_WINDOWS["filter-below-and-above"])
            logs[path] = list(writes)
            if path == "fused":
                source = sql_tasks(handle)[0].executor.source
                assert "    _mput1 = _op1._messages.put" in source
        assert logs["fused"] == logs["interpreted"]
        assert {name for name, _key in logs["fused"]} == {"put", "delete"}

    @pytest.mark.parametrize("poll_size", ["8", "1"])
    def test_crash_mid_feed_rebuilds_then_continues_fused(self, poll_size):
        """A crash past the first commit: the relaunch restores both
        window stores, rebuilds the windows at setup, and the replayed
        suffix runs through the fused stage — every byte as the
        interpreted arm writes it, and the table query's rows."""
        dumps, outputs = {}, {}
        for path in ("fused", "interpreted"):
            dep, injector = chaos_sql_deployment(
                FaultSchedule.script().add_crash(35))
            with reference_arm(path):  # held across the relaunch
                handle = dep.shell.execute(
                    SLIDING_WINDOW_SQL, containers=2, config_overrides={
                        "task.checkpoint.interval.messages": 10,
                        "task.poll.batch.size": poll_size})
                supervisor = ChaosSupervisor(dep.runner, injector,
                                             zk=dep.shell.zk)
                supervisor.run_until_quiescent()
            assert supervisor.restarts == 1
            assert all(task.decision.path == path
                       for task in sql_tasks(handle))
            assert restored_entries(handle.master) > 0
            with injector.suspended():
                dumps[path] = cluster_dump(dep)
                outputs[path] = {repr(sorted(r.items()))
                                 for r in handle.results()}
                table = {repr(sorted(r.items()))
                         for r in table_rows(dep, SLIDING_WINDOW_SQL)}
        assert dumps["fused"] == dumps["interpreted"]
        assert outputs["fused"] == table


class TestNestedWindows:
    """A window over a window's output: each instance owns its stores
    (``sql-window-*``, ``sql-window2-*``; ``sql-group-windows``,
    ``sql-group2-windows``), so two sliding windows fuse into one chain
    and a restore rebuilds each from its own rows."""

    @staticmethod
    def window_changelogs(dump):
        return {tp.split("-sql-")[1].split("-changelog")[0]
                for tp, records in dump.items()
                if "-sql-window" in tp and records}

    @pytest.mark.parametrize("poll_size", ["200", "1"])
    def test_fused_equals_interpreted_and_table(self, poll_size):
        sql = NESTED_WINDOW_SQL
        dep_on, fused = TestFusedSlidingWindow.run("fused", poll_size, sql)
        dep_off, interpreted = TestFusedSlidingWindow.run(
            "interpreted", poll_size, sql)
        dump = cluster_dump(dep_on)
        assert dump == cluster_dump(dep_off)
        assert self.window_changelogs(dump) == {
            "window-messages", "window-state",
            "window2-messages", "window2-state"}
        assert operator_counters(fused) == operator_counters(interpreted)
        assert sorted(fused.results(), key=repr) == sorted(
            table_rows(dep_on, sql), key=repr)

    def test_crash_restores_each_window_from_its_own_stores(self):
        """A crash at 35 with batches of 8: the relaunch restores both
        windows' stores and rebuilds each window from its own rows."""
        dumps, outputs = {}, {}
        for path in ("fused", "interpreted"):
            dep, injector = chaos_sql_deployment(
                FaultSchedule.script().add_crash(35))
            with reference_arm(path):  # held across the relaunch
                handle = dep.shell.execute(
                    NESTED_WINDOW_SQL, containers=2, config_overrides={
                        "task.checkpoint.interval.messages": 10,
                        "task.poll.batch.size": 8})
                supervisor = ChaosSupervisor(dep.runner, injector,
                                             zk=dep.shell.zk)
                supervisor.run_until_quiescent()
            assert supervisor.restarts == 1
            assert all(task.decision.path == path
                       for task in sql_tasks(handle))
            assert restored_entries(handle.master) > 0
            with injector.suspended():
                dumps[path] = cluster_dump(dep)
                outputs[path] = {repr(sorted(r.items()))
                                 for r in handle.results()}
                table = {repr(sorted(r.items()))
                         for r in table_rows(dep, NESTED_WINDOW_SQL)}
        assert dumps["fused"] == dumps["interpreted"]
        assert len(self.window_changelogs(dumps["fused"])) == 4
        assert outputs["fused"] == table

    def test_nested_group_windows_keep_their_own_meta_record(self):
        """10 s windows counted again in 20 s windows, one partition, one
        order a second for a minute: the inner windows up to 1 040 000
        close, so the outer watermark closes the two outer windows that
        end by then — the table query's rows but its last, still open."""
        sql = ("SELECT STREAM START(ws) AS ws2, COUNT(*) AS c, SUM(n) AS n "
               "FROM (SELECT STREAM START(rowtime) AS ws, COUNT(*) AS n "
               "FROM Orders GROUP BY TUMBLE(rowtime, INTERVAL '10' SECOND)) "
               "GROUP BY TUMBLE(ws, INTERVAL '20' SECOND)")
        dep = Deployment(partitions=1).with_orders(60)
        handle = dep.run(sql)
        assert handle.plan.store_names == ["sql-group-windows",
                                           "sql-group2-windows"]
        closed = [row for row in table_rows(dep, sql)
                  if row["ws2"] + 20_000 <= 1_040_000]
        assert len(closed) == 2
        assert sorted(handle.results(), key=repr) == sorted(closed, key=repr)


class TestJsonSink:
    """A stateless query into a JSON sink does not fuse; the interpreted
    router it runs instead must still emit what the table query returns."""

    @pytest.mark.parametrize("poll_size", ["200", "1"])
    def test_stream_output_equals_table_query(self, poll_size):
        dep = Deployment().with_orders(60)
        handle = dep.run(JSON_SINK_SQL, config_overrides={
            **JSON_SINK, "task.poll.batch.size": poll_size})
        assert all(t.decision.path == "interpreted"
                   for t in sql_tasks(handle))
        # handle.results() decodes with the planned Avro schema; the
        # override made the sink JSON, so read the topic as JSON.
        emitted = [JsonSerde().from_bytes(m.value)
                   for tp in dep.cluster.partitions_for(handle.output_stream)
                   for m in dep.cluster.fetch(
                       tp, dep.cluster.earliest_offset(tp), None)]
        table = dep.shell.execute("SELECT * FROM Orders WHERE units > 50")
        key = lambda r: r["orderId"]
        assert sorted(emitted, key=key) == sorted(table, key=key)
        assert len(table) == sum(1 for i in range(60) if (i * 7) % 100 > 50)


class TestExplainSerdeStatus:
    def test_filter_reports_pruned_and_elided(self):
        dep = Deployment().with_orders(5)
        report = dep.shell.execute(f"EXPLAIN {FILTER_SQL}")
        assert "serde: decode pruned" in report
        assert "encode elided (raw byte splice)" in report

    def test_stateful_chain_reports_not_compiled(self):
        dep = Deployment().with_orders(5)
        report = dep.shell.execute(
            "EXPLAIN SELECT STREAM START(rowtime) AS ws, COUNT(*) AS c "
            "FROM Orders GROUP BY TUMBLE(rowtime, INTERVAL '1' MINUTE)")
        assert ("× interpreted (fallback: stateful operator: "
                "group_window_agg)\n  serde: full decode/encode") in report

    def test_sliding_window_reports_fused(self):
        """The window decodes what its key, order, argument and the filter
        read; every input column splices, only the aggregate is
        re-encoded."""
        dep = Deployment().with_orders(5)
        report = dep.shell.execute(f"EXPLAIN {SLIDING_WINDOW_SQL}")
        assert ("× compiled\n  serde: decode pruned 3/4 columns (skip-scan: "
                "orderId), encode fused (4 spliced, 1 re-encoded)") in report

    @pytest.mark.parametrize("sql", [
        "SELECT STREAM rowtime, orderId FROM Orders WHERE units > 5",
        JOIN_SQL])
    def test_projected_rowtime_has_no_null_fallback(self, sql):
        """The insert's rowtime fallback is a no-op when the projected
        rowtime is the wire timestamp's own column, parenthesised or not:
        the generated function stamps the decoded value, unbranched."""
        dep = Deployment().with_orders(5).with_products()
        source = sql_tasks(dep.run(sql))[0].executor.source
        assert "is None else" not in source
        assert ", f0, None))" in source


class TestExplainMatchesTasks:
    """EXPLAIN prints the decision the tasks execute — default environment
    (metrics on), fig 5a filter and fig 5c join."""

    SQL = JSON_SINK_SQL
    METRICS_OFF = {"metrics.reporter.interval.ms": "0"}
    CASES = {
        "default": ({}, "fused"),
        "metrics-off": (METRICS_OFF, "fused"),
        "json-output": ({**METRICS_OFF, **JSON_SINK}, "interpreted"),
        "metrics-on-json-output": (JSON_SINK, "interpreted"),
        "relation-join": ({}, "fused"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_explain_and_tasks_agree(self, case):
        overrides, path = self.CASES[case]
        sql = JOIN_SQL if case == "relation-join" else self.SQL
        with SamzaSqlEnvironment() as env:
            env.shell.register_stream("Orders", ORDERS_SCHEMA)
            env.shell.register_table("Products", PRODUCTS_SCHEMA,
                                     key_field="productId")
            report = env.shell.execute("EXPLAIN " + sql,
                                       config_overrides=overrides)
            handle = env.shell.execute(sql, config_overrides=overrides)
            tasks = sql_tasks(handle)
            assert len(tasks) == 4
            for task in tasks:
                assert task.decision.path == path
                assert task.decision.sampled is (
                    "metrics.reporter.interval.ms" not in overrides)
                assert task.serde_fused is (path == "fused")
                assert f"tasks: 4 × {task.decision.task_status}\n" in report
                assert report.endswith("  " + task.decision.serde_status)
            if case == "relation-join":
                # the relation's changelog is the join's, decoded
                assert task.raw_input_streams == {"Orders"}
                assert ("serde: decode pruned 2/4 columns (skip-scan: "
                        "orderId, units), encode fused (4 spliced, "
                        "1 re-encoded)") in report
            elif path == "fused":
                assert "serde: decode pruned 2/4 columns" in report
                assert "encode elided (raw byte splice)" in report
            else:
                assert (f"× interpreted (fallback: {JSON_SINK_REASON})"
                        in report)
