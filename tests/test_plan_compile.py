"""Whole-plan compilation: plan analysis, byte equivalence, the one
execution setting, EXPLAIN reporting, and the QueryHandle stopped-query
contract.

The integration suite already drives every end-to-end scenario through
the poll-size × path modes; this module pins the *seams* — which plans
compile and why others don't, that the fused path's rows AND
per-operator counters match the interpreted path's exactly, that every
retired execution key is rejected, and that EXPLAIN reports the per-task
decision the runtime actually makes.
"""

import pytest

from repro.common import VirtualClock
from repro.common.config import Config
from repro.common.errors import ConfigError
from repro.common.execution import RETIRED_KEYS, parallel_execution
from repro.samzasql.compile import chain_fallback
from repro.samzasql.decision import decide_execution
from repro.samzasql.environment import SamzaSqlEnvironment
from repro.samzasql.serde_plan import compile_serde_fused
from repro.serving.errors import ErrorCode, PipelineError
from repro.sql.codegen import compile_lambda, compile_source

from tests.samzasql_fixtures import (
    ORDERS_SCHEMA,
    Deployment,
    reference_arm,
    sql_tasks,
)

FILTER_SQL = ("SELECT STREAM rowtime, productId, orderId, units "
              "FROM Orders WHERE units > 50")
WINDOW_SQL = (
    "SELECT STREAM rowtime, productId, units, "
    "SUM(units) OVER (PARTITION BY productId ORDER BY rowtime "
    "RANGE INTERVAL '5' MINUTE PRECEDING) unitsLastFiveMinutes "
    "FROM Orders")


def operator_counters(handle):
    """{op_id: (processed, emitted)} summed across the handle's tasks."""
    totals = {}
    for task in sql_tasks(handle):
        for op in task.router.operators:
            processed, emitted = totals.get(op.op_id, (0, 0))
            totals[op.op_id] = (processed + op.processed,
                                emitted + op.emitted)
    return totals


def run_modes(sql, count=40, **kwargs):
    """The same query fused and interpreted, over identical input."""
    handles = {}
    for mode in ("fused", "interpreted"):
        dep = Deployment().with_orders(count)
        with reference_arm(mode):
            handles[mode] = dep.run(sql, **kwargs)
    return handles


class TestCompileDecision:
    def test_filter_chain_compiles(self):
        dep = Deployment().with_orders(5)
        handle = dep.run(FILTER_SQL)
        for task in sql_tasks(handle):
            assert task.compiled
            assert task.decision.fallback is None
            assert task.decision.task_status == "compiled"

    def test_projection_chain_compiles(self):
        dep = Deployment().with_orders(5)
        handle = dep.run("SELECT STREAM rowtime, orderId, units * 2 AS twice "
                         "FROM Orders")
        assert all(task.compiled for task in sql_tasks(handle))

    def test_window_falls_back_with_reason(self):
        dep = Deployment().with_orders(5)
        handle = dep.run(WINDOW_SQL)
        for task in sql_tasks(handle):
            assert not task.compiled
            decision = task.decision
            assert decision.path == "interpreted"
            assert decision.fallback == (
                "stateful operator: sliding_window")
            assert decision.task_status == (
                "interpreted (fallback: stateful operator: sliding_window)")

    def test_join_falls_back_with_reason(self):
        dep = Deployment().with_orders(5).with_products()
        handle = dep.run(
            "SELECT STREAM o.rowtime, o.orderId, p.name "
            "FROM Orders o JOIN Products p ON o.productId = p.productId")
        for task in sql_tasks(handle):
            assert not task.compiled
            assert "join operator" in task.decision.fallback

    def test_udf_falls_back_with_reason(self):
        from repro.sql.udf import UDF_REGISTRY, register_scalar_udf

        UDF_REGISTRY.clear()
        register_scalar_udf("PLAN_COMPILE_T", lambda x: x)
        try:
            dep = Deployment().with_orders(5)
            handle = dep.run("SELECT STREAM orderId, "
                             "PLAN_COMPILE_T(units) AS u FROM Orders")
            for task in sql_tasks(handle):
                assert not task.compiled
                assert "UDF" in task.decision.fallback
        finally:
            UDF_REGISTRY.clear()

    def test_analyze_plan_on_built_physical_plan(self):
        dep = Deployment().with_orders(1)
        decisions = {}
        for sql in (FILTER_SQL, WINDOW_SQL):
            handle = dep.shell.execute(sql)
            decisions[sql] = chain_fallback(handle.plan)
            handle.stop()
        assert decisions[FILTER_SQL] is None
        assert decisions[WINDOW_SQL] == "stateful operator: sliding_window"


class TestByteEquivalence:
    def test_filter_rows_and_counters_identical(self):
        handles = run_modes(FILTER_SQL)
        rows = {mode: sorted((r["orderId"], r["units"])
                             for r in handle.results())
                for mode, handle in handles.items()}
        assert rows["fused"] == rows["interpreted"]
        assert len(rows["fused"]) == sum(
            1 for i in range(40) if (i * 7) % 100 > 50)
        # metric parity: every operator's processed/emitted counts match,
        # so snapshots are indistinguishable between the two paths
        counters = {mode: operator_counters(handle)
                    for mode, handle in handles.items()}
        assert counters["fused"] == counters["interpreted"]
        assert any(op.startswith("filter") for op in counters["fused"])

    def test_projection_rows_identical(self):
        handles = run_modes("SELECT STREAM rowtime, orderId, "
                            "units * units + 1 AS poly FROM Orders")
        rows = {mode: sorted((r["orderId"], r["poly"])
                             for r in handle.results())
                for mode, handle in handles.items()}
        assert rows["fused"] == rows["interpreted"]
        assert rows["fused"][3] == (3, ((3 * 7) % 100) ** 2 + 1)

    def test_multi_filter_staged_counters_identical(self):
        # two filter stages: the fused function's per-stage survivor
        # counts must still match the interpreted chain's emitted counts
        sql = ("SELECT STREAM orderId, units FROM "
               "(SELECT STREAM orderId, units FROM Orders WHERE units > 20) "
               "WHERE units < 80")
        handles = run_modes(sql)
        rows = {mode: sorted(r["orderId"] for r in handle.results())
                for mode, handle in handles.items()}
        assert rows["fused"] == rows["interpreted"]
        counters = {mode: operator_counters(handle)
                    for mode, handle in handles.items()}
        assert counters["fused"] == counters["interpreted"]

    def test_generated_source_is_one_function(self):
        dep = Deployment().with_orders(5)
        handle = dep.run(FILTER_SQL)
        task = sql_tasks(handle)[0]
        source = task.executor.source
        assert source.count("def ") == 1
        assert "process_batch" not in source
        # and it is the same source the shell's own plan compiles to —
        # the task rebuilt it from the plan JSON the shell wrote to ZK
        [container] = handle.master.samza_containers.values()
        decision = decide_execution(handle.plan, container.config,
                                    container.serdes)
        assert compile_serde_fused(decision.serde).source == source


class TestCodeCache:
    """Generated source is compiled once per process and text, then
    exec'd into each task's own namespace."""

    def test_tasks_share_code_not_functions(self):
        compile_source.cache_clear()
        dep = Deployment().with_orders(5)
        handle = dep.run(FILTER_SQL)
        assert len(sql_tasks(handle)) == 4
        info = compile_source.cache_info()
        # one compile per distinct source; the other three tasks only hit
        assert info.misses == info.currsize
        assert info.hits >= 3
        analysis = sql_tasks(handle)[0].decision.serde
        first = compile_serde_fused(analysis).fn
        second = compile_serde_fused(analysis).fn
        assert first is not second
        assert first.__globals__ is not second.__globals__
        assert first.__code__ is second.__code__
        # the tasks already compiled that source: both builds were hits
        assert compile_source.cache_info().misses == info.misses

    def test_different_predicates_never_share_code(self):
        low, high = compile_lambda("r[0] > 1"), compile_lambda("r[0] > 2")
        assert low.__code__ is not high.__code__
        assert (low([2]), high([2])) == (True, False)

    def test_cache_is_bounded(self):
        maxsize = compile_source.cache_info().maxsize
        for i in range(maxsize + 10):
            compile_lambda(f"r[0] + {i}")
        assert compile_source.cache_info().currsize <= maxsize

    def test_empty_batch_records_no_sample(self):
        with SamzaSqlEnvironment() as env:
            env.shell.register_stream("Orders", ORDERS_SCHEMA)
            handle = env.shell.execute(FILTER_SQL)
            for task in sql_tasks(handle):
                task.executor.run([], [])  # and no ZeroDivisionError
            counts = [r["value"] for r in handle.snapshots()
                      if r["metric"] == "process-ns.count"]
            assert counts and not any(counts)


#: Every retired execution key, old spellings and new.
RETIRED_SPELLINGS = sorted(RETIRED_KEYS) + [
    "execution.write.behind", "execution.compile", "execution.serde.fusion",
    "execution.multiway.join", "execution.batch", "execution.parallel"]


class TestExecutionConfigMapping:
    def test_defaults(self):
        assert parallel_execution(Config({})) is False
        assert parallel_execution(None) is False
        assert parallel_execution(
            {"cluster.parallel.execution": "true"}) is True

    @pytest.mark.parametrize("retired", RETIRED_SPELLINGS)
    def test_retired_spelling_raises(self, retired):
        # a silently ignored ablation key would pass tests vacuously: the
        # function, a statement, EXPLAIN and the environment all refuse it
        with pytest.raises(ConfigError, match=retired):
            parallel_execution(Config({retired: "false"}))
        dep = Deployment().with_orders(1)
        for sql in (FILTER_SQL, f"EXPLAIN {FILTER_SQL}"):
            with pytest.raises(ConfigError, match=retired):
                dep.shell.execute(sql, config_overrides={retired: "false"})
        with pytest.raises(ConfigError, match=retired):
            SamzaSqlEnvironment(config={retired: "true"})

    def test_parallel_with_virtual_clock_rejected(self):
        config = {"cluster.parallel.execution": "true"}
        with pytest.raises(ConfigError, match="VirtualClock"):
            parallel_execution(config, VirtualClock(0))
        assert parallel_execution(config, None) is True


class TestExplain:
    def test_streaming_filter_reports_compiled(self):
        dep = Deployment().with_orders(5)
        report = dep.shell.execute(f"EXPLAIN {FILTER_SQL}")
        assert isinstance(report, str)
        assert "logical plan:" in report
        assert "physical plan:" in report
        assert "execution:" not in report  # no switches left to list
        assert "tasks: 4 × compiled" in report  # one per Orders partition
        assert "serde: decode pruned 2/4 columns" in report

    def test_window_reports_fallback_reason(self):
        dep = Deployment().with_orders(5)
        report = dep.shell.execute(f"EXPLAIN {WINDOW_SQL}")
        assert ("interpreted (fallback: stateful operator: sliding_window)"
                in report)

    STATEFUL = {
        "window": WINDOW_SQL,
        "relation-join": (
            "SELECT STREAM Orders.rowtime, Orders.orderId, Products.supplierId "
            "FROM Orders JOIN Products ON Orders.productId = Products.productId"),
        "group-window": (
            "SELECT STREAM START(rowtime) AS ws, COUNT(*) AS c FROM Orders "
            "GROUP BY TUMBLE(rowtime, INTERVAL '1' MINUTE)"),
    }

    @pytest.mark.parametrize("query", sorted(STATEFUL))
    def test_store_lines_name_the_serdes_containers_resolve(self, query):
        """One line per store: the key codec, the value layout or
        ``object`` with the reason — the names the job config gives the
        store, which the containers resolve to the codecs they run."""
        from repro.serde import ObjectSerde
        from repro.serde.state_codecs import (
            OrderedKeySerde,
            PositionalValueSerde,
        )

        dep = Deployment().with_orders(5).with_products(3)
        report = dep.shell.execute("EXPLAIN " + self.STATEFUL[query])
        handle = dep.run(self.STATEFUL[query])
        store_lines = [line for line in report.splitlines()
                       if line.startswith("store ")]
        assert len(store_lines) == len(handle.plan.stores)
        for container in handle.master.samza_containers.values():
            for store, layout in handle.plan.stores.items():
                key_name = container.config.get(f"stores.{store}.key.serde")
                msg_name = container.config.get(f"stores.{store}.msg.serde")
                assert (f"store {store}: key.serde={key_name}, "
                        f"msg.serde={msg_name}") in store_lines[
                            list(handle.plan.stores).index(store)]
                assert isinstance(container.serdes.get(key_name),
                                  OrderedKeySerde)
                msg_serde = container.serdes.get(msg_name)
                if layout.fallback is None:
                    assert isinstance(msg_serde, PositionalValueSerde)
                else:
                    assert isinstance(msg_serde, ObjectSerde)
                    assert f"(fallback: {layout.fallback})" in report
        if query == "window":
            assert ("store sql-window-messages: key.serde=ordered:(int, int), "
                    "msg.serde=row(rowtime TIMESTAMP, units INTEGER)"
                    in store_lines)

    def test_batch_query_reports_no_job(self):
        dep = Deployment().with_orders(5)
        report = dep.shell.execute(
            "EXPLAIN SELECT productId, SUM(units) AS total FROM Orders "
            "GROUP BY productId")
        assert "batch query over retained history (no job submitted)" in report
        assert "physical plan:" not in report

    def test_explain_submits_nothing(self):
        dep = Deployment().with_orders(5)
        dep.shell.execute(f"EXPLAIN {FILTER_SQL}")
        assert dep.shell._masters == []  # no job was submitted

    def test_explain_through_front_door_applies_policy(self):
        from repro.samzasql.environment import SamzaSqlEnvironment
        from repro.serving import TenantPolicy

        from tests.samzasql_fixtures import ORDERS_SCHEMA

        env = SamzaSqlEnvironment(metrics_interval_ms=0)
        try:
            env.shell.register_stream("Orders", ORDERS_SCHEMA)
            door = env.front_door()
            door.register_tenant("analyst", TenantPolicy(
                tenant="analyst", allowed_tables=frozenset({"default.*"}),
                read_only=True))
            session = door.connect("analyst")
            report = door.execute(session, f"EXPLAIN {FILTER_SQL}")
            assert "tasks:" in report
            # EXPLAIN is validated like the statement it wraps: explaining
            # a write a read-only tenant could not run is denied too
            with pytest.raises(PipelineError) as excinfo:
                door.execute(
                    session,
                    f"EXPLAIN INSERT INTO Elsewhere {FILTER_SQL}")
            assert excinfo.value.code is ErrorCode.READ_ONLY_VIOLATION
        finally:
            env.close()


class TestStoppedQueryHandle:
    def test_iter_results_and_snapshots_raise_after_stop(self):
        dep = Deployment().with_orders(5)
        handle = dep.run(FILTER_SQL)
        handle.stop()
        for method in (handle.iter_results, handle.snapshots):
            with pytest.raises(PipelineError) as excinfo:
                method()
            assert excinfo.value.code is ErrorCode.QUERY_STOPPED
            assert excinfo.value.details["query_id"] == handle.query_id
        # results() still reads the surviving output topic
        assert len(handle.results()) == sum(
            1 for i in range(5) if (i * 7) % 100 > 50)

    def test_raising_stop_listener_does_not_mask_stop(self):
        dep = Deployment().with_orders(5)
        handle = dep.run(FILTER_SQL)
        fired = []
        handle.add_stop_listener(lambda h: fired.append("a"))

        def boom(h):
            fired.append("boom")
            raise RuntimeError("listener exploded")

        handle.add_stop_listener(boom)
        handle.add_stop_listener(lambda h: fired.append("b"))
        with pytest.raises(RuntimeError, match="listener exploded"):
            handle.stop()
        # the stop itself took effect and every listener fired
        assert handle.stopped
        assert fired == ["a", "boom", "b"]
        # idempotent: a second stop neither raises nor re-fires listeners
        handle.stop()
        assert fired == ["a", "boom", "b"]
