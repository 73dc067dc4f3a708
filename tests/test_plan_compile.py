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
from repro.samzasql.decision import JobProgram
from repro.samzasql.environment import SamzaSqlEnvironment
from repro.serving.errors import ErrorCode, PipelineError
from repro.sql.codegen import compile_lambda, compile_source
from repro.zk.client import ZkClient

from tests.samzasql_fixtures import (
    ORDERS_SCHEMA,
    Deployment,
    operator_counters,
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
GROUP_WINDOW_SQL = (
    "SELECT STREAM START(rowtime) AS ws, COUNT(*) AS c FROM Orders "
    "GROUP BY TUMBLE(rowtime, INTERVAL '1' MINUTE)")
GROUP_WINDOW_REASON = "stateful operator: group_window_agg"


def shell_program(handle, container):
    """The program ``EXPLAIN`` builds for the handle's plan: from the plan
    JSON as the shell writes it, under the container's job config."""
    return JobProgram.build(ZkClient.encode_json(handle.plan.to_dict()),
                            container.config, container.serdes)


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
            assert task.serde_fused
            assert task.decision.fallback is None
            assert task.decision.task_status == "compiled"

    def test_projection_chain_compiles(self):
        dep = Deployment().with_orders(5)
        handle = dep.run("SELECT STREAM rowtime, orderId, units * 2 AS twice "
                         "FROM Orders")
        assert all(task.serde_fused for task in sql_tasks(handle))

    def test_window_falls_back_with_reason(self):
        """The sliding window is a stage of the fused chain; the group
        window still runs interpreted, and says why."""
        dep = Deployment().with_orders(5)
        for task in sql_tasks(dep.run(WINDOW_SQL)):
            assert task.serde_fused and task.decision.fallback is None
        handle = dep.run(GROUP_WINDOW_SQL)
        for task in sql_tasks(handle):
            assert not task.serde_fused
            decision = task.decision
            assert decision.path == "interpreted"
            assert decision.fallback == GROUP_WINDOW_REASON
            assert decision.task_status == (
                f"interpreted (fallback: {GROUP_WINDOW_REASON})")

    def test_window_fallback_reasons(self):
        """A window whose key, order or argument calls a UDF, or whose
        aggregate is a UDAF, stays interpreted with its reason; a second
        window in the chain owns its own stores and fuses."""
        from repro.sql.udf import UDF_REGISTRY, register_scalar_udf

        UDF_REGISTRY.clear()
        register_scalar_udf("PLAN_COMPILE_W", lambda x: x)
        udf = "expression calls a UDF (resolved via live registry)"
        over = ("OVER (PARTITION BY {key} ORDER BY {order} "
                "ROWS 2 PRECEDING) w FROM Orders")
        cases = {
            "key": ("SUM(units)", "PLAN_COMPILE_W(productId)", "rowtime"),
            "order": ("SUM(units)", "productId", "PLAN_COMPILE_W(rowtime)"),
            "argument": ("SUM(PLAN_COMPILE_W(units))", "productId",
                         "rowtime"),
        }
        try:
            dep = Deployment().with_orders(5)
            for agg, key, order in cases.values():
                sql = (f"SELECT STREAM rowtime, units, {agg} "
                       + over.format(key=key, order=order))
                assert chain_fallback(dep.shell.execute(sql).plan) == udf
            nested = ("SELECT STREAM rowtime, productId, SUM(w) OVER "
                      "(PARTITION BY productId ORDER BY rowtime ROWS 2 "
                      "PRECEDING) v FROM (SELECT STREAM rowtime, productId, "
                      "units, SUM(units) "
                      + over.format(key="productId", order="rowtime") + ")")
            assert chain_fallback(dep.shell.execute(nested).plan) is None
        finally:
            UDF_REGISTRY.clear()

    def test_join_falls_back_with_reason(self):
        """A relation join on the relation's key is a stage of the fused
        chain; one not on the key scans the whole store per message and
        runs interpreted — the tasks and EXPLAIN say so alike.  (It sees
        one partition of the relation per task, so it runs on one.)"""
        dep = Deployment().with_orders(5).with_products()
        equi = ("SELECT STREAM o.rowtime, o.orderId, p.name "
                "FROM Orders o JOIN Products p ON o.productId = p.productId")
        report = dep.shell.execute(f"EXPLAIN {equi}")
        assert "tasks: 4 × compiled\n  serde: decode pruned" in report
        for task in sql_tasks(dep.run(equi)):
            assert task.serde_fused and task.decision.fallback is None

        dep = Deployment(partitions=1).with_orders(5).with_products()
        theta = ("SELECT STREAM o.orderId, p.name FROM Orders o "
                 "JOIN Products p ON o.units > p.supplierId")
        reason = "relation join not on the relation's key"
        report = dep.shell.execute(f"EXPLAIN {theta}")
        assert f"tasks: 1 × interpreted (fallback: {reason})" in report
        for task in sql_tasks(dep.run(theta)):
            assert not task.serde_fused
            assert task.decision.fallback == reason

    def test_udf_falls_back_with_reason(self):
        from repro.sql.udf import UDF_REGISTRY, register_scalar_udf

        UDF_REGISTRY.clear()
        register_scalar_udf("PLAN_COMPILE_T", lambda x: x)
        try:
            dep = Deployment().with_orders(5)
            handle = dep.run("SELECT STREAM orderId, "
                             "PLAN_COMPILE_T(units) AS u FROM Orders")
            for task in sql_tasks(handle):
                assert not task.serde_fused
                assert "UDF" in task.decision.fallback
        finally:
            UDF_REGISTRY.clear()

    def test_analyze_plan_on_built_physical_plan(self):
        dep = Deployment().with_orders(1)
        decisions = {}
        for sql in (FILTER_SQL, WINDOW_SQL, GROUP_WINDOW_SQL):
            handle = dep.shell.execute(sql)
            decisions[sql] = chain_fallback(handle.plan)
            handle.stop()
        assert decisions[FILTER_SQL] is None
        assert decisions[WINDOW_SQL] is None
        assert decisions[GROUP_WINDOW_SQL] == GROUP_WINDOW_REASON


class TestStringLiteralsDoNotDecideThePath:
    """The UDF check walks the plan's expression trees for UDF calls: a
    string literal that spells the generated helper's name is data, and
    the query still fuses and returns the table query's rows."""

    UDF_REASON = "expression calls a UDF (resolved via live registry)"
    CASES = {
        "projected": "SELECT STREAM rowtime, orderId, '_udf_call(' AS tag "
                     "FROM Orders",
        "compared": "SELECT STREAM rowtime, orderId FROM Orders "
                    "WHERE CAST(units AS VARCHAR) <> '_udf_call('",
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_literal_naming_the_udf_helper_fuses(self, case):
        sql = self.CASES[case]
        dep = Deployment().with_orders(20)
        assert "tasks: 4 × compiled\n" in dep.shell.execute(f"EXPLAIN {sql}")
        handle = dep.run(sql)
        assert all(task.decision.path == "fused" for task in sql_tasks(handle))
        table = dep.shell.execute(sql.replace("SELECT STREAM", "SELECT"))
        assert len(table) == 20
        assert sorted(handle.results(), key=repr) == sorted(table, key=repr)

    def test_scalar_udf_still_falls_back(self):
        from repro.sql.udf import UDF_REGISTRY, register_scalar_udf

        UDF_REGISTRY.clear()
        register_scalar_udf("PLAN_COMPILE_L", lambda x: x)
        try:
            dep = Deployment().with_orders(5)
            sql = ("SELECT STREAM rowtime, orderId FROM Orders "
                   "WHERE PLAN_COMPILE_L(units) > 10")
            assert (f"× interpreted (fallback: {self.UDF_REASON})"
                    in dep.shell.execute(f"EXPLAIN {sql}"))
            for task in sql_tasks(dep.run(sql)):
                assert task.decision.fallback == self.UDF_REASON
        finally:
            UDF_REGISTRY.clear()


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
        # and it is the program the shell builds from its own plan: the
        # task bound its container's, built from the JSON the shell wrote
        [container] = handle.master.samza_containers.values()
        assert shell_program(handle, container).source == source


class TestReferenceArm:
    def test_interpreted_arm_after_a_fused_run_in_one_process(self):
        """Programs are per container start, never memoized across jobs:
        a job with the same plan bytes as an earlier fused one still runs
        interpreted under the reference arm — and its EXPLAIN says so."""
        fused = Deployment().with_orders(5).run(WINDOW_SQL)
        assert {task.decision.path for task in sql_tasks(fused)} == {"fused"}
        dep = Deployment().with_orders(5)
        with reference_arm("interpreted"):
            handle = dep.run(WINDOW_SQL)
            report = dep.shell.execute(f"EXPLAIN {WINDOW_SQL}")
        plans = [ZkClient.encode_json(h.plan.to_dict())
                 for h in (fused, handle)]
        assert plans[0] == plans[1]
        tasks = sql_tasks(handle)
        assert len(tasks) == 4
        assert {task.decision.path for task in tasks} == {"interpreted"}
        assert all(task.executor is None for task in tasks)
        assert "tasks: 4 × interpreted (fallback: reference arm" in report


class TestCodeCache:
    """Generated source is rendered and compiled once per container start
    (and code is memoized per process and text), then exec'd into each
    task's own namespace."""

    def test_tasks_share_code_not_functions(self):
        compile_source.cache_clear()
        dep = Deployment().with_orders(5)
        handle = dep.run(FILTER_SQL)
        tasks = sql_tasks(handle)
        assert len(tasks) == 4
        info = compile_source.cache_info()
        # one compile per distinct source
        assert info.misses == info.currsize
        # one program for the container's four tasks: one code object,
        # and four functions, each over its own globals
        program = tasks[0].program
        assert all(task.program is program for task in tasks)
        functions = [task.executor._fn for task in tasks]
        code = functions[0].__code__
        assert any(const is code for const in program.code.co_consts)
        assert all(fn.__code__ is code for fn in functions)
        assert len({id(fn) for fn in functions}) == 4
        assert len({id(fn.__globals__) for fn in functions}) == 4
        # a rebuild (EXPLAIN's, or the next container start's) compiles
        # nothing: the container already compiled that source
        [container] = handle.master.samza_containers.values()
        assert shell_program(handle, container).code is program.code
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
        report = dep.shell.execute(f"EXPLAIN {GROUP_WINDOW_SQL}")
        assert f"interpreted (fallback: {GROUP_WINDOW_REASON})" in report
        report = dep.shell.execute(f"EXPLAIN {WINDOW_SQL}")
        assert "tasks: 4 × compiled\n  serde: decode pruned 3/4" in report

    STATEFUL = {
        "window": WINDOW_SQL,
        "relation-join": (
            "SELECT STREAM Orders.rowtime, Orders.orderId, Products.supplierId "
            "FROM Orders JOIN Products ON Orders.productId = Products.productId"),
        "group-window": GROUP_WINDOW_SQL,
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
