"""Serde fusion: column-pruned decode, re-encode elision, fused chains.

The contract under test is strict observational equivalence: on the
fused path (what the plan gets by default) every byte the job writes —
output records, their keys, offsets, timestamps, and checkpoint topics —
must be identical to the full decode/re-encode paths, compiled and
interpreted, at every poll size and across crash/replay.  The reference
arms are selected by ``reference_arm``; the runtime has no switch.
"""

import pytest

from repro.chaos import FaultInjector, FaultSchedule
from repro.chaos.supervisor import ChaosSupervisor
from repro.metrics import METRICS_STREAM
from repro.samzasql.environment import SamzaSqlEnvironment
from repro.serde import AvroSerde

from tests.samzasql_fixtures import (
    ORDERS_SCHEMA,
    Deployment,
    reference_arm,
    sql_tasks,
)

FILTER_SQL = ("SELECT STREAM rowtime, productId, orderId, units "
              "FROM Orders WHERE units > 50")
PROJECT_SQL = "SELECT STREAM orderId, units FROM Orders WHERE units > 50"
SLIDING_WINDOW_SQL = (
    "SELECT STREAM rowtime, productId, orderId, units, "
    "SUM(units) OVER (PARTITION BY productId ORDER BY rowtime "
    "RANGE INTERVAL '5' MINUTE PRECEDING) unitsLastFiveMinutes "
    "FROM Orders WHERE units > 10"
)


def enable_metrics(dep):
    """Give the fixture's hand-built shell a default environment's
    reporter (``SamzaSqlEnvironment()``: on, 1 s interval)."""
    dep.shell.metrics_interval_ms = 1_000
    dep.shell.enable_metrics_stream()


def chaos_sql_deployment(schedule, orders=80, partitions=2, metrics=False):
    dep = Deployment(partitions=partitions)
    if metrics:
        enable_metrics(dep)
    dep.with_orders(count=orders)
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
        _dep, handle = run_filter("compiled")
        assert all(t.compiled and not t.serde_fused
                   for t in sql_tasks(handle))

    def test_batches_of_one_still_fuse(self):
        _dep, handle = run_filter(poll_size="1")
        assert all(t.serde_fused for t in sql_tasks(handle))

    def test_interpreted_chain_never_fuses(self):
        _dep, handle = run_filter("interpreted")
        assert all(not t.compiled and not t.serde_fused
                   for t in sql_tasks(handle))


class TestByteEquivalence:
    """The fused path must leave the whole cluster byte-identical to
    each reference path."""

    @pytest.mark.parametrize("poll_size,reference",
                             [("200", "compiled"), ("200", "interpreted"),
                              ("1", "compiled"), ("1", "interpreted")],
                             ids=["batched-compiled", "batched-interpreted",
                                  "single-compiled", "single-interpreted"])
    def test_filter_all_modes(self, poll_size, reference):
        dep_off, handle_off = run_filter(reference, poll_size)
        dep_on, handle_on = run_filter("fused", poll_size)
        assert cluster_dump(dep_off) == cluster_dump(dep_on)
        # equivalence must hold *because* both paths actually ran
        assert all(t.serde_fused for t in sql_tasks(handle_on))
        assert all(t.decision.path == reference
                   for t in sql_tasks(handle_off))

    @pytest.mark.parametrize("poll_size", ["200", "1"])
    def test_filter_with_metrics_on(self, poll_size):
        """Reporting on (what a default environment runs) changes neither
        the path nor a byte outside ``__metrics``."""
        dep_off, _ = run_filter("compiled", poll_size, metrics=True)
        dep_on, handle_on = run_filter("fused", poll_size, metrics=True)
        assert cluster_dump(dep_off) == cluster_dump(dep_on)
        assert cluster_dump(dep_on) == cluster_dump(
            run_filter("fused", poll_size)[0])
        for task in sql_tasks(handle_on):
            assert task.decision.sampled and task.serde_fused
        assert any(r["metric"] == "process-ns.count" and r["value"] > 0
                   for r in handle_on.snapshots())

    def test_project_query(self):
        dep_off, _ = run_filter("compiled", sql=PROJECT_SQL)
        dep_on, _ = run_filter("fused", sql=PROJECT_SQL)
        assert cluster_dump(dep_off) == cluster_dump(dep_on)

    def test_results_match_decoded(self):
        _dep, handle_on = run_filter("fused")
        _dep2, handle_off = run_filter("compiled")
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
        for mode, path in (("fused", "fused"), ("decoded", "compiled")):
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


class TestExplainSerdeStatus:
    def test_filter_reports_pruned_and_elided(self):
        dep = Deployment().with_orders(5)
        report = dep.shell.execute(f"EXPLAIN {FILTER_SQL}")
        assert "serde: decode pruned" in report
        assert "encode elided (raw byte splice)" in report

    def test_stateful_chain_reports_not_compiled(self):
        dep = Deployment().with_orders(5)
        report = dep.shell.execute(f"EXPLAIN {SLIDING_WINDOW_SQL}")
        assert "serde: full decode/encode (fallback: chain not compiled" \
            in report


class TestExplainMatchesTasks:
    """EXPLAIN prints the decision the tasks execute — default environment
    (metrics on), fig 5a filter."""

    SQL = "INSERT INTO Big SELECT STREAM * FROM Orders WHERE units > 50"
    METRICS_OFF = {"metrics.reporter.interval.ms": "0"}
    JSON_OUTPUT = {"systems.kafka.streams.Big.samza.msg.serde": "json"}
    CASES = {
        "default": ({}, "fused"),
        "metrics-off": (METRICS_OFF, "fused"),
        "json-output": ({**METRICS_OFF, **JSON_OUTPUT}, "compiled"),
        "metrics-on-json-output": (JSON_OUTPUT, "compiled"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_explain_and_tasks_agree(self, case):
        overrides, path = self.CASES[case]
        with SamzaSqlEnvironment() as env:
            env.shell.register_stream("Orders", ORDERS_SCHEMA)
            report = env.shell.execute("EXPLAIN " + self.SQL,
                                       config_overrides=overrides)
            handle = env.shell.execute(self.SQL, config_overrides=overrides)
            tasks = sql_tasks(handle)
            assert len(tasks) == 4
            for task in tasks:
                assert task.decision.path == path
                assert task.decision.sampled is (
                    "metrics.reporter.interval.ms" not in overrides)
                assert task.serde_fused is (path == "fused")
                assert f"tasks: 4 × {task.decision.task_status}\n" in report
                assert report.endswith("  " + task.decision.serde_status)
            if path == "fused":
                assert "serde: decode pruned 2/4 columns" in report
                assert "encode elided (raw byte splice)" in report
            elif "json" in case:
                assert ("(fallback: input/output streams are not Avro with "
                        "string keys)" in report)
