"""Crash/restart round-trips under the chaos subsystem.

These tests exercise the full recovery path — a scheduled container crash
escapes the run loop without committing, the supervisor fails the YARN
container, the application master re-requests one, and the replacement
restores store state from the changelog and resumes input from the last
checkpoint — for both a stateless filter and stateful windowed
aggregation, at the raw-Samza and SQL layers.
"""

import json

import pytest

from repro.chaos import FaultInjector, FaultSchedule
from repro.chaos.supervisor import ChaosSupervisor
from repro.chaos.validate import main as validate_main
from repro.chaos.validate import restored_entries, run_scenario
from repro.samza import SamzaJob
from repro.samza.container import SamzaContainer
from repro.serde import AvroSerde

from tests.helpers import (
    ORDERS_SCHEMA,
    CountingTask,
    FilterTask,
    base_config,
    make_runtime,
    orders_serdes,
    produce_orders,
    read_topic,
)
from tests.samzasql_fixtures import Deployment, reference_arm


def chaos_runtime(schedule, order_count, partitions=2, broker_count=3):
    """A helpers.make_runtime() with the injector armed after the feed."""
    cluster, rm, runner, clock = make_runtime(broker_count=broker_count)
    written = produce_orders(cluster, order_count, partitions=partitions)
    injector = FaultInjector(schedule, clock=clock)
    cluster.install_fault_injector(injector)
    runner.fault_injector = injector
    return cluster, runner, injector, written


class TestFilterJobRecovery:
    def test_scripted_crash_replays_from_checkpoint(self):
        schedule = FaultSchedule.script().add_crash(30)
        cluster, runner, injector, written = chaos_runtime(schedule, 80)
        job = SamzaJob(
            config=base_config(containers=2).merge(
                {"task.checkpoint.interval.messages": 10}),
            task_factory=lambda: FilterTask(threshold=50),
            serdes=orders_serdes(),
        )
        master = runner.submit(job)
        supervisor = ChaosSupervisor(runner, injector)
        supervisor.run_until_quiescent()

        assert supervisor.restarts == 1
        assert master.container_restarts == 1
        out = read_topic(cluster, "OrdersOut", AvroSerde(ORDERS_SCHEMA))
        expected = {r["orderId"] for r in written if r["units"] > 50}
        # at-least-once: nothing lost; replay may duplicate
        assert {o["orderId"] for o in out} == expected
        assert len(out) >= len(expected)

    def test_crash_plus_transient_faults(self):
        schedule = (FaultSchedule.script()
                    .add_crash(25)
                    .add_fetch_fault(4, 9, 15)
                    .add_produce_fault(3, 7)
                    .add_latency(6, 20))
        cluster, runner, injector, written = chaos_runtime(schedule, 60)
        job = SamzaJob(
            config=base_config(containers=2).merge(
                {"task.checkpoint.interval.messages": 8}),
            task_factory=lambda: FilterTask(threshold=50),
            serdes=orders_serdes(),
        )
        runner.submit(job)
        supervisor = ChaosSupervisor(runner, injector)
        supervisor.run_until_quiescent()

        assert injector.transient_fault_count() == 5
        out = read_topic(cluster, "OrdersOut", AvroSerde(ORDERS_SCHEMA))
        expected = {r["orderId"] for r in written if r["units"] > 50}
        assert {o["orderId"] for o in out} == expected


class TestStatefulJobRecovery:
    def test_changelog_restores_counts_after_crash(self):
        schedule = FaultSchedule.script().add_crash(40)
        cluster, runner, injector, _ = chaos_runtime(schedule, 100)
        config = base_config(containers=2).merge({
            "stores.counts.changelog": "kafka.test-job-counts-changelog",
            "stores.counts.key.serde": "string",
            "stores.counts.msg.serde": "json",
            "task.checkpoint.interval.messages": 10,
            "task.poll.batch.size": 20,
        })
        job = SamzaJob(config=config, task_factory=CountingTask,
                       serdes=orders_serdes())
        master = runner.submit(job)
        supervisor = ChaosSupervisor(runner, injector)
        supervisor.run_until_quiescent()

        assert supervisor.restarts == 1
        totals = {}
        for container in master.samza_containers.values():
            for task in container.tasks.values():
                for key, value in task.stores["counts"].all():
                    totals[key] = totals.get(key, 0) + value
        # every message counted at least once; replay slack is bounded by
        # the crashed container's uncommitted window (one poll batch plus
        # one checkpoint interval)
        assert sum(totals.values()) >= 100
        assert sum(totals.values()) <= 100 + 20 + 10


class TestCheckpointReset:
    def test_evicted_offsets_fall_back_to_earliest(self):
        """A checkpoint pointing below the log's earliest offset (retention
        ran while the job was down) must clamp forward, count a
        ``checkpoint.reset``, and let the job keep running."""
        cluster, rm, runner, clock = make_runtime()
        produce_orders(cluster, 40, partitions=2)
        job = SamzaJob(
            config=base_config(containers=1).merge({
                "task.checkpoint.interval.messages": 5,
                "task.poll.batch.size": 10,
            }),
            task_factory=lambda: FilterTask(threshold=50),
            serdes=orders_serdes(),
        )
        master = runner.submit(job)
        # consume (and checkpoint) only part of the log
        for _ in range(2):
            runner.run_iteration()
        # simulate retention evicting the whole log past the checkpoint
        for tp in cluster.partitions_for("Orders"):
            cluster.topic("Orders").partition(tp.partition).truncate_before(
                cluster.latest_offset(tp))
        runner.kill_container(master, index=0)

        [replacement] = master.samza_containers.values()
        assert replacement.checkpoint_reset_count >= 1
        # the job continues from the new earliest offset
        produce_orders(cluster, 20, partitions=2)
        runner.run_until_quiescent()
        assert replacement.total_lag() == 0


SLIDING_WINDOW_SQL = (
    "SELECT STREAM rowtime, productId, orderId, units, "
    "SUM(units) OVER (PARTITION BY productId ORDER BY rowtime "
    "RANGE INTERVAL '5' MINUTE PRECEDING) unitsLastFiveMinutes "
    "FROM Orders WHERE units > 10"
)
FILTER_SQL = "SELECT STREAM rowtime, productId, orderId, units FROM Orders WHERE units > 50"


def chaos_sql_deployment(schedule, orders=80, partitions=2):
    dep = Deployment(partitions=partitions)
    dep.with_orders(count=orders)
    injector = FaultInjector(schedule, clock=dep.clock)
    dep.cluster.install_fault_injector(injector)
    dep.runner.fault_injector = injector
    return dep, injector


class TestSqlQueryRecovery:
    def test_filter_query_survives_crash(self):
        schedule = FaultSchedule.script().add_crash(30).add_fetch_fault(5, 11)
        dep, injector = chaos_sql_deployment(schedule)
        handle = dep.shell.execute(FILTER_SQL, containers=2, config_overrides={
            "task.checkpoint.interval.messages": 10,
            "task.poll.batch.size": 8,
        })
        supervisor = ChaosSupervisor(dep.runner, injector, zk=dep.shell.zk)
        supervisor.run_until_quiescent()
        with injector.suspended():
            rows = handle.results()
        expected = {i for i in range(80) if (i * 7) % 100 > 50}
        assert {r["orderId"] for r in rows} == expected

    def test_compiled_filter_crash_mid_batch_matches_interpreted(self):
        """A crash landing *inside* a poll batch while the task runs the
        compiled (fused) whole-plan function must recover exactly like the
        interpreted chain: the uncommitted suffix replays through the
        freshly recompiled plan on the replacement container, and the
        surviving output set is identical either way."""
        outputs = {}
        for mode in ("fused", "interpreted"):
            # crash at message 25 with batch 8 / checkpoint 10: mid-batch
            # and mid-checkpoint-interval, so a suffix is always replayed
            schedule = FaultSchedule.script().add_crash(25)
            dep, injector = chaos_sql_deployment(schedule)
            with reference_arm(mode):  # held across the relaunch
                handle = dep.shell.execute(
                    FILTER_SQL, containers=2, config_overrides={
                        "task.checkpoint.interval.messages": 10,
                        "task.poll.batch.size": 8,
                    })
                supervisor = ChaosSupervisor(dep.runner, injector,
                                             zk=dep.shell.zk)
                supervisor.run_until_quiescent()
            assert supervisor.restarts == 1
            # the replacement container re-read the plan and made the same
            # compile decision the original did
            for container in handle.master.samza_containers.values():
                for instance in container.tasks.values():
                    assert instance.task.compiled is (mode == "fused")
            with injector.suspended():
                outputs[mode] = {r["orderId"] for r in handle.results()}

        expected = {i for i in range(80) if (i * 7) % 100 > 50}
        assert outputs["fused"] == expected
        assert outputs["fused"] == outputs["interpreted"]

    def test_windowed_aggregate_survives_crash_and_zk_expiry(self):
        """Every distinct emitted row — aggregate included — is a row of
        the same SQL without STREAM, and vice versa.  At commit interval 8
        the relaunch restores window state; a no-op restore emits 26 rows
        the table query does not return."""
        schedule = (FaultSchedule.script()
                    .add_crash(35)
                    .add_zk_expiry(2)
                    .add_fetch_fault(6))
        dep, injector = chaos_sql_deployment(schedule)
        handle = dep.shell.execute(
            SLIDING_WINDOW_SQL, containers=2, config_overrides={
                "task.checkpoint.interval.messages": 8,
                "task.poll.batch.size": 10,
            })
        supervisor = ChaosSupervisor(dep.runner, injector, zk=dep.shell.zk)
        supervisor.run_until_quiescent()
        with injector.suspended():
            rows = handle.results()
            table = dep.shell.execute(
                SLIDING_WINDOW_SQL.replace("SELECT STREAM", "SELECT"))

        assert supervisor.restarts == 1
        assert supervisor.zk_expirations == 1
        assert restored_entries(handle.master) > 0
        assert len(table) == sum(1 for i in range(80) if (i * 7) % 100 > 10)
        assert ({tuple(sorted(r.items())) for r in rows}
                == {tuple(sorted(r.items())) for r in table})

    def test_writebehind_crash_replays_byte_identical_aggregates(self):
        """Crash a container mid-commit-interval, while the write-behind
        stores hold dirty (never flushed) window state.

        The dirty suffix dies with the container; the changelog describes
        exactly the last checkpoint's state, so the replacement rebuilds
        the same windows the lost messages originally extended and replay
        regenerates every lost emission — including the running
        ``unitsLastFiveMinutes`` aggregate — byte for byte.  This is the
        consistency property that lets write-behind defer every store
        write to commit without weakening at-least-once recovery.
        """
        overrides = {
            "task.checkpoint.interval.messages": 8,
            "task.poll.batch.size": 10,
        }

        # reference: the same input, no faults
        ref = Deployment(partitions=2)
        ref.with_orders(count=80)
        ref_rows = ref.run(SLIDING_WINDOW_SQL, containers=2,
                           config_overrides=overrides).results()
        ref_by_order = {}
        for row in ref_rows:
            ref_by_order.setdefault(row["orderId"], set()).add(
                tuple(sorted(row.items())))
        # fault-free sliding window emits exactly once per input
        assert all(len(v) == 1 for v in ref_by_order.values())

        # chaos: crash 35 messages in — the victim is 5 messages past its
        # last commit, so its write-behind dirty maps hold 5 entries per
        # store when it dies, and the relaunch restores committed state
        schedule = FaultSchedule.script().add_crash(35)
        dep, injector = chaos_sql_deployment(schedule)
        handle = dep.shell.execute(SLIDING_WINDOW_SQL, containers=2,
                                   config_overrides=overrides)
        supervisor = ChaosSupervisor(dep.runner, injector)
        supervisor.run_until_quiescent()
        with injector.suspended():
            rows = handle.results()

        assert supervisor.restarts == 1
        assert restored_entries(handle.master) > 0
        emissions = {}
        for row in rows:
            emissions.setdefault(row["orderId"], set()).add(
                tuple(sorted(row.items())))
        # nothing lost, and every emission (original or replayed duplicate)
        # is identical to the fault-free run's — aggregates included
        assert emissions == ref_by_order


def noop_restore(self, memory, topic, partition):
    """A ``SamzaContainer._restore_store`` that reads nothing back."""
    return 0


def lying_restore(self, memory, topic, partition):
    """Reads nothing back but reports a restored entry, so only the
    emitted rows can give it away."""
    return 1


class TestValidationHarness:
    def test_seed_42_meets_acceptance_bar(self):
        report = run_scenario("window", seed=42)
        assert report.table_equal
        assert report.lost == [] and report.unexpected == []
        assert report.distinct == report.table_rows == 267
        assert report.meets_criteria()
        assert report.restarts >= 1
        assert report.restored_entries > 0
        # a store whose changelog stayed empty would restore from nothing
        report.changelogs[next(iter(report.changelogs))] = 0
        assert not report.meets_criteria()

    def test_replay_is_byte_identical(self):
        first = run_scenario("window", seed=42)
        second = run_scenario("window", seed=42)
        assert first.events_blob == second.events_blob
        assert first.outputs_blob == second.outputs_blob
        assert first.to_dict() == second.to_dict()

    def test_report_serializes(self):
        report = run_scenario("window", seed=7, orders=120)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["table_equal"] is True
        assert payload["meets_criteria"] is True
        assert payload["inputs"] == 120
        assert "chaos validation (window, seed 7)" in report.summary()

    def test_multiway_join_recovers_all_three_stores(self):
        """Crash mid-run over the collapsed 3-way join: every order must
        still reassemble, and each of the K shared stores must have logged
        its buffered rows to its own changelog — a side with an empty
        changelog would be restored from nothing."""
        report = run_scenario("multiway", seed=42, orders=150)
        assert report.explained  # EXPLAIN: multi-way join: collapsed 3 inputs
        assert report.table_equal
        assert report.distinct == report.table_rows == 150
        assert report.restarts >= 1
        assert report.restored_entries > 0
        assert len(report.changelogs) == 3
        for port in range(3):
            [records] = [n for topic, n in report.changelogs.items()
                         if topic.endswith(f"-sql-mjoin-{port}-changelog")]
            assert records > 0
        assert report.meets_criteria()

    def test_noop_restore_fails_the_window_audit(self, monkeypatch):
        """The mutant the audit exists to catch: a relaunch that restores
        nothing re-emits window rows with wrong aggregates.  The table
        query rejects them and the restore criterion fails."""
        monkeypatch.setattr(SamzaContainer, "_restore_store", noop_restore)
        report = run_scenario("window", seed=42)
        assert len(report.unexpected) > 0
        assert not report.table_equal
        assert report.restored_entries == 0
        assert not report.meets_criteria()
        assert validate_main(["--seed", "42"]) == 1

    def test_lying_restore_fails_the_window_audit(self, monkeypatch):
        """A restore that reports entries it never applied passes the
        restore criterion; the table query still rejects its rows."""
        monkeypatch.setattr(SamzaContainer, "_restore_store", lying_restore)
        report = run_scenario("window", seed=42)
        assert report.restored_entries > 0
        assert len(report.unexpected) > 0
        assert not report.table_equal

    def test_lying_restore_fails_the_sql_recovery_tests(self, monkeypatch):
        """Both SQL recovery tests above run at commit interval 8, where
        the relaunch restores state.  The mutant reports a restored entry,
        so each test can fail only on its row comparison."""
        monkeypatch.setattr(SamzaContainer, "_restore_store", lying_restore)
        recovery = TestSqlQueryRecovery()
        for test in (recovery.test_windowed_aggregate_survives_crash_and_zk_expiry,
                     recovery.test_writebehind_crash_replays_byte_identical_aggregates):
            with pytest.raises(AssertionError):
                test()


class TestMidBatchCrash:
    """A crash scheduled *inside* a poll batch must fire at exactly the
    scheduled message — the batched loop caps its chunks at the injector's
    next crash point — and replay exactly the uncommitted suffix."""

    def test_crash_mid_batch_replays_uncommitted_suffix(self):
        from repro.chaos.faults import CONTAINER_CRASH

        crash_at, batch_size, interval = 25, 32, 10
        schedule = FaultSchedule.script().add_crash(crash_at)
        cluster, runner, injector, written = chaos_runtime(schedule, 80)
        job = SamzaJob(
            config=base_config(containers=2).merge({
                "task.poll.batch.size": batch_size,
                "task.checkpoint.interval.messages": interval,
            }),
            task_factory=lambda: FilterTask(threshold=50),
            serdes=orders_serdes(),
        )
        runner.submit(job)
        supervisor = ChaosSupervisor(runner, injector)
        supervisor.run_until_quiescent()

        # 25 is not a multiple of the 32-message batch, so the crash point
        # fell mid-batch; the chunk cap must still land it exactly there.
        crashes = [e for e in injector.events if e.kind == CONTAINER_CRASH]
        assert [e.op for e in crashes] == [crash_at]
        assert supervisor.restarts == 1

        out = read_topic(cluster, "OrdersOut", AvroSerde(ORDERS_SCHEMA))
        expected = {r["orderId"] for r in written if r["units"] > 50}
        # at-least-once: nothing lost; duplicates bounded by the crashed
        # container's uncommitted window (at most one checkpoint interval
        # plus one poll batch of input replays)
        assert {o["orderId"] for o in out} == expected
        assert len(out) <= len(expected) + interval + batch_size

    def test_mid_batch_crash_matches_single_message_output(self):
        """The committed-plus-replayed output set is the same whether the
        crashed job polled 32 messages at a time or one."""
        outputs = {}
        for poll_size in (32, 1):
            schedule = FaultSchedule.script().add_crash(25)
            cluster, runner, injector, _ = chaos_runtime(schedule, 80)
            job = SamzaJob(
                config=base_config(containers=2).merge({
                    "task.poll.batch.size": poll_size,
                    "task.checkpoint.interval.messages": 10,
                }),
                task_factory=lambda: FilterTask(threshold=50),
                serdes=orders_serdes(),
            )
            runner.submit(job)
            ChaosSupervisor(runner, injector).run_until_quiescent()
            out = read_topic(cluster, "OrdersOut", AvroSerde(ORDERS_SCHEMA))
            outputs[poll_size] = {o["orderId"] for o in out}
        assert outputs[32] == outputs[1]
