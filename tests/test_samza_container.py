"""Integration tests for the Samza container/job runtime."""

import pytest

from repro.common import Config, ConfigError
from repro.kafka.message import TopicPartition
from repro.samza import OutgoingMessageEnvelope, SamzaContainer, SamzaJob
from repro.samza.system import SystemStream
from repro.samza.task import StreamTask
from repro.serde import AvroSerde

from tests.helpers import (
    ORDERS_SCHEMA,
    CountingTask,
    FilterTask,
    WindowEmitTask,
    base_config,
    make_runtime,
    orders_serdes,
    produce_orders,
    read_topic,
)


class TestFilterJobEndToEnd:
    def _run(self, containers=1, partitions=4, count=100):
        cluster, rm, runner, clock = make_runtime()
        produce_orders(cluster, count, partitions=partitions)
        job = SamzaJob(
            config=base_config(containers=containers),
            task_factory=lambda: FilterTask(threshold=50),
            serdes=orders_serdes(),
        )
        master = runner.submit(job)
        runner.run_until_quiescent()
        return cluster, master

    def test_filter_output_correct(self):
        cluster, _ = self._run()
        out = read_topic(cluster, "OrdersOut", AvroSerde(ORDERS_SCHEMA))
        # input units pattern: (i*7) % 100 — count how many exceed 50
        expected = [r for r in produce_expected(100) if r["units"] > 50]
        assert sorted(o["orderId"] for o in out) == sorted(r["orderId"] for r in expected)
        assert all(o["units"] > 50 for o in out)

    def test_multi_container_same_result(self):
        cluster_1, _ = self._run(containers=1)
        cluster_4, _ = self._run(containers=4)
        one = sorted(o["orderId"] for o in read_topic(
            cluster_1, "OrdersOut", AvroSerde(ORDERS_SCHEMA)))
        four = sorted(o["orderId"] for o in read_topic(
            cluster_4, "OrdersOut", AvroSerde(ORDERS_SCHEMA)))
        assert one == four

    def test_key_partitioning_preserved(self):
        """Outputs keyed by productId land in consistent partitions."""
        cluster, _ = self._run()
        by_key_partition = {}
        for tp in cluster.partitions_for("OrdersOut"):
            for msg in cluster.fetch(tp, 0):
                by_key_partition.setdefault(msg.key, set()).add(tp.partition)
        assert all(len(parts) == 1 for parts in by_key_partition.values())

    def test_processed_count_matches_input(self):
        _, master = self._run(count=60)
        processed = sum(c.processed_count for c in master.samza_containers.values())
        assert processed == 60

    def test_container_count_respected(self):
        _, master = self._run(containers=3)
        assert len(master.samza_containers) == 3

    def test_containers_cover_all_partitions(self):
        _, master = self._run(containers=3, partitions=8)
        partition_ids = []
        for container in master.samza_containers.values():
            for task in container.tasks.values():
                partition_ids.append(task.partition_id)
        assert sorted(partition_ids) == list(range(8))


def produce_expected(count, start_ts=1_000_000):
    return [
        {"rowtime": start_ts + i, "productId": i % 10, "orderId": i,
         "units": (i * 7) % 100}
        for i in range(count)
    ]


class TestStatefulJob:
    def _job(self, cluster, containers=1):
        config = base_config(containers=containers).merge({
            "stores.counts.changelog": "kafka.test-job-counts-changelog",
            "stores.counts.key.serde": "string",
            "stores.counts.msg.serde": "json",
        })
        return SamzaJob(config=config, task_factory=CountingTask, serdes=orders_serdes())

    def test_counts_accumulate(self):
        cluster, rm, runner, clock = make_runtime()
        produce_orders(cluster, 100, partitions=2)
        master = runner.submit(self._job(cluster))
        runner.run_until_quiescent()
        master.finish()  # the final commit flushes: nothing left deferred
        totals = {}
        for container in master.samza_containers.values():
            for task in container.tasks.values():
                for key, value in task.stores["counts"].all():
                    totals[key] = totals.get(key, 0) + value
        assert sum(totals.values()) == 100
        assert totals == {str(p): 10 for p in range(10)}

    def test_changelog_written(self):
        cluster, rm, runner, clock = make_runtime()
        produce_orders(cluster, 20, partitions=2)
        master = runner.submit(self._job(cluster))
        runner.run_until_quiescent()
        # Write-behind defers changelog writes to commit: nothing has been
        # mirrored yet (20 messages < the commit interval)...
        assert cluster.topic("test-job-counts-changelog").total_messages() == 0
        # ...until stop(), which commits — flushing the dirty state down
        # through the changelog layer alongside the checkpoint.
        master.finish()
        assert cluster.topic("test-job-counts-changelog").total_messages() > 0

    def test_commit_is_one_changelog_batch_per_store(self):
        """One produce-batch request per store per commit (not one produce
        per record), and the flush counters say what went down."""
        cluster, rm, runner, clock = make_runtime()
        produce_orders(cluster, 20, partitions=2)
        requests = []
        produce_batch = cluster.produce_batch

        def recording(tp, records):
            if tp.topic == "test-job-counts-changelog":
                requests.append((tp.partition, len(records)))
            return produce_batch(tp, records)

        cluster.produce_batch = recording
        master = runner.submit(self._job(cluster))
        runner.run_until_quiescent()
        master.finish()  # the only commit: 20 messages < the interval
        assert sorted(partition for partition, _ in requests) == [0, 1]
        assert sum(count for _, count in requests) == 10  # one per productId
        [container] = master.samza_containers.values()
        gauges = container.metrics.snapshot()
        assert {(p, gauges[f"store.counts.p{p}"]["flushed-entries"])
                for p in (0, 1)} == set(requests)
        assert gauges["store.counts.p0"]["elided-entries"] == 0

    def test_changelog_batch_under_faults_is_one_op_per_record(self):
        """With a fault injector installed the broker unrolls the batch, so
        the injector sees one produce op per changelog record; the retry
        re-appends the batch from its start — keyed upserts, so a restore
        from the longer log still equals the live store."""
        from repro.chaos import FaultInjector, FaultSchedule

        cluster, rm, runner, clock = make_runtime()
        produce_orders(cluster, 20, partitions=1)
        master = runner.submit(self._job(cluster))
        runner.run_until_quiescent()
        # commit = 10 changelog records then 1 checkpoint write; fail op 4
        injector = FaultInjector(
            FaultSchedule.script().add_produce_fault(4), clock=clock)
        cluster.install_fault_injector(injector)
        master.finish()
        [container] = master.samza_containers.values()
        assert container.retry_count == 1
        assert injector.produce_ops == 3 + 1 + 10 + 1
        with injector.suspended():
            changelog = cluster.topic("test-job-counts-changelog")
            assert changelog.total_messages() == 3 + 10
            [task] = container.tasks.values()
            live = dict(task.stores["counts"].all())
            restored = {}
            for message in cluster.fetch(
                    TopicPartition("test-job-counts-changelog", 0), 0):
                restored[message.key.decode()] = int(message.value)
        assert restored == live == {str(p): 2 for p in range(10)}

    def test_store_subkeys_parse_and_typos_are_refused(self):
        """A misspelt ``stores.<name>.<subkey>`` used to be ignored — the
        store silently came up unlogged and lost its state on restart."""
        cluster, rm, runner, clock = make_runtime()
        stores = {
            "stores.counts.changelog": "kafka.test-job-counts-changelog",
            "stores.counts.key.serde": "string",
            "stores.counts.msg.serde": "json",
        }

        def container(extra):
            return SamzaContainer(
                "c0", base_config(containers=1).merge(stores).merge(extra),
                cluster, orders_serdes(), [], CountingTask, clock=clock)

        [spec] = container({})._store_specs
        assert (spec.name, spec.changelog_stream, spec.key_serde,
                spec.msg_serde) == ("counts", "test-job-counts-changelog",
                                    "string", "json")
        for typo in ("stores.counts.changelogg", "stores.counts.write.behind",
                     "stores.counts.cache.enabled", "stores.counts.cache.size"):
            with pytest.raises(ConfigError) as excinfo:
                container({typo: "true"})
            assert typo in str(excinfo.value)
            assert "changelog, key.serde, msg.serde" in str(excinfo.value)

    def test_state_restored_after_container_failure(self):
        """Kill a container mid-stream; the replacement must restore counts
        from the changelog and resume from the checkpoint."""
        cluster, rm, runner, clock = make_runtime()
        produce_orders(cluster, 50, partitions=2)
        config = base_config(containers=2).merge({
            "stores.counts.changelog": "kafka.test-job-counts-changelog",
            "stores.counts.key.serde": "string",
            "stores.counts.msg.serde": "json",
            "task.checkpoint.interval.messages": 5,
        })
        job = SamzaJob(config=config, task_factory=CountingTask, serdes=orders_serdes())
        master = runner.submit(job)
        # process some of the input
        for _ in range(3):
            runner.run_iteration()
        runner.kill_container(master, index=0)
        produce_orders(cluster, 50, partitions=2)  # more input after failure
        runner.run_until_quiescent()
        totals = {}
        for container in master.samza_containers.values():
            for task in container.tasks.values():
                for key, value in task.stores["counts"].all():
                    totals[key] = totals.get(key, 0) + value
        # At-least-once: every message counted at least once, and the
        # replacement container resumed from its checkpoint, so totals are
        # at least the true counts and bounded by checkpoint-interval slack.
        assert sum(totals.values()) >= 100
        assert sum(totals.values()) <= 100 + 2 * 5 * 2  # tasks * interval slack


class TestWindowTimer:
    def test_window_fires_on_interval(self):
        cluster, rm, runner, clock = make_runtime()
        produce_orders(cluster, 10, partitions=1)
        config = base_config().merge({"task.window.ms": 100})
        job = SamzaJob(config=config, task_factory=WindowEmitTask, serdes=orders_serdes())
        master = runner.submit(job)
        runner.run_iteration()
        clock.advance(150)
        runner.run_iteration()
        [container] = master.samza_containers.values()
        [task] = container.tasks.values()
        assert task.task.window_calls == 1
        clock.advance(150)
        runner.run_iteration()
        assert task.task.window_calls == 2

    def test_window_disabled_by_default(self):
        cluster, rm, runner, clock = make_runtime()
        produce_orders(cluster, 10, partitions=1)
        job = SamzaJob(config=base_config(), task_factory=WindowEmitTask,
                       serdes=orders_serdes())
        master = runner.submit(job)
        clock.advance(10_000)
        runner.run_until_quiescent()
        [container] = master.samza_containers.values()
        [task] = container.tasks.values()
        assert task.task.window_calls == 0


class TestBootstrapStreams:
    def test_bootstrap_consumed_before_other_inputs(self):
        """Products (bootstrap) must be fully read before any Orders message
        is processed — the §4.4 stream-to-relation join mechanism."""
        order_of_streams = []

        class RecordingTask(StreamTask):
            def process(self, envelope, collector, coordinator):
                order_of_streams.append(envelope.stream)

        cluster, rm, runner, clock = make_runtime()
        produce_orders(cluster, 30, partitions=2)
        produce_orders(cluster, 10, partitions=2, topic="Products")
        config = base_config().merge({
            "task.inputs": "kafka.Orders,kafka.Products",
            "systems.kafka.streams.Products.samza.bootstrap": "true",
            "systems.kafka.streams.Products.samza.msg.serde": "avro-orders",
            "systems.kafka.streams.Products.samza.key.serde": "string",
        })
        job = SamzaJob(config=config, task_factory=RecordingTask, serdes=orders_serdes())
        runner.submit(job)
        runner.run_until_quiescent()
        first_orders = order_of_streams.index("Orders")
        products_seen_before = order_of_streams[:first_orders].count("Products")
        assert products_seen_before == 10
        assert order_of_streams.count("Orders") == 30

    def test_no_bootstrap_interleaves(self):
        streams_seen = []

        class RecordingTask(StreamTask):
            def process(self, envelope, collector, coordinator):
                streams_seen.append(envelope.stream)

        cluster, rm, runner, clock = make_runtime()
        produce_orders(cluster, 20, partitions=2)
        produce_orders(cluster, 20, partitions=2, topic="Products")
        config = base_config().merge({
            "task.inputs": "kafka.Orders,kafka.Products",
            "systems.kafka.streams.Products.samza.msg.serde": "avro-orders",
            "systems.kafka.streams.Products.samza.key.serde": "string",
        })
        job = SamzaJob(config=config, task_factory=RecordingTask, serdes=orders_serdes())
        runner.submit(job)
        runner.run_until_quiescent()
        assert len(streams_seen) == 40


class TestCoordinator:
    def test_shutdown_request_stops_container(self):
        class OneShotTask(StreamTask):
            def process(self, envelope, collector, coordinator):
                coordinator.shutdown()

        cluster, rm, runner, clock = make_runtime()
        produce_orders(cluster, 10, partitions=1)
        job = SamzaJob(config=base_config(), task_factory=OneShotTask,
                       serdes=orders_serdes())
        master = runner.submit(job)
        runner.run_iteration()
        [container] = master.samza_containers.values()
        assert container.shutdown_requested
        assert container.processed_count == 1

    def test_commit_request_writes_checkpoint(self):
        class CommittingTask(StreamTask):
            def process(self, envelope, collector, coordinator):
                coordinator.commit()

        cluster, rm, runner, clock = make_runtime()
        produce_orders(cluster, 4, partitions=1)
        job = SamzaJob(config=base_config(), task_factory=CommittingTask,
                       serdes=orders_serdes())
        master = runner.submit(job)
        runner.run_until_quiescent()
        checkpoint = master.checkpoints.read_checkpoints().get("Partition 0")
        assert checkpoint is not None
        [(ssp, offset)] = checkpoint.offsets.items()
        assert offset == 4
