"""Tests for broker/cluster/topic admin and request routing."""

import pytest

from repro.common import (
    KafkaError,
    TopicExistsError,
    UnknownTopicError,
    VirtualClock,
)
from repro.kafka import KafkaCluster, TopicPartition
from repro.kafka.topic import Topic, TopicConfig


class TestTopicConfig:
    def test_defaults(self):
        cfg = TopicConfig()
        assert cfg.partitions == 1
        assert cfg.cleanup_policy == "delete"

    def test_invalid_partitions(self):
        with pytest.raises(KafkaError):
            TopicConfig(partitions=0)

    def test_invalid_policy(self):
        with pytest.raises(KafkaError):
            TopicConfig(cleanup_policy="shred")

    def test_invalid_topic_name(self):
        with pytest.raises(KafkaError):
            Topic("bad/name", TopicConfig())
        with pytest.raises(KafkaError):
            Topic("", TopicConfig())

    def test_partition_lookup(self):
        topic = Topic("t", TopicConfig(partitions=2))
        assert topic.partition(1).partition == 1
        with pytest.raises(KafkaError):
            topic.partition(2)


class TestClusterAdmin:
    def test_create_and_describe(self):
        cluster = KafkaCluster()
        cluster.create_topic("orders", partitions=4)
        assert cluster.topics() == ["orders"]
        assert len(cluster.partitions_for("orders")) == 4

    def test_create_duplicate_raises(self):
        cluster = KafkaCluster()
        cluster.create_topic("t")
        with pytest.raises(TopicExistsError):
            cluster.create_topic("t")

    def test_create_if_not_exists(self):
        cluster = KafkaCluster()
        a = cluster.create_topic("t", partitions=2)
        b = cluster.create_topic("t", partitions=5, if_not_exists=True)
        assert a is b
        assert b.partition_count == 2

    def test_unknown_topic_raises(self):
        with pytest.raises(UnknownTopicError):
            KafkaCluster().topic("missing")

    def test_delete_topic(self):
        cluster = KafkaCluster()
        cluster.create_topic("t")
        cluster.delete_topic("t")
        assert not cluster.has_topic("t")
        with pytest.raises(UnknownTopicError):
            cluster.fetch(TopicPartition("t", 0), 0)

    def test_leaders_spread_round_robin(self):
        cluster = KafkaCluster(broker_count=3)
        cluster.create_topic("t", partitions=6)
        leaders = [cluster.leader(TopicPartition("t", i)).broker_id for i in range(6)]
        assert leaders == [0, 1, 2, 0, 1, 2]
        # every broker hosts exactly its share
        for broker in cluster.brokers:
            assert len(broker.hosted_partitions()) == 2

    def test_zero_brokers_rejected(self):
        with pytest.raises(ValueError):
            KafkaCluster(broker_count=0)


class TestDataPlane:
    def test_produce_fetch_roundtrip(self):
        cluster = KafkaCluster(clock=VirtualClock(5000))
        cluster.create_topic("t", partitions=1)
        tp = TopicPartition("t", 0)
        offset = cluster.produce(tp, b"k", b"v")
        assert offset == 0
        [msg] = cluster.fetch(tp, 0)
        assert (msg.key, msg.value, msg.timestamp_ms) == (b"k", b"v", 5000)

    def test_explicit_timestamp_wins(self):
        cluster = KafkaCluster(clock=VirtualClock(5000))
        cluster.create_topic("t")
        tp = TopicPartition("t", 0)
        cluster.produce(tp, None, b"v", timestamp_ms=123)
        assert cluster.fetch(tp, 0)[0].timestamp_ms == 123

    def test_watermarks(self):
        cluster = KafkaCluster()
        cluster.create_topic("t")
        tp = TopicPartition("t", 0)
        assert cluster.earliest_offset(tp) == 0
        assert cluster.latest_offset(tp) == 0
        cluster.produce(tp, None, b"v")
        assert cluster.latest_offset(tp) == 1

    def test_injected_fault_mid_batch_keeps_earlier_records(self):
        """Under fault injection a batch is one produce op per record,
        consulted before that record is appended — what sequential sends
        would give the injector."""

        class FailThird:
            clock = None
            ops = 0

            def on_produce(self, broker_id, tp):
                self.ops += 1
                if self.ops == 3:
                    raise KafkaError("injected")

            def on_fetch(self, broker_id, tp):
                pass

        cluster = KafkaCluster()
        cluster.create_topic("t")
        tp = TopicPartition("t", 0)
        injector = FailThird()
        cluster.install_fault_injector(injector)
        records = [(None, b"v%d" % i, None) for i in range(5)]
        with pytest.raises(KafkaError, match="injected"):
            cluster.produce_batch(tp, records)
        assert [m.value for m in cluster.fetch(tp, 0)] == [b"v0", b"v1"]
        assert cluster.produce_batch(tp, records) == 2  # the retry
        assert injector.ops == 3 + 5
        assert cluster.produce(tp, None, b"single") == 7
        assert injector.ops == 3 + 5 + 1

    def test_fetch_counts_per_broker(self):
        cluster = KafkaCluster(broker_count=2)
        cluster.create_topic("t", partitions=2)
        cluster.fetch(TopicPartition("t", 0), 0)
        cluster.fetch(TopicPartition("t", 1), 0)
        cluster.fetch(TopicPartition("t", 1), 0)
        assert cluster.brokers[0].fetch_request_count == 1
        assert cluster.brokers[1].fetch_request_count == 2
        assert cluster.total_fetch_requests() == 3


class TestGroupOffsets:
    def test_commit_and_read(self):
        cluster = KafkaCluster()
        cluster.create_topic("t")
        tp = TopicPartition("t", 0)
        assert cluster.committed_offset("g", tp) is None
        cluster.commit_offset("g", tp, 42)
        assert cluster.committed_offset("g", tp) == 42
        assert cluster.committed_offset("other", tp) is None


class TestRetentionService:
    def test_run_retention_compacts_compact_topics(self):
        cluster = KafkaCluster()
        cluster.create_topic("changelog", cleanup_policy="compact")
        tp = TopicPartition("changelog", 0)
        cluster.produce(tp, b"k", b"1")
        cluster.produce(tp, b"k", b"2")
        assert cluster.run_retention() == 1
        [msg] = cluster.fetch(tp, 0)
        assert msg.value == b"2"

    def test_run_retention_expires_delete_topics(self):
        clock = VirtualClock(0)
        cluster = KafkaCluster(clock=clock)
        cluster.create_topic("t", retention_ms=100)
        tp = TopicPartition("t", 0)
        cluster.produce(tp, None, b"old", timestamp_ms=0)
        clock.advance(1000)
        cluster.produce(tp, None, b"new", timestamp_ms=1000)
        assert cluster.run_retention() == 1
        assert cluster.earliest_offset(tp) == 1
