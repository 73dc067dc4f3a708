"""The Kafka cluster: topic catalogue, leader placement, group offsets.

The paper's test setup runs a 3-node Kafka cluster; partition leaders are
spread round-robin across brokers here the same way.  Consumer-group
committed offsets live in the cluster (standing in for the
``__consumer_offsets`` topic).
"""

from __future__ import annotations

from repro.common.clock import Clock, SystemClock
from repro.common.errors import TopicExistsError, UnknownTopicError
from repro.common.metrics import MetricsRegistry
from repro.kafka.broker import Broker
from repro.kafka.message import TopicPartition
from repro.kafka.topic import Topic, TopicConfig


class KafkaCluster:
    """Topic management plus broker-side request routing."""

    def __init__(self, broker_count: int = 1, clock: Clock | None = None):
        if broker_count < 1:
            raise ValueError("cluster needs at least one broker")
        self.clock = clock or SystemClock()
        self.metrics = MetricsRegistry()
        self.brokers = [Broker(i, self.clock, self.metrics) for i in range(broker_count)]
        self.fault_injector = None
        # Bumped on every topic create/delete; producers key their
        # partition-count caches off it.
        self.metadata_epoch = 0
        self._topics: dict[str, Topic] = {}
        self._leaders: dict[TopicPartition, Broker] = {}
        # {group: {TopicPartition: offset}} — committed consumer positions.
        self._group_offsets: dict[str, dict[TopicPartition, int]] = {}

    # -- fault injection ---------------------------------------------------------

    def install_fault_injector(self, injector) -> None:
        """Arm every broker with a :class:`repro.chaos.faults.FaultInjector`.

        Pass ``None`` to disarm.  The injector's clock defaults to the
        cluster clock so latency faults advance virtual time.
        """
        if injector is not None and injector.clock is None:
            injector.clock = self.clock
        self.fault_injector = injector
        for broker in self.brokers:
            broker.fault_injector = injector

    # -- admin -------------------------------------------------------------------

    def create_topic(self, name: str, partitions: int = 1,
                     cleanup_policy: str = "delete",
                     retention_ms: int | None = None,
                     if_not_exists: bool = False) -> Topic:
        if name in self._topics:
            if if_not_exists:
                return self._topics[name]
            raise TopicExistsError(f"topic {name!r} already exists")
        topic = Topic(name, TopicConfig(
            partitions=partitions,
            cleanup_policy=cleanup_policy,
            retention_ms=retention_ms,
        ))
        self._topics[name] = topic
        self.metadata_epoch += 1
        for log in topic.partitions:
            leader = self.brokers[log.partition % len(self.brokers)]
            leader.host_partition(log)
            self._leaders[TopicPartition(name, log.partition)] = leader
        return topic

    def delete_topic(self, name: str) -> None:
        topic = self.topic(name)
        for log in topic.partitions:
            tp = TopicPartition(name, log.partition)
            del self._leaders[tp]
        del self._topics[name]
        self.metadata_epoch += 1

    def topic(self, name: str) -> Topic:
        try:
            return self._topics[name]
        except KeyError:
            raise UnknownTopicError(f"unknown topic {name!r}") from None

    def has_topic(self, name: str) -> bool:
        return name in self._topics

    def topics(self) -> list[str]:
        return sorted(self._topics)

    def partitions_for(self, topic: str) -> list[TopicPartition]:
        t = self.topic(topic)
        return [TopicPartition(topic, i) for i in range(t.partition_count)]

    def leader(self, tp: TopicPartition) -> Broker:
        try:
            return self._leaders[tp]
        except KeyError:
            raise UnknownTopicError(f"no leader for {tp}") from None

    # -- data plane (routed to the leader broker) ------------------------------------

    def produce(self, tp: TopicPartition, key: bytes | None, value: bytes | None,
                timestamp_ms: int | None = None) -> int:
        return self.produce_batch(tp, [(key, value, timestamp_ms)])

    def produce_batch(self, tp: TopicPartition, records: list[tuple]) -> int:
        """Append many ``(key, value, timestamp_ms)`` records to one
        partition's leader; returns the first offset."""
        return self.leader(tp).produce_batch(tp, records)

    def fetch(self, tp: TopicPartition, from_offset: int,
              max_records: int | None = None):
        return self.leader(tp).fetch(tp, from_offset, max_records)

    def earliest_offset(self, tp: TopicPartition) -> int:
        return self.leader(tp).earliest_offset(tp)

    def latest_offset(self, tp: TopicPartition) -> int:
        return self.leader(tp).latest_offset(tp)

    # -- consumer group offsets ---------------------------------------------------------

    def commit_offset(self, group: str, tp: TopicPartition, offset: int) -> None:
        self._group_offsets.setdefault(group, {})[tp] = offset

    def committed_offset(self, group: str, tp: TopicPartition) -> int | None:
        return self._group_offsets.get(group, {}).get(tp)

    # -- maintenance ----------------------------------------------------------------------

    def run_retention(self) -> int:
        """Apply each topic's cleanup policy once; returns records removed."""
        removed = 0
        now = self.clock.now_ms()
        for topic in self._topics.values():
            for log in topic.partitions:
                if topic.config.cleanup_policy == "compact":
                    removed += log.compact()
                else:
                    removed += log.apply_retention(now, topic.config.retention_ms)
        return removed

    def total_fetch_requests(self) -> int:
        return sum(b.fetch_request_count for b in self.brokers)
