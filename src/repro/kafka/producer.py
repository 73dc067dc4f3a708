"""Producer with the default hash partitioner.

§3.1: "How a stream is partitioned is defined by the publisher at
publishing time."  The default partitioner hashes the key (FNV-1a over the
key bytes — stable across processes, unlike Python's randomized ``hash``)
so that all records with the same key land in the same partition; unkeyed
records are sprayed round-robin.
"""

from __future__ import annotations

from typing import Callable

from repro.common.errors import KafkaError
from repro.kafka.cluster import KafkaCluster
from repro.kafka.message import TopicPartition

Partitioner = Callable[[bytes | None, int], int]


def _fnv1a(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def hash_partitioner(key: bytes | None, partition_count: int) -> int:
    """Stable keyed partitioner; requires a key."""
    if key is None:
        raise KafkaError("hash partitioner requires a message key")
    return _fnv1a(key) % partition_count


class Producer:
    """Client-side writer: partition selection + produce-request routing.

    ``retry_policy`` (a :class:`repro.chaos.retry.RetryPolicy`) makes sends
    survive transient broker errors by backing off and re-issuing the
    produce request; ``None`` (the default) sends exactly once and lets
    errors propagate.
    """

    def __init__(self, cluster: KafkaCluster, partitioner: Partitioner = hash_partitioner,
                 retry_policy=None):
        self._cluster = cluster
        self._partitioner = partitioner
        self._retry = retry_policy
        self._round_robin: dict[str, int] = {}
        # Per-topic partition counts, valid for one cluster metadata epoch.
        # Topic partition counts are fixed at creation, so the cache only
        # goes stale when topics are created/deleted (e.g. a repartition
        # writing to a fresh topic) — which bumps the cluster epoch.
        self._partition_counts: dict[str, int] = {}
        # TopicPartition is immutable, so the coordinate objects themselves
        # are cached alongside the counts instead of being rebuilt per send.
        self._tps: dict[str, tuple[TopicPartition, ...]] = {}
        self._metadata_epoch = -1

    def _partition_count(self, topic: str) -> int:
        epoch = self._cluster.metadata_epoch
        if epoch != self._metadata_epoch:
            self._partition_counts.clear()
            self._tps.clear()
            self._metadata_epoch = epoch
        count = self._partition_counts.get(topic)
        if count is None:
            count = self._cluster.topic(topic).partition_count
            self._partition_counts[topic] = count
            self._tps[topic] = tuple(
                TopicPartition(topic, p) for p in range(count))
        return count

    def send(self, topic: str, value: bytes | None, key: bytes | None = None,
             partition: int | None = None, timestamp_ms: int | None = None) -> tuple[int, int]:
        """Send one record (a batch of one); returns ``(partition, offset)``.

        Partition selection order: explicit ``partition`` argument, then the
        partitioner for keyed records, then round-robin for unkeyed ones.
        """
        return self.send_batch(
            topic, [(value, key, partition, timestamp_ms)])[0]

    def send_batch(
        self, topic: str,
        entries: list[tuple[bytes | None, bytes | None, int | None, int | None]],
    ) -> list[tuple[int, int]]:
        """Send many records to one topic; returns ``(partition, offset)``
        per entry, in order.

        Each entry is ``(value, key, partition, timestamp_ms)`` with the
        same selection rules as :meth:`send`.  The topic's partition count
        and the partitioner are resolved once for the whole batch; records
        are grouped per partition (input order preserved within each) and
        appended through one produce-batch request per partition.  Under
        fault injection the broker consults the injector once per record,
        so it still sees one op per record; re-sending after a transient
        failure may duplicate records (earlier ones of the group, or one
        whose first attempt landed) — at-least-once, exactly like a real
        producer without idempotence enabled.
        """
        count = self._partition_count(topic)
        tps = self._tps[topic]
        partitioner = self._partitioner
        produce_batch = self._cluster.produce_batch
        retry = self._retry
        results: list[tuple[int, int] | None] = [None] * len(entries)
        rr_cursor: int | None = None
        # partition -> (entry indexes, (key, value, ts) records), in order.
        groups: dict[int, tuple[list[int], list[tuple]]] = {}
        for index, (value, key, partition, timestamp_ms) in enumerate(entries):
            if partition is None:
                if key is not None:
                    partition = partitioner(key, count)
                else:
                    if rr_cursor is None:
                        rr_cursor = self._round_robin.get(topic, 0)
                    partition = rr_cursor % count
                    rr_cursor += 1
            elif not 0 <= partition < count:
                raise KafkaError(
                    f"partition {partition} out of range for topic {topic!r} "
                    f"({count} partitions)")
            group = groups.get(partition)
            if group is None:
                group = groups[partition] = ([], [])
            group[0].append(index)
            group[1].append((key, value, timestamp_ms))
        for partition, (indexes, records) in groups.items():
            tp = tps[partition]
            if retry is None:
                base = produce_batch(tp, records)
            else:
                base = retry.call(
                    lambda tp=tp, records=records: produce_batch(tp, records))
            for position, index in enumerate(indexes):
                results[index] = (partition, base + position)
        if rr_cursor is not None:
            self._round_robin[topic] = rr_cursor
        return results
