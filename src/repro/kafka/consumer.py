"""Fetch-based consumer with explicit partition assignment.

Samza assigns partitions to tasks itself (through its job-coordinator
grouper), so this consumer exposes the ``assign``/``seek``/``poll`` API
rather than broker-side group rebalancing.  ``poll`` round-robins fetch
requests across assigned partitions, pulling at most
``max_poll_records`` per call — the batch economics that drive the
sublinear scaling shape in the paper's Figure 5.
"""

from __future__ import annotations

from repro.common.errors import KafkaError, OffsetOutOfRangeError
from repro.kafka.cluster import KafkaCluster
from repro.kafka.message import Message, TopicPartition


class ConsumerRecord:
    """A fetched record tagged with its coordinates.

    A plain ``__slots__`` class with a hand-written ``__init__``: one of
    these is built per fetched message, and a frozen-dataclass constructor
    (six ``object.__setattr__`` calls) costs ~3.5x a direct slot store —
    measurable on the poll path at fig5 message rates.
    """

    __slots__ = ("topic", "partition", "offset", "key", "value", "timestamp_ms")

    def __init__(self, topic: str, partition: int, offset: int,
                 key: bytes | None, value: bytes | None, timestamp_ms: int):
        self.topic = topic
        self.partition = partition
        self.offset = offset
        self.key = key
        self.value = value
        self.timestamp_ms = timestamp_ms

    def __repr__(self) -> str:
        return (f"ConsumerRecord(topic={self.topic!r}, "
                f"partition={self.partition}, offset={self.offset}, "
                f"key={self.key!r}, value={self.value!r}, "
                f"timestamp_ms={self.timestamp_ms})")


class Consumer:
    """Single-threaded partition consumer with manual assignment."""

    def __init__(self, cluster: KafkaCluster, group_id: str | None = None,
                 max_poll_records: int = 500, fetch_max_records_per_partition: int = 100,
                 retry_policy=None):
        if max_poll_records < 1 or fetch_max_records_per_partition < 1:
            raise KafkaError("poll/fetch sizes must be positive")
        self._cluster = cluster
        self.group_id = group_id
        self._max_poll_records = max_poll_records
        self._fetch_size = fetch_max_records_per_partition
        self._retry = retry_policy
        self._positions: dict[TopicPartition, int] = {}
        self._paused: set[TopicPartition] = set()
        self._priority: set[TopicPartition] = set()
        self._rr_cursor = 0
        self.poll_count = 0

    # -- assignment ---------------------------------------------------------------

    def assign(self, partitions: list[TopicPartition]) -> None:
        """Assign partitions; positions default to the committed offset for
        this group, falling back to the earliest available offset.

        Reassignment discards all flow-control state *before* resolving the
        new positions: stale pause flags from a previous assignment would
        otherwise silently starve re-assigned partitions, and the old
        round-robin cursor would bias the first polls.  Clearing first also
        keeps the state consistent if position resolution raises (e.g. an
        unknown topic) halfway through.
        """
        self._paused.clear()
        self._priority.clear()
        self._rr_cursor = 0
        positions: dict[TopicPartition, int] = {}
        for tp in partitions:
            committed = (
                self._cluster.committed_offset(self.group_id, tp)
                if self.group_id is not None else None
            )
            start = committed if committed is not None else self._cluster.earliest_offset(tp)
            positions[tp] = start
        self._positions = positions

    def assignment(self) -> list[TopicPartition]:
        return sorted(self._positions, key=lambda tp: (tp.topic, tp.partition))

    def _check_assigned(self, tp: TopicPartition) -> None:
        if tp not in self._positions:
            raise KafkaError(f"partition {tp} is not assigned to this consumer")

    # -- positions ---------------------------------------------------------------------

    def seek(self, tp: TopicPartition, offset: int) -> None:
        self._check_assigned(tp)
        self._positions[tp] = offset

    def seek_to_end(self, tp: TopicPartition) -> None:
        self.seek(tp, self._cluster.latest_offset(tp))

    def position(self, tp: TopicPartition) -> int:
        self._check_assigned(tp)
        return self._positions[tp]

    def lag(self, tp: TopicPartition) -> int:
        """Records between the current position and the high watermark."""
        self._check_assigned(tp)
        return max(self._cluster.latest_offset(tp) - self._positions[tp], 0)

    def total_lag(self) -> int:
        return sum(self.lag(tp) for tp in self._positions)

    # -- flow control --------------------------------------------------------------------

    def pause(self, tp: TopicPartition) -> None:
        self._check_assigned(tp)
        self._paused.add(tp)

    def resume(self, tp: TopicPartition) -> None:
        self._paused.discard(tp)

    def paused(self) -> set[TopicPartition]:
        return set(self._paused)

    def set_priority(self, partitions: set[TopicPartition]) -> None:
        """Mark partitions that every poll must visit *before* the fair
        round-robin pass over the rest.

        Kafka's Samza consumer gives bootstrap streams the highest priority
        permanently — not just until catch-up — so a relation's changelog
        update that is already in the log is always applied before stream
        records fetched in the same poll.  Priority partitions are exempt
        from the round-robin cursor; within the set they are visited in
        (topic, partition) order.
        """
        for tp in partitions:
            self._check_assigned(tp)
        self._priority = set(partitions)

    # -- the poll loop ----------------------------------------------------------------------

    def _fetch(self, tp: TopicPartition, offset: int, max_records: int):
        """One fetch request, retried on transient broker errors when a
        retry policy is installed (``OffsetOutOfRangeError`` is permanent
        and always propagates to the caller)."""
        if self._retry is None:
            return self._cluster.fetch(tp, offset, max_records)
        return self._retry.call(lambda: self._cluster.fetch(tp, offset, max_records))

    def poll(self, max_records: int | None = None) -> list[ConsumerRecord]:
        """Fetch up to ``max_records`` across assigned, unpaused partitions.

        Partitions are visited round-robin starting after the last partition
        served, so a hot partition cannot starve the others.
        """
        out: list[ConsumerRecord] = []
        for tp, records in self._poll_groups(max_records):
            topic, partition = tp.topic, tp.partition
            out.extend(
                ConsumerRecord(topic, partition, msg.offset,
                               msg.key, msg.value, msg.timestamp_ms)
                for msg in records
            )
        return out

    def poll_batches(
        self, max_records: int | None = None,
    ) -> list[tuple[TopicPartition, list[Message]]]:
        """Like :meth:`poll`, but grouped per partition: one
        ``(TopicPartition, records)`` pair per partition served this poll.

        Each fetch already returns one partition's contiguous records, so
        grouping costs nothing here and saves the caller a regroup; the
        pair order is the same round-robin-fair visit order ``poll`` uses.
        The records are the log's immutable :class:`Message` objects, not
        :class:`ConsumerRecord` copies — the group's ``TopicPartition``
        already carries the coordinates, so the per-record wrap would only
        duplicate them, and skipping it saves an allocation plus six
        attribute stores per message on the hot batched path.
        """
        return self._poll_groups(max_records)

    def _poll_groups(
        self, max_records: int | None,
    ) -> list[tuple[TopicPartition, list[Message]]]:
        self.poll_count += 1
        budget = max_records if max_records is not None else self._max_poll_records
        order = self.assignment()
        if not order:
            return []
        # Priority partitions (bootstrap streams) come first in every poll
        # and are exempt from the fairness cursor; the cursor rotates over
        # the remainder only, so with no priorities set the visit order is
        # unchanged.
        rest = [tp for tp in order if tp not in self._priority]
        visit = [tp for tp in order if tp in self._priority]
        n = len(rest)
        visit.extend(rest[(self._rr_cursor + i) % n] for i in range(n))
        groups: list[tuple[TopicPartition, list[Message]]] = []
        for tp in visit:
            if budget <= 0:
                break
            if tp in self._paused:
                continue
            try:
                messages = self._fetch(
                    tp, self._positions[tp], min(self._fetch_size, budget)
                )
            except OffsetOutOfRangeError:
                # Auto-reset to earliest, like auto.offset.reset=earliest.
                self._positions[tp] = self._cluster.earliest_offset(tp)
                messages = self._fetch(
                    tp, self._positions[tp], min(self._fetch_size, budget)
                )
            if not messages:
                continue
            groups.append((tp, messages))
            self._positions[tp] = messages[-1].offset + 1
            budget -= len(messages)
        if n:
            self._rr_cursor = (self._rr_cursor + 1) % n
        return groups

    # -- commit -------------------------------------------------------------------------------

    def commit(self) -> None:
        """Commit current positions for the consumer group."""
        if self.group_id is None:
            raise KafkaError("cannot commit offsets without a group id")
        for tp, offset in self._positions.items():
            self._cluster.commit_offset(self.group_id, tp, offset)
