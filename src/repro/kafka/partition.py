"""The per-partition append-only commit log.

Provides the three properties Samza builds on: ordering within a
partition, offset-addressed replayable reads, and durability under
retention/compaction policies.  After compaction offsets become sparse
(compaction removes superseded records but never renumbers), so reads
locate the start offset by binary search.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.common.errors import KafkaError, OffsetOutOfRangeError
from repro.kafka.message import Message


class PartitionLog:
    """Ordered, immutable, append-only sequence of :class:`Message`."""

    def __init__(self, topic: str, partition: int):
        self.topic = topic
        self.partition = partition
        self._messages: list[Message] = []
        self._offsets: list[int] = []  # parallel to _messages, ascending
        self._next_offset = 0
        self._log_start_offset = 0

    # -- write path ----------------------------------------------------------

    def append(self, key: bytes | None, value: bytes | None, timestamp_ms: int) -> int:
        """Append one record (a batch of one); returns its offset."""
        return self.append_batch([(key, value, timestamp_ms)])

    def append_batch(self, records: list[tuple], default_ts_fn=None) -> int:
        """Append many ``(key, value, timestamp_ms)`` records in order;
        returns the offset of the first (offsets are contiguous).

        ``default_ts_fn`` supplies the timestamp for records carrying
        ``None`` (the broker passes its clock), called only when needed.
        """
        base = self._next_offset
        offset = base
        messages = self._messages
        offsets = self._offsets
        for key, value, timestamp_ms in records:
            if key is not None and not isinstance(key, (bytes, bytearray)):
                raise KafkaError(
                    f"message key must be bytes, got {type(key).__name__}")
            if value is not None and not isinstance(value, (bytes, bytearray)):
                raise KafkaError(
                    f"message value must be bytes, got {type(value).__name__}")
            if timestamp_ms is None and default_ts_fn is not None:
                timestamp_ms = default_ts_fn()
            messages.append(Message(offset=offset, key=key, value=value,
                                    timestamp_ms=timestamp_ms))
            offsets.append(offset)
            offset += 1
        self._next_offset = offset
        return base

    # -- read path -------------------------------------------------------------

    def read(self, from_offset: int, max_records: int | None = None) -> list[Message]:
        """Read records with offset >= ``from_offset`` in offset order.

        ``from_offset`` may point into a compaction gap — the read starts at
        the next surviving record.  Requesting below the log start offset or
        above the end offset raises :class:`OffsetOutOfRangeError`, matching
        Kafka fetch semantics.
        """
        if from_offset < self._log_start_offset:
            raise OffsetOutOfRangeError(
                f"{self.topic}-{self.partition}: offset {from_offset} below "
                f"log start {self._log_start_offset}"
            )
        if from_offset > self._next_offset:
            raise OffsetOutOfRangeError(
                f"{self.topic}-{self.partition}: offset {from_offset} beyond "
                f"end offset {self._next_offset}"
            )
        start = bisect_left(self._offsets, from_offset)
        if max_records is None:
            return self._messages[start:]
        return self._messages[start : start + max_records]

    # -- watermarks ------------------------------------------------------------

    @property
    def log_start_offset(self) -> int:
        return self._log_start_offset

    @property
    def end_offset(self) -> int:
        """The offset the *next* record will get (Kafka's high watermark)."""
        return self._next_offset

    def __len__(self) -> int:
        return len(self._messages)

    @property
    def size_bytes(self) -> int:
        return sum(m.size_bytes for m in self._messages)

    # -- retention / compaction -------------------------------------------------

    def truncate_before(self, offset: int) -> int:
        """Delete records with offset < ``offset``; returns count removed.

        Models time/size retention: "a topic in Kafka often retains
        historical data for several hours to several days".
        """
        offset = min(offset, self._next_offset)
        if offset <= self._log_start_offset:
            return 0
        cut = bisect_left(self._offsets, offset)
        removed = cut
        del self._messages[:cut]
        del self._offsets[:cut]
        self._log_start_offset = offset
        return removed

    def apply_retention(self, now_ms: int, retention_ms: int | None) -> int:
        """Remove records older than ``retention_ms``; returns count removed."""
        if retention_ms is None:
            return 0
        cutoff = now_ms - retention_ms
        keep_from = self._next_offset
        for msg in self._messages:
            if msg.timestamp_ms >= cutoff:
                keep_from = msg.offset
                break
        return self.truncate_before(keep_from)

    def compact(self) -> int:
        """Key-based log compaction; returns the number of records removed.

        Keeps only the latest record per key (and the latest null-value
        *tombstone* deletes the key entirely).  Offsets of survivors are
        preserved.  This is what makes changelog topics usable for state
        restoration without unbounded growth.
        """
        latest_for_key: dict[bytes, int] = {}
        tombstoned: set[bytes] = set()
        for msg in self._messages:
            if msg.key is None:
                continue
            key = bytes(msg.key)
            latest_for_key[key] = msg.offset
            if msg.value is None:
                tombstoned.add(key)
            else:
                tombstoned.discard(key)
        survivors: list[Message] = []
        for msg in self._messages:
            if msg.key is None:
                survivors.append(msg)  # unkeyed records are never compacted
                continue
            key = bytes(msg.key)
            if latest_for_key[key] != msg.offset:
                continue
            if key in tombstoned:
                continue
            survivors.append(msg)
        removed = len(self._messages) - len(survivors)
        self._messages = survivors
        self._offsets = [m.offset for m in survivors]
        return removed
