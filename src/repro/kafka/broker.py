"""A single broker: hosts partition leaders, serves produce/fetch requests."""

from __future__ import annotations

from repro.common.clock import Clock, SystemClock
from repro.common.errors import UnknownTopicError
from repro.common.metrics import MetricsRegistry
from repro.kafka.message import Message, TopicPartition
from repro.kafka.partition import PartitionLog


class Broker:
    """Hosts a set of partition logs and counts request traffic.

    The request counters (``produce_requests`` / ``fetch_requests``) are the
    calibration inputs for the cluster simulator: Kafka's throughput model
    is per-request overhead plus per-byte cost, and the sublinear scaling
    in Figure 5 falls out of how many fetch round-trips are needed when 32
    partitions are spread over more consumers.

    ``fault_injector`` (see :mod:`repro.chaos.faults`) is consulted before
    each produced record and each fetch and may raise a transient error or
    add latency; the default ``None`` keeps the happy path unchanged.
    """

    def __init__(self, broker_id: int, clock: Clock | None = None,
                 metrics: MetricsRegistry | None = None):
        self.broker_id = broker_id
        self.clock = clock or SystemClock()
        self.metrics = metrics or MetricsRegistry()
        self.fault_injector = None
        self._partitions: dict[TopicPartition, PartitionLog] = {}
        group = f"broker-{broker_id}"
        self._produce_requests = self.metrics.counter(group, "produce_requests")
        self._fetch_requests = self.metrics.counter(group, "fetch_requests")
        self._messages_in = self.metrics.counter(group, "messages_in")
        self._messages_out = self.metrics.counter(group, "messages_out")

    # -- partition hosting ------------------------------------------------------

    def host_partition(self, log: PartitionLog) -> None:
        self._partitions[TopicPartition(log.topic, log.partition)] = log

    def hosts(self, tp: TopicPartition) -> bool:
        return tp in self._partitions

    def hosted_partitions(self) -> list[TopicPartition]:
        return sorted(self._partitions, key=lambda tp: (tp.topic, tp.partition))

    def _log(self, tp: TopicPartition) -> PartitionLog:
        try:
            return self._partitions[tp]
        except KeyError:
            raise UnknownTopicError(f"broker {self.broker_id} does not host {tp}") from None

    # -- request handling ----------------------------------------------------------

    def produce(self, tp: TopicPartition, key: bytes | None, value: bytes | None,
                timestamp_ms: int | None = None) -> int:
        """Append one record (a batch of one); returns its offset."""
        return self.produce_batch(tp, [(key, value, timestamp_ms)])

    def produce_batch(self, tp: TopicPartition, records: list[tuple]) -> int:
        """Append many ``(key, value, timestamp_ms)`` records to one
        partition; returns the first offset (contiguous from there).

        With fault injection active the injector is consulted once per
        record, before that record is appended — the same op stream
        sequential sends give it.  A fault raised mid-batch leaves the
        earlier records appended; a batch-level retry then re-appends them
        (bounded duplication, still at-least-once).
        """
        injector = self.fault_injector
        if injector is None:
            return self._append(tp, records)
        base = self._log(tp).end_offset
        for record in records:
            injector.on_produce(self.broker_id, tp)
            self._append(tp, [record])
        return base

    def _append(self, tp: TopicPartition, records: list[tuple]) -> int:
        n = len(records)
        self._produce_requests.inc(n)
        self._messages_in.inc(n)
        return self._log(tp).append_batch(records, self.clock.now_ms)

    def fetch(self, tp: TopicPartition, from_offset: int,
              max_records: int | None = None) -> list[Message]:
        """Serve one fetch request for one partition."""
        if self.fault_injector is not None:
            self.fault_injector.on_fetch(self.broker_id, tp)
        self._fetch_requests.inc()
        records = self._log(tp).read(from_offset, max_records)
        self._messages_out.inc(len(records))
        return records

    # -- watermarks ------------------------------------------------------------------

    def earliest_offset(self, tp: TopicPartition) -> int:
        return self._log(tp).log_start_offset

    def latest_offset(self, tp: TopicPartition) -> int:
        return self._log(tp).end_offset

    @property
    def fetch_request_count(self) -> int:
        return self._fetch_requests.count
