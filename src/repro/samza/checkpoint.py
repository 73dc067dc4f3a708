"""Checkpointing: durable per-task input offsets.

Checkpoints are written to a compacted Kafka topic keyed by task name,
exactly like Samza's KafkaCheckpointManager.  On restart, a container
reads the topic once, keeps the latest checkpoint per task, and seeks its
consumers there — the paper's durability story: "ensures streams will be
replayed from the last known checkpointed partition offset".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import CheckpointError, OffsetOutOfRangeError
from repro.kafka.cluster import KafkaCluster
from repro.kafka.message import TopicPartition
from repro.samza.system import SystemStreamPartition
from repro.serde.json_serde import JsonSerde
from repro.serde.base import StringSerde


@dataclass
class Checkpoint:
    """Next-offset-to-read per input SSP for one task."""

    offsets: dict[SystemStreamPartition, int] = field(default_factory=dict)

    def to_payload(self) -> dict[str, int]:
        return {str(ssp): offset for ssp, offset in self.offsets.items()}

    @staticmethod
    def from_payload(payload: dict[str, int]) -> "Checkpoint":
        offsets: dict[SystemStreamPartition, int] = {}
        for text, offset in payload.items():
            system, _, rest = text.partition(".")
            stream, _, partition = rest.rpartition("-")
            if not system or not stream:
                raise CheckpointError(f"malformed checkpoint key {text!r}")
            offsets[SystemStreamPartition(system, stream, int(partition))] = offset
        return Checkpoint(offsets)


class CheckpointManager:
    """Reads/writes per-task checkpoints on a compacted topic.

    ``retry_policy`` (a :class:`repro.chaos.retry.RetryPolicy`) makes
    checkpoint IO survive transient broker errors — losing a checkpoint
    write to a recoverable hiccup would silently widen the replay window
    after the next crash.
    """

    def __init__(self, cluster: KafkaCluster, job_name: str, retry_policy=None):
        self._cluster = cluster
        self._topic = f"__checkpoint_{job_name}"
        self._key_serde = StringSerde()
        self._value_serde = JsonSerde()
        self._retry = retry_policy
        cluster.create_topic(
            self._topic, partitions=1, cleanup_policy="compact", if_not_exists=True
        )
        self._tp = TopicPartition(self._topic, 0)

    @property
    def topic(self) -> str:
        return self._topic

    def _call(self, fn):
        return fn() if self._retry is None else self._retry.call(fn)

    def write_checkpoint(self, task_name: str, checkpoint: Checkpoint) -> None:
        key = self._key_serde.to_bytes(task_name)
        value = self._value_serde.to_bytes(checkpoint.to_payload())
        self._call(lambda: self._cluster.produce(self._tp, key, value))

    def read_checkpoints(self) -> dict[str, Checkpoint]:
        """Every task's latest checkpoint, from one scan of the checkpoint
        partition (a container reads it once, at start).

        A stale start offset (the scan raced retention/compaction) is not
        fatal: the scan restarts once from the current earliest offset.
        """
        start = self._call(lambda: self._cluster.earliest_offset(self._tp))
        try:
            messages = self._call(lambda: self._cluster.fetch(self._tp, start))
        except OffsetOutOfRangeError:
            fresh = self._cluster.earliest_offset(self._tp)
            messages = self._call(lambda: self._cluster.fetch(self._tp, fresh))
        latest = {message.key: message.value for message in messages
                  if message.key is not None and message.value is not None}
        task_name, payload = self._key_serde.from_bytes, self._value_serde.from_bytes
        return {task_name(key): Checkpoint.from_payload(payload(value))
                for key, value in latest.items()}
