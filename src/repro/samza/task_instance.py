"""TaskInstance: one task's runtime wrapper inside a container.

Owns the task object, its input SSP offsets, its stores, and the commit
path (flush stores, write checkpoint).
"""

from __future__ import annotations

from repro.common.config import Config
from repro.samza.checkpoint import Checkpoint, CheckpointManager
from repro.samza.storage import KeyValueStore
from repro.samza.system import IncomingMessageEnvelope, SystemStreamPartition
from repro.samza.task import (
    ClosableTask,
    InitableTask,
    MessageCollector,
    StreamTask,
    TaskContext,
    TaskCoordinator,
    WindowableTask,
)


class TaskInstance:
    """Runtime state for one task (one partition group)."""

    def __init__(self, task_name: str, partition_id: int, task: StreamTask,
                 ssps: set[SystemStreamPartition],
                 stores: dict[str, KeyValueStore],
                 checkpoint_manager: CheckpointManager | None,
                 metrics=None, serdes=None, container: dict | None = None):
        self.task_name = task_name
        self.partition_id = partition_id
        self.task = task
        self.ssps = set(ssps)
        self.stores = stores
        self._checkpoints = checkpoint_manager
        # next offset to process per SSP; filled by the container at startup
        self.offsets: dict[SystemStreamPartition, int] = {}
        self.messages_processed = 0
        # Streams whose batches the task wants *undecoded* (serde-fused
        # tasks); published by init() from the task's raw_input_streams.
        self.raw_streams: frozenset[str] = frozenset()
        self.context = TaskContext(task_name, partition_id, stores,
                                   metrics=metrics, serdes=serdes,
                                   container=container)

    # -- lifecycle -------------------------------------------------------------

    def init(self, config: Config) -> None:
        if isinstance(self.task, InitableTask):
            self.task.init(config, self.context)
        self.raw_streams = frozenset(
            getattr(self.task, "raw_input_streams", ()) or ())

    def close(self) -> None:
        if isinstance(self.task, ClosableTask):
            self.task.close()

    # -- processing ------------------------------------------------------------

    def process(self, envelope: IncomingMessageEnvelope, collector: MessageCollector,
                coordinator: TaskCoordinator) -> None:
        self.task.process(envelope, collector, coordinator)
        self.offsets[envelope.system_stream_partition] = envelope.offset + 1
        self.messages_processed += 1

    def process_batch(self, ssp: SystemStreamPartition, records: list,
                      keys: list, messages: list, collector: MessageCollector,
                      coordinator: TaskCoordinator) -> int:
        """Process one partition's decoded record batch; returns how many
        records were actually processed (all of them unless the task
        requested shutdown mid-batch).

        Batch-aware tasks get the whole batch in one call; native
        :class:`StreamTask` tasks get one :meth:`process` call per record.
        Offsets only ever cover records whose processing completed, so a
        checkpoint taken afterwards never runs ahead of the work.
        """
        task_batch = getattr(self.task, "process_batch", None)
        if task_batch is not None:
            task_batch(ssp, records, keys, messages, collector, coordinator)
            return self._completed(ssp, records)
        done = 0
        for record, key, message in zip(records, keys, messages):
            self.process(IncomingMessageEnvelope(
                system_stream_partition=ssp, offset=record.offset,
                key=key, message=message, timestamp_ms=record.timestamp_ms,
                raw_key=record.key, raw_message=record.value,
            ), collector, coordinator)
            done += 1
            if getattr(coordinator, "shutdown_requested", False):
                break
        return done

    def process_batch_raw(self, ssp: SystemStreamPartition, records: list,
                          collector: MessageCollector,
                          coordinator: TaskCoordinator) -> int:
        """Serde-fused path: hand one partition's *undecoded* record batch
        to the task.  Offset/commit semantics are identical to
        :meth:`process_batch` — the whole batch completes (or raises), so
        a checkpoint taken afterwards matches the decoded path's exactly.
        """
        self.task.process_batch_raw(ssp, records, collector, coordinator)
        return self._completed(ssp, records)

    def _completed(self, ssp: SystemStreamPartition, records: list) -> int:
        self.offsets[ssp] = records[-1].offset + 1
        self.messages_processed += len(records)
        return len(records)

    def window(self, collector: MessageCollector, coordinator: TaskCoordinator) -> None:
        if isinstance(self.task, WindowableTask):
            self.task.window(collector, coordinator)

    # -- durability ----------------------------------------------------------------

    def commit(self) -> None:
        """Flush state then checkpoint offsets (state-first, like Samza:
        replay after a crash between the two steps reprocesses messages
        rather than losing them).

        With write-behind stores this flush is where the interval's
        deferred mutations are serialized and mirrored to the changelog —
        the changelog therefore describes exactly the state the checkpoint
        written next accompanies, never a partially-applied interval.
        """
        for store in self.stores.values():
            store.flush()
        if self._checkpoints is not None:
            self._checkpoints.write_checkpoint(self.task_name, Checkpoint(dict(self.offsets)))

    def restore_offsets(self, checkpoint: Checkpoint | None,
                        default_offsets: dict[SystemStreamPartition, int]) -> None:
        """Initialise offsets from the task's last checkpoint, else the
        defaults."""
        for ssp in self.ssps:
            if checkpoint is not None and ssp in checkpoint.offsets:
                self.offsets[ssp] = checkpoint.offsets[ssp]
            else:
                self.offsets[ssp] = default_offsets.get(ssp, 0)
