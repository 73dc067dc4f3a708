"""Samza model: partitioned stateful stream processing on Kafka + YARN.

This package re-implements the Samza features §2 of the paper enumerates,
because the SamzaSQL operator layer is built directly on them:

* **StreamTask API** (:mod:`repro.samza.task`) — ``init``/``process``/
  ``window`` callbacks, the Map/Reduce-like Java API the paper compares
  SamzaSQL against;
* **Fault-tolerant local state** (:mod:`repro.samza.storage`) — per-task
  key-value stores backed by compacted changelog streams, restored by
  replay on failure;
* **Durability / checkpointing** (:mod:`repro.samza.checkpoint`) —
  per-task input offsets written to a compacted checkpoint topic, so a
  restarted task resumes "from the last known checkpointed partition
  offset";
* **Masterless design** (:mod:`repro.samza.job`) — each job runs its own
  YARN application master which requests containers and replaces failed
  ones;
* **Bootstrap streams** (:mod:`repro.samza.container`) — inputs marked
  bootstrap are fully consumed before any other input is delivered, the
  mechanism behind SamzaSQL's stream-to-relation join.

Execution is cooperative and deterministic: containers expose
``run_iteration`` and the :class:`~repro.samza.job.JobRunner` interleaves
them, so tests can drive a whole multi-container job step by step.
"""

from repro.samza.system import (
    IncomingMessageEnvelope,
    OutgoingMessageEnvelope,
    SystemStream,
    SystemStreamPartition,
)
from repro.samza.task import (
    ClosableTask,
    InitableTask,
    MessageCollector,
    StreamTask,
    TaskContext,
    TaskCoordinator,
    WindowableTask,
)
from repro.samza.storage import (
    InMemoryKeyValueStore,
    KeyValueStore,
    LoggedKeyValueStore,
    SerializedKeyValueStore,
    WriteBehindKeyValueStore,
)
from repro.samza.checkpoint import Checkpoint, CheckpointManager
from repro.samza.container import SamzaContainer
from repro.samza.job import JobRunner, SamzaJob

__all__ = [
    "SystemStream",
    "SystemStreamPartition",
    "IncomingMessageEnvelope",
    "OutgoingMessageEnvelope",
    "StreamTask",
    "InitableTask",
    "WindowableTask",
    "ClosableTask",
    "TaskContext",
    "TaskCoordinator",
    "MessageCollector",
    "KeyValueStore",
    "InMemoryKeyValueStore",
    "SerializedKeyValueStore",
    "LoggedKeyValueStore",
    "WriteBehindKeyValueStore",
    "Checkpoint",
    "CheckpointManager",
    "SamzaContainer",
    "SamzaJob",
    "JobRunner",
]
