"""The StreamTask API — Samza's Map/Reduce-like programming model.

Native Samza applications (the paper's comparison baseline, implemented in
:mod:`repro.bench.native_jobs`) and the SamzaSQL operator task
(:mod:`repro.samzasql.task`) both implement these interfaces.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any

from repro.common.config import Config
from repro.samza.system import IncomingMessageEnvelope, OutgoingMessageEnvelope

if TYPE_CHECKING:  # pragma: no cover
    from repro.samza.storage import KeyValueStore


class MessageCollector(ABC):
    """Sink handed to ``process``/``window`` for emitting output messages."""

    @abstractmethod
    def send(self, envelope: OutgoingMessageEnvelope) -> None: ...

    def send_batch(self, envelopes: list[OutgoingMessageEnvelope]) -> None:
        """Send many envelopes; collectors with a batched output path
        override this."""
        for envelope in envelopes:
            self.send(envelope)


class TaskCoordinator(ABC):
    """Lets a task request commits or job shutdown from inside a callback."""

    @abstractmethod
    def commit(self) -> None:
        """Request an offset/state checkpoint at the next safe point."""

    @abstractmethod
    def shutdown(self) -> None:
        """Request cooperative shutdown of the whole job."""


class TaskContext:
    """Per-task runtime context: identity, stores, metrics."""

    def __init__(self, task_name: str, partition_id: int, stores: dict[str, "KeyValueStore"],
                 metrics=None, serdes=None, container: dict | None = None):
        self.task_name = task_name
        self.partition_id = partition_id
        self._stores = stores
        self.metrics = metrics
        # The container's SerdeRegistry, when it has one.  Plan-aware
        # tasks use it to resolve their streams' Avro schemas for the
        # serde-fusion fast path.
        self.serdes = serdes
        # Shared by every task of one container start (Samza's
        # ContainerContext); a task built alone gets one of its own.
        self.container = {} if container is None else container

    def get_store(self, name: str) -> "KeyValueStore":
        try:
            return self._stores[name]
        except KeyError:
            raise KeyError(
                f"task {self.task_name!r} has no store {name!r}; configured "
                f"stores: {sorted(self._stores)}"
            ) from None


class StreamTask(ABC):
    """Processes one input message at a time."""

    @abstractmethod
    def process(self, envelope: IncomingMessageEnvelope,
                collector: MessageCollector, coordinator: TaskCoordinator) -> None: ...


class InitableTask(ABC):
    """Optional: receive config and context before the first message."""

    @abstractmethod
    def init(self, config: Config, context: TaskContext) -> None: ...


class WindowableTask(ABC):
    """Optional: called on a timer (``task.window.ms``) between messages."""

    @abstractmethod
    def window(self, collector: MessageCollector, coordinator: TaskCoordinator) -> None: ...


class ClosableTask(ABC):
    """Optional: cleanup hook on shutdown."""

    @abstractmethod
    def close(self) -> None: ...


class ListCollector(MessageCollector):
    """Test helper: collects outgoing envelopes in a list."""

    def __init__(self):
        self.envelopes: list[OutgoingMessageEnvelope] = []

    def send(self, envelope: OutgoingMessageEnvelope) -> None:
        self.envelopes.append(envelope)

    def messages(self) -> list[Any]:
        return [e.message for e in self.envelopes]
