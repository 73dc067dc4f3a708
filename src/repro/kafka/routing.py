"""Shard-local produce targeting: who owns a (topic, partition)?

Under process-backed execution every worker's forked cluster copy is a
shared-nothing broker shard, and *GroupByPartitionId* plus the FNV-1a
:func:`~repro.kafka.producer.hash_partitioner` make partition ownership
deterministic: task *i* consumes partition *i* of every input stream, and
a keyed produce lands on a partition computed from the key alone.  The
:class:`RouteTable` is the materialization of that determinism — a map
from (topic, partition) to the worker group that hosts the partition's
shard, its peer-mesh socket address, and its incarnation number (bumped
on every relaunch so reconnecting senders can tell a replacement from a
stale address).

The table is owned and versioned by the parent control plane
(``repro.parallel.coordinator.RunnerMesh``), shipped to workers at fork
and re-pushed (``MSG_ROUTES``) whenever ownership changes; workers use it
to send keyed traffic shard-to-shard instead of through the parent.
"""

from __future__ import annotations

from typing import NamedTuple


class RouteEntry(NamedTuple):
    """Owner of one partition: worker group id, socket address, incarnation."""

    gid: str
    address: str
    incarnation: int


class RouteTable:
    """Versioned (topic, partition) -> owner map."""

    def __init__(self, epoch: int = 0,
                 entries: dict[str, dict[int, RouteEntry]] | None = None):
        self.epoch = epoch
        self.entries: dict[str, dict[int, RouteEntry]] = entries or {}

    def owner(self, topic: str, partition: int) -> RouteEntry | None:
        by_partition = self.entries.get(topic)
        if by_partition is None:
            return None
        return by_partition.get(partition)

    def set_owner(self, topic: str, partition: int, entry: RouteEntry) -> None:
        self.entries.setdefault(topic, {})[partition] = entry

    def owned_topics(self) -> set[str]:
        return set(self.entries)

    def entries_for_gid(self, gid: str) -> RouteEntry | None:
        """Any entry owned by ``gid`` (they all share address/incarnation)."""
        for by_partition in self.entries.values():
            for entry in by_partition.values():
                if entry.gid == gid:
                    return entry
        return None

    def to_payload(self) -> dict:
        return {
            "epoch": self.epoch,
            "entries": {
                topic: {str(p): list(entry)
                        for p, entry in by_partition.items()}
                for topic, by_partition in self.entries.items()
            },
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "RouteTable":
        entries = {
            topic: {int(p): RouteEntry(*value)
                    for p, value in by_partition.items()}
            for topic, by_partition in payload.get("entries", {}).items()
        }
        return cls(epoch=payload.get("epoch", 0), entries=entries)
