"""Fault-tolerant local state: the layered key-value store stack.

§2 of the paper: "Each streaming task in a Samza job has managed local
storage ... The state is modeled as a stream and Samza manages the
snapshotting and restoration by replaying the state stream in case of a
task failure."

The stack, bottom to top:

* :class:`InMemoryKeyValueStore` — bytes→bytes store (the RocksDB role),
  the memtable: one unsorted dict.  ``all()`` sorts its keys once per
  scan, so a scan is in key order exactly when the key serde preserves
  order: the SQL operators' stores use :mod:`repro.serde.state_codecs`,
  whose keys do, and rebuild each window or join buffer from one ordered
  scan.
* :class:`LoggedKeyValueStore` — write-*ahead* mirror to a compacted
  changelog topic partition: each batch is logged, then applied, so the
  memtable is always the materialised changelog.  A tombstone for a key
  the memtable does not hold is therefore a no-op on restore and is never
  logged.  Restoration replays the partition.
* :class:`SerializedKeyValueStore` — object API on top of a bytes store;
  every access pays the serde cost.  The paper's Figure 6 finding — sliding
  window throughput "is dominated by access to the key-value store" — falls
  out of this layer, and its Kryo-vs-Avro join gap comes from which serde
  is plugged in here (the generic object serde models Kryo; SQL stores
  get codecs derived from their plan).
* :class:`WriteBehindKeyValueStore` — object-level dirty map that defers
  the serde *and* the changelog write of every mutation until ``flush()``,
  which hands the interval's *net* change down as one batch; a row put and
  deleted inside one interval that was never persisted costs nothing.
  The container flushes stores immediately before writing the checkpoint,
  so the changelog is exactly as current as the checkpoint it accompanies:
  a crash between commits loses only the uncommitted suffix, which
  at-least-once replay regenerates deterministically.  This is what takes
  stateful-operator state maintenance from O(state) serde per message to
  O(1) — the cure for the Figure 6 bottleneck.  Every container store
  has this layer on top.

Every layer has exactly one write path, ``write_batch(entries)``; ``put``
and ``delete`` are batches of one.  Entries are ``(key, value)`` pairs, at
most one per key; a delete is :data:`TOMBSTONE` at the object layers and
``None`` (the changelog's own tombstone) at the bytes layers.

Reads are ``get`` and the full ``all()`` scan; there are no range scans.
The sliding-window, relation-join, group-window and multi-way join
operators scan each of their stores once, in ``setup``, and hold the
decoded state themselves from then on.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from repro.common.errors import StateStoreError
from repro.serde.base import Serde


class _Tombstone:
    """Sentinel marking a delete in an object-level ``write_batch`` entry
    (and a deferred one in the write-behind dirty map)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<tombstone>"


TOMBSTONE = _Tombstone()
_MISSING = object()


class KeyValueStore:
    """Interface: get/put/delete/all/flush over hashable keys."""

    def get(self, key: Any) -> Any:
        raise NotImplementedError

    def put(self, key: Any, value: Any) -> None:
        raise NotImplementedError

    def delete(self, key: Any) -> None:
        raise NotImplementedError

    def write_batch(self, entries: Iterable[tuple[Any, Any]]) -> None:
        """Apply ``(key, value)`` mutations in order, at most one per key;
        a value of :data:`TOMBSTONE` deletes."""
        for key, value in entries:
            if value is TOMBSTONE:
                self.delete(key)
            else:
                self.put(key, value)

    def all(self) -> Iterator[tuple[Any, Any]]:
        """Every entry, in serialized-key order."""
        raise NotImplementedError

    def flush(self) -> None:
        """Push buffered writes down the stack (dirty map -> log -> memory)."""

    def __len__(self) -> int:
        raise NotImplementedError


class InMemoryKeyValueStore(KeyValueStore):
    """Bytes→bytes store: one dict, sorted only when scanned."""

    def __init__(self):
        self._data: dict[bytes, bytes] = {}

    @staticmethod
    def _check_key(key: Any) -> bytes:
        if not isinstance(key, (bytes, bytearray)):
            raise StateStoreError(f"store keys must be bytes, got {type(key).__name__}")
        return bytes(key)

    def get(self, key: bytes) -> bytes | None:
        return self._data.get(self._check_key(key))

    def put(self, key: bytes, value: bytes) -> None:
        self.write_batch(((key, value),))

    def delete(self, key: bytes) -> None:
        self.write_batch(((key, None),))

    def write_batch(self, entries: Iterable[tuple[bytes, bytes | None]]) -> None:
        """Apply ``(key, value)`` records in order; ``None`` deletes (a
        changelog tombstone) — so a restore is one batch of the log."""
        data, check_key = self._data, self._check_key
        for key, value in entries:
            key = check_key(key)
            if value is None:
                data.pop(key, None)
                continue
            if not isinstance(value, (bytes, bytearray)):
                raise StateStoreError(f"store values must be bytes, got {type(value).__name__}")
            data[key] = bytes(value)

    def all(self) -> Iterator[tuple[bytes, bytes]]:
        data = self._data
        return ((key, data[key]) for key in sorted(data))

    def __len__(self) -> int:
        return len(self._data)


class LoggedKeyValueStore(KeyValueStore):
    """Write-ahead mirror to a changelog sink.

    ``log_fn(records)`` receives each batch's effective ``(key,
    value_or_None)`` records as one list; the container wires it to one
    produce-batch request on the store's compacted changelog topic
    partition.

    Log first, apply second: the backing store only ever holds what the
    changelog already records, so it *is* the materialised changelog and
    a tombstone for a key it does not hold — a no-op on restore — is
    dropped rather than logged.  If ``log_fn`` raises, nothing was applied
    and the same batch can be written again (records it had already
    appended are keyed upserts, idempotent under replay); a caller that
    gives up instead must discard the store, as the container does when a
    commit fails.
    """

    def __init__(self, backing: KeyValueStore,
                 log_fn: Callable[[list[tuple[bytes, bytes | None]]], None]):
        self._backing = backing
        self._log = log_fn

    def get(self, key: bytes) -> bytes | None:
        return self._backing.get(key)

    def put(self, key: bytes, value: bytes) -> None:
        self.write_batch(((key, value),))

    def delete(self, key: bytes) -> None:
        self.write_batch(((key, None),))

    def write_batch(self, entries: Iterable[tuple[bytes, bytes | None]]) -> None:
        held = self._backing.get
        records = [(key, value) for key, value in entries
                   if value is not None or held(key) is not None]
        if records:
            self._log(records)
            self._backing.write_batch(records)

    def all(self) -> Iterator[tuple[bytes, bytes]]:
        return self._backing.all()

    def flush(self) -> None:
        self._backing.flush()

    def __len__(self) -> int:
        return len(self._backing)


class SerializedKeyValueStore(KeyValueStore):
    """Object-level API over a bytes store; serdes run on every access."""

    def __init__(self, backing: KeyValueStore, key_serde: Serde, value_serde: Serde):
        self._backing = backing
        self._key_serde = key_serde
        self._value_serde = value_serde

    def get(self, key: Any) -> Any:
        raw = self._backing.get(self._key_serde.to_bytes(key))
        return None if raw is None else self._value_serde.from_bytes(raw)

    def put(self, key: Any, value: Any) -> None:
        self.write_batch(((key, value),))

    def delete(self, key: Any) -> None:
        self.write_batch(((key, TOMBSTONE),))

    def write_batch(self, entries: Iterable[tuple[Any, Any]]) -> None:
        key_bytes = self._key_serde.to_bytes
        value_bytes = self._value_serde.to_bytes
        self._backing.write_batch(
            (key_bytes(key), None if value is TOMBSTONE else value_bytes(value))
            for key, value in entries)

    def all(self) -> Iterator[tuple[Any, Any]]:
        for raw_key, raw_value in self._backing.all():
            yield self._key_serde.from_bytes(raw_key), self._value_serde.from_bytes(raw_value)

    def flush(self) -> None:
        self._backing.flush()

    def __len__(self) -> int:
        return len(self._backing)


class WriteBehindKeyValueStore(KeyValueStore):
    """Object-level dirty map deferring serde + changelog writes to flush.

    ``put``/``delete`` record the *intention* in an insertion-ordered dict
    (deletes as :data:`TOMBSTONE`); nothing below this layer — serde,
    changelog produce, memtable — runs until ``flush()``, which the task
    instance calls at commit time immediately before checkpointing input
    offsets and which hands the whole dirty map down as **one**
    ``write_batch``.  Per-message state maintenance therefore costs one
    dict write instead of an O(value) serde round-trip plus a changelog
    produce, and a commit costs one produce-batch request per store.

    Semantics:

    * **Keys must be hashable**: the dirty map and the live-key set hold
      them.  SQL store keys are tuples, ints and strings; native task
      stores use strings and tuples.
    * **Values are captured by reference.**  The bytes written at flush
      reflect the object's state *at flush time*, i.e. exactly the state
      the accompanying checkpoint describes.  (Operators that mutate a
      record in place after ``put`` get commit-consistent snapshots for
      free; this is intentional.)
    * **``get`` sees writes.**  It consults the dirty map first — a dirty
      key costs a dict lookup, zero serde.
    * **``all()`` scans what is below, and only that.**  It is the open
      scan: it must run with no deferred writes pending (when the store
      opens, or after a flush) and raises :class:`StateStoreError`
      otherwise.  It never flushes to make the scan possible — that would
      put changelog records ahead of the checkpoint, and a task that is
      not idempotent (a counter) would then apply its replayed suffix
      twice after a crash.
    * **Commit pays for net change only.**  The store keeps the exact set
      of keys it knows are live below it: empty when it opens over an
      empty backing store, learned from the first ``all()`` scan otherwise
      (the sliding-window, relation-join, group-window and multi-way join
      operators each scan their stores once in ``setup``, so after a
      restore the set is known before the first write), and brought up to
      date by each successful flush.
      Until it has opened empty or been scanned the set is *unknown* and
      every delete is deferred as a tombstone (which the logged layer
      still drops if the key turns out to be absent).  Once it is known,
      ``delete`` of a key that is not in it just drops the dirty entry — a row put and purged
      inside one commit interval never reaches the serde, the memtable or
      the changelog — while a key that *is* live below (a persisted row,
      or a crash orphan flushed ahead of its checkpoint) gets a real
      tombstone.  The set holds the key objects the dirty map already
      owned — for the window operator, one ``(*partition_key, seq)``
      tuple per retained row.  Writing to the backing store behind
      this layer's back would break the set; nothing does.
    * **Flush order** is dirty-map insertion order (first dirtying wins;
      a key re-put after an elided delete counts from the re-put), so the
      changelog byte stream is deterministic under replay.
    * **Failed flush.**  If ``write_batch`` raises, the dirty map and the
      key set are untouched: flush again, or discard the store (the
      container does the latter — a failed commit kills it and the
      replacement restores from the changelog).
    * **Crash window.**  Unflushed mutations simply vanish with the
      process; the changelog equals the last commit, the checkpoint equals
      the last commit, and replay regenerates the lost suffix — producing
      byte-identical state because the replayed inputs start from exactly
      the state they originally started from.
    """

    def __init__(self, backing: KeyValueStore):
        self._backing = backing
        # key -> object value, or TOMBSTONE for a deferred delete;
        # insertion-ordered so flush order — and with it the changelog
        # byte stream — is deterministic under replay.
        self._dirty: dict[Any, Any] = {}
        # Keys known to be live below this layer; None = unknown.
        self._live: set | None = None if len(backing) else set()
        self.flushed_count = 0  # entries handed down by flush()
        self.elided_count = 0   # deletes that needed no tombstone

    @property
    def dirty_count(self) -> int:
        """Deferred mutations awaiting flush (backs a metrics gauge)."""
        return len(self._dirty)

    def get(self, key: Any) -> Any:
        value = self._dirty.get(key, _MISSING)
        if value is _MISSING:
            return self._backing.get(key)
        return None if value is TOMBSTONE else value

    def put(self, key: Any, value: Any) -> None:
        self._dirty[key] = value

    def delete(self, key: Any) -> None:
        live = self._live
        if live is not None and key not in live:
            self._dirty.pop(key, None)  # known absent below: no tombstone
            self.elided_count += 1
        else:
            self._dirty[key] = TOMBSTONE

    def all(self) -> Iterator[tuple[Any, Any]]:
        if self._dirty:
            raise StateStoreError(
                f"scan with {len(self._dirty)} deferred writes pending: "
                "a store is scanned when it opens or after a flush")
        if self._live is not None:
            return self._backing.all()
        # First full scan: learn which keys are live below.
        entries = list(self._backing.all())
        self._live = {key for key, _ in entries}
        return iter(entries)

    def flush(self) -> None:
        """Push the deferred mutations down as one batch (serde + changelog
        run here), then flush the backing stack."""
        dirty = self._dirty
        if dirty:
            self._backing.write_batch(dirty.items())
            live = self._live
            if live is not None:
                for key, value in dirty.items():
                    if value is TOMBSTONE:
                        live.discard(key)
                    else:
                        live.add(key)
            self.flushed_count += len(dirty)
            dirty.clear()
        self._backing.flush()

    def __len__(self) -> int:
        count = len(self._backing)
        for key, value in self._dirty.items():
            exists = self._backing.get(key) is not None
            if value is TOMBSTONE:
                count -= 1 if exists else 0
            elif not exists:
                count += 1
        return count
