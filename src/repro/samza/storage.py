"""Fault-tolerant local state: the layered key-value store stack.

§2 of the paper: "Each streaming task in a Samza job has managed local
storage ... The state is modeled as a stream and Samza manages the
snapshotting and restoration by replaying the state stream in case of a
task failure."

A container store is, top to bottom, dirty map → committed decoded map →
serde → log:

* :class:`WriteBehindKeyValueStore` — the dirty map, which defers the
  serde *and* the changelog write of every mutation until ``flush()``,
  over the committed entries held decoded (the RocksDB role).  The
  container flushes stores immediately before writing the checkpoint, so
  the changelog is exactly as current as the checkpoint it accompanies.
* :class:`SerializedKeyValueStore` — encodes each flushed entry with the
  store's serdes.  The paper's Figure 6 finding — sliding window
  throughput "is dominated by access to the key-value store" — came from
  paying this serde on every access; its Kryo-vs-Avro join gap comes from
  which serde is plugged in here (the generic object serde models Kryo;
  SQL stores get codecs derived from their plan).
* :class:`LoggedKeyValueStore` — hands each encoded batch to the
  changelog: one produce-batch request on the store's compacted topic
  partition.  It holds nothing.

A relaunch restores a store with :func:`materialize` over the changelog
partition (one fetch) and :func:`open_logged_store`, which decodes the
committed entries once, in serialized-key order, into the top layer.

:class:`InMemoryKeyValueStore` is a plain bytes store for callers that want
a whole store under the serialized layer (tests, the paper-era micro
benchmarks); the container builds none.

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
        """Push buffered writes down the stack."""

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
        changelog tombstone)."""
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
    """The changelog sink as a store: holds nothing, reads nothing.

    ``log_fn(records)`` receives each batch's ``(key, value_or_None)``
    records as one list; the container wires it to one produce-batch
    request on the store's compacted changelog topic partition.  If it
    raises, the layer above keeps its state, so the same batch can be
    written again (records already appended are keyed upserts, idempotent
    under replay); a caller that gives up instead must discard the store,
    as the container does when a commit fails.
    """

    def __init__(self, log_fn: Callable[[list[tuple[bytes, bytes | None]]], None]):
        self._log = log_fn

    def put(self, key: bytes, value: bytes) -> None:
        self.write_batch(((key, value),))

    def delete(self, key: bytes) -> None:
        self.write_batch(((key, None),))

    def write_batch(self, entries: Iterable[tuple[bytes, bytes | None]]) -> None:
        records = list(entries)
        if records:
            self._log(records)


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

    def __len__(self) -> int:
        return len(self._backing)


class WriteBehindKeyValueStore(KeyValueStore):
    """Object-level dirty map over the committed entries, held decoded;
    serde and changelog writes wait for flush.

    ``put``/``delete`` record the *intention* in an insertion-ordered dict
    (deletes as :data:`TOMBSTONE`); nothing below this layer — serde,
    changelog produce — runs until ``flush()``, which the task instance
    calls at commit time immediately before checkpointing input offsets
    and which hands the whole dirty map down as **one** ``write_batch``.
    Per-message state maintenance therefore costs one dict write instead
    of an O(value) serde round-trip plus a changelog produce, and a commit
    costs one produce-batch request per store.

    ``live`` is the store's committed content, ``{key: value}``, decoded:
    empty for a store that restored nothing, else the restored changelog
    in serialized-key order (:func:`open_logged_store`).  The store takes
    it over and brings it up to date at each successful flush.

    Semantics:

    * **Keys must be hashable**: the dirty map and the committed map hold
      them.  SQL store keys are tuples, ints and strings; native task
      stores use strings and tuples.
    * **Values are held by reference.**  The bytes written at flush
      reflect the object's state *at flush time*, i.e. exactly the state
      the accompanying checkpoint describes.  (Operators that mutate a
      record in place after ``put`` get commit-consistent snapshots for
      free; this is intentional.)  ``get`` and ``all()`` hand out the
      held objects themselves.
    * **``get`` sees writes.**  It consults the dirty map first, then the
      committed map — a dict lookup either way, zero serde.
    * **``all()`` is the open scan** of the committed map: it must run
      with no deferred writes pending (when the store opens, or after a
      flush) and raises :class:`StateStoreError` otherwise.  It never
      flushes to make the scan possible — that would put changelog
      records ahead of the checkpoint, and a task that is not idempotent
      (a counter) would then apply its replayed suffix twice after a
      crash.  Entries come in serialized-key order as the store opened
      them; keys a later flush makes live follow, in flush order.
    * **Commit pays for net change only.**  The committed map knows
      exactly which keys are live below, so ``delete`` of a key not in it
      just drops the dirty entry — a row put and purged inside one commit
      interval never reaches the serde or the changelog — while a key
      that *is* live (a persisted row, or a crash orphan flushed ahead of
      its checkpoint) gets a real tombstone.  No tombstone is logged for
      an absent key.
    * **Flush order** is dirty-map insertion order (first dirtying wins;
      a key re-put after an elided delete counts from the re-put), so the
      changelog byte stream is deterministic under replay.
    * **Failed flush.**  If ``write_batch`` raises, the dirty map and the
      committed map are untouched: flush again, or discard the store (the
      container does the latter — a failed commit kills it and the
      replacement restores from the changelog).
    * **Crash window.**  Unflushed mutations simply vanish with the
      process; the changelog equals the last commit, the checkpoint equals
      the last commit, and replay regenerates the lost suffix — producing
      byte-identical state because the replayed inputs start from exactly
      the state they originally started from.
    """

    def __init__(self, backing: KeyValueStore, live: dict):
        self._backing = backing
        # key -> object value, or TOMBSTONE for a deferred delete;
        # insertion-ordered so flush order — and with it the changelog
        # byte stream — is deterministic under replay.
        self._dirty: dict[Any, Any] = {}
        # key -> committed value: what the changelog holds, decoded.
        self._live = live
        self.flushed_count = 0  # entries handed down by flush()
        self.elided_count = 0   # deletes that needed no tombstone

    @property
    def dirty_count(self) -> int:
        """Deferred mutations awaiting flush (backs a metrics gauge)."""
        return len(self._dirty)

    def get(self, key: Any) -> Any:
        value = self._dirty.get(key, _MISSING)
        if value is _MISSING:
            return self._live.get(key)
        return None if value is TOMBSTONE else value

    def put(self, key: Any, value: Any) -> None:
        self._dirty[key] = value

    def delete(self, key: Any) -> None:
        if key in self._live:
            self._dirty[key] = TOMBSTONE
        else:
            self._dirty.pop(key, None)  # absent below: no tombstone
            self.elided_count += 1

    def all(self) -> Iterator[tuple[Any, Any]]:
        if self._dirty:
            raise StateStoreError(
                f"scan with {len(self._dirty)} deferred writes pending: "
                "a store is scanned when it opens or after a flush")
        return iter(self._live.items())

    def flush(self) -> None:
        """Push the deferred mutations down as one batch (serde + changelog
        run here), then commit them to the decoded map."""
        dirty = self._dirty
        if dirty:
            self._backing.write_batch(dirty.items())
            live = self._live
            for key, value in dirty.items():
                if value is TOMBSTONE:
                    del live[key]
                else:
                    live[key] = value
            self.flushed_count += len(dirty)
            dirty.clear()

    def __len__(self) -> int:
        live = self._live
        count = len(live)
        for key, value in self._dirty.items():
            if value is TOMBSTONE:
                count -= 1  # deferred only for a live key
            elif key not in live:
                count += 1
        return count


def materialize(records: Iterable[tuple[bytes, bytes | None]]) -> dict[bytes, bytes]:
    """A changelog's content: the last value per key, tombstoned keys
    dropped."""
    latest = dict(records)
    return {key: value for key, value in latest.items() if value is not None}


def open_logged_store(committed: dict[bytes, bytes], key_serde: Serde,
                      value_serde: Serde, log_fn) -> WriteBehindKeyValueStore:
    """The container's store stack over ``committed``, a changelog's
    content (:func:`materialize`): each entry is decoded once, in
    serialized-key order, into the top layer; flushes encode with the same
    serdes and go to ``log_fn``."""
    key_of, value_of = key_serde.from_bytes, value_serde.from_bytes
    live = {key_of(raw): value_of(committed[raw]) for raw in sorted(committed)}
    return WriteBehindKeyValueStore(SerializedKeyValueStore(
        LoggedKeyValueStore(log_fn), key_serde, value_serde), live)
