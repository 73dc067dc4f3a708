"""Tests for the layered key-value store stack."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common import StateStoreError
from repro.samza import (
    InMemoryKeyValueStore,
    LoggedKeyValueStore,
    SerializedKeyValueStore,
)
from repro.samza.storage import materialize, open_logged_store
from repro.serde import JsonSerde, LongSerde, ObjectSerde, StringSerde
from repro.serde.state_codecs import ordered_key_serde, positional_value_serde


def _stack_over(committed, sink, serde=None, value_serde=None):
    """The container's stack — write-behind → serialized → logged — opened
    over ``committed`` (a materialized changelog), logging to ``sink``.
    ``serde`` codes keys, and values too unless ``value_serde`` is given."""
    serde = serde or ObjectSerde()
    return open_logged_store(committed, serde, value_serde or serde, sink)


def _committed(log, serde=None, value_serde=None):
    """What a restore from ``log`` holds, decoded."""
    serde = serde or ObjectSerde()
    value_serde = value_serde or serde
    return {serde.from_bytes(key): value_serde.from_bytes(value)
            for key, value in materialize(log).items()}


def _replay(log):
    """The log applied to a fresh bytes store, one record at a time."""
    memory = InMemoryKeyValueStore()
    memory.write_batch(log)
    return memory


class TestInMemoryStore:
    def test_put_get_delete(self):
        store = InMemoryKeyValueStore()
        store.put(b"k", b"v")
        assert store.get(b"k") == b"v"
        store.delete(b"k")
        assert store.get(b"k") is None

    def test_get_missing_is_none(self):
        assert InMemoryKeyValueStore().get(b"nope") is None

    def test_delete_missing_is_noop(self):
        InMemoryKeyValueStore().delete(b"nope")

    def test_overwrite(self):
        store = InMemoryKeyValueStore()
        store.put(b"k", b"1")
        store.put(b"k", b"2")
        assert store.get(b"k") == b"2"
        assert len(store) == 1

    def test_all_in_key_order(self):
        store = InMemoryKeyValueStore()
        for key in (b"c", b"a", b"b"):
            store.put(key, b"v")
        assert [k for k, _ in store.all()] == [b"a", b"b", b"c"]

    def test_non_bytes_key_rejected(self):
        with pytest.raises(StateStoreError):
            InMemoryKeyValueStore().put("str", b"v")
        with pytest.raises(StateStoreError):
            InMemoryKeyValueStore().get(3)

    def test_non_bytes_value_rejected(self):
        with pytest.raises(StateStoreError):
            InMemoryKeyValueStore().put(b"k", "v")

    @given(st.dictionaries(st.binary(min_size=1, max_size=6), st.binary(max_size=6),
                           max_size=40))
    def test_matches_dict_semantics(self, entries):
        store = InMemoryKeyValueStore()
        for k, v in entries.items():
            store.put(k, v)
        assert dict(store.all()) == entries
        assert [k for k, _ in store.all()] == sorted(entries)


class TestLoggedStore:
    def test_mutations_logged(self):
        log = []
        store = LoggedKeyValueStore(log.extend)
        store.put(b"a", b"1")
        store.put(b"a", b"2")
        store.delete(b"a")
        assert log == [(b"a", b"1"), (b"a", b"2"), (b"a", None)]

    def test_reads_not_logged(self):
        log = []
        store = _stack_over({}, log.extend)
        store.put("a", 1)
        store.flush()
        store.get("a")
        store.get("b")
        list(store.all())
        len(store)
        store.flush()
        assert len(log) == 1

    def test_replaying_log_rebuilds_store(self):
        log = []
        store = LoggedKeyValueStore(log.extend)
        store.put(b"a", b"1")
        store.put(b"b", b"2")
        store.delete(b"a")
        rebuilt = InMemoryKeyValueStore()
        for key, value in log:
            if value is None:
                rebuilt.delete(key)
            else:
                rebuilt.put(key, value)
        assert dict(rebuilt.all()) == materialize(log) == {b"b": b"2"}


class TestSerializedStore:
    def _store(self):
        return SerializedKeyValueStore(
            InMemoryKeyValueStore(), StringSerde(), JsonSerde())

    def test_object_roundtrip(self):
        store = self._store()
        store.put("order-1", {"units": 30})
        assert store.get("order-1") == {"units": 30}

    def test_missing_is_none(self):
        assert self._store().get("missing") is None

    def test_delete(self):
        store = self._store()
        store.put("k", [1])
        store.delete("k")
        assert store.get("k") is None

    def test_long_keys_sort_numerically(self):
        """Big-endian longs keep numeric order in the bytes store — the
        property the window operator's time-keyed scans depend on."""
        store = SerializedKeyValueStore(
            InMemoryKeyValueStore(), LongSerde(), JsonSerde())
        for ts in (5, 1000, 3, 70):
            store.put(ts, ts)
        assert [k for k, _ in store.all()] == [3, 5, 70, 1000]


class TestWriteBehindStore:
    """Write-behind over serialized over logged — the container's stack,
    opened the way a relaunch opens it."""

    def _stack(self):
        log = []
        return _stack_over({}, log.extend), log

    def test_reads_see_unflushed_writes(self):
        wb, log = self._stack()
        wb.put("k", {"n": 1})
        assert wb.get("k") == {"n": 1}
        assert log == []                # nothing pushed down or logged yet

    def test_value_captured_by_reference(self):
        """Mutations after put are visible at flush — the flushed bytes
        describe commit-time state, matching the checkpoint."""
        wb, log = self._stack()
        value = {"n": 1}
        wb.put("k", value)
        value["n"] = 2
        wb.flush()
        assert _committed(log) == {"k": {"n": 2}}

    def test_flush_pushes_serde_and_changelog(self):
        wb, log = self._stack()
        wb.put("a", 1)
        wb.put("b", 2)
        wb.flush()
        assert _committed(log) == {"a": 1, "b": 2}
        assert len(log) == 2
        assert wb.dirty_count == 0

    def test_flush_order_is_insertion_order(self):
        """First-dirtying order decides the changelog sequence, so replayed
        runs produce byte-identical changelogs."""
        wb, log = self._stack()
        wb.put("b", 1)
        wb.put("a", 2)
        wb.put("b", 3)  # overwrite keeps b's original position
        wb.flush()
        serde = ObjectSerde()
        assert [k for k, _ in log] == [serde.to_bytes("b"), serde.to_bytes("a")]
        assert serde.from_bytes(log[0][1]) == 3

    def test_last_write_wins_before_flush(self):
        wb, log = self._stack()
        wb.put("k", 1)
        wb.put("k", 2)
        wb.flush()
        assert _committed(log) == {"k": 2}
        assert len(log) == 1  # intermediate version never logged

    def test_tombstone_defers_delete(self):
        wb, log = self._stack()
        wb.put("k", 1)
        wb.flush()
        wb.delete("k")
        assert wb.get("k") is None      # read-your-delete
        assert len(log) == 1            # not yet logged
        wb.flush()
        assert _committed(log) == {}
        assert log[-1][1] is None       # changelog tombstone

    def test_put_then_delete_flushes_tombstone_only(self):
        """A key that was flushed live earlier: the interval's put is
        coalesced away, the tombstone alone goes down."""
        wb, log = self._stack()
        wb.put("k", 0)
        wb.flush()
        del log[:]
        wb.put("k", 1)
        wb.delete("k")
        wb.flush()
        assert log == [(ObjectSerde().to_bytes("k"), None)]

    def test_put_then_delete_of_never_persisted_key_costs_nothing(self):
        """Put and purged inside one interval, never below: nothing reaches
        the serialized layer, nothing is logged, no serde runs for it."""
        log, encoded = [], []

        class CountingSerde(ObjectSerde):
            def to_bytes(self, obj):
                encoded.append(obj)
                return super().to_bytes(obj)

        wb = _stack_over({}, log.extend, CountingSerde())
        wb.put("other", 1)
        wb.put("k", 1)
        assert wb.dirty_count == 2
        wb.delete("k")
        assert wb.dirty_count == 1 and wb.elided_count == 1
        wb.delete("never-put")          # absent everywhere: same story
        wb.flush()
        assert [key for key, _ in log] == [ObjectSerde().to_bytes("other")]
        assert encoded == ["other", 1]
        assert wb.flushed_count == 1 and wb.elided_count == 2

    def test_restart_over_nonempty_store_keeps_tombstones_until_flushed(self):
        """Opened over a restored changelog, with no scan: a restored key (a
        crash orphan) is live, so its delete keeps a tombstone — held in
        the write-behind layer until the flush logs it.  A key absent
        below needs none."""
        serde = ObjectSerde()
        log = [(serde.to_bytes("orphan"), serde.to_bytes(1))]
        wb = _stack_over(materialize(log), log.extend)
        wb.put("orphan", 2)
        wb.delete("orphan")             # live below: a real delete
        wb.put("fresh", 3)
        wb.delete("fresh")              # absent below: elided
        assert wb.elided_count == 1 and wb.dirty_count == 1
        assert wb.get("orphan") is None and len(wb) == 0
        assert len(log) == 1            # the tombstone is not logged yet
        wb.flush()
        assert log[1:] == [(serde.to_bytes("orphan"), None)]
        assert _committed(log) == {}
        wb.delete("orphan")             # absent since that flush
        assert wb.elided_count == 2 and wb.dirty_count == 0

    def test_scan_learns_live_keys_so_orphans_get_real_deletes(self):
        """The keys a scan lists are the live ones: deleting one logs a
        real tombstone, deleting a key it did not list is elided, and the
        next scan no longer lists what was deleted."""
        serde = ObjectSerde()
        log = [(serde.to_bytes("orphan"), serde.to_bytes(1))]
        wb = _stack_over(materialize(log), log.extend)
        assert dict(wb.all()) == {"orphan": 1}
        wb.put("orphan", 1)
        wb.delete("orphan")
        wb.put("fresh", 1)
        wb.delete("fresh")
        assert wb.elided_count == 1
        wb.flush()
        assert log[1:] == [(serde.to_bytes("orphan"), None)]
        assert _committed(log) == {}
        assert list(wb.all()) == []
        wb.delete("orphan")
        assert wb.elided_count == 2 and wb.dirty_count == 0

    def test_open_scan_is_in_serialized_key_order(self):
        """A store opens over its restored entries in serialized-key order
        — the order the window and join rebuilds rely on — and a flush
        appends the keys it makes live."""
        log = []
        wb = _stack_over({}, log.extend, LongSerde(), JsonSerde())
        for ts in (5, 1000, 3):
            wb.put(ts, ts)
        wb.flush()
        assert [k for k, _ in wb.all()] == [5, 1000, 3]
        reopened = _stack_over(materialize(log), log.extend, LongSerde(),
                               JsonSerde())
        assert list(reopened.all()) == [(3, 3), (5, 5), (1000, 1000)]
        reopened.put(70, 70)
        reopened.delete(5)
        reopened.flush()
        assert [k for k, _ in reopened.all()] == [3, 1000, 70]

    def test_scan_with_deferred_writes_raises_and_logs_nothing(self):
        """A scan sees only what is committed, so it must not run with
        writes pending; nor may it flush them, which would log ahead of
        the checkpoint."""
        wb, log = self._stack()
        wb.put(1, "flushed")
        wb.put(3, "flushed")
        wb.flush()
        flushed_log = list(log)
        wb.put(2, "dirty")
        wb.delete(3)
        with pytest.raises(StateStoreError):
            wb.all()
        assert log == flushed_log
        assert wb.dirty_count == 2 and _committed(log)[3] == "flushed"
        wb.flush()
        assert list(wb.all()) == [(1, "flushed"), (2, "dirty")]

    def test_len_accounts_for_dirty(self):
        wb, _ = self._stack()
        wb.put("a", 1)
        wb.put("b", 2)
        wb.flush()
        wb.delete("a")
        wb.put("c", 3)
        wb.put("b", 9)  # overwrite: no size change
        assert len(wb) == 2

    def test_changelog_restore_equivalence(self):
        """Restoring the changelog produced through write-behind rebuilds
        exactly the flushed store contents."""
        wb, log = self._stack()
        wb.put("a", {"n": 1})
        wb.put("b", [1, 2])
        wb.flush()
        wb.delete("a")
        wb.put("c", "x")
        wb.flush()
        wb.put("never-flushed", 1)  # lost on crash: not in the changelog

        restored = _stack_over(materialize(log), [].extend)
        assert dict(restored.all()) == {"b": [1, 2], "c": "x"}
        assert len(restored) == 2


class TestFlushFailureOrdering:
    """The changelog write comes first: a flush whose write fails leaves
    the committed map and the dirty map as they were, so the retried
    flush logs exactly what the first one owed."""

    @pytest.mark.parametrize("appended_before_failing", [0, 1, 3])
    def test_failed_flush_then_retry_restores_to_live_state(
            self, appended_before_failing):
        serde = ObjectSerde()
        log, calls = [], []

        def sink(records):
            calls.append(records)
            if len(calls) == 2:  # the first flush after the set-up one
                log.extend(records[:appended_before_failing])
                raise StateStoreError("changelog unavailable")
            log.extend(records)

        wb = _stack_over({}, sink)
        wb.put("persisted", 1)
        wb.put("overwritten", 1)
        wb.flush()

        wb.put("persisted", 2)
        wb.delete("persisted")          # put-then-delete of a persisted key
        wb.put("never", 1)
        wb.delete("never")              # ...of a never-persisted key
        wb.put("overwritten", 2)        # a plain overwrite
        wb.put("fresh", 1)
        with pytest.raises(StateStoreError):
            wb.flush()
        assert wb.dirty_count == 3                  # nothing forgotten
        assert len(wb) == 2                         # nothing committed
        assert {key: wb.get(key) for key in ("persisted", "never",
                "overwritten", "fresh")} == {
            "persisted": None, "never": None, "overwritten": 2, "fresh": 1}

        wb.flush()
        assert calls[2] == calls[1]                 # the same batch again
        assert dict(wb.all()) == {"overwritten": 2, "fresh": 1}
        assert _committed(log) == dict(wb.all())
        assert serde.to_bytes("never") not in [key for key, _ in log]


_KEYS = st.integers(0, 5)
_OPS = st.one_of(
    st.tuples(st.just("put"), _KEYS, st.integers(0, 3)),
    st.tuples(st.just("delete"), _KEYS),
    st.tuples(st.just("get"), _KEYS),
    st.tuples(st.sampled_from(["all", "len", "flush", "crash"])),
)


class _PerRecordReference:
    """The parent commit's flush, kept as the reference: every dirty entry
    goes down one record at a time — memtable first, changelog second —
    and every tombstone is logged, no-op or not."""

    def __init__(self):
        self.memory = InMemoryKeyValueStore()
        self.log = []
        self.dirty = {}

    def flush(self, key_serde, value_serde):
        """Returns this flush's records, no-op tombstones left out."""
        effective = []
        for key, value in self.dirty.items():
            raw = key_serde.to_bytes(key)
            if value is None:
                if self.memory.get(raw) is not None:
                    effective.append((raw, None))
                self.memory.delete(raw)
                self.log.append((raw, None))
            else:
                self.memory.put(raw, value_serde.to_bytes(value))
                self.log.append((raw, value_serde.to_bytes(value)))
                effective.append(self.log[-1])
        self.dirty.clear()
        return effective

    def crash(self):
        self.memory = _replay(self.log)
        self.dirty.clear()


#: The two store stacks the runtime builds: the generic object serde
#: (native ``StreamTask`` stores), and a SQL store's plan-derived codecs —
#: ordered keys, rows of ``[n, "v<n>"]`` — with how a generated value
#: becomes a stored one.
_STACKS = {
    "object": (ObjectSerde(), ObjectSerde(), lambda n: n),
    "typed": (ordered_key_serde("int"),
              positional_value_serde(("long", "string"), None),
              lambda n: [n, f"v{n}"]),
}


@pytest.mark.parametrize("stack", sorted(_STACKS))
class TestStoreStackAgainstModel:
    """Write-behind → serialized → logged against a plain dict, over
    generated operation sequences with crashes and restores, on each
    stack."""

    # derandomize: CI (and the tier-1 gate) must see the same examples on
    # every run; explore locally by raising max_examples and dropping it.
    # The first three examples pin, on every stack, the three cases the
    # live-key map gets wrong when it is not restored, not maintained, or
    # ignored; the last, the open scan's order after a restore and after
    # a flush that adds keys.
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(_OPS, max_size=40))
    @example(ops=[("put", 0, 0), ("flush",), ("delete", 0)])
    @example(ops=[("put", 0, 0), ("flush",), ("crash",), ("delete", 0)])
    @example(ops=[("put", 0, 0), ("flush",), ("crash",), ("delete", 1),
                  ("flush",)])
    @example(ops=[("put", 0, 0), ("flush",), ("crash",), ("all",),
                  ("put", 1, 1), ("all",), ("delete", 0), ("delete", 1),
                  ("flush",), ("all",)])
    def test_reads_restores_and_changelog_match_the_model(self, stack, ops):
        key_serde, value_serde, stored = _STACKS[stack]
        to_bytes = key_serde.to_bytes

        def open_stack(log_so_far):
            return _stack_over(materialize(log_so_far), log.extend,
                               key_serde, value_serde)

        log = []
        wb = open_stack(log)
        reference = _PerRecordReference()
        model, flushed_model = {}, {}
        # the committed keys in the order the store holds them: key order
        # as restored, then each flush's new keys in the order it logs them
        order = []
        elided_this_interval, reordered = set(), False

        for op in ops:
            kind = op[0]
            if kind == "put":
                _, key, value = op
                value = stored(value)
                reordered = reordered or key in elided_this_interval
                wb.put(key, value)
                reference.dirty[key] = value
                model[key] = value
            elif kind == "delete":
                elided_before = wb.elided_count
                wb.delete(op[1])
                if wb.elided_count > elided_before:
                    assert op[1] not in flushed_model  # exact, not a guess
                    elided_this_interval.add(op[1])
                reference.dirty[op[1]] = None
                model.pop(op[1], None)
            elif kind == "get":
                assert wb.get(op[1]) == model.get(op[1])
            elif kind == "all" and wb.dirty_count:
                logged_before = len(log)
                with pytest.raises(StateStoreError):
                    wb.all()
                assert len(log) == logged_before
            elif kind == "all":
                assert list(wb.all()) == [(key, model[key]) for key in order]
            elif kind == "len":
                assert len(wb) == len(model)
            elif kind == "flush":
                logged_before = len(log)
                wb.flush()
                records = log[logged_before:]
                expected = reference.flush(key_serde, value_serde)
                # batch == per-record, minus the no-op tombstones; a key
                # re-put after an elided delete re-enters the dirty map at
                # the end, so only then may the order inside a flush differ
                assert sorted(records) == sorted(expected)
                assert reordered or records == expected
                assert materialize(log) == dict(reference.memory.all())
                for raw, value in records:
                    key = key_serde.from_bytes(raw)
                    if value is None:
                        order.remove(key)
                    elif key not in order:
                        order.append(key)
                flushed_model = dict(model)
                elided_this_interval, reordered = set(), False
            else:  # crash: unflushed writes vanish, restore from changelog
                wb = open_stack(log)
                reference.crash()
                model = dict(flushed_model)
                order = sorted(model, key=to_bytes)
                elided_this_interval, reordered = set(), False
                assert _committed(log, key_serde, value_serde) == flushed_model

        assert _committed(log, key_serde, value_serde) == flushed_model
        live = set()
        for key, value in log:  # every logged tombstone hits a live record
            if value is None:
                assert key in live
                live.discard(key)
            else:
                live.add(key)
