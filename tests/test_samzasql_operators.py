"""Unit tests for the SamzaSQL operator layer, operator by operator."""

import pytest

from repro.samza.storage import (
    InMemoryKeyValueStore,
    SerializedKeyValueStore,
    materialize,
    open_logged_store,
)
from repro.samzasql.operators import (
    FilterOperator,
    GroupWindowAggOperator,
    InsertOperator,
    MultiWayStreamJoinOperator,
    ProjectOperator,
    ScanOperator,
    SlidingWindowOperator,
    StreamRelationJoinOperator,
)
from repro.samzasql.operators.base import Operator, OperatorContext
from repro.samzasql.operators.multi_way_join import INDEX_SEQ
from repro.samzasql.operators.sliding_window import _WindowState
from repro.samzasql.operators.stream_relation_join import (
    RELATION_PORT,
    STREAM_PORT,
    ChangelogTombstone,
)
from repro.samzasql.physical import (
    FilterNode,
    GroupWindowAggNode,
    InsertNode,
    MultiWayStreamJoinNode,
    ProjectNode,
    ScanNode,
    SlidingWindowNode,
    StoreLayout,
    StreamRelationJoinNode,
)
from repro.serde import ObjectSerde
from repro.sql.rex import RexCall, RexInputRef, RexLiteral


class Sink:
    """Collects (row, timestamp) pairs as an operator's downstream."""

    def __init__(self):
        self.rows = []

    def receive_batch(self, port, rows, timestamps):
        self.rows.extend(zip(rows, timestamps))


# -- the plan nodes the operators are built from ------------------------------


def ref(index):
    return RexInputRef(index)


def call(op, *operands):
    """An expression ``op(operands)``; an int operand is a literal."""
    return RexCall(op, tuple(RexLiteral(o) if isinstance(o, int) else o
                             for o in operands))


def agg(func, arg=None):
    """An aggregate as plan nodes carry it: no operand for COUNT(*)."""
    return RexCall(func, () if arg is None else (ref(arg),))


def insert_node(field_names, rowtime_index, key_field_indexes=None):
    return InsertNode("Out", field_names, ["ANY"] * len(field_names),
                      rowtime_index, key_field_indexes)


def window_node(aggs, field_names, frame="RANGE", preceding_ms=10_000,
                preceding_rows=None):
    """A window over ``(rowtime, key, value)`` rows, partitioned by the
    key and ordered by the rowtime."""
    return SlidingWindowNode(
        partition_keys=[ref(1)], repr_key=False, order=ref(0),
        frame_mode=frame, preceding_ms=preceding_ms,
        preceding_rows=preceding_rows, aggs=aggs, field_names=field_names,
        stores=list(WINDOW_STORE_NAMES))


def group_node(aggs, field_names, kind="TUMBLE", emit=100, retain=100,
               align=0):
    """A group window over ``(rowtime, key, value)`` rows, by the key."""
    return GroupWindowAggNode(
        window_kind=kind, time=ref(0), emit_ms=emit, retain_ms=retain,
        align_ms=align, group_keys=[ref(1)], aggs=aggs,
        field_names=field_names, stores=list(GROUP_STORES))


# -- the stores, named and typed as the planner does for these tests' rows ----

#: A window's stores as the plan names them: messages, then state.
WINDOW_STORE_NAMES = ("sql-window-messages", "sql-window-state")


def window_stores(aggs, partition_kind="str"):
    """``(key, rowtime, value)`` rows partitioned by ``r[1]``: messages
    hold ``[order, *arguments]``, the state record the next seq."""
    messages, state = WINDOW_STORE_NAMES
    return {
        messages: StoreLayout.typed(
            [partition_kind, "int"],
            row=[["rowtime", "TIMESTAMP"],
                 *([aggregate.op, "BIGINT"] for aggregate in aggs)]),
        state: StoreLayout.typed(
            [partition_kind], record=[["seq", "BIGINT"]]),
    }


def join_stores(k):
    """``[ts, key]`` rows per port, and each bucket's index record."""
    return {
        f"sql-mjoin-{port}": StoreLayout.typed(
            ["int", "int"], row=[["ts", "TIMESTAMP"], ["key", "VARCHAR"]],
            record=[["count", "BIGINT"], ["seq", "BIGINT"]])
        for port in range(k)
    }


RELATION_STORES = {"sql-relation-products": StoreLayout.typed(
    "str", row=[["productId", "INTEGER"], ["supplierId", "INTEGER"]])}
GROUP_STORES = {"sql-group-windows": StoreLayout("str", fallback="test")}


def typed_store(layout):
    """A bytes store behind the serialized layer with ``layout``'s codecs."""
    return SerializedKeyValueStore(
        InMemoryKeyValueStore(), layout.key_serde(),
        layout.msg_serde() or ObjectSerde())


def restored_store(layout, changelog):
    """The container's store stack with ``layout``'s codecs, opened over
    ``changelog`` the way a relaunch opens it; it logs to ``changelog``."""
    return open_logged_store(materialize(changelog), layout.key_serde(),
                             layout.msg_serde() or ObjectSerde(),
                             changelog.extend)


def make_context(layouts=None):
    stores = {name: typed_store(layout)
              for name, layout in (layouts or {}).items()}
    sent = []
    context = OperatorContext(
        stores, send_batch=lambda entries: sent.extend(
            (msg, ts) for msg, ts, _key in entries))
    return context, sent


def wire(operator, layouts=None):
    context, sent = make_context(layouts)
    operator.setup(context)
    sink = Sink()
    operator.downstream = sink
    return sink, sent


class TestScanOperator:
    def test_avro_to_array_conversion(self):
        scan = ScanOperator(
            ScanNode("Orders", ["rowtime", "productId", "units"], 0))
        sink, _ = wire(scan)
        scan.process(0, {"rowtime": 99, "productId": 1, "units": 5}, 0)
        assert sink.rows == [([99, 1, 5], 99)]

    def test_envelope_timestamp_used_without_rowtime(self):
        scan = ScanOperator(ScanNode("S", ["a"], None))
        sink, _ = wire(scan)
        scan.process(0, {"a": 1}, 777)
        assert sink.rows == [([1], 777)]


class TestFilterProjectInsert:
    def test_filter_drops(self):
        op = FilterOperator(FilterNode(call(">", ref(0), 10)))
        sink, _ = wire(op)
        op.process(0, [5], 0)
        op.process(0, [15], 0)
        assert [row for row, _ in sink.rows] == [[15]]
        assert op.processed == 2
        assert op.emitted == 1

    def test_project_rewrites(self):
        op = ProjectOperator(ProjectNode([ref(1), call("*", ref(0), 2)],
                                         ["b", "double_a"]))
        sink, _ = wire(op)
        op.process(0, [3, "x"], 1)
        assert sink.rows == [(["x", 6], 1)]

    def test_insert_array_to_record(self):
        op = InsertOperator(insert_node(["rowtime", "units"], 0))
        context, sent = make_context()
        op.setup(context)
        op.process(0, [123, 9], 0)
        op.flush()
        assert sent == [({"rowtime": 123, "units": 9}, 123)]


class TestSlidingWindowOperator:
    def _operator(self, preceding_ms=10_000, frame="RANGE", preceding_rows=None,
                  aggs=None):
        aggs = aggs or [agg("SUM", 2)]
        operator = SlidingWindowOperator(window_node(
            aggs, ["rowtime", "key", "value"] + [a.op for a in aggs], frame,
            preceding_ms, preceding_rows))
        sink, _ = wire(operator, window_stores(aggs))
        return operator, sink

    def test_running_sum_within_range(self):
        operator, sink = self._operator(preceding_ms=10_000)
        for ts, value in [(1000, 5), (2000, 7), (20_000, 1)]:
            operator.process(0, [ts, "k", value], ts)
        sums = [row[-1] for row, _ in sink.rows]
        assert sums == [5, 12, 1]  # third tuple: first two expired

    def test_partitions_isolated(self):
        operator, sink = self._operator()
        operator.process(0, [1000, "a", 5], 1000)
        operator.process(0, [1001, "b", 7], 1001)
        assert [row[-1] for row, _ in sink.rows] == [5, 7]

    def test_rows_frame(self):
        operator, sink = self._operator(preceding_ms=None, frame="ROWS",
                                        preceding_rows=1)
        for ts, value in [(1, 10), (2, 20), (3, 30)]:
            operator.process(0, [ts, "k", value], ts)
        assert [row[-1] for row, _ in sink.rows] == [10, 30, 50]

    def test_multiple_aggregates(self):
        operator, sink = self._operator(aggs=self.AGGS)
        operator.process(0, [1, "k", 4], 1)
        operator.process(0, [2, "k", 8], 2)
        [_, (row, _ts)] = sink.rows
        assert row[-5:] == [12, 2, 4, 8, 6.0]

    def test_min_recomputed_after_purge(self):
        operator, sink = self._operator(
            preceding_ms=5, aggs=[agg("MIN", 2)])
        operator.process(0, [1, "k", 1], 1)
        operator.process(0, [2, "k", 9], 2)
        operator.process(0, [100, "k", 5], 100)  # min=1 purged
        assert [row[-1] for row, _ in sink.rows] == [1, 1, 5]

    def test_reprocessing_is_deterministic(self):
        """Replaying the same inputs over restored state yields the same
        final aggregates (the paper's exactly-once window claim)."""
        inputs = [(1000, 5), (2000, 7), (3000, 2)]
        operator, sink = self._operator()
        for ts, value in inputs:
            operator.process(0, [ts, "k", value], ts)
        first_final = sink.rows[-1][0][-1]
        # replay the last message (re-delivery after a failure)
        operator.process(0, [3000, "k", 2], 3000)  # note: same ts, same seq? no
        # a true replay re-runs with the same content:
        operator2, sink2 = self._operator()
        for ts, value in inputs + [(3000, 2)]:
            operator2.process(0, [ts, "k", value], ts)
        assert sink2.rows[2][0][-1] == first_final

    AGGS = [agg("SUM", 2), agg("COUNT"), agg("MIN", 2), agg("MAX", 2),
            agg("AVG", 2)]

    STORES = window_stores(AGGS)

    def _fresh(self, context):
        operator = SlidingWindowOperator(window_node(
            self.AGGS,
            ["rowtime", "key", "value", "s", "c", "mn", "mx", "a"],
            preceding_ms=50))
        operator.setup(context)
        sink = Sink()
        operator.downstream = sink
        return operator, sink

    def test_restore_rebuilds_live_window(self):
        """A new operator instance over the same stores (changelog-restore
        stand-in) continues producing exactly what an uninterrupted one
        would — accumulators, monotonic MIN/MAX deques and seq counters are
        all rebuilt from the retained rows and the seq record.  Each key
        retains rows past seq 127, where a byte order that is not key
        order would replay them out of order."""
        inputs = [[i // 10 + i * 7 % 5, f"k{i % 3}", (i * 31) % 17]
                  for i in range(600)]
        context, _ = make_context(self.STORES)
        first, sink1 = self._fresh(context)
        for row in inputs[:500]:
            first.process(0, list(row), row[0])
        # "crash": fresh operator, same (already flushed-through) stores
        restored, sink2 = self._fresh(context)
        assert restored.state_size() == first.state_size()
        for row in inputs[500:]:
            restored.process(0, list(row), row[0])
        # reference: one uninterrupted run on fresh stores
        ref_context, _ = make_context(self.STORES)
        reference, ref_sink = self._fresh(ref_context)
        for row in inputs:
            reference.process(0, list(row), row[0])
        assert sink1.rows + sink2.rows == ref_sink.rows
        assert restored.state_size() == reference.state_size()

    def test_crash_orphan_is_really_deleted_after_replay(self):
        """Messages store flushed, seq record not, restart: the rows of
        the lost interval sit below as orphans.  Replay re-puts each under
        the same key and a later message purges it inside one commit
        interval — the store must send a real delete, not elide it as
        "put and purged, never persisted"."""
        names = tuple(self.STORES)

        def open_stores(changelogs):
            """Production stack per store, restored from its changelog."""
            return {name: restored_store(layout, changelogs[name])
                    for name, layout in self.STORES.items()}

        def feed(operator, rows):
            for row in rows:
                operator.process(0, list(row), row[0])

        def contents(stores):
            return {name: dict(stores[name].all()) for name in names}

        committed = [[t, "k", t] for t in (0, 10, 20)]
        lost = [[t, "k", t] for t in (30, 40)]       # interval that crashed
        later = [[t, "k", t] for t in (200, 210)]    # purges everything before

        changelogs = {name: [] for name in names}
        stores = open_stores(changelogs)
        first, _ = self._fresh(OperatorContext(stores, send_batch=None))
        feed(first, committed)
        for store in stores.values():
            store.flush()                            # commit 1
        feed(first, lost)
        stores["sql-window-messages"].flush()        # crash mid-commit 2

        stores = open_stores(changelogs)             # restart from changelogs
        orphans = {key for key, _ in stores["sql-window-messages"].all()
                   if key[1] in (3, 4)}                # the rows of 30, 40
        assert len(orphans) == 2
        restored, sink = self._fresh(OperatorContext(stores, send_batch=None))
        feed(restored, lost + later)                 # replay, then move on
        for store in stores.values():
            store.flush()

        ref_logs = {name: [] for name in names}
        ref_stores = open_stores(ref_logs)
        reference, ref_sink = self._fresh(
            OperatorContext(ref_stores, send_batch=None))
        feed(reference, committed)
        for store in ref_stores.values():
            store.flush()
        feed(reference, lost + later)
        for store in ref_stores.values():
            store.flush()

        assert sink.rows == ref_sink.rows[len(committed):]
        assert contents(stores) == contents(ref_stores)
        assert not orphans & set(contents(stores)["sql-window-messages"])
        # ...and what a second restart would restore agrees too
        assert contents(open_stores(changelogs)) == contents(ref_stores)
        # the rows put and purged with nothing below cost no tombstone:
        # the uninterrupted run's second flush elided 30 and 40
        assert ref_stores["sql-window-messages"].elided_count == 2

    #: Over an INTEGER (2) and a DOUBLE (3) column, both with NULLs.
    EXACT_AGGS = [agg("COUNT"), *(agg(func, column) for column in (2, 3)
                                  for func in ("COUNT", "SUM", "AVG", "MIN",
                                               "MAX"))]

    class _OneAtATime(SlidingWindowOperator):
        """The rebuild as it was: each retained row re-added through
        ``_Accumulators.add``, in seq order."""

        def _rebuild(self):
            accumulators = self._accumulators
            for key, record in self._state.all():
                self._windows[key] = _WindowState(
                    accumulators.fresh(), accumulators.minmax_fresh(), record)
            for store_key, (order_value, *arg_values) in self._messages.all():
                seq = store_key[-1]
                window = self._windows.get(store_key[:-1])
                if window is None or seq >= window.record["seq"]:
                    continue
                window.rows.append((order_value, seq, arg_values))
                accumulators.add(window, order_value, seq, arg_values)
                self._retained += 1

    @pytest.mark.parametrize("frame", ["RANGE", "ROWS"])
    def test_rebuild_equals_re_adding_rows_one_at_a_time(self, frame):
        """After a restore through the container's open path, the rebuilt
        windows — rows, accumulators (DOUBLE sums bit for bit), MIN/MAX
        deques, the retained count — and the next outputs equal those of
        re-adding the retained rows one at a time; a crash orphan is
        skipped by both."""
        names = ["rowtime", "key", "n", "x"] + [
            f"a{i}" for i in range(len(self.EXACT_AGGS))]
        # eight rows per window in either frame: each key every 10 ms
        node = window_node(self.EXACT_AGGS, names, frame, preceding_ms=75,
                           preceding_rows=7)
        messages, state = WINDOW_STORE_NAMES
        layouts = {
            messages: StoreLayout.typed(["str", "int"], row=[
                ["rowtime", "TIMESTAMP"], ["count", "BIGINT"],
                *([f"n{i}", "INTEGER"] for i in range(5)),
                *([f"x{i}", "DOUBLE"] for i in range(5))]),
            state: StoreLayout.typed(["str"], record=[["seq", "BIGINT"]]),
        }
        # equal neighbours for the deques; sums whose rounding depends on
        # the order of addition (1e16 + 1.0 - 1e16 + 1.0 is 1.0 in order)
        ints = [3, 3, None, 2, 3, 7]
        doubles = [1e16, 1.0, -1e16, 1.0, None, 0.1, -0.0]
        rows = [[n * 10, f"k{j}", ints[(n + j) % len(ints)],
                 doubles[(n + 2 * j) % len(doubles)]]
                for n in range(20) for j in range(3)]
        committed, lost, later = rows[:39], rows[39:45], rows[45:]

        changelogs = {name: [] for name in layouts}

        def open_stores():
            return {name: restored_store(layout, changelogs[name])
                    for name, layout in layouts.items()}

        def feed(operator, batch):
            for row in batch:
                operator.process(0, list(row), row[0])

        first = SlidingWindowOperator(node)
        stores = open_stores()
        first.setup(OperatorContext(stores, send_batch=None))
        first.downstream = Sink()
        feed(first, committed)
        for store in stores.values():
            store.flush()                           # commit
        feed(first, lost)
        stores[messages].flush()                    # crash mid-commit

        def restored(cls):
            operator = cls(node)
            operator.setup(OperatorContext(open_stores(), send_batch=None))
            operator.downstream = Sink()
            return operator

        rebuilt, reference = restored(SlidingWindowOperator), restored(
            self._OneAtATime)
        orphans = [key for key, _ in rebuilt._messages.all()
                   if key[-1] >= rebuilt._windows[key[:-1]].record["seq"]]
        assert orphans and reference._retained > 0

        def window_state(operator):
            # a rebuilt row holds its arguments as a tuple, as the fused
            # stage does; the one-at-a-time reference holds a list
            return repr(sorted(
                (key, [(order, seq, tuple(args))
                       for order, seq, args in window.rows],
                 window.accs, window.minmax, window.record)
                for key, window in operator._windows.items()))

        assert window_state(rebuilt) == window_state(reference)
        assert rebuilt._retained == reference._retained
        for operator in (rebuilt, reference):
            feed(operator, lost + later)
        assert repr(rebuilt.downstream.rows) == repr(reference.downstream.rows)
        assert window_state(rebuilt) == window_state(reference)

    def test_state_size_counter_matches_store(self):
        """The O(1) retained-row counter tracks the messages store exactly."""
        context, _ = make_context(self.STORES)
        operator, _sink = self._fresh(context)
        messages = context.get_store("sql-window-messages")
        for i in range(60):
            operator.process(0, [i * 11 % 200, f"k{i % 4}", i], i)
            assert operator.state_size() == sum(1 for _ in messages.all())


class TestGroupWindowOperator:
    def _operator(self, kind="TUMBLE", emit=100, retain=100, align=0):
        operator = GroupWindowAggOperator(group_node(
            [agg("COUNT"), agg("SUM", 2)], ["wstart", "wend", "key", "c", "s"],
            kind, emit, retain, align))
        sink, _ = wire(operator, GROUP_STORES)
        return operator, sink

    def test_tumble_emits_on_watermark(self):
        operator, sink = self._operator()
        operator.process(0, [10, "k", 1], 10)
        operator.process(0, [20, "k", 2], 20)
        assert sink.rows == []  # window [0,100) still open
        operator.process(0, [150, "k", 4], 150)  # watermark passes 100
        [(row, ts)] = sink.rows
        assert row == [0, 100, "k", 2, 3]
        assert ts == 100

    def test_window_assignment_tumble(self):
        operator, _ = self._operator()
        assert operator.windows_for(10) == [0]
        assert operator.windows_for(100) == [100]

    def test_window_assignment_hop(self):
        operator, _ = self._operator(kind="HOP", emit=100, retain=250)
        # windows [ws, ws+250) containing t=120 start at -100, 0 and 100
        assert sorted(operator.windows_for(120)) == [-100, 0, 100]
        # retain not a multiple of emit is allowed (§3.6)
        assert sorted(operator.windows_for(260)) == [100, 200]

    def test_window_assignment_with_align(self):
        operator, _ = self._operator(align=30)
        assert operator.windows_for(25) == [-70]
        assert operator.windows_for(35) == [30]

    def test_late_tuple_dropped(self):
        operator, sink = self._operator()
        operator.process(0, [10, "k", 1], 10)
        operator.process(0, [150, "k", 1], 150)  # closes [0,100)
        operator.process(0, [20, "k", 9], 20)    # late for a closed window
        assert operator.late_rows == 1
        # re-close never happens for that window
        assert len(sink.rows) == 1

    def test_emit_partials_keeps_windows_open(self):
        operator, sink = self._operator()
        operator.process(0, [10, "k", 1], 10)
        operator.emit_partials()
        operator.process(0, [20, "k", 2], 20)
        operator.process(0, [150, "k", 0], 150)
        # partial emit + final emit for the same window (early results, §3)
        window_rows = [row for row, _ in sink.rows if row[0] == 0]
        assert len(window_rows) == 2
        assert window_rows[0][3] == 1  # partial count
        assert window_rows[1][3] == 2  # final count

    @staticmethod
    def _restored(changelog, kind="HOP", emit=100, retain=250):
        """An operator over the container's store stack, restored from
        ``changelog``, which then takes its writes."""
        store = restored_store(GROUP_STORES["sql-group-windows"], changelog)
        operator = GroupWindowAggOperator(group_node(
            [agg("COUNT"), agg("SUM", 2)], ["wstart", "wend", "key", "c", "s"],
            kind, emit, retain))
        operator.setup(OperatorContext({"sql-group-windows": store},
                                       send_batch=None))
        sink = Sink()
        operator.downstream = sink
        return operator, sink, store

    @staticmethod
    def _feed(operator, rows, batch=5):
        for i in range(0, len(rows), batch):
            chunk = rows[i:i + batch]
            operator.process_batch(0, chunk, [row[0] for row in chunk])

    def test_restore_continues_like_the_uninterrupted_operator(self):
        """Operator A runs on after a commit; operator B starts from the
        changelog of that commit.  Fed the same rows, a late one
        included, both emit the same rows in the same order, hold the same
        windows and write the same changelog.  Every key reports at each
        tick, in key order, so a window's creation order is its key order
        (the order a restore gives windows of one end)."""
        rows = [[t, key, t % 7] for t in range(0, 1000, 20)
                for key in ("a", "b", "c")]
        committed, rest = rows[:80], rows[80:]
        rest.insert(10, [5, "a", 1])  # all three of its windows are closed
        log_a = []
        first, sink_a, store_a = self._restored(log_a)
        self._feed(first, committed)
        store_a.flush()
        log_b = list(log_a)
        restored, sink_b, store_b = self._restored(log_b)
        assert restored.state_size() == first.state_size() > 0
        emitted = len(sink_a.rows)
        for operator in (first, restored):
            self._feed(operator, rest)
        assert sink_b.rows == sink_a.rows[emitted:]
        assert len(sink_b.rows) == 15  # ends 550 to 950, three keys each
        assert restored.state_size() == first.state_size() > 0
        assert restored.late_rows == first.late_rows == 3
        store_a.flush()
        store_b.flush()
        assert dict(store_b.all()) == dict(store_a.all())
        assert log_b == log_a

    def test_restored_windows_of_one_end_come_back_in_key_order(self):
        """Creation order is not persisted: windows restored with the same
        end are emitted in store-key order, the same rows."""
        log = []
        first, sink_a, store = self._restored(log, "TUMBLE", 100, 100)
        self._feed(first, [[10, "b", 1], [20, "a", 2]])
        store.flush()
        restored, sink_b, _ = self._restored(list(log), "TUMBLE", 100, 100)
        for operator in (first, restored):
            operator.process(0, [150, "c", 0], 150)
        assert [row[2] for row, _ in sink_a.rows] == ["b", "a"]
        assert [row[2] for row, _ in sink_b.rows] == ["a", "b"]

    def test_keys_isolated(self):
        operator, sink = self._operator()
        operator.process(0, [10, "a", 1], 10)
        operator.process(0, [20, "b", 2], 20)
        operator.process(0, [150, "a", 0], 150)
        rows = sorted((row for row, _ in sink.rows), key=lambda r: r[2])
        assert [r[2] for r in rows] == ["a", "b"]

    def test_invalid_window_params(self):
        with pytest.raises(ValueError):
            GroupWindowAggOperator(group_node([], [], emit=0))


class TestStreamRelationJoinOperator:
    def _operator(self, kind="INNER", with_keys=True, join_field=0):
        """A join on ``join_field`` of the relation: on its primary key
        (field 0) it looks the key up, as the planner lowers it; on any
        other field it scans the store."""
        operator = StreamRelationJoinOperator(StreamRelationJoinNode(
            relation="Products", relation_stream="ProductsChangelog",
            relation_field_names=["productId", "supplierId"],
            relation_key_index=0, stream_is_left=True,
            stream_width=2, relation_width=2,
            condition=call("=", ref(1), ref(2 + join_field)),
            stream_key_index=1 if with_keys and join_field == 0 else None,
            join_kind=kind,
            field_names=["rowtime", "productId", "productId0", "supplierId"],
            stores=list(RELATION_STORES)))
        sink, _ = wire(operator, RELATION_STORES)
        return operator, sink

    @pytest.mark.parametrize("join_field", [0, 1],
                             ids=["primary-key", "other-field"])
    def test_tombstone_deletes_the_cached_row(self, join_field):
        """A tombstone names the row by its primary key, which keys the
        cache whatever field the join is on."""
        operator, sink = self._operator(join_field=join_field)
        operator.process_batch(RELATION_PORT, [
            [7, 70], [8, 80], ChangelogTombstone(7),
            ChangelogTombstone(None), ChangelogTombstone(9)], [0] * 5)
        assert operator.state_size() == 1
        for probe in (7, 70, 8, 80):
            operator.process(STREAM_PORT, [1000, probe], 1000)
        assert [row for row, _ in sink.rows] == [[1000, 8, 8, 80]
                                                 if join_field == 0 else
                                                 [1000, 80, 8, 80]]

    def test_tombstone_key_is_typed_like_the_key_field(self):
        assert ChangelogTombstone.typed("1", "INTEGER").key == 1
        assert ChangelogTombstone.typed("1", "VARCHAR").key == "1"
        assert ChangelogTombstone.typed("2.5", "DOUBLE").key == 2.5
        assert ChangelogTombstone.typed("x", "BIGINT").key is None
        assert ChangelogTombstone.typed(None, "INTEGER").key is None

    def test_inner_join_matches(self):
        operator, sink = self._operator()
        operator.process(RELATION_PORT, [7, 70], 0)
        operator.process(STREAM_PORT, [1000, 7], 1000)
        assert sink.rows == [([1000, 7, 7, 70], 1000)]

    def test_inner_join_no_match_drops(self):
        operator, sink = self._operator()
        operator.process(STREAM_PORT, [1000, 9], 1000)
        assert sink.rows == []

    def test_left_join_pads_nulls(self):
        operator, sink = self._operator(kind="LEFT")
        operator.process(STREAM_PORT, [1000, 9], 1000)
        assert sink.rows == [([1000, 9, None, None], 1000)]

    def test_relation_update_upserts(self):
        operator, sink = self._operator()
        operator.process(RELATION_PORT, [7, 70], 0)
        operator.process(RELATION_PORT, [7, 71], 0)
        operator.process(STREAM_PORT, [1000, 7], 1000)
        assert sink.rows[-1][0][-1] == 71

    def test_without_equi_key_scans_relation(self):
        operator, sink = self._operator(with_keys=False)
        operator.process(RELATION_PORT, [7, 70], 0)
        operator.process(RELATION_PORT, [8, 80], 0)
        operator.process(STREAM_PORT, [1000, 8], 1000)
        assert [row for row, _ in sink.rows] == [[1000, 8, 8, 80]]


LEFT_PORT, RIGHT_PORT = 0, 1


def join_node(k, upper_bounds_ms, probe_orders, condition, bucket_ms):
    """A K-way join of ``[ts, key]`` rows on the key."""
    return MultiWayStreamJoinNode(
        widths=[2] * k, time_indexes=[0] * k, key_indexes=[1] * k,
        upper_bounds_ms=upper_bounds_ms, probe_orders=probe_orders,
        condition=condition, bucket_ms=bucket_ms,
        input_names=[f"S{i}" for i in range(k)], input_weights=[1.0] * k,
        order_metric="window_ms",
        field_names=[f"{name}{i}" for i in range(k) for name in ("t", "k")],
        stores=list(join_stores(k)))


def binary_join(lower=2000, upper=2000):
    """The windowed stream-to-stream join (§3.8.1) as the planner lowers
    it: the K = 2 case of the multi-way operator, ``left.rowtime -
    right.rowtime ∈ [-lower, upper]``."""
    return MultiWayStreamJoinOperator(join_node(
        2, [[0, upper], [lower, 0]], [[1], [0]], call("=", ref(1), ref(3)),
        max(1, max(lower, upper) // 8)))


class TestStreamStreamJoinOperator:
    STORES = join_stores(2)

    def _operator(self, lower=2000, upper=2000):
        operator = binary_join(lower, upper)
        sink, _ = wire(operator, self.STORES)
        return operator, sink

    def test_match_within_window(self):
        operator, sink = self._operator()
        operator.process(LEFT_PORT, [1000, "p"], 1000)
        operator.process(RIGHT_PORT, [1500, "p"], 1500)
        assert sink.rows == [([1000, "p", 1500, "p"], 1500)]

    def test_no_match_outside_window(self):
        operator, sink = self._operator(lower=100, upper=100)
        operator.process(LEFT_PORT, [1000, "p"], 1000)
        operator.process(RIGHT_PORT, [2000, "p"], 2000)
        assert sink.rows == []

    def test_asymmetric_window(self):
        # left may lag right by up to 1s but lead by at most 0
        operator, sink = self._operator(lower=1000, upper=0)
        operator.process(LEFT_PORT, [1000, "p"], 1000)
        operator.process(RIGHT_PORT, [1500, "p"], 1500)   # l - r = -500 ok
        operator.process(LEFT_PORT, [2000, "q"], 2000)
        operator.process(RIGHT_PORT, [1500, "q"], 1500)   # l - r = +500 > 0
        assert [row for row, _ in sink.rows] == [[1000, "p", 1500, "p"]]

    def test_key_mismatch(self):
        operator, sink = self._operator()
        operator.process(LEFT_PORT, [1000, "p"], 1000)
        operator.process(RIGHT_PORT, [1000, "q"], 1000)
        assert sink.rows == []

    def test_multiple_matches(self):
        operator, sink = self._operator()
        operator.process(LEFT_PORT, [1000, "p"], 1000)
        operator.process(LEFT_PORT, [1200, "p"], 1200)
        operator.process(RIGHT_PORT, [1500, "p"], 1500)
        assert len(sink.rows) == 2

    def test_expired_rows_purged(self):
        """A side is purged by the *other* side's clock, never its own:
        the left stream racing ahead must not cost the buffered left row
        the match the right stream still owes it."""
        operator, sink = self._operator(lower=100, upper=100)
        operator.process(LEFT_PORT, [1000, "p"], 1000)
        operator.process(LEFT_PORT, [5000, "p"], 5000)
        operator.process(RIGHT_PORT, [1050, "p"], 1050)
        assert sink.rows == [([1000, "p", 1050, "p"], 1050)]
        operator.process(RIGHT_PORT, [4950, "p"], 4950)  # purges left@1000
        # right@1050 goes with the next left arrival
        assert operator.state_size() == 3

    def test_feed_order_does_not_change_the_matches(self):
        """Ten left rows 1 s apart, ten right rows 500 ms behind them,
        ±2 s: one side fed wholly before the other finds the same 36
        pairs as the interleaved feed (a side purging by its own clock
        kept 9)."""
        left = [[10_000 + 1000 * i, "p"] for i in range(10)]
        right = [[row[0] - 500, "p"] for row in left]
        interleaved, sink = self._operator()
        for l_row, r_row in zip(left, right):
            interleaved.process(RIGHT_PORT, r_row, r_row[0])
            interleaved.process(LEFT_PORT, l_row, l_row[0])
        expected = sorted(row for row, _ in sink.rows)
        assert len(expected) == 36
        one_by_one, sink = self._operator()
        for row in left:
            one_by_one.process(LEFT_PORT, row, row[0])
        for row in right:
            one_by_one.process(RIGHT_PORT, row, row[0])
        assert sorted(row for row, _ in sink.rows) == expected

    def test_state_size_counter_tracks_buffer_and_purge(self):
        operator, _ = self._operator(lower=100, upper=100)
        operator.process(LEFT_PORT, [1000, "p"], 1000)
        operator.process(RIGHT_PORT, [1050, "p"], 1050)
        assert operator.state_size() == 2
        operator.process(LEFT_PORT, [5000, "p"], 5000)  # purges right@1050
        assert operator.state_size() == 2

    def test_state_size_restored_after_restart(self):
        context, _ = make_context(self.STORES)

        def fresh():
            operator = binary_join()
            operator.downstream = Sink()
            operator.setup(context)
            return operator

        first = fresh()
        first.process(LEFT_PORT, [1000, "p"], 1000)
        first.process(LEFT_PORT, [1100, "q"], 1100)
        first.process(RIGHT_PORT, [1200, "p"], 1200)
        assert first.state_size() == 3
        # a restart re-reads the same stores
        assert fresh().state_size() == 3


class TestMultiWayStreamJoinOperator:
    STORES = join_stores(3)

    def _make(self, bound=2000, bucket_ms=500):
        k = 3
        upper = [[0 if i == j else bound for j in range(k)] for i in range(k)]
        return MultiWayStreamJoinOperator(join_node(
            k, upper, [[1, 2], [0, 2], [0, 1]],
            call("AND", call("=", ref(1), ref(3)), call("=", ref(3), ref(5))),
            bucket_ms))

    def _operator(self, **kwargs):
        operator = self._make(**kwargs)
        sink, _ = wire(operator, self.STORES)
        return operator, sink

    def test_emits_when_last_side_arrives(self):
        operator, sink = self._operator()
        operator.process(0, [1000, "p"], 1000)
        operator.process(1, [1400, "p"], 1400)
        assert sink.rows == []  # inner join: no output until all sides match
        operator.process(2, [1800, "p"], 1800)
        assert sink.rows == [([1000, "p", 1400, "p", 1800, "p"], 1800)]

    def test_any_arrival_order_completes_the_match(self):
        operator, sink = self._operator()
        operator.process(2, [1800, "p"], 1800)
        operator.process(0, [1000, "p"], 1000)
        operator.process(1, [1400, "p"], 1400)
        assert [row for row, _ in sink.rows] == [[1000, "p", 1400, "p",
                                                  1800, "p"]]

    def test_fan_out_emits_all_combinations(self):
        operator, sink = self._operator()
        operator.process(0, [1000, "p"], 1000)
        operator.process(0, [1100, "p"], 1100)
        operator.process(1, [1400, "p"], 1400)
        operator.process(2, [1800, "p"], 1800)
        assert len(sink.rows) == 2

    def test_key_mismatch_blocks_match(self):
        operator, sink = self._operator()
        operator.process(0, [1000, "p"], 1000)
        operator.process(1, [1400, "q"], 1400)
        operator.process(2, [1800, "p"], 1800)
        assert sink.rows == []

    def test_out_of_window_side_blocks_match(self):
        operator, sink = self._operator(bound=500)
        operator.process(0, [1000, "p"], 1000)
        operator.process(1, [1400, "p"], 1400)
        operator.process(2, [5000, "p"], 5000)
        assert sink.rows == []

    def test_purge_waits_for_all_other_watermarks(self):
        """A side whose consumers lag must not lose rows: port 0's buffer
        only drains once BOTH other ports' watermarks pass the horizon."""
        operator, sink = self._operator(bound=500, bucket_ms=100)
        operator.process(0, [1000, "p"], 1000)
        # port 1 races far ahead: still no purge (port 2 unseen)
        operator.process(1, [50_000, "x"], 50_000)
        assert operator.state_size() == 2
        operator.process(2, [50_000, "y"], 50_000)  # now both passed
        assert operator.state_size() == 2  # port 0's old row dropped
        stored = [key for key, _ in operator._stores[0].all()]
        assert stored == []  # store entries deleted with the bucket

    def test_late_match_found_despite_own_side_racing_ahead(self):
        """The failure mode of per-side purge: port 0 buffers a row, port
        0's own stream races ahead, and the matching rows arrive later on
        the other ports.  Watermark-based purge keeps the row alive."""
        operator, sink = self._operator()
        operator.process(0, [1000, "p"], 1000)
        operator.process(0, [60_000, "z"], 60_000)  # own side far ahead
        operator.process(1, [1400, "p"], 1400)
        operator.process(2, [1800, "p"], 1800)
        assert [row for row, _ in sink.rows] == [[1000, "p", 1400, "p",
                                                  1800, "p"]]

    def test_state_restored_after_restart(self):
        context, _ = make_context(self.STORES)
        first = self._make()
        first.downstream = Sink()
        first.setup(context)
        first.process(0, [1000, "p"], 1000)
        first.process(1, [1400, "p"], 1400)

        second = self._make()
        sink = Sink()
        second.downstream = sink
        second.setup(context)
        assert second.state_size() == 2
        second.process(2, [1800, "p"], 1800)  # matches pre-restart rows
        assert [row for row, _ in sink.rows] == [[1000, "p", 1400, "p",
                                                  1800, "p"]]

    def test_partial_flush_guard_on_restore(self):
        """A row entry flushed ahead of its bucket's index record (crash
        mid-commit) is ignored on restore; replay regenerates it."""
        context, _ = make_context(self.STORES)
        first = self._make()
        first.downstream = Sink()
        first.setup(context)
        first.process(0, [1000, "p"], 1000)
        # simulate orphan row entries past the index record's seq fence,
        # and in a bucket with no index record at all
        bucket_id = 1000 // first.bucket_ms
        store = context.get_store("sql-mjoin-0")
        store.put((bucket_id, 999), [1010, "p"])
        store.put((bucket_id + 1, 2), [1510, "p"])

        second = self._make()
        second.downstream = Sink()
        second.setup(context)
        assert second.state_size() == 1
        assert list(second._index[0]) == [bucket_id]

    def test_batch_path_equivalent_to_single(self):
        """One batch per run of same-port rows vs batches of one."""
        arrivals = []
        for pid in ("a", "b"):
            base = 1000 if pid == "a" else 3000
            arrivals += [(0, [base, pid]), (0, [base + 100, pid]),
                         (1, [base + 400, pid]), (2, [base + 800, pid])]
        # a straggler ending a run must not hold port 0's watermark back
        arrivals += [(1, [6500, "b"]), (1, [9000, "b"]), (2, [9000, "b"]),
                     (0, [9000, "b"]), (0, [8000, "c"])]

        single = self._make()
        single_sink, _ = wire(single, self.STORES)
        for port, row in arrivals:
            single.process(port, row, row[0])

        batched = self._make()
        batch_sink, _ = wire(batched, self.STORES)
        index = 0
        while index < len(arrivals):  # one batch per run of same-port rows
            port = arrivals[index][0]
            run = []
            while index < len(arrivals) and arrivals[index][0] == port:
                run.append(arrivals[index][1])
                index += 1
            batched.process_batch(port, run, [row[0] for row in run])

        assert batch_sink.rows == single_sink.rows
        assert batched.state_size() == single.state_size()
        assert batched.emitted == single.emitted


class TestBatchEquivalence:
    """One batch of N must be observationally identical to N batches of
    one (``process``) through the single implementation — same downstream
    rows, timestamps, and counters — for every operator."""

    ORDERS = [{"rowtime": 1000 + i, "productId": i % 10,
               "orderId": i, "units": (i * 7) % 100} for i in range(50)]

    @staticmethod
    def _drain(make_operator, feed_single, feed_batch, layouts=None):
        single_op = make_operator()
        single_sink, single_sent = wire(single_op, layouts)
        feed_single(single_op)
        batch_op = make_operator()
        batch_sink, batch_sent = wire(batch_op, layouts)
        feed_batch(batch_op)
        for op in (single_op, batch_op):
            if isinstance(op, InsertOperator):
                op.flush()
        assert batch_sink.rows == single_sink.rows
        assert batch_sent == single_sent
        assert batch_op.processed == single_op.processed
        assert batch_op.emitted == single_op.emitted

    def _check(self, make_operator, rows, timestamps, layouts=None):
        def feed_single(op):
            for row, ts in zip(rows, timestamps):
                op.process(0, row, ts)

        def feed_batch(op):
            op.process_batch(0, list(rows), list(timestamps))

        self._drain(make_operator, feed_single, feed_batch, layouts)

    def test_scan(self):
        self._check(
            lambda: ScanOperator(ScanNode(
                "Orders", ["rowtime", "productId", "orderId", "units"], 0)),
            self.ORDERS, [0] * len(self.ORDERS))

    def test_scan_without_rowtime(self):
        self._check(lambda: ScanOperator(ScanNode("Orders", ["units"], None)),
                    self.ORDERS, [7000 + i for i in range(len(self.ORDERS))])

    def test_filter(self):
        rows = [[o["rowtime"], o["units"]] for o in self.ORDERS]
        self._check(lambda: FilterOperator(FilterNode(call(">", ref(1), 50))),
                    rows, [o["rowtime"] for o in self.ORDERS])

    def test_project(self):
        rows = [[o["rowtime"], o["units"]] for o in self.ORDERS]
        self._check(lambda: ProjectOperator(ProjectNode(
                        [ref(0), call("*", ref(1), 2)],
                        ["rowtime", "doubled"])),
                    rows, [o["rowtime"] for o in self.ORDERS])

    def test_insert(self):
        rows = [[o["rowtime"], o["orderId"], o["units"]] for o in self.ORDERS]
        self._check(
            lambda: InsertOperator(insert_node(
                ["rowtime", "orderId", "units"], 0, key_field_indexes=[1])),
            rows, [0] * len(rows))

    def test_insert_buffered_flush(self):
        """Nothing is sent until flush; one flush sends everything, in
        order, and a second flush sends nothing more."""
        rows = [[o["rowtime"], o["units"]] for o in self.ORDERS]
        insert = InsertOperator(insert_node(["rowtime", "units"], 0))
        context, sent = make_context()
        insert.setup(context)
        insert.process_batch(0, rows[:20], [0] * 20)
        insert.process_batch(0, rows[20:], [0] * (len(rows) - 20))
        assert sent == []          # held until the task flushes
        insert.flush()
        assert sent == [({"rowtime": rt, "units": u}, rt) for rt, u in rows]
        insert.flush()
        assert len(sent) == len(rows)

    def test_sliding_window_range_frame(self):
        """Row for row, including the incremental MIN/MAX deque results
        across purges."""
        rows = [[o["rowtime"], o["productId"], o["units"]] for o in self.ORDERS]
        aggs = TestSlidingWindowOperator.AGGS
        self._check(
            lambda: SlidingWindowOperator(window_node(
                aggs, ["rowtime", "productId", "units",
                       "s", "c", "mn", "mx", "a"], preceding_ms=20)),
            rows, [o["rowtime"] for o in self.ORDERS],
            window_stores(aggs, partition_kind="int"))

    def test_sliding_window_rows_frame(self):
        rows = [[o["rowtime"], o["productId"], o["units"]] for o in self.ORDERS]
        aggs = [agg("SUM", 2), agg("MIN", 2)]
        self._check(
            lambda: SlidingWindowOperator(window_node(
                aggs, ["rowtime", "productId", "units", "s", "mn"],
                frame="ROWS", preceding_ms=None, preceding_rows=2)),
            rows, [o["rowtime"] for o in self.ORDERS],
            window_stores(aggs, partition_kind="int"))

    def test_stream_stream_join(self):
        """Per-port batches in the same port order as the one-by-one feed
        must match — including matches against rows buffered earlier in
        the same batch."""
        left = [[1000 + i * 10, f"p{i % 3}"] for i in range(20)]
        right = [[1005 + i * 10, f"p{i % 3}"] for i in range(20)]

        def make_operator():
            return binary_join(lower=40, upper=40)

        def feed_single(op):
            for row in left:
                op.process(LEFT_PORT, row, row[0])
            for row in right:
                op.process(RIGHT_PORT, row, row[0])

        def feed_batch(op):
            op.process_batch(LEFT_PORT, list(left), [r[0] for r in left])
            op.process_batch(RIGHT_PORT, list(right), [r[0] for r in right])

        self._drain(make_operator, feed_single, feed_batch,
                    TestStreamStreamJoinOperator.STORES)

    def test_stream_relation_join(self):
        """LEFT join over a keyed relation: relation upserts, then stream
        rows (matches, and misses padded with nulls)."""
        relation = [[pid, pid * 10] for pid in range(5)] + [[2, 99]]
        stream = [[1000 + i, i % 7] for i in range(30)]
        make = TestStreamRelationJoinOperator()._operator
        single, single_sink = make(kind="LEFT")
        batched, batch_sink = make(kind="LEFT")
        for port, rows in ((RELATION_PORT, relation), (STREAM_PORT, stream)):
            for row in rows:
                single.process(port, row, row[0])
            batched.process_batch(port, list(rows), [row[0] for row in rows])
        assert batch_sink.rows == single_sink.rows
        assert batched.state_size() == single.state_size() == 5
        assert ((batched.processed, batched.emitted)
                == (single.processed, single.emitted))

    def test_group_window(self):
        """Watermark advancement and closed-window emission inside a batch
        must match the one-by-one sequence exactly (lateness decisions
        included)."""
        rows = [[(i * 37) % 500, f"k{i % 4}", i] for i in range(60)]
        self._check(
            lambda: GroupWindowAggOperator(group_node(
                [agg("COUNT"), agg("SUM", 2), agg("MIN", 2), agg("MAX", 2)],
                ["wstart", "wend", "key", "c", "s", "mn", "mx"])),
            rows, [r[0] for r in rows], GROUP_STORES)

    def test_group_window_late_dropped_matches(self):
        rows = [[(i * 37) % 500, f"k{i % 4}", i] for i in range(60)]

        def make_operator():
            return GroupWindowAggOperator(group_node(
                [agg("COUNT")], ["wstart", "wend", "key", "c"], kind="HOP",
                emit=50, retain=120))

        single = make_operator()
        wire(single, GROUP_STORES)
        for row in rows:
            single.process(0, row, row[0])
        batched = make_operator()
        wire(batched, GROUP_STORES)
        batched.process_batch(0, list(rows), [r[0] for r in rows])
        assert batched.late_rows == single.late_rows
