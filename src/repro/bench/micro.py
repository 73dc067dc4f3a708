"""Per-message micro pipelines for pytest-benchmark.

Builds the *real* operator pipelines (same classes the runtime uses) with
a discard sink and in-memory serialized stores, plus the equivalent
hand-written native paths, so ``benchmarks/`` can measure the per-message
cost of each variant in isolation — no Kafka/YARN loop around it.
"""

from __future__ import annotations

from typing import Callable

from repro.samza.storage import (InMemoryKeyValueStore, LoggedKeyValueStore,
                                 SerializedKeyValueStore,
                                 WriteBehindKeyValueStore)
from repro.samzasql.operators.base import OperatorContext
from repro.samzasql.operators.router import MessageRouter, build_router
from repro.samzasql.plan_builder import PhysicalPlanBuilder
from repro.serde.avro import AvroSerde
from repro.serde.object_serde import ObjectSerde
from repro.bench.calibration import SQL_QUERIES
from repro.sql.catalog import Catalog
from repro.sql.planner import QueryPlanner
from repro.workloads.orders import OrdersGenerator, padded_orders_schema
from repro.workloads.products import PRODUCTS_SCHEMA, ProductsGenerator

_STORE_NAMES = (
    "sql-window-messages", "sql-window-state", "sql-group-windows",
    "sql-relation-products", "sql-mjoin-0", "sql-mjoin-1", "sql-mjoin-2",
    "sql-mjoin2-0", "sql-mjoin2-1",
)


def _make_stores() -> dict:
    """The paper-faithful SQL state: every store behind the generic
    object serde (the Kryo model), where a job's stores get codecs
    derived from its plan."""
    return {
        name: SerializedKeyValueStore(InMemoryKeyValueStore(),
                                      ObjectSerde(), ObjectSerde())
        for name in _STORE_NAMES
    }


def _catalog() -> Catalog:
    catalog = Catalog()
    catalog.register_stream_from_avro("Orders", padded_orders_schema())
    catalog.register_table_from_avro("Products", PRODUCTS_SCHEMA,
                                     key_field="productId",
                                     changelog_topic="Products-changelog")
    return catalog


class MicroPipeline:
    """A feedable pipeline: ``step()`` processes the next encoded message."""

    def __init__(self, process: Callable[[bytes, int], None],
                 messages: list[tuple[bytes, bytes, int]],
                 reset: Callable[[], None] | None = None):
        self._process = process
        self._messages = messages
        self._index = 0
        self._reset = reset
        self.outputs = 0

    def step(self) -> None:
        value_bytes, _key, ts = self._messages[self._index]
        self._index += 1
        if self._index >= len(self._messages):
            self._index = 0
            if self._reset is not None:
                self._reset()
        self._process(value_bytes, ts)

    def run_batch(self, count: int) -> None:
        for _ in range(count):
            self.step()


def _encoded_orders(count: int) -> list[tuple[bytes, bytes, int]]:
    generator = OrdersGenerator(interarrival_ms=1000)
    return [(value, key, ts) for key, value, ts in generator.encoded(count)]


def samzasql_pipeline(query: str, messages: int = 8192) -> MicroPipeline:
    """The SamzaSQL-compiled pipeline: deserialize → operators → serialize,
    one message (a batch of one) per step."""
    catalog = _catalog()
    planner = QueryPlanner(catalog)
    logical = planner.plan_query(SQL_QUERIES[query])
    builder = PhysicalPlanBuilder(catalog)
    plan = builder.build(logical, "bench-output")

    from repro.samzasql.shell import sql_row_type_to_avro

    output_schema = sql_row_type_to_avro("BenchOut", logical.row_type)
    output_serde = AvroSerde(output_schema)
    sink_count = [0]

    def send_batch(entries: list) -> None:
        # ArrayToAvro + wire encoding
        encoded = output_serde.to_bytes_batch(
            [message for message, _ts, _key in entries])
        sink_count[0] += len(encoded)

    def _build() -> MessageRouter:
        return build_router(plan, OperatorContext(stores, send_batch))

    stores = _make_stores()
    router_box: list[MessageRouter] = []

    def rebuild() -> None:
        fresh = _make_stores()
        stores.clear()
        stores.update(fresh)
        router_box[0] = _build()
        _load_relation(router_box[0], query)

    def _load_relation(router: MessageRouter, q: str) -> None:
        if q != "join":
            return
        serde = AvroSerde(PRODUCTS_SCHEMA)
        for record in ProductsGenerator().records():
            router.route("Products-changelog", record, 0)

    router_box.append(_build())
    _load_relation(router_box[0], query)
    input_serde = AvroSerde(padded_orders_schema())
    stream = plan.input_streams[0]
    workload = _encoded_orders(messages)

    def process(value_bytes: bytes, ts: int) -> None:
        record = input_serde.from_bytes(value_bytes)
        router = router_box[0]
        router.route(stream, record, ts)
        router.flush_sinks()

    pipeline = MicroPipeline(process, workload, reset=rebuild)
    pipeline.sink_count = sink_count  # type: ignore[attr-defined]
    return pipeline


def native_pipeline(query: str, messages: int = 8192) -> MicroPipeline:
    """The hand-written per-message path for each benchmark query."""
    input_serde = AvroSerde(padded_orders_schema())

    if query == "filter":
        def process(value_bytes: bytes, ts: int) -> None:
            record = input_serde.from_bytes(value_bytes)
            if record["units"] > 50:
                _ = value_bytes  # raw pass-through write

        return MicroPipeline(process, _encoded_orders(messages))

    if query == "project":
        from repro.bench.native_jobs import NativeProjectTask

        out_serde = NativeProjectTask.PROJECTED_SCHEMA

        def process(value_bytes: bytes, ts: int) -> None:
            record = input_serde.from_bytes(value_bytes)
            out_serde.to_bytes({"rowtime": record["rowtime"],
                                "productId": record["productId"],
                                "units": record["units"]})

        return MicroPipeline(process, _encoded_orders(messages))

    if query == "join":
        # Avro-serde state store: the native join's measured advantage.
        store = SerializedKeyValueStore(
            InMemoryKeyValueStore(), ObjectSerde(), AvroSerde(PRODUCTS_SCHEMA))
        for record in ProductsGenerator().records():
            store.put(str(record["productId"]), record)
        out_schema = AvroSerde(
            {"type": "record", "name": "JoinedOut", "fields": [
                {"name": "rowtime", "type": "long"},
                {"name": "orderId", "type": "long"},
                {"name": "productId", "type": "int"},
                {"name": "units", "type": "int"},
                {"name": "supplierId", "type": "int"}]})

        def process(value_bytes: bytes, ts: int) -> None:
            order = input_serde.from_bytes(value_bytes)
            product = store.get(str(order["productId"]))
            if product is None:
                return
            out_schema.to_bytes({
                "rowtime": order["rowtime"], "orderId": order["orderId"],
                "productId": order["productId"], "units": order["units"],
                "supplierId": product["supplierId"]})

        return MicroPipeline(process, _encoded_orders(messages))

    if query == "window":
        from repro.bench.native_jobs import NativeSlidingWindowTask

        state_box = {}

        def make_stores():
            return (SerializedKeyValueStore(InMemoryKeyValueStore(),
                                            ObjectSerde(), ObjectSerde()),
                    SerializedKeyValueStore(InMemoryKeyValueStore(),
                                            ObjectSerde(), ObjectSerde()))

        state_box["messages"], state_box["state"] = make_stores()
        window_ms = NativeSlidingWindowTask.WINDOW_MS

        def reset() -> None:
            state_box["messages"], state_box["state"] = make_stores()

        def process(value_bytes: bytes, ts_in: int) -> None:
            order = input_serde.from_bytes(value_bytes)
            key = str(order["productId"])
            ts = order["rowtime"]
            state = state_box["state"].get(key) or {"rows": [], "sum": 0, "seq": 0}
            seq = state["seq"]
            state["seq"] = seq + 1
            state_box["messages"].put((key, ts, seq), order["units"])
            cutoff = ts - window_ms
            rows = state["rows"]
            keep = 0
            for keep, entry in enumerate(rows):
                if entry[0] >= cutoff:
                    break
            else:
                keep = len(rows)
            for old_ts, old_seq, old_units in rows[:keep]:
                state["sum"] -= old_units
                state_box["messages"].delete((key, old_ts, old_seq))
            del rows[:keep]
            rows.append((ts, seq, order["units"]))
            state["sum"] += order["units"]
            state_box["state"].put(key, state)

        return MicroPipeline(process, _encoded_orders(messages), reset=reset)

    raise ValueError(f"unknown query {query!r}")


# Runtime default of ``task.checkpoint.interval.messages`` — how often the
# container commits, i.e. how often write-behind state actually flushes.
COMMIT_INTERVAL = 500


def _changelogged_store(write_behind: bool) -> "SerializedKeyValueStore":
    """One store as the container stacks it: in-memory → changelog →
    serde, optionally topped with the write-behind dirty map."""
    changelog: list = []
    key_serde = ObjectSerde()
    store = SerializedKeyValueStore(
        LoggedKeyValueStore(InMemoryKeyValueStore(), changelog.extend),
        key_serde, ObjectSerde())
    if write_behind:
        store = WriteBehindKeyValueStore(store, key_serde)
    return store


def measure_window_state_speedup(messages: int = 15_000,
                                 repeats: int = 3) -> dict[str, float]:
    """Per-message state-maintenance cost: legacy vs write-behind window.

    The legacy side reconstructs how ``SlidingWindowOperator`` maintained
    state before the split-layout rewrite: the whole per-key window blob
    (all retained rows + accumulators) round-trips through the serialized,
    changelogged store on **every** message — O(window size) serde work per
    tuple.  The new side runs the *shipped* operator through the compiled
    fig6 DAG over write-behind stores, flushed every ``COMMIT_INTERVAL``
    messages like the container's commit loop does.  Both sides consume the
    same pre-decoded Orders workload so the ratio isolates state
    maintenance from input/output serde.

    Methodology matches :func:`repro.bench.calibration.measure_metrics_overhead`:
    GC-suspended process-time runs, modes interleaved with alternating
    order, per-mode minimum.  Returns ``{"legacy_ms_per_msg": ...,
    "writebehind_ms_per_msg": ..., "speedup": ...}``.
    """
    import gc
    import time

    window_ms = 300_000  # the fig6 query's 5-minute RANGE frame
    generator = OrdersGenerator(interarrival_ms=1000)
    workload = [(record, record["rowtime"])
                for record in generator.records(max(messages + 2000, 4000))]
    warmup, body = workload[:2000], workload[2000:]

    def run_legacy() -> float:
        messages_store = _changelogged_store(write_behind=False)
        state_store = _changelogged_store(write_behind=False)

        def step(order: dict, _ts: int) -> None:
            key = repr(order["productId"])
            order_value = order["rowtime"]
            state = state_store.get(key)
            if state is None:
                state = {"rows": [], "accs": [[0, 0]],
                         "lower": order_value, "upper": order_value, "seq": 0}
            seq = state["seq"]
            state["seq"] = seq + 1
            messages_store.put((key, order_value, seq), list(order.values()))
            if order_value > state["upper"]:
                state["upper"] = order_value
            units = order["units"]
            rows = state["rows"]
            cutoff = order_value - window_ms
            keep_from = 0
            for keep_from, existing in enumerate(rows):
                if existing[0] >= cutoff:
                    break
            else:
                keep_from = len(rows)
            for purged in rows[:keep_from]:
                state["accs"][0][0] -= purged[2][0]
                state["accs"][0][1] -= 1
                messages_store.delete((key, purged[0], purged[1]))
            del rows[:keep_from]
            state["lower"] = cutoff
            rows.append((order_value, seq, [units]))
            state["accs"][0][0] += units
            state["accs"][0][1] += 1
            state_store.put(key, state)

        return _timed_steps(step, flush_stores=None)

    def run_writebehind() -> float:
        catalog = _catalog()
        logical = QueryPlanner(catalog).plan_query(SQL_QUERIES["window"])
        plan = PhysicalPlanBuilder(catalog).build(logical, "bench-output")
        stream = plan.input_streams[0]
        stores = {name: _changelogged_store(write_behind=True)
                  for name in _STORE_NAMES}
        router = build_router(plan, OperatorContext(
            stores, lambda _entries: None))

        def step(record: dict, ts: int) -> None:
            router.route(stream, record, ts)
            router.flush_sinks()

        return _timed_steps(step, flush_stores=list(stores.values()))

    def _timed_steps(step, flush_stores) -> float:
        for record, ts in warmup:
            step(record, ts)
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.process_time_ns()
            done = 0
            index = 0
            while done < messages:
                for record, ts in body[index:index + COMMIT_INTERVAL]:
                    step(record, ts)
                index += COMMIT_INTERVAL
                if index + COMMIT_INTERVAL > len(body):
                    index = 0
                done += COMMIT_INTERVAL
                if flush_stores is not None:
                    for store in flush_stores:
                        store.flush()
            return (time.process_time_ns() - started) / 1e6 / messages
        finally:
            if gc_was_enabled:
                gc.enable()

    best = {"legacy": float("inf"), "writebehind": float("inf")}
    modes = [("legacy", run_legacy), ("writebehind", run_writebehind)]
    for round_no in range(max(repeats, 1)):
        order = modes if round_no % 2 == 0 else modes[::-1]
        for mode, run in order:
            best[mode] = min(best[mode], run())
    return {
        "legacy_ms_per_msg": best["legacy"],
        "writebehind_ms_per_msg": best["writebehind"],
        "speedup": best["legacy"] / max(best["writebehind"], 1e-9),
    }


def measure_join_probe(messages: int = 4000, repeats: int = 3,
                       keys: int = 256, window_ms: int = 2_000,
                       long_window_ms: int = 600_000) -> dict[str, float]:
    """Per-arrival probe cost: collapsed 3-way join vs the pairwise cascade.

    Feeds one interleaved 3-port workload (two dense quote-like ports
    joined within ±``window_ms``, one sparse port within the long
    ±``long_window_ms``, ``keys`` distinct join keys) straight into the
    operators — no router, serde, or container loop around them — so the
    ratio isolates exactly what the collapse changes: one shared-state
    probe sequence with cheapest-side short-circuiting versus two K = 2
    instances materializing and re-buffering every intermediate pair.
    The long third-side window keeps the two plans' output sets equal
    (nothing expires between an intermediate forming and its probe).

    Methodology matches :func:`measure_window_state_speedup`: GC-suspended
    process-time runs, modes interleaved with alternating order, per-mode
    minimum.  Returns microseconds per arrival per mode, the speedup, and
    each mode's output-row count (they must agree).
    """
    import gc
    import random
    import time

    from repro.samzasql.operators.multi_way_join import MultiWayStreamJoinOperator

    rng = random.Random(7)
    key_names = [f"K{i:02d}" for i in range(keys)]
    events = []
    ts = 1_000_000
    for i in range(messages):
        ts += 5
        port = 2 if rng.random() < 1 / 16 else i % 2  # sparse third side
        events.append((port, [ts, key_names[rng.randrange(keys)]], ts))

    class _DiscardSink:
        def __init__(self):
            self.count = 0

        def receive_batch(self, _port, rows, _timestamps):
            self.count += len(rows)

    class _Port:
        """Feeds a parent operator's output into a fixed downstream port."""

        def __init__(self, operator, port):
            self._operator = operator
            self._port = port

        def receive_batch(self, _port, rows, timestamps):
            self._operator.process_batch(self._port, rows, timestamps)

    derived = long_window_ms + window_ms  # transitive B-C bound

    def build_multiway():
        operator = MultiWayStreamJoinOperator(
            widths=[2, 2, 2], time_indexes=[0, 0, 0],
            key_sources=["r[1]"] * 3,
            upper_bounds_ms=[[0, window_ms, long_window_ms],
                             [window_ms, 0, derived],
                             [long_window_ms, derived, 0]],
            probe_orders=[[2, 1], [2, 0], [0, 1]],
            # Like the planner's lowering, the residual condition carries
            # the time conjuncts too: candidate windows are relative to
            # the arriving row, so bounds between the two *other* ports
            # are only enforced here.
            condition_source=(
                "((p0[1] == p1[1]) and (p1[1] == p2[1])"
                f" and (p0[0] - p1[0] <= {window_ms})"
                f" and (p1[0] - p0[0] <= {window_ms})"
                f" and (p0[0] - p2[0] <= {long_window_ms})"
                f" and (p2[0] - p0[0] <= {long_window_ms}))"),
            bucket_ms=max(derived // 8, 1),
            field_names=["ts0", "k0", "ts1", "k1", "ts2", "k2"])
        sink = _DiscardSink()
        operator.downstream = sink
        operator.setup(OperatorContext(_make_stores(), lambda _entries: None))

        def feed():
            for port, row, arrival in events:
                operator.process(port, row, arrival)
        return feed, sink

    def build_binary(left_width, bound_ms, field_names, store_prefix):
        return MultiWayStreamJoinOperator(
            widths=[left_width, 2], time_indexes=[0, 0],
            key_sources=["r[1]"] * 2,
            upper_bounds_ms=[[0, bound_ms], [bound_ms, 0]],
            probe_orders=[[1], [0]],
            condition_source=("((p0[1] == p1[1])"
                              f" and (p0[0] - p1[0] <= {bound_ms})"
                              f" and (p1[0] - p0[0] <= {bound_ms}))"),
            bucket_ms=max(bound_ms // 8, 1), field_names=field_names,
            store_prefix=store_prefix)

    def build_cascade():
        first = build_binary(2, window_ms, ["ts0", "k0", "ts1", "k1"],
                             "sql-mjoin-")
        second = build_binary(
            4, long_window_ms, ["ts0", "k0", "ts1", "k1", "ts2", "k2"],
            "sql-mjoin2-")
        sink = _DiscardSink()
        first.downstream = _Port(second, 0)
        second.downstream = sink
        stores = _make_stores()
        context = OperatorContext(stores, lambda _entries: None)
        first.setup(context)
        second.setup(context)

        def feed():
            for port, row, arrival in events:
                if port == 2:
                    second.process(1, row, arrival)
                else:
                    first.process(port, row, arrival)
        return feed, sink

    def timed(build):
        feed, sink = build()
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.process_time_ns()
            feed()
            return (time.process_time_ns() - started) / 1e9, sink.count
        finally:
            if gc_was_enabled:
                gc.enable()

    best = {"multiway": (float("inf"), 0), "cascade": (float("inf"), 0)}
    modes = [("multiway", build_multiway), ("cascade", build_cascade)]
    for round_no in range(max(repeats, 1)):
        order = modes if round_no % 2 == 0 else modes[::-1]
        for mode, build in order:
            elapsed, outputs = timed(build)
            if elapsed < best[mode][0]:
                best[mode] = (elapsed, outputs)
    return {
        "multiway_us_per_msg": best["multiway"][0] / messages * 1e6,
        "cascade_us_per_msg": best["cascade"][0] / messages * 1e6,
        "speedup": best["cascade"][0] / max(best["multiway"][0], 1e-9),
        "multiway_outputs": best["multiway"][1],
        "cascade_outputs": best["cascade"][1],
    }


def measure_frame_codec(records: int = 20_000, record_bytes: int = 64,
                        groups: int = 8, repeats: int = 3) -> dict[str, float]:
    """Peer-mesh frame codec cost: encode/decode + the writev-style pack.

    Builds one pump's worth of intermediate traffic — ``records`` Avro-sized
    records spread over ``groups`` (topic, partition) groups, the shape
    :class:`repro.parallel.peer.PeerLink` flushes — and times, GC-suspended
    with per-mode minima over ``repeats``:

    * ``encode`` / ``decode`` — the varint record-frame codec every peer
      link, parent mirror, and forwarded-input frame runs through;
    * ``header`` — the mirror-frame watermark envelope
      (``encode_data_payload`` / ``decode_data_payload``) per frame;
    * ``pack`` — ``pack_msgs`` / ``unpack_msgs``, the MSG_MULTI batching
      that turns many small per-pump messages into one pipe write.

    Returns microseconds per record (codec), per frame (header), per
    message (pack), plus encode throughput in MB/s.
    """
    import gc
    import time

    from repro.parallel.frames import (decode_data_payload, decode_frame,
                                       encode_data_payload, encode_frame,
                                       pack_msgs, unpack_msgs)

    per_group = max(records // groups, 1)
    records = per_group * groups
    batch = [("__intermediate", g, groups,
              [(i, 1_000_000 + i, f"k{i % 251}".encode(), bytes(record_bytes))
               for i in range(per_group)])
             for g in range(groups)]
    frame = encode_frame(batch)
    header = {"ia": 7, "pa": {f"job:g{i}": [1, i * 100] for i in range(groups)}}
    mirror_frame = encode_data_payload(header, frame)
    # MSG_MULTI workload: the per-pump mix of many small control payloads
    # around one data frame, padded so packing cost is not all memcpy.
    msgs = [frame[:200] for _ in range(64)] + [frame]

    def timed(fn, iterations: int) -> float:
        fn()  # warm allocators / lazy setup
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.process_time_ns()
            for _ in range(iterations):
                fn()
            return (time.process_time_ns() - started) / 1e9 / iterations
        finally:
            if gc_was_enabled:
                gc.enable()

    best = {"encode": float("inf"), "decode": float("inf"),
            "header": float("inf"), "pack": float("inf")}
    modes = [
        ("encode", lambda: encode_frame(batch)),
        ("decode", lambda: decode_frame(frame)),
        ("header", lambda: decode_data_payload(
            encode_data_payload(header, frame))[1]),
        ("pack", lambda: unpack_msgs(pack_msgs(msgs))),
    ]
    for round_no in range(max(repeats, 1)):
        order = modes if round_no % 2 == 0 else modes[::-1]
        for mode, fn in order:
            best[mode] = min(best[mode], timed(fn, iterations=3))
    return {
        "records": records,
        "frame_bytes": len(frame),
        "encode_us_per_record": best["encode"] / records * 1e6,
        "decode_us_per_record": best["decode"] / records * 1e6,
        "encode_mb_per_s": len(frame) / max(best["encode"], 1e-9) / 1e6,
        "decode_mb_per_s": len(frame) / max(best["decode"], 1e-9) / 1e6,
        "header_us_per_frame": best["header"] * 1e6,
        "pack_us_per_msg": best["pack"] / len(msgs) * 1e6,
        "mirror_frame_bytes": len(mirror_frame),
    }


def main(argv: list[str] | None = None) -> int:
    """Perf gates over the fig5a filter query through the full runtime:

    * metrics overhead — snapshot reporter off vs on must cost no more
      than ``--threshold`` percent;
    * window state maintenance — the fig6 sliding window's split-layout
      write-behind state path must be at least ``--window-threshold``
      times faster per message than the legacy monolithic-blob
      write-through maintenance it replaced;
    * parallel scaling — with ``--scaling-threshold`` set, the
      process-backed mode (``cluster.parallel.execution=true``) at two
      workers must reach at least that multiple of its own 1-worker
      throughput; on hosts with >= 4 CPUs the gate additionally
      measures 4 workers and requires 4-worker throughput to be at
      least the 2-worker figure (the peer mesh must not bend the
      curve back down).  Wall-clock, real processes; skipped (with a
      loud warning, not a fake pass) when the host exposes a single
      CPU, where a multi-core speedup is not measurable.

    ``--frame-codec`` additionally prints the peer-mesh frame codec
    micro-costs (encode/decode, mirror header, MSG_MULTI pack) —
    informational, no threshold.

    All use GC-suspended process-time runs, interleaved modes, per-mode
    minima, and a best-of-``--attempts`` noise guard.  Exit 1 when any
    gate fails.

    Run:  python -m repro.bench.micro [--threshold 5]
          [--window-threshold 2.0] [--scaling-threshold 1.4]
    """
    import argparse
    import os

    from repro.bench.calibration import measure_metrics_overhead

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--threshold", type=float, default=5.0,
                        help="max tolerated metrics overhead, percent "
                             "(default 5)")
    parser.add_argument("--window-threshold", type=float, default=2.0,
                        help="min fig6 state-maintenance speedup of the "
                             "write-behind layout over the legacy blob "
                             "path (default 2.0; 0 disables the gate)")
    parser.add_argument("--scaling-threshold", type=float, default=0.0,
                        help="min parallel-mode 2-worker/1-worker "
                             "throughput ratio (0, the default, disables "
                             "the gate)")
    parser.add_argument("--frame-codec", action="store_true",
                        help="print peer-mesh frame codec micro-costs "
                             "(informational, no gate)")
    parser.add_argument("--join-probe", action="store_true",
                        help="print 3-way join probe micro-costs, collapsed "
                             "operator vs pairwise cascade (informational, "
                             "no gate; the gated comparison lives in "
                             "repro.bench.fig7_json --check)")
    parser.add_argument("--messages", type=int, default=4000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--attempts", type=int, default=3,
                        help="independent measurements before failing "
                             "(noise guard; a real regression fails all)")
    args = parser.parse_args(argv)

    # A real regression (say an allocation added to the per-message path)
    # shows up in every measurement; a noisy host phase does not.  So each
    # gate takes the best of up to --attempts measurements and only fails
    # when none of them comes in under (over) the threshold.
    result = None
    for attempt in range(max(args.attempts, 1)):
        measured = measure_metrics_overhead(
            query="filter", messages=args.messages, repeats=args.repeats)
        if (result is None
                or measured["overhead_percent"] < result["overhead_percent"]):
            result = measured
        if result["overhead_percent"] <= args.threshold:
            break
        print(f"attempt {attempt + 1}: overhead "
              f"{measured['overhead_percent']:+.2f}% over threshold; "
              f"re-measuring...")
    print(f"fig5a filter query, {args.messages} messages, "
          f"best of {args.repeats}:")
    print(f"  reporter off: {result['off'] * 1000:.1f} ms")
    print(f"  reporter on:  {result['on'] * 1000:.1f} ms")
    print(f"  overhead:     {result['overhead_percent']:+.2f}% "
          f"(threshold {args.threshold:.1f}%)")
    failed = False
    if result["overhead_percent"] > args.threshold:
        print("FAIL: metrics instrumentation overhead above threshold")
        failed = True

    if args.window_threshold > 0:
        window = None
        for attempt in range(max(args.attempts, 1)):
            measured = measure_window_state_speedup(repeats=2)
            if window is None or measured["speedup"] > window["speedup"]:
                window = measured
            if window["speedup"] >= args.window_threshold:
                break
            print(f"attempt {attempt + 1}: window state speedup "
                  f"{measured['speedup']:.2f}x under threshold; "
                  f"re-measuring...")
        print("fig6 window state maintenance (write-behind split layout "
              "vs legacy blob):")
        print(f"  legacy blob:   {window['legacy_ms_per_msg']:.4f} ms/msg")
        print(f"  write-behind:  {window['writebehind_ms_per_msg']:.4f} ms/msg")
        print(f"  speedup:       {window['speedup']:.2f}x "
              f"(threshold {args.window_threshold:.1f}x)")
        if window["speedup"] < args.window_threshold:
            print("FAIL: window state-maintenance speedup below threshold")
            failed = True

    if args.frame_codec:
        codec = measure_frame_codec()
        print(f"peer-mesh frame codec ({codec['records']:,.0f} records, "
              f"{codec['frame_bytes']:,.0f} B frame):")
        print(f"  encode: {codec['encode_us_per_record']:.3f} us/record "
              f"({codec['encode_mb_per_s']:,.0f} MB/s)")
        print(f"  decode: {codec['decode_us_per_record']:.3f} us/record "
              f"({codec['decode_mb_per_s']:,.0f} MB/s)")
        print(f"  mirror header round trip: "
              f"{codec['header_us_per_frame']:.1f} us/frame")
        print(f"  MSG_MULTI pack+unpack: "
              f"{codec['pack_us_per_msg']:.3f} us/msg")

    if args.join_probe:
        probe = measure_join_probe(messages=args.messages)
        print("3-way join probe (collapsed operator vs pairwise cascade, "
              "operators in isolation):")
        print(f"  multiway: {probe['multiway_us_per_msg']:.2f} us/arrival "
              f"({probe['multiway_outputs']:,} output rows)")
        print(f"  cascade:  {probe['cascade_us_per_msg']:.2f} us/arrival "
              f"({probe['cascade_outputs']:,} output rows)")
        print(f"  speedup:  {probe['speedup']:.2f}x")
        if probe["multiway_outputs"] != probe["cascade_outputs"]:
            print("FAIL: probe output mismatch between the two plans")
            failed = True

    if args.scaling_threshold > 0:
        cores = os.cpu_count() or 1
        if cores < 2:
            print(f"parallel scaling gate SKIPPED: host exposes {cores} "
                  "CPU(s); a multi-core speedup cannot be measured here "
                  "(threshold not waived silently — run on a >=2 core "
                  "host to enforce it)")
        else:
            from repro.bench.parallel_scaling import (
                measure_parallel_throughput, measure_scaling_speedup)

            msgs = max(args.messages, 10_000)
            scaling = None
            for attempt in range(max(args.attempts, 1)):
                measured = measure_scaling_speedup(workers=2, messages=msgs)
                if cores >= 4:
                    measured["four_msgs_per_s"] = measure_parallel_throughput(
                        4, messages=msgs)
                ok = (measured["speedup"] >= args.scaling_threshold
                      and (cores < 4 or measured["four_msgs_per_s"]
                           >= measured["scaled_msgs_per_s"]))
                if scaling is None or measured["speedup"] > scaling["speedup"]:
                    scaling = measured
                if ok:
                    scaling = measured
                    break
                print(f"attempt {attempt + 1}: parallel scaling "
                      f"{measured['speedup']:.2f}x under threshold or "
                      f"4-worker regressed; re-measuring...")
            print(f"parallel execution scaling ({cores} CPUs):")
            print(f"  1 worker:  {scaling['base_msgs_per_s']:,.0f} msgs/s")
            print(f"  2 workers: {scaling['scaled_msgs_per_s']:,.0f} msgs/s")
            if "four_msgs_per_s" in scaling:
                print(f"  4 workers: {scaling['four_msgs_per_s']:,.0f} msgs/s")
            print(f"  speedup:   {scaling['speedup']:.2f}x "
                  f"(threshold {args.scaling_threshold:.1f}x)")
            if scaling["speedup"] < args.scaling_threshold:
                print("FAIL: parallel 2-worker scaling below threshold")
                failed = True
            if (cores >= 4 and scaling["four_msgs_per_s"]
                    < scaling["scaled_msgs_per_s"]):
                print("FAIL: 4-worker throughput below 2-worker — "
                      "scaling curve bends down inside the core budget")
                failed = True

    if failed:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
