"""The parallel data plane's per-record machinery, tested on its own.

* the columnar record-frame codec, fuzzed: round trip, every strict
  prefix and any trailing bytes rejected with ``SerdeError``, and the
  exact sizes the codec exports;
* the worker's :class:`~repro.parallel.worker.ClusterTap`, driven in
  this process over a worker loop's cluster copy, against a reference
  that scans every partition the way the tap once did;
* the coordinator's status round: every live worker's request is
  written before any reply is awaited, and a worker that dies inside
  the round is reaped by the next pump.
"""

import os
import signal
from contextlib import nullcontext

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import FaultInjector, FaultSchedule
from repro.common.errors import SerdeError, TransientKafkaError
from repro.kafka.message import TopicPartition
from repro.kafka.routing import RouteTable
from repro.parallel import coordinator as coordinator_mod
from repro.parallel.frames import (
    FRAME_HEADER_BYTES,
    decode_frame,
    decode_frame_batches,
    encode_frame,
    group_header_size,
    group_size,
    record_size,
)
from repro.parallel.peer import PeerLink
from repro.parallel.worker import ClusterTap, _WorkerLoop
from repro.serde.avro import AvroSerde

from tests.samzasql_fixtures import ORDERS_SCHEMA, Deployment

PARALLEL = {"cluster.parallel.execution": "true"}
WINDOW_SQL = (
    "SELECT STREAM rowtime, productId, orderId, units, SUM(units) OVER "
    "(PARTITION BY productId ORDER BY rowtime RANGE INTERVAL '5' MINUTE "
    "PRECEDING) unitsLastFiveMinutes FROM Orders")
FILTER_SQL = ("SELECT STREAM rowtime, productId, orderId, units FROM Orders "
              "WHERE units > 50")


@pytest.fixture(autouse=True)
def parallel_mode(monkeypatch):
    """Parallel-clock Deployments, with forked workers reaped per test."""
    instances = []
    original_init = Deployment.__init__

    def tracking_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        instances.append(self)

    monkeypatch.setattr(Deployment, "default_overrides", dict(PARALLEL))
    monkeypatch.setattr(Deployment, "__init__", tracking_init)
    yield
    for deployment in instances:
        for master in deployment.runner.masters():
            if not master.finished:
                master.finish()


# -- the codec ----------------------------------------------------------------

INT64 = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)
OPTIONAL_BYTES = st.one_of(st.none(), st.just(b""), st.binary(max_size=40))
RECORD = st.tuples(st.integers(min_value=0, max_value=2 ** 63 - 1),
                   st.one_of(st.none(), INT64), OPTIONAL_BYTES, OPTIONAL_BYTES)
GROUP = st.tuples(st.text(max_size=12),
                  st.integers(min_value=0, max_value=2 ** 32 - 1),
                  st.integers(min_value=0, max_value=2 ** 32 - 1),
                  st.lists(RECORD, max_size=12))
FRAME = st.lists(GROUP, max_size=4)
CODEC_SETTINGS = settings(derandomize=True, max_examples=200, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])


class TestFrameCodecFuzz:
    @CODEC_SETTINGS
    @given(FRAME)
    def test_round_trip(self, groups):
        frame = encode_frame(groups)
        assert decode_frame(frame) == groups
        assert decode_frame_batches(frame) == [
            (topic, partition, count,
             [(key, value, ts) for _offset, ts, key, value in records])
            for topic, partition, count, records in groups]

    @CODEC_SETTINGS
    @given(FRAME)
    def test_every_strict_prefix_is_rejected(self, groups):
        frame = encode_frame(groups)
        for end in range(len(frame)):
            with pytest.raises(SerdeError):
                decode_frame(frame[:end])

    @CODEC_SETTINGS
    @given(FRAME, st.binary(min_size=1, max_size=40))
    def test_trailing_bytes_are_rejected(self, groups, tail):
        with pytest.raises(SerdeError):
            decode_frame(encode_frame(groups) + tail)

    @CODEC_SETTINGS
    @given(FRAME)
    def test_exported_sizes_are_exact(self, groups):
        assert len(encode_frame(groups)) == FRAME_HEADER_BYTES + sum(
            group_size(topic, records)
            for topic, _partition, _count, records in groups)
        for topic, _partition, _count, records in groups:
            assert group_size(topic, records) == group_header_size(topic) + sum(
                record_size(key, value) for _o, _ts, key, value in records)

    def test_timestamp_outside_int64_is_a_serde_error(self):
        with pytest.raises(SerdeError):
            encode_frame([("t", 0, 1, [(0, 2 ** 63, b"k", b"v")])])

    def test_peer_link_frames_fit_the_cap_exactly(self):
        """Frames split by the exported sizes never exceed the window, and
        the split packs each as full as the window allows."""
        credit = 256
        link = PeerLink("a:g0", 1, "b:g0", "/nonexistent", 1,
                        credit_bytes=credit)
        for i in range(100):
            link.produce("t", i % 4, 4, (0, i, b"key", b"v" * 16))
        link._frame_pending(encode_frame)
        sizes = [len(payload) for _seq, payload, _n in link._unsent]
        assert all(size <= credit for size in sizes)
        # Each frame but the last is full: one more 44-byte record, even
        # in the frame's last group, would not fit.
        assert all(size + record_size(b"key", b"v" * 16) > credit
                   for size in sizes[:-1])
        assert sum(n for _seq, _payload, n in link._unsent) == 100


# -- the cluster tap ----------------------------------------------------------


class FullScanTap:
    """The reference: walk every partition of every topic per collect."""

    def __init__(self, cluster):
        self._cluster = cluster
        self._positions = {tp: cluster.latest_offset(tp)
                           for topic in cluster.topics()
                           for tp in cluster.partitions_for(topic)}

    def mark_forwarded(self, tp, offset):
        self._positions[tp] = offset

    def collect(self):
        cluster = self._cluster
        groups = []
        injector = cluster.fault_injector
        guard = injector.suspended() if injector is not None else nullcontext()
        with guard:
            for topic in cluster.topics():
                partition_count = cluster.topic(topic).partition_count
                for tp in cluster.partitions_for(topic):
                    pos = self._positions.get(tp)
                    if pos is None:
                        pos = cluster.earliest_offset(tp)
                    end = cluster.latest_offset(tp)
                    if end <= pos:
                        continue
                    groups.append((topic, tp.partition, partition_count, [
                        (m.offset, m.timestamp_ms, m.key, m.value)
                        for m in cluster.fetch(tp, pos, end - pos)]))
                    self._positions[tp] = end
        return groups


class _Sink:
    def __init__(self):
        self.sent = []

    def send_bytes(self, raw):
        self.sent.append(raw)


@pytest.fixture
def worker_loop():
    """A worker loop over an unforked container of a window query, run in
    this process: its cluster copy is the deployment's cluster."""
    deployment = Deployment(partitions=2).with_orders(0)
    handle = deployment.shell.execute(WINDOW_SQL, containers=1,
                                      config_overrides=PARALLEL)
    container = next(iter(handle.master.samza_containers.values()))
    cluster = deployment.cluster
    loop = _WorkerLoop(container, _Sink(), _Sink(), {
        "gid": "q:g0", "epoch": 1, "credit_bytes": 1 << 20,
        "routes": RouteTable(epoch=0).to_payload(), "routed_topics": []})
    yield deployment, handle, loop
    loop.close()
    del cluster.produce_batch      # the worker hook
    cluster.install_fault_injector(None)


def _orders_frame(partition, start, count):
    serde = AvroSerde(ORDERS_SCHEMA)
    records = [(0, 1_000_000 + i * 1000, str(i % 10).encode(),
                serde.to_bytes({"rowtime": 1_000_000 + i * 1000,
                                "productId": i % 10, "orderId": i,
                                "units": (i * 7) % 100}))
               for i in range(start, start + count)]
    return encode_frame([("Orders", partition, 2, records)])


class TestClusterTap:
    def test_changed_partition_collect_matches_a_full_scan(self, worker_loop):
        deployment, handle, loop = worker_loop
        cluster = loop.cluster
        reference = FullScanTap(cluster)
        marked = loop.tap.mark_forwarded

        def mark_both(tp, offset):
            marked(tp, offset)
            reference.mark_forwarded(tp, offset)

        loop.tap.mark_forwarded = mark_both

        def same(expect_topics):
            got = loop.tap.collect()
            assert got == reference.collect()
            assert {group[0] for group in got} == expect_topics
            return got

        # Forwarded input is the parent's own copy: never mirrored back.
        loop.apply_input(_orders_frame(0, 0, 30))
        loop.apply_input(_orders_frame(1, 30, 30))
        same(set())
        # Output produce (and the window's store writes, still buffered).
        while loop.container.run_iteration():
            pass
        same({handle.output_stream})
        # The commit: store changelogs and the checkpoint.
        loop.container.commit()
        committed = same({
            f"__checkpoint_{handle.master.job.name}",
            f"{handle.master.job.name}-sql-window-messages-changelog",
            f"{handle.master.job.name}-sql-window-state-changelog"})
        assert all(records for *_head, records in committed)
        # A topic created after the fork is read from its start.
        cluster.create_topic("late", partitions=3)
        cluster.produce(TopicPartition("late", 2), b"k", b"v", 5)
        cluster.produce_batch(TopicPartition("late", 0),
                              [(None, b"x", None), (b"", None, 7)])
        late = same({"late"})
        assert [(g[1], len(g[3])) for g in late] == [(0, 2), (2, 1)]
        # A fault mid-batch leaves the records before it appended, and a
        # scheduled fetch fault is not the tap's to consume.
        injector = FaultInjector(
            FaultSchedule.script().add_produce_fault(3).add_fetch_fault(1, 2))
        cluster.install_fault_injector(injector)
        with pytest.raises(TransientKafkaError):
            cluster.produce_batch(TopicPartition("late", 1),
                                  [(b"a", b"1", 1), (b"b", b"2", 2),
                                   (b"c", b"3", 3)])
        faulted = same({"late"})
        assert [len(g[3]) for g in faulted] == [2]
        assert injector.fetch_ops == 0

    def test_idle_collect_reads_no_partition(self, worker_loop):
        _deployment, _handle, loop = worker_loop
        cluster = loop.cluster
        loop.apply_input(_orders_frame(0, 0, 10))
        while loop.container.run_iteration():
            pass
        assert loop.tap.collect()
        calls = []
        latest, fetch = cluster.latest_offset, cluster.fetch
        cluster.latest_offset = lambda tp: calls.append("latest") or latest(tp)
        cluster.fetch = lambda *args: calls.append("fetch") or fetch(*args)
        try:
            assert loop.tap.collect() == []
            loop.flush()
        finally:
            del cluster.latest_offset, cluster.fetch
        assert calls == []

    def test_appends_before_the_tap_stay_baseline(self):
        deployment = Deployment(partitions=2).with_orders(0)
        cluster = deployment.cluster
        tp = TopicPartition("Orders", 1)
        cluster.produce_batch(tp, [(b"k", b"before", 1)])
        appended = {tp}
        tap = ClusterTap(cluster, appended)
        assert tap.collect() == []
        cluster.produce_batch(tp, [(b"k", b"after", 2)])
        appended.add(tp)
        assert [(g[1], [r[3] for r in g[3]]) for g in tap.collect()] == [
            (1, [b"after"])]


# -- the status round ---------------------------------------------------------


class TestStatusRound:
    def _two_workers(self):
        deployment = Deployment(partitions=4).with_orders(40)
        handle = deployment.shell.execute(FILTER_SQL, containers=2,
                                          config_overrides=PARALLEL)
        coordinator = handle.master.parallel_coordinator
        coordinator.pump()      # forks both workers
        assert len(coordinator.live_worker_ids()) == 2
        return deployment, handle, coordinator

    def test_every_request_is_written_before_a_reply_is_awaited(
            self, monkeypatch):
        deployment, handle, coordinator = self._two_workers()
        deployment.feed_orders(40, start_ts=2_000_000, start_id=100)
        events = []
        by_conn = {h.cmd_conn: cid for cid, h in coordinator.handles.items()}
        send, wait = coordinator_mod.send_msg, coordinator._await

        def logged_send(conn, tag, payload=b""):
            events.append(("send", by_conn.get(conn)))
            send(conn, tag, payload)

        def logged_await(h, wanted, *args, **kwargs):
            events.append(("await", h.yarn_container_id))
            return wait(h, wanted, *args, **kwargs)

        monkeypatch.setattr(coordinator_mod, "send_msg", logged_send)
        monkeypatch.setattr(coordinator, "_await", logged_await)
        coordinator.pump()
        workers = sorted(coordinator.handles)
        assert events == ([("send", cid) for cid in workers]
                          + [("await", cid) for cid in workers])
        monkeypatch.undo()
        deployment.runner.run_until_quiescent(max_iterations=1_000_000)
        ids = {r["orderId"] for r in handle.results()}
        assert ids == {i for i in [*range(40), *range(100, 140)]
                       if (i * 7) % 100 > 50}

    def test_a_worker_dying_mid_round_is_reaped_by_the_next_pump(
            self, monkeypatch):
        deployment, handle, coordinator = self._two_workers()
        first, second = sorted(coordinator.handles)
        victim = coordinator.handles[second]
        wait = coordinator._await

        def kill_then_await(h, wanted, *args, **kwargs):
            if victim.process.is_alive():
                # Both requests are written; the second worker dies
                # before its reply is read.
                os.kill(victim.process.pid, signal.SIGKILL)
                victim.process.join(timeout=5)
            return wait(h, wanted, *args, **kwargs)

        monkeypatch.setattr(coordinator, "_await", kill_then_await)
        coordinator.pump()
        monkeypatch.undo()
        assert victim.dead and second in coordinator.handles
        assert coordinator.relaunches == 0
        coordinator.pump()
        assert coordinator.relaunches == 1
        assert coordinator.handles.get(second) is not victim
        deployment.feed_orders(40, start_ts=2_000_000, start_id=100)
        deployment.runner.run_until_quiescent(max_iterations=1_000_000)
        ids = {r["orderId"] for r in handle.results()}
        assert ids == {i for i in [*range(40), *range(100, 140)]
                       if (i * 7) % 100 > 50}
