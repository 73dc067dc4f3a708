"""Decentralized data plane: worker↔worker routing, backpressure, rebalance.

The tentpole contract under test: in a Kappa-style pipeline (query 2
consumes query 1's output topic), the intermediate topic is
*owner-sequenced* — keyed traffic flows shard-to-shard over peer links
and the parent process moves **zero** routed-data bytes in steady state.
Credit-based backpressure bounds every link's memory, and a SIGKILLed
owner's partitions reassign to a replacement incarnation without
restarting the surviving workers (elastic rebalance).

Unit coverage for the peer protocol itself (credit plateau, retention,
dedup by restored watermark, epoch fencing) lives alongside, driven
in-process against a real AF_UNIX listener.
"""

import json
import time

import pytest

from repro.kafka.routing import RouteEntry, RouteTable
from repro.parallel.frames import (
    decode_data_payload,
    decode_frame,
    encode_data_payload,
    encode_frame,
    pack_msgs,
    unpack_msgs,
)
from repro.parallel.peer import (
    DEFAULT_CREDIT_BYTES,
    MIN_CREDIT_BYTES,
    PeerEndpoint,
    PeerLink,
)

from tests.samzasql_fixtures import Deployment

PARALLEL = {"cluster.parallel.execution": "true"}


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


def execute(deployment, sql, containers=2, overrides=None):
    """Submit without quiescing — workers must not fork before the whole
    pipeline is registered, or the intermediate topic could not flip to
    owner-sequenced."""
    merged = dict(PARALLEL)
    merged.update(overrides or {})
    return deployment.shell.execute(sql, containers=containers,
                                    config_overrides=merged)


Q1 = ("SELECT STREAM rowtime, productId, orderId, units FROM Orders "
      "WHERE units > 50")
Q2 = ("SELECT STREAM rowtime, productId, orderId, units FROM BigOrders "
      "WHERE units < 90")


def build_pipeline(deployment, q1_overrides=None, q2_overrides=None):
    q1 = execute(deployment, Q1, overrides=q1_overrides)
    deployment.shell.register_derived_stream("BigOrders", q1)
    q2 = execute(deployment, Q2, overrides=q2_overrides)
    return q1, q2


def expected_ids(ids):
    return {i for i in ids if 50 < (i * 7) % 100 < 90}


def wait_for(predicate, service, timeout_s: float, poll_s: float = 0.001) -> bool:
    """Drive ``service()`` until ``predicate()`` or timeout."""
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        service()
        time.sleep(poll_s)
    return True


def assert_no_relaunch(*handles):
    """No worker died: a commit gate that timed out relaunches its worker
    and still ends with exact output, so results alone cannot tell."""
    for handle in handles:
        assert handle.master.parallel_coordinator.relaunches == 0


def all_links(coordinator):
    return [link
            for worker in coordinator.peer_link_stats().values()
            for link in worker.get("links", {}).values()]


# -- tentpole: zero routed-data bytes through the parent ----------------------


class TestPeerRoutedPipeline:
    def test_steady_state_moves_no_routed_bytes_through_parent(self):
        deployment = Deployment(partitions=4).with_orders(0)
        q1, q2 = build_pipeline(deployment)
        c1 = q1.master.parallel_coordinator
        mesh = c1.mesh
        # Registration alone flips the intermediate topic to
        # owner-sequenced: both coordinators exist, neither has forked.
        assert q1.output_stream in mesh.owner_sequenced

        # Two waves: the first is inherited by the fork baseline, the
        # second exercises live input forwarding into running workers.
        deployment.feed_orders(150)
        deployment.runner.run_until_quiescent(max_iterations=1_000_000)
        deployment.feed_orders(150, start_ts=2_000_000, start_id=150)
        deployment.runner.run_until_quiescent(max_iterations=1_000_000)

        # The parent sequenced no worker-produced routed traffic: every
        # intermediate byte went worker->worker over peer links.
        assert mesh.routed_data_bytes == 0
        assert mesh.forwarded_input_bytes > 0   # source topic, parent-fed
        assert mesh.mirror_data_bytes > 0       # durability still flows
        links = all_links(c1)
        assert links
        assert sum(link["sent_bytes"] for link in links) > 0
        assert all(link["outstanding"] == 0 for link in links)

        results = q2.results()
        assert {r["orderId"] for r in results} == expected_ids(range(300))
        assert all(50 < r["units"] < 90 for r in results)
        assert_no_relaunch(q1, q2)

    def test_route_table_covers_every_intermediate_partition(self):
        deployment = Deployment(partitions=4).with_orders(0)
        q1, q2 = build_pipeline(deployment)
        mesh = q1.master.parallel_coordinator.mesh
        topic = q1.output_stream
        owners = set()
        for partition in range(4):
            entry = mesh.routes.owner(topic, partition)
            assert entry is not None
            assert entry.gid.startswith(q2.master.job.name)
            owners.add(entry.gid)
        assert len(owners) == 2  # two containers, two shard-owner groups
        deployment.feed_orders(40)
        deployment.runner.run_until_quiescent(max_iterations=1_000_000)
        assert {r["orderId"] for r in q2.results()} == expected_ids(range(40))
        assert_no_relaunch(q1, q2)


# -- backpressure -------------------------------------------------------------


class TestBackpressure:
    def test_small_credit_window_bounds_memory_without_deadlock(self):
        """A tiny credit window forces the producers to plateau instead of
        buffering without bound, while mid-run commit barriers exercise
        the drain gate — the run must still quiesce (no deadlock) and
        produce exact results, with no worker relaunched along the way."""
        credit = 2048
        deployment = Deployment(partitions=4).with_orders(0)
        q1, q2 = build_pipeline(deployment, q1_overrides={
            "cluster.parallel.link.credit.bytes": credit,
            "task.checkpoint.interval.messages": 50,
        })
        deployment.feed_orders(600)
        deployment.runner.run_until_quiescent(max_iterations=1_000_000)

        sender_links = all_links(q1.master.parallel_coordinator)
        assert sender_links
        # Frames are capped at the window, so in-flight bytes can never
        # exceed it — the per-link memory bound.
        assert all(link["max_inflight_bytes"] <= credit
                   for link in sender_links)
        assert all(link["outstanding"] == 0 for link in sender_links)
        assert sum(link["sent_frames"] for link in sender_links) > len(
            sender_links)  # the window actually split the traffic

        # Receiver inbound queues are bounded by the senders' windows.
        sender_groups = len(q1.master.parallel_coordinator.peer_link_stats())
        assert sender_groups == 2
        for worker in (
                q2.master.parallel_coordinator.peer_link_stats().values()):
            inbound = worker.get("inbound", {})
            assert inbound.get("max_queued_bytes", 0) <= sender_groups * credit

        results = q2.results()
        assert {r["orderId"] for r in results} == expected_ids(range(600))
        assert_no_relaunch(q1, q2)


# -- elastic rebalance --------------------------------------------------------


class TestElasticRebalance:
    def test_owner_kill_reassigns_without_restarting_survivors(self):
        deployment = Deployment(partitions=4).with_orders(0)
        q1, q2 = build_pipeline(deployment)
        c1 = q1.master.parallel_coordinator
        c2 = q2.master.parallel_coordinator
        mesh = c1.mesh

        deployment.feed_orders(200)
        deployment.runner.run_until_quiescent(max_iterations=1_000_000)
        survivor_pids = {h.process.pid for h in c1.handles.values()}
        assert len(survivor_pids) == 2
        incarnations_before = dict(mesh.gid_incarnation)

        # SIGKILL a shard owner mid-pipeline, then feed a second wave so
        # the replacement (and the retargeted senders) have real work.
        victim = c2.kill_worker()
        assert victim is not None
        deployment.feed_orders(150, start_ts=2_000_000, start_id=500)
        deployment.runner.run_until_quiescent(max_iterations=1_000_000)

        # The consumer job rebalanced; the producer job never restarted.
        assert c2.relaunches >= 1
        assert c1.relaunches == 0
        assert {h.process.pid for h in c1.handles.values()} == survivor_pids
        # The replacement runs under a bumped incarnation (epoch fencing).
        assert any(
            incarnation > incarnations_before.get(gid, 0)
            for gid, incarnation in mesh.gid_incarnation.items()
            if gid.startswith(q2.master.job.name))
        # Rebalance kept the data plane decentralized throughout.
        assert mesh.routed_data_bytes == 0

        results = q2.results()
        ids = {r["orderId"] for r in results}
        assert expected_ids(range(200)) <= ids
        assert expected_ids(range(500, 650)) <= ids
        assert ids <= expected_ids(range(200)) | expected_ids(range(500, 650))
        # At-least-once: duplicates allowed, inconsistencies are not.
        by_id = {}
        for r in results:
            previous = by_id.setdefault(r["orderId"], r)
            assert previous == r

    def test_kill_burst_during_rebalance_stays_at_least_once(self):
        """A burst of SIGKILLs via the chaos supervisor: the second kill
        lands while the mesh is still settling from the first.  Epoch
        fencing + checkpoint replay must keep the pipeline at-least-once
        with the parent still moving zero routed-data bytes."""
        from repro.chaos.faults import FaultInjector, FaultSchedule
        from repro.chaos.supervisor import ChaosSupervisor

        deployment = Deployment(partitions=4).with_orders(0)
        q1, q2 = build_pipeline(deployment)
        schedule = FaultSchedule.script().add_worker_kill_burst(
            3, count=2, spacing=2)
        assert schedule.worker_kills == (3, 5)
        injector = FaultInjector(schedule, clock=deployment.clock)
        supervisor = ChaosSupervisor(deployment.runner, injector)

        deployment.feed_orders(200)
        supervisor.run_until_quiescent(max_iterations=1_000_000)

        assert supervisor.worker_kills == 2
        assert q1.master.parallel_coordinator.mesh.routed_data_bytes == 0
        results = q2.results()
        ids = {r["orderId"] for r in results}
        assert expected_ids(range(200)) <= ids
        by_id = {}
        for r in results:
            previous = by_id.setdefault(r["orderId"], r)
            assert previous == r


# -- peer protocol unit tests -------------------------------------------------


class TestPeerLinkProtocol:
    def _pump(self, endpoint, link):
        def step():
            endpoint.service()
            endpoint.publish_mirrored()
            link.service_acks()
            link.flush(encode_frame)
        return step

    def test_credit_plateau_then_drain(self, tmp_path):
        """A consumer that never services: in-flight bytes plateau at the
        window and flushes wait instead of buffering at the receiver."""
        credit = 256
        applied = []
        endpoint = PeerEndpoint("b:g0", 1, str(tmp_path / "b.1"),
                                applied.append)
        link = PeerLink("a:g0", 1, "b:g0", endpoint.address, 1,
                        credit_bytes=credit)
        for i in range(100):
            link.produce("t", i % 4, 4, (0, i, b"key", b"v" * 16))
        for _ in range(20):
            link.flush(encode_frame)
            link.service_acks()
        assert link.inflight_bytes <= credit
        assert link.max_inflight_bytes <= credit
        assert link.credit_waits > 0
        assert link.outstanding_records == 100   # nothing applied yet
        assert not link.drained

        # Now the consumer wakes up: everything drains and is mirrored.
        assert wait_for(lambda: link.drained, self._pump(endpoint, link),
                        timeout_s=10)
        assert endpoint.stats()["max_queued_bytes"] <= credit
        assert endpoint.stats()["applied_records"] == 100
        total = sum(len(group[3])
                    for frame in applied
                    for group in decode_frame(frame))
        assert total == 100
        assert link.outstanding_records == 0
        endpoint.close()
        link.close()

    def test_receiver_restart_resends_unmirrored_frames(self, tmp_path):
        """Applied-but-unmirrored frames die with the receiver; retention
        makes the sender replay them to the replacement incarnation."""
        applied_old, applied_new = [], []
        old = PeerEndpoint("b:g0", 1, str(tmp_path / "b.1"),
                           applied_old.append)
        link = PeerLink("a:g0", 1, "b:g0", old.address, 1)
        for i in range(10):
            link.produce("t", 0, 1, (0, i, b"k", b"v%d" % i))
        link.flush(encode_frame)

        def pump_no_mirror():
            old.service()
            link.service_acks()
            link.flush(encode_frame)
        assert wait_for(lambda: link.outstanding_records == 0,
                        pump_no_mirror, timeout_s=10)
        # Applied everywhere, mirrored nowhere: retention must hold.
        assert link.retained_frames > 0
        old.close()

        # Replacement with NO restored watermark (nothing was durable):
        # the resent frames are fresh and get re-applied.
        new = PeerEndpoint("b:g0", 2, str(tmp_path / "b.2"),
                           applied_new.append)
        link.retarget(new.address, 2)
        assert wait_for(lambda: link.drained, self._pump(new, link),
                        timeout_s=10)
        records = [r for frame in applied_new
                   for group in decode_frame(frame) for r in group[3]]
        assert len(records) == 10
        new.close()
        link.close()

    def test_restored_watermark_dedups_resend(self, tmp_path):
        """A replacement that restored the mirrored watermark drops the
        whole resend — at-least-once without double-apply."""
        applied_old, applied_new = [], []
        old = PeerEndpoint("b:g0", 1, str(tmp_path / "b.1"),
                           applied_old.append)
        link = PeerLink("a:g0", 1, "b:g0", old.address, 1)
        for i in range(10):
            link.produce("t", 0, 1, (0, i, b"k", b"v%d" % i))
        link.flush(encode_frame)

        def pump_no_mirror():
            old.service()
            link.service_acks()
            link.flush(encode_frame)
        assert wait_for(lambda: link.outstanding_records == 0,
                        pump_no_mirror, timeout_s=10)
        watermark = old.applied_watermarks()
        assert watermark["a:g0"][0] == 1
        old.close()

        new = PeerEndpoint("b:g0", 2, str(tmp_path / "b.2"),
                           applied_new.append, watermarks=watermark)
        link.retarget(new.address, 2)
        assert wait_for(lambda: link.drained, self._pump(new, link),
                        timeout_s=10)
        assert applied_new == []
        assert new.stats()["applied_records"] == 0
        new.close()
        link.close()

    def test_stale_sender_epoch_is_fenced(self, tmp_path):
        """Frames from an epoch older than the receiver's watermark are
        dropped (the replacement sender replays them itself) — but still
        credited, so the stale sender cannot wedge either side."""
        applied = []
        endpoint = PeerEndpoint("b:g0", 1, str(tmp_path / "b.1"),
                                applied.append,
                                watermarks={"a:g0": [2, 5]})
        stale = PeerLink("a:g0", 1, "b:g0", endpoint.address, 1)
        for i in range(5):
            stale.produce("t", 0, 1, (0, i, b"k", b"v"))
        stale.flush(encode_frame)
        assert wait_for(lambda: stale.outstanding_records == 0,
                        self._pump(endpoint, stale), timeout_s=10)
        assert applied == []
        assert endpoint.stats()["applied_records"] == 0
        endpoint.close()
        stale.close()


# -- route table + frame codec additions --------------------------------------


class TestAdaptiveCredit:
    """tune_windows(): per-status-round EWMA sizing of the credit window."""

    def test_window_retunes_from_applied_ewma(self, tmp_path):
        applied = []
        endpoint = PeerEndpoint("b:g0", 1, str(tmp_path / "b.1"),
                                applied.append)
        link = PeerLink("a:g0", 1, "b:g0", endpoint.address, 1)
        assert link.credit_bytes == DEFAULT_CREDIT_BYTES

        # One busy round (~100 KiB applied), then a tune: the window
        # becomes 2× the EWMA — far below the 4 MiB default, above the
        # 64 KiB floor — and the sender learns it via the CREDIT message.
        for i in range(50):
            link.produce("t", i % 4, 4, (0, i, b"key", b"v" * 2048))
        link.flush(encode_frame)
        assert wait_for(lambda: endpoint.stats()["applied_records"] == 50,
                        endpoint.service, timeout_s=10)
        round_bytes = endpoint.stats()["applied_bytes"]
        endpoint.tune_windows()
        link.service_acks()
        assert link.credit_bytes == 2 * round_bytes
        assert MIN_CREDIT_BYTES < link.credit_bytes < DEFAULT_CREDIT_BYTES
        assert endpoint.credit_window("a:g0") == link.credit_bytes
        assert endpoint.stats()["credit_windows"]["a:g0"] == link.credit_bytes

        # Idle rounds decay the EWMA; the clamp holds at the floor.
        first_window = link.credit_bytes
        endpoint.tune_windows()
        link.service_acks()
        assert link.credit_bytes < first_window
        for _ in range(20):
            endpoint.tune_windows()
        link.service_acks()
        assert link.credit_bytes == MIN_CREDIT_BYTES
        endpoint.close()
        link.close()

    def test_shrunk_window_still_drains(self, tmp_path):
        """A retune mid-stream shrinks the window under the bytes already
        in flight; the sender's balance clamps at zero (never negative)
        and the link keeps draining on returned grants."""
        applied = []
        endpoint = PeerEndpoint("b:g0", 1, str(tmp_path / "b.1"),
                                applied.append)
        link = PeerLink("a:g0", 1, "b:g0", endpoint.address, 1)
        for i in range(200):
            link.produce("t", i % 4, 4, (0, i, b"key", b"v" * 512))
        link.flush(encode_frame)   # all in flight under the 4 MiB default
        assert link.inflight_bytes > MIN_CREDIT_BYTES
        # Frames queued (not applied) ⇒ the reader thread has registered
        # the connection, so the tune below can reach this sender.
        assert wait_for(lambda: endpoint.inbound_records == 200,
                        lambda: None, timeout_s=10)

        # Receiver has applied nothing yet → EWMA 0 → floor window.
        endpoint.tune_windows()
        link.service_acks()
        assert link.credit_bytes == MIN_CREDIT_BYTES
        assert link.credit_avail >= 0

        def pump():
            endpoint.service()
            endpoint.publish_mirrored()
            link.service_acks()
            link.flush(encode_frame)

        assert wait_for(lambda: link.drained, pump, timeout_s=10)
        assert endpoint.stats()["applied_records"] == 200
        assert link.credit_avail <= link.credit_bytes
        endpoint.close()
        link.close()


class TestRouteTable:
    def test_payload_round_trip(self):
        table = RouteTable(epoch=3)
        table.set_owner("t", 0, RouteEntry("j:g0", "/mesh/j-g0.1", 1))
        table.set_owner("t", 1, RouteEntry("j:g2", "/mesh/j-g2.2", 2))
        clone = RouteTable.from_payload(
            json.loads(json.dumps(table.to_payload())))
        assert clone.epoch == 3
        assert clone.owned_topics() == {"t"}
        assert clone.owner("t", 0) == RouteEntry("j:g0", "/mesh/j-g0.1", 1)
        assert clone.owner("t", 1).incarnation == 2
        assert clone.owner("t", 9) is None
        assert clone.owner("other", 0) is None
        assert clone.entries_for_gid("j:g2").address == "/mesh/j-g2.2"
        assert clone.entries_for_gid("missing") is None


class TestFrameCodecAdditions:
    def test_data_payload_round_trip_with_header(self):
        frame = encode_frame([("t", 0, 1, [(0, 5, b"k", b"v")])])
        header = {"ia": 7, "pa": {"j:g0": [1, 42]}}
        decoded_header, decoded_frame = decode_data_payload(
            encode_data_payload(header, frame))
        assert decoded_header == header
        assert decoded_frame == frame

    def test_data_payload_round_trip_without_header(self):
        frame = encode_frame([])
        decoded_header, decoded_frame = decode_data_payload(
            encode_data_payload(None, frame))
        assert decoded_header == {}
        assert decoded_frame == frame

    def test_pack_msgs_round_trip(self):
        msgs = [b"G" + b"\x01" + b"payload", b"s", b"", b"B" * 300]
        assert unpack_msgs(pack_msgs(msgs)) == msgs
