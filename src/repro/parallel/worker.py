"""The worker process: one container, one broker shard, two pipes + mesh.

Workers are created with ``fork``: the child inherits the parent's whole
in-process object graph — Kafka cluster, ZooKeeper, config, serdes, task
factories — and that inherited copy *is* the shared-nothing broker shard.
Nothing is pickled; the fork is the state transfer.  After forking, the
worker finishes task initialization (``SamzaContainer.finish_task_init``),
which is where :class:`~repro.samzasql.task.SamzaSqlTask` reads the
physical-plan JSON back from the forked ZooKeeper and recompiles its
operators — the paper's two-step planning, now genuinely per-process.

Everything the worker produces beyond the fork-time watermarks is
mirrored to the parent as record frames (the parent's cluster is the
durable copy a relaunched worker restores from).  Where a produce goes
depends on who sequences the destination partition:

* **owner-sequenced** partitions (intermediate topics that are both a
  parallel job's input and another parallel job's declared output) have a
  deterministic worker owner in the :class:`~repro.kafka.routing.RouteTable`.
  A produce to one routes *shard-to-shard*: applied locally when this
  worker is the owner, otherwise sent over a direct worker↔worker
  :class:`~repro.parallel.peer.PeerLink` with credit backpressure.  The
  parent sees the bytes only as the owner's mirror echo — it is off the
  data path.
* **parent-sequenced** topics (this job's own source inputs) divert to an
  outbox (``MSG_ROUTED``): input partitions consumed by several workers
  still need a single sequencer, and the parent forwarding each record to
  the partition owner keeps input offsets identical in parent and worker —
  which is what lets a checkpoint written in one worker incarnation seek
  correctly in the next.
* everything else (outputs, changelogs, checkpoints, metrics) applies
  locally and is mirrored.

A commit gate (installed as ``SamzaContainer.pre_commit_hook``) refuses to
write a checkpoint while peer links still hold un-mirrored frames: a crash
after such a checkpoint would orphan records no replay could regenerate.
"""

from __future__ import annotations

import collections
import json
import time
from contextlib import nullcontext

from repro.common.errors import ContainerCrashError, RetryExhaustedError
from repro.common.varint import read_varint
from repro.kafka.message import TopicPartition
from repro.kafka.routing import RouteTable
from repro.parallel.frames import (
    MSG_ACK_COMMIT,
    MSG_ACK_METRICS,
    MSG_ACK_SHUTDOWN,
    MSG_COMMIT,
    MSG_DATA,
    MSG_ERROR,
    MSG_INGRESS,
    MSG_INPUT,
    MSG_METRICS,
    MSG_MULTI,
    MSG_ROUTED,
    MSG_ROUTES,
    MSG_ROUTES_ACK,
    MSG_SHUTDOWN,
    MSG_STATUS,
    MSG_STATUS_REQ,
    RecordGroup,
    decode_frame,
    encode_data_payload,
    encode_frame,
    pack_msgs,
    parse_msg,
    send_msg,
    unpack_msgs,
)
from repro.parallel.peer import PeerEndpoint, PeerLink

#: Seconds the idle worker blocks on the command pipe between iterations.
IDLE_POLL_S = 0.002
#: Ceiling on the commit gate's wait for peer-link drain.  Deliberately
#: below the parent's 60 s control-barrier timeout: a stuck gate crashes
#: this worker (and relaunches it) instead of wedging the barrier.
GATE_TIMEOUT_S = 30.0
#: Commands that commit, report or stop the container: not reentrant
#: inside a commit gate, so the gate defers them to the main loop.
_NOT_REENTRANT = frozenset({MSG_COMMIT, MSG_METRICS, MSG_SHUTDOWN})


class ClusterTap:
    """Watermark tracker over the worker's local cluster copy.

    ``collect`` returns every record appended past the last collection as
    record groups, and advances the watermarks.  Partitions the parent
    forwards input into are advanced with :meth:`mark_forwarded` so the
    forwarded records are not mirrored straight back.
    """

    def __init__(self, cluster):
        self._cluster = cluster
        self._positions: dict[TopicPartition, int] = {}
        for topic in cluster.topics():
            for tp in cluster.partitions_for(topic):
                self._positions[tp] = cluster.latest_offset(tp)

    def mark_forwarded(self, tp: TopicPartition, offset: int) -> None:
        self._positions[tp] = offset

    def collect(self) -> list[RecordGroup]:
        cluster = self._cluster
        groups: list[RecordGroup] = []
        # The tap is observation, not the system under test: freeze the
        # fault injector so these fetches don't consume scheduled faults.
        injector = cluster.fault_injector
        guard = injector.suspended() if injector is not None else nullcontext()
        with guard:
            for topic in cluster.topics():
                partition_count = cluster.topic(topic).partition_count
                for tp in cluster.partitions_for(topic):
                    pos = self._positions.get(tp)
                    if pos is None:  # topic created after the fork
                        pos = cluster.earliest_offset(tp)
                    end = cluster.latest_offset(tp)
                    if end <= pos:
                        continue
                    records = [
                        (m.offset, m.timestamp_ms, m.key, m.value)
                        for m in cluster.fetch(tp, pos, end - pos)
                    ]
                    groups.append((topic, tp.partition, partition_count, records))
                    self._positions[tp] = end
        return groups


class _WorkerLoop:
    """All per-process state of one worker (see module docstring)."""

    def __init__(self, container, cmd_conn, data_conn, mesh_spec: dict):
        self.container = container
        self.cluster = container.cluster
        self.cmd_conn = cmd_conn
        self.data_conn = data_conn
        self.gid: str = mesh_spec["gid"]
        self.epoch: int = mesh_spec["epoch"]
        self.credit_bytes: int = mesh_spec["credit_bytes"]
        self.routes = RouteTable.from_payload(mesh_spec["routes"])
        self.routed = set(mesh_spec["routed_topics"])
        self.ingress_seq: int = mesh_spec.get("ingress_seq", 0)
        self.outbox: list[tuple] = []
        self.links: dict[str, PeerLink] = {}
        self.fwd_bytes = 0              # cumulative INPUT+INGRESS payload bytes
        self.stopping = False
        self._deferred: collections.deque[bytes] = collections.deque()
        self._in_gate = False

        # Bound methods shadow at the instance level, so only this
        # process's cluster copy routes produces.
        self._original_produce_batch = type(
            self.cluster).produce_batch.__get__(self.cluster)
        self.cluster.produce_batch = self._route_produce_batch

        self.endpoint = PeerEndpoint(
            self.gid, self.epoch, mesh_spec.get("listen_address"),
            apply_fn=self._apply_local_frame,
            credit_bytes=self.credit_bytes,
            watermarks=mesh_spec.get("receiver_watermarks") or {})

        container.pre_commit_hook = self._commit_gate
        container.finish_task_init()
        self.tap = ClusterTap(self.cluster)
        metrics = container.metrics
        metrics.gauge("peer", "inbound-queued-bytes",
                      fn=lambda: self.endpoint.queued_bytes)
        metrics.gauge("peer", "inbound-max-queued-bytes",
                      fn=lambda: self.endpoint.max_queued_bytes)
        metrics.gauge("peer", "links", fn=lambda: len(self.links))

    # -- produce routing -------------------------------------------------------

    def _route_produce_batch(self, tp, records):
        """The route depends only on the partition: one decision per batch
        (a single produce is a batch of one); own-shard and unrouted
        batches go to the original ``produce_batch`` whole."""
        entry = self.routes.owner(tp.topic, tp.partition)
        if entry is not None:
            if entry.gid == self.gid:
                # Own shard: apply locally; the mirror echo is the
                # parent's (and any replacement's) durable copy.
                return self._original_produce_batch(tp, records)
            link = self._link_for(entry)
            partition_count = self.cluster.topic(tp.topic).partition_count
            for key, value, timestamp_ms in records:
                link.produce(tp.topic, tp.partition, partition_count,
                             (0, timestamp_ms, key, value))
            return -1
        if tp.topic in self.routed:
            self.outbox.extend((tp, key, value, timestamp_ms)
                               for key, value, timestamp_ms in records)
            return -1
        return self._original_produce_batch(tp, records)

    def _link_for(self, entry) -> PeerLink:
        link = self.links.get(entry.gid)
        if link is None:
            link = PeerLink(self.gid, self.epoch, entry.gid,
                            entry.address, entry.incarnation,
                            self.credit_bytes)
            self.links[entry.gid] = link
            metrics = self.container.metrics
            group = f"peer.link.{entry.gid}"
            metrics.gauge(group, "inflight-bytes",
                          fn=lambda l=link: l.inflight_bytes)
            metrics.gauge(group, "max-inflight-bytes",
                          fn=lambda l=link: l.max_inflight_bytes)
            metrics.gauge(group, "retained-frames",
                          fn=lambda l=link: l.retained_frames)
            metrics.gauge(group, "credit-waits",
                          fn=lambda l=link: l.credit_waits)
            metrics.gauge(group, "credit-window",
                          fn=lambda l=link: l.credit_bytes)
        elif (entry.address, entry.incarnation) != (link.address,
                                                    link.incarnation):
            link.retarget(entry.address, entry.incarnation)
        return link

    # -- frame application -----------------------------------------------------

    def _apply_local_frame(self, frame: bytes) -> None:
        """Apply peer/ingress records to the local shard.  Deliberately not
        ``mark_forwarded``: the tap mirrors these appends to the parent,
        and that echo IS the parent's copy (plus the retention ack)."""
        for topic, partition, partition_count, records in decode_frame(frame):
            if not self.cluster.has_topic(topic):
                self.cluster.create_topic(topic, partitions=partition_count,
                                          if_not_exists=True)
            self._original_produce_batch(TopicPartition(topic, partition), [
                (key, value, timestamp_ms)
                for _offset, timestamp_ms, key, value in records])

    def apply_input(self, payload: bytes) -> None:
        self.fwd_bytes += len(payload)
        for topic, partition, partition_count, records in decode_frame(payload):
            if not self.cluster.has_topic(topic):
                self.cluster.create_topic(topic, partitions=partition_count,
                                          if_not_exists=True)
            tp = TopicPartition(topic, partition)
            self._original_produce_batch(tp, [
                (key, value, timestamp_ms)
                for _offset, timestamp_ms, key, value in records])
            self.tap.mark_forwarded(tp, self.cluster.latest_offset(tp))

    def apply_ingress(self, payload: bytes) -> None:
        self.fwd_bytes += len(payload)
        seq, pos = read_varint(payload, 0)
        if seq <= self.ingress_seq:
            return  # retention resend after a relaunch; already in the baseline
        self._apply_local_frame(payload[pos:])
        self.ingress_seq = seq

    def apply_routes(self, payload: bytes) -> None:
        table = RouteTable.from_payload(json.loads(payload.decode("utf-8")))
        if table.epoch > self.routes.epoch:
            # Fence: every frame produced under the old routes enters the
            # data pipe before the ack does (pipes are FIFO), so the
            # parent sees a consistent cut when the ack arrives.
            self.flush()
            self.routes = table
            own = table.entries_for_gid(self.gid)
            if own is not None and own.incarnation == self.epoch:
                self.endpoint.ensure_listener(own.address)
            for peer_gid, link in self.links.items():
                entry = table.entries_for_gid(peer_gid)
                if entry is not None:
                    link.retarget(entry.address, entry.incarnation)
        send_msg(self.data_conn, MSG_ROUTES_ACK,
                 json.dumps({"epoch": self.routes.epoch},
                            sort_keys=True).encode("utf-8"))

    # -- mirror / peer service -------------------------------------------------

    def service_peers(self) -> int:
        applied = self.endpoint.service()
        for link in self.links.values():
            link.service_acks()
            link.flush(encode_frame)
        return applied

    def flush(self) -> None:
        if self.outbox:
            routed_groups: dict[TopicPartition, list[tuple]] = {}
            for tp, key, value, timestamp_ms in self.outbox:
                routed_groups.setdefault(tp, []).append(
                    (0, timestamp_ms, key, value))
            self.outbox.clear()
            groups = [
                (tp.topic, tp.partition,
                 self.cluster.topic(tp.topic).partition_count, records)
                for tp, records in routed_groups.items()]
            send_msg(self.data_conn, MSG_ROUTED, encode_frame(groups))
        groups = self.tap.collect()
        if groups:
            header: dict = {}
            if self.ingress_seq:
                header["ia"] = self.ingress_seq
            pa = self.endpoint.applied_watermarks()
            if pa:
                header["pa"] = pa
            send_msg(self.data_conn, MSG_DATA,
                     encode_data_payload(header, encode_frame(groups)))
            # The watermarks in that header are now durable at the parent
            # (the pipe delivers or the parent is gone): senders may prune.
            self.endpoint.publish_mirrored()
        for link in self.links.values():
            link.service_acks()
            link.flush(encode_frame)

    # -- commit gate -----------------------------------------------------------

    def _commit_gate(self) -> None:
        if self._in_gate or not self.links:
            return
        self._in_gate = True
        try:
            deadline = time.monotonic() + GATE_TIMEOUT_S
            while not all(link.drained for link in self.links.values()):
                self.service_peers()
                self.flush()
                # Two gated workers draining into each other make progress
                # because each gate round applies the other's frames and
                # returns credit.  Commands keep being served, status
                # requests included: the parent blocks on each status
                # reply, and a peer it has not forked yet can only drain
                # this gate once the parent moves on.
                if self.cmd_conn.poll(0.0005):
                    self.handle_command(self.cmd_conn.recv_bytes())
                if time.monotonic() > deadline:
                    pending = {gid: link.stats()
                               for gid, link in self.links.items()
                               if not link.drained}
                    raise ContainerCrashError(
                        f"commit gate timed out after {GATE_TIMEOUT_S}s; "
                        f"peer links not drained: {pending}")
        finally:
            self._in_gate = False

    # -- command handling ------------------------------------------------------

    def handle_command(self, raw: bytes) -> None:
        tag, payload = parse_msg(raw)
        if self._in_gate and tag in _NOT_REENTRANT:
            # Inside a commit gate: the main loop replays it after the gate.
            self._deferred.append(raw)
        elif tag == MSG_MULTI:
            for inner in unpack_msgs(payload):
                self.handle_command(inner)
                if self.stopping:
                    return
        elif tag == MSG_INPUT:
            self.apply_input(payload)
        elif tag == MSG_INGRESS:
            self.apply_ingress(payload)
        elif tag == MSG_ROUTES:
            self.apply_routes(payload)
        elif tag == MSG_STATUS_REQ:
            self.flush()
            # Status rounds are the adaptive-credit clock: retune each
            # sender's window from this round's applied-byte EWMA.
            self.endpoint.tune_windows()
            send_msg(self.data_conn, MSG_STATUS,
                     json.dumps(self._status(), sort_keys=True).encode("utf-8"))
        elif tag == MSG_COMMIT:
            if not self.container.shutdown_requested:
                self.container.commit()
            self.flush()
            send_msg(self.data_conn, MSG_ACK_COMMIT)
        elif tag == MSG_METRICS:
            if (self.container.metrics_reporter is not None
                    and not self.container.shutdown_requested):
                self.container.metrics_reporter.report()
            self.flush()
            send_msg(self.data_conn, MSG_ACK_METRICS)
        elif tag == MSG_SHUTDOWN:
            if not self.container.shutdown_requested:
                self.container.stop()   # commit -> gate drains peer links
            self.flush()
            send_msg(self.data_conn, MSG_ACK_SHUTDOWN,
                     json.dumps({"processed": self.container.processed_count},
                                sort_keys=True).encode("utf-8"))
            self.stopping = True

    def _status(self) -> dict:
        peer_outstanding = sum(
            link.outstanding_records for link in self.links.values())
        return {
            "processed": self.container.processed_count,
            "lag": (self.container.total_lag() + len(self.outbox)
                    + peer_outstanding + self.endpoint.inbound_records),
            "shutdown": self.container.shutdown_requested,
            "fwd": self.fwd_bytes,
            "peer": {
                "links": {gid: link.stats()
                          for gid, link in self.links.items()},
                "inbound": self.endpoint.stats(),
            },
        }

    # -- main loop -------------------------------------------------------------

    def run(self) -> None:
        cmd_conn = self.cmd_conn
        while not self.stopping:
            while self._deferred and not self.stopping:
                self.handle_command(self._deferred.popleft())
            while not self.stopping and cmd_conn.poll(0):
                self.handle_command(cmd_conn.recv_bytes())
            if self.stopping:
                break
            applied = self.service_peers()
            handled = self.container.run_iteration()
            self.flush()
            if handled == 0 and applied == 0:
                # Idle: block briefly on the command pipe instead of spinning.
                cmd_conn.poll(IDLE_POLL_S)

    def close(self) -> None:
        for link in self.links.values():
            link.close()
        self.endpoint.close()


def worker_main(container, cmd_conn, data_conn, mesh_spec: dict) -> None:
    """Run one container to shutdown inside a forked process."""
    loop = _WorkerLoop(container, cmd_conn, data_conn, mesh_spec)
    try:
        loop.run()
    except (EOFError, BrokenPipeError, OSError):
        # Parent went away; nothing to report to.
        raise SystemExit(2)
    except (ContainerCrashError, RetryExhaustedError) as err:
        _report_error(data_conn, loop.flush, err)
        raise SystemExit(1)
    except Exception as err:  # pragma: no cover - defensive
        _report_error(data_conn, loop.flush, err)
        raise SystemExit(3)
    finally:
        loop.close()
        try:
            data_conn.close()
            cmd_conn.close()
        except OSError:
            pass


def _report_error(data_conn, flush, err: BaseException) -> None:
    """Best-effort: mirror surviving records, then describe the failure."""
    try:
        flush()
    except Exception:
        pass
    try:
        send_msg(data_conn, MSG_ERROR,
                 json.dumps({"kind": type(err).__name__, "error": str(err)},
                            sort_keys=True).encode("utf-8"))
    except (BrokenPipeError, OSError):
        pass
