"""Parent-side control plane for process-backed containers.

The coordinator owns one :class:`WorkerHandle` per live container: a
forked worker process, the command pipe the parent writes, and a daemon
reader thread that drains the worker's data pipe into an inbox the
moment bytes arrive.  The reader threads are what make the pipe protocol
deadlock-free — a worker's data sends can never block indefinitely on a
parent that is itself blocked sending a command, because the parent is
always consuming.

Since the decentralized data plane, the parent is *control plane only*
in steady state.  A :class:`RunnerMesh` (one per
:class:`~repro.samza.job.JobRunner`, shared by every coordinator) decides
which topics are **owner-sequenced** — intermediate topics that are both
a parallel job's input and another parallel job's declared output
(``task.outputs``) — and publishes a
:class:`~repro.kafka.routing.RouteTable` mapping each of their partitions
to the worker group that hosts the partition's shard.  Keyed traffic to
those topics flows worker↔worker over
:class:`~repro.parallel.peer.PeerLink` sockets with credit backpressure;
the parent sees the bytes only as the owner's mirror echo.  Everything
else keeps the PR 5 contract: source inputs are parent-sequenced and
forwarded, worker output is mirrored.

Responsibilities:

* **spawn** — fork a worker for every container the master has started
  but no process serves yet.  Initial launch and elastic rebalance share
  this path: a replacement restores from the parent's mirrored
  changelog/checkpoint *before* the fork, gets a bumped incarnation and
  a fresh mesh address, and the route-table push (``MSG_ROUTES``, acked
  after a flush — the fence) retargets every surviving sender without
  restarting it;
* **mirror** — apply the record frames workers send; frame headers carry
  the worker's peer/ingress apply watermarks, atomically with the echo
  records, so a replacement's restored dedup state always matches its
  restored shard;
* **sequence** — only what still needs a single sequencer: source-topic
  input (forwarded under a credit window) and parent-origin produces to
  owner-sequenced topics (diverted to the owner as ``MSG_INGRESS``,
  retained until echoed);
* **supervise** — detect dead workers, fail them through the YARN
  resource manager, and fork replacements;
* **barrier** — drive the commit/metrics/shutdown control protocol.
"""

from __future__ import annotations

import collections
import json
import multiprocessing
import os
import re
import shutil
import signal
import tempfile
import threading
import time

from repro.common.varint import encode_varint
from repro.kafka.message import TopicPartition
from repro.kafka.routing import RouteEntry, RouteTable
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
    decode_data_payload,
    decode_frame_batches,
    encode_frame,
    group_size,
    pack_msgs,
    parse_msg,
    record_of,
    send_msg,
)
from repro.parallel.peer import DEFAULT_CREDIT_BYTES
from repro.parallel.worker import worker_main
from repro.yarn.launcher import ProcessLauncher

#: Ceiling on how long the parent waits for one control-protocol reply.
AWAIT_TIMEOUT_S = 60.0
#: Records per forwarded input frame (bounds single pipe messages).
FORWARD_CHUNK = 2048


class WorkerHandle:
    """One worker process plus its pipes and reader thread."""

    def __init__(self, yarn_container_id: str, process, cmd_conn, data_conn):
        self.yarn_container_id = yarn_container_id
        self.process = process
        self.cmd_conn = cmd_conn
        self.inbox: collections.deque[bytes] = collections.deque()
        self.cond = threading.Condition()
        self.eof = False
        self.error: dict | None = None
        self.stopped = False            # graceful shutdown acked
        self.last_processed = 0
        self.last_lag = 0
        self.last_shutdown = False
        # Mesh identity: worker group id and incarnation (sender epoch).
        self.gid = ""
        self.incarnation = 1
        self.routes_epoch = 0           # highest route-table epoch acked
        # Forward credit: cumulative payload bytes sent down the command
        # pipe (INPUT + INGRESS) vs cumulative bytes the worker reports
        # applied — their difference is bounded by the credit window.
        self.fwd_sent = 0
        self.fwd_acked = 0
        self.peer_stats: dict = {}      # last status round's peer-link stats
        # Next parent offset to forward per owned input partition.
        self.forward_pos: dict[TopicPartition, int] = {}
        self._reader = threading.Thread(
            target=self._read_loop, args=(data_conn,), daemon=True,
            name=f"worker-reader-{yarn_container_id}")
        self._reader.start()

    def _read_loop(self, conn) -> None:
        try:
            while True:
                raw = conn.recv_bytes()
                with self.cond:
                    self.inbox.append(raw)
                    self.cond.notify_all()
        except (EOFError, OSError):
            with self.cond:
                self.eof = True
                self.cond.notify_all()

    @property
    def dead(self) -> bool:
        return self.eof or self.error is not None or not self.process.is_alive()

    @property
    def fwd_inflight(self) -> int:
        return max(0, self.fwd_sent - self.fwd_acked)

    def close(self) -> None:
        try:
            self.cmd_conn.close()
        except OSError:
            pass
        self.process.join(timeout=5)
        if self.process.is_alive():  # pragma: no cover - defensive
            self.process.kill()
            self.process.join(timeout=5)
        self._reader.join(timeout=5)


class _IngressLink:
    """Parent-origin records diverted to one owner group, retained until
    the owner's echo (``ia`` header) confirms they are back in the parent
    log — the resend buffer for elastic rebalance."""

    def __init__(self):
        self.pending: dict[TopicPartition, list[tuple]] = {}
        self.pending_records = 0
        # (seq, frame, n_records); seqs are global per gid, never reset.
        self.retained: collections.deque[tuple[int, bytes, int]] = (
            collections.deque())
        self.next_seq = 1
        self.sent_seq = 0   # highest seq written to the current incarnation
        self.acked_seq = 0  # highest seq echoed back into the parent log

    def backlog_records(self) -> int:
        return self.pending_records + sum(
            n for seq, _f, n in self.retained if seq > self.acked_seq)


class RunnerMesh:
    """Shared route/ownership state for every coordinator of one runner."""

    def __init__(self, runner):
        self.runner = runner
        self.cluster = runner.cluster
        # The unhooked produce: every parent-side mirror/echo apply MUST
        # use this, or the ingress divert hook would re-route echoes.
        self.direct_produce_batch = type(runner.cluster).produce_batch.__get__(
            runner.cluster)
        self.routes = RouteTable(epoch=0)
        self.coordinators: list[ParallelJobCoordinator] = []
        self.declared_outputs: dict[str, set[str]] = {}
        self.input_consumers: dict[str, list] = {}
        self.owner_sequenced: set[str] = set()
        self.gid_incarnation: dict[str, int] = {}
        self.ingress: dict[str, _IngressLink] = {}
        self.receiver_watermarks: dict[str, dict[str, list]] = {}
        self.ingress_watermark: dict[str, int] = {}
        # Data-path accounting.  ``routed_data_bytes`` is the tentpole
        # counter: bytes of worker-produced routed traffic the parent had
        # to sequence (the legacy outbox path).  A fully peer-routed
        # pipeline pins it to 0.
        self.routed_data_bytes = 0
        self.forwarded_input_bytes = 0
        self.ingress_data_bytes = 0
        self.mirror_data_bytes = 0
        self.meshdir = tempfile.mkdtemp(prefix="samza-mesh-")
        self._hooked = False

    @classmethod
    def attach(cls, runner) -> "RunnerMesh":
        mesh = getattr(runner, "_parallel_mesh", None)
        if mesh is None:
            mesh = cls(runner)
            runner._parallel_mesh = mesh
        return mesh

    # -- registration / ownership ----------------------------------------------

    def register_job(self, coordinator: "ParallelJobCoordinator") -> None:
        job = coordinator.master.job
        self.coordinators.append(coordinator)
        outputs = set()
        for text in job.config.get_list("task.outputs", []):
            outputs.add(text.split(".", 1)[1] if "." in text else text)
        self.declared_outputs[job.name] = outputs
        for ss in job.input_streams():
            self.input_consumers.setdefault(ss.stream, []).append(coordinator)
        self._recompute_ownership()

    def _recompute_ownership(self) -> None:
        all_outputs: set[str] = set()
        for outputs in self.declared_outputs.values():
            all_outputs |= outputs
        for topic, consumers in self.input_consumers.items():
            if topic in self.owner_sequenced or topic.startswith("__"):
                continue
            if len(consumers) != 1 or topic not in all_outputs:
                continue
            consumer = consumers[0]
            if consumer.spawned_ever:
                # Too late to flip safely: the consumer's workers forked
                # with a parent-sequenced baseline for this topic, and
                # peer appends would misalign their local offsets against
                # the parent log.  The topic stays parent-sequenced.
                continue
            self._activate(topic, consumer)

    def _activate(self, topic: str,
                  consumer: "ParallelJobCoordinator") -> None:
        partition_count = self.cluster.topic(topic).partition_count
        for group in consumer.task_groups():
            pids = sorted(model.partition_id for model in group)
            gid = f"{consumer.master.job.name}:g{pids[0]}"
            incarnation = self.gid_incarnation.setdefault(gid, 1)
            address = self.address_for(gid, incarnation)
            for pid in pids:
                if pid < partition_count:
                    self.routes.set_owner(
                        topic, pid, RouteEntry(gid, address, incarnation))
        self.owner_sequenced.add(topic)
        self.routes.epoch += 1
        self._ensure_hook()
        # Fence: live producers flush under the old routes and ack before
        # any owner forks, so every pre-flip record is in the parent log
        # (the owners' fork baseline) before peer routing begins.
        self.sync_routes()

    def address_for(self, gid: str, incarnation: int) -> str:
        name = re.sub(r"[^A-Za-z0-9_.-]", "-", gid)
        return os.path.join(self.meshdir, f"{name}.{incarnation}")

    def _ensure_hook(self) -> None:
        if self._hooked:
            return
        self._hooked = True

        def diverting_produce_batch(tp, records):
            # The route depends only on the partition: one decision per
            # batch (a single produce is a batch of one).
            if tp.topic in self.owner_sequenced:
                entry = self.routes.owner(tp.topic, tp.partition)
                if entry is not None:
                    self._enqueue_ingress(entry.gid, tp, records)
                    return -1
            return self.direct_produce_batch(tp, records)

        self.cluster.produce_batch = diverting_produce_batch

    def _enqueue_ingress(self, gid: str, tp, records: list[tuple]) -> None:
        link = self.ingress.setdefault(gid, _IngressLink())
        link.pending.setdefault(tp, []).extend(
            (0, timestamp_ms, key, value)
            for key, value, timestamp_ms in records)
        link.pending_records += len(records)

    # -- incarnations ----------------------------------------------------------

    def begin_incarnation(self, gid: str, first: bool) -> int:
        if first:
            return self.gid_incarnation.setdefault(gid, 1)
        incarnation = self.gid_incarnation.get(gid, 0) + 1
        self.gid_incarnation[gid] = incarnation
        address = self.address_for(gid, incarnation)
        changed = False
        for by_partition in self.routes.entries.values():
            for partition, entry in list(by_partition.items()):
                if entry.gid == gid:
                    by_partition[partition] = RouteEntry(
                        gid, address, incarnation)
                    changed = True
        if changed:
            self.routes.epoch += 1
        link = self.ingress.get(gid)
        if link is not None:
            # Resend the unacknowledged tail to the new incarnation; its
            # restored ingress watermark dedups anything already echoed.
            link.sent_seq = link.acked_seq
        return incarnation

    def listen_address(self, gid: str) -> str | None:
        entry = self.routes.entries_for_gid(gid)
        return entry.address if entry is not None else None

    def sync_routes(self) -> None:
        """Push the current route table to every live worker that has not
        acked this epoch; draining frames on the way to the ack is the
        fence that makes ownership changes and retargets consistent."""
        epoch = self.routes.epoch
        payload: bytes | None = None
        for coordinator in self.coordinators:
            for handle in list(coordinator.handles.values()):
                if handle.dead or handle.routes_epoch >= epoch:
                    continue
                if payload is None:
                    payload = json.dumps(
                        self.routes.to_payload(),
                        sort_keys=True).encode("utf-8")
                try:
                    send_msg(handle.cmd_conn, MSG_ROUTES, payload)
                except (BrokenPipeError, OSError):
                    with handle.cond:
                        handle.eof = True
                    continue
                if coordinator._await(handle, MSG_ROUTES_ACK) is not None:
                    handle.routes_epoch = epoch

    # -- worker watermark intake -----------------------------------------------

    def note_worker_watermarks(self, gid: str, header: dict) -> None:
        if not gid:
            return
        peer_applied = header.get("pa")
        if peer_applied:
            self.receiver_watermarks[gid] = peer_applied
        ingress_applied = header.get("ia")
        if ingress_applied:
            link = self.ingress.get(gid)
            if link is not None and ingress_applied > link.acked_seq:
                link.acked_seq = ingress_applied
                while (link.retained
                       and link.retained[0][0] <= ingress_applied):
                    link.retained.popleft()
            if ingress_applied > self.ingress_watermark.get(gid, 0):
                self.ingress_watermark[gid] = ingress_applied

    # -- ingress delivery ------------------------------------------------------

    def ingress_msgs(self, handle: WorkerHandle, credit: int) -> list[bytes]:
        link = self.ingress.get(handle.gid)
        if link is None:
            return []
        if link.pending:
            groups = [
                (tp.topic, tp.partition,
                 self.cluster.topic(tp.topic).partition_count, records)
                for tp, records in sorted(
                    link.pending.items(),
                    key=lambda item: (item[0].topic, item[0].partition))]
            frame = encode_frame(groups)
            link.retained.append((link.next_seq, frame, link.pending_records))
            link.next_seq += 1
            link.pending.clear()
            link.pending_records = 0
        msgs: list[bytes] = []
        for seq, frame, _n in link.retained:
            if seq <= link.sent_seq:
                continue
            if handle.fwd_inflight > 0 and (
                    handle.fwd_inflight + len(frame) > credit):
                break
            payload = encode_varint(seq) + frame
            msgs.append(MSG_INGRESS + payload)
            handle.fwd_sent += len(payload)
            self.ingress_data_bytes += len(frame)
            link.sent_seq = seq
        return msgs

    def control_backlog(self, coordinator: "ParallelJobCoordinator") -> int:
        prefix = f"{coordinator.master.job.name}:g"
        return sum(link.backlog_records()
                   for gid, link in self.ingress.items()
                   if gid.startswith(prefix))

    # -- lifecycle -------------------------------------------------------------

    def maybe_cleanup(self) -> None:
        if any(not c._shutdown for c in self.coordinators):
            return
        if self._hooked:
            self.cluster.produce_batch = self.direct_produce_batch
            self._hooked = False
        shutil.rmtree(self.meshdir, ignore_errors=True)


class ParallelJobCoordinator:
    """Drives one job's containers as forked worker processes."""

    def __init__(self, master, runner, max_relaunches: int = 8):
        self.master = master
        self.runner = runner
        self.cluster = runner.cluster
        self.max_relaunches = max_relaunches
        self.relaunches = 0
        self.handles: dict[str, WorkerHandle] = {}
        self._mp = multiprocessing.get_context("fork")
        self._shutdown = False
        self._worker_seq = 0
        self._gid_spawned: set[str] = set()
        self._input_topics = sorted(
            ss.stream for ss in master.job.input_streams())
        self._credit_bytes = master.job.config.get_int(
            "cluster.parallel.link.credit.bytes", DEFAULT_CREDIT_BYTES)
        # Relation changelogs and other bootstrap inputs must reach a
        # worker before the stream records that expect to see their
        # effects — forwarded first within each (atomic) input frame.
        self._bootstrap_topics = {
            ss.stream for ss in master.job.input_streams()
            if master.job.config.get_bool(
                f"systems.{ss.system}.streams.{ss.stream}.samza.bootstrap",
                False)
        }
        if runner.rm.process_launcher is None:
            runner.rm.process_launcher = ProcessLauncher()
        self._launcher = runner.rm.process_launcher
        self._task_groups = None
        self.mesh = RunnerMesh.attach(runner)
        self.mesh.register_job(self)

    # -- mesh derivations ------------------------------------------------------

    @property
    def spawned_ever(self) -> bool:
        return self._worker_seq > 0

    def task_groups(self):
        """The deterministic GroupByPartitionId grouping — identical to
        what the application master built at submit, so partition
        ownership can be derived without waiting for containers."""
        if self._task_groups is None:
            job = self.master.job
            self._task_groups = job.group_tasks(
                job.build_task_models(self.cluster))
        return self._task_groups

    def _gid_for(self, container) -> str:
        first = min(
            instance.partition_id for instance in container.tasks.values())
        return f"{self.master.job.name}:g{first}"

    def _routed_topics(self) -> list[str]:
        return sorted(t for t in self._input_topics
                      if t not in self.mesh.owner_sequenced)

    # -- spawning --------------------------------------------------------------

    def ensure_workers(self) -> None:
        for yarn_cid, container in sorted(self.master.samza_containers.items()):
            if yarn_cid not in self.handles:
                self._spawn(yarn_cid, container)

    def _spawn(self, yarn_cid: str, container) -> None:
        mesh = self.mesh
        gid = self._gid_for(container)
        first = gid not in self._gid_spawned
        self._gid_spawned.add(gid)
        incarnation = mesh.begin_incarnation(gid, first=first)
        # Fence before computing the fork baseline: survivors flush any
        # frames addressed to the dead incarnation (or produced under
        # pre-flip routes) and retarget; only then is the parent log the
        # complete baseline for this fork.
        mesh.sync_routes()
        cmd_recv, cmd_send = self._mp.Pipe(duplex=False)
        data_recv, data_send = self._mp.Pipe(duplex=False)
        # Forward positions start at the parent's current watermarks: the
        # fork below inherits everything up to here, so forwarding begins
        # exactly where inheritance ends.  Owner-sequenced partitions this
        # group hosts are excluded — the worker receives that traffic over
        # the mesh (peers + ingress) and its own echoes must not bounce.
        forward_pos = {}
        for instance in container.tasks.values():
            for ssp in instance.ssps:
                tp = ssp.topic_partition
                entry = mesh.routes.owner(tp.topic, tp.partition)
                if entry is not None and entry.gid == gid:
                    continue
                forward_pos[tp] = self.cluster.latest_offset(tp)
        mesh_spec = {
            "gid": gid,
            "epoch": incarnation,
            "listen_address": mesh.listen_address(gid),
            "routes": mesh.routes.to_payload(),
            "credit_bytes": self._credit_bytes,
            "receiver_watermarks": mesh.receiver_watermarks.get(gid, {}),
            "ingress_seq": mesh.ingress_watermark.get(gid, 0),
            "routed_topics": self._routed_topics(),
        }
        self._worker_seq += 1
        process = self._mp.Process(
            target=worker_main,
            args=(container, cmd_recv, data_send, mesh_spec),
            daemon=True,
            name=f"samza-worker-{self.master.job.name}-{self._worker_seq}",
        )
        process.start()
        # Close the parent's copies of the child-side pipe ends so a dead
        # worker yields EOF on the reader thread instead of a silent hang.
        cmd_recv.close()
        data_send.close()
        handle = WorkerHandle(yarn_cid, process, cmd_send, data_recv)
        handle.gid = gid
        handle.incarnation = incarnation
        handle.routes_epoch = mesh.routes.epoch
        handle.forward_pos = forward_pos
        self.handles[yarn_cid] = handle
        self._launcher.register(yarn_cid, process)

    # -- frame application -----------------------------------------------------

    def _apply_frame(self, payload: bytes, sequenced: bool = False) -> None:
        produce_batch = (self.cluster.produce_batch if sequenced
                         else self.mesh.direct_produce_batch)
        for topic, partition, partition_count, records in (
                decode_frame_batches(payload)):
            if not self.cluster.has_topic(topic):
                self.cluster.create_topic(topic, partitions=partition_count,
                                          if_not_exists=True)
            produce_batch(TopicPartition(topic, partition), records)

    def _dispatch(self, handle: WorkerHandle, raw: bytes) -> tuple[bytes, bytes]:
        tag, payload = parse_msg(raw)
        if tag == MSG_DATA:
            header, frame = decode_data_payload(payload)
            # Mirror echoes bypass the ingress divert hook — they ARE the
            # parent-side application of already-sequenced records.
            self._apply_frame(frame)
            self.mesh.mirror_data_bytes += len(frame)
            if header:
                self.mesh.note_worker_watermarks(handle.gid, header)
        elif tag == MSG_ROUTED:
            # The legacy outbox: the parent is still the sequencer for
            # this worker's own source-input topics.
            self._apply_frame(payload, sequenced=True)
            self.mesh.routed_data_bytes += len(payload)
        elif tag == MSG_ERROR:
            handle.error = json.loads(payload.decode("utf-8"))
        return tag, payload

    def _drain(self, handle: WorkerHandle) -> None:
        while True:
            with handle.cond:
                if not handle.inbox:
                    return
                raw = handle.inbox.popleft()
            self._dispatch(handle, raw)

    def _await(self, handle: WorkerHandle, wanted: bytes,
               timeout_s: float = AWAIT_TIMEOUT_S) -> bytes | None:
        """Drain the handle's inbox until ``wanted`` arrives (frames and
        errors seen on the way are applied); None on death or timeout."""
        deadline = time.monotonic() + timeout_s
        while True:
            with handle.cond:
                raw = handle.inbox.popleft() if handle.inbox else None
                if raw is None:
                    if handle.eof or handle.error is not None:
                        return None
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    handle.cond.wait(timeout=min(remaining, 0.05))
                    continue
            tag, payload = self._dispatch(handle, raw)
            if tag == wanted:
                return payload

    # -- death detection and relaunch ------------------------------------------

    def _reap_dead(self) -> None:
        for yarn_cid, handle in list(self.handles.items()):
            if not handle.dead:
                continue
            # Mirror whatever the reader thread received before the EOF —
            # frames flushed before the kill are durable by contract.
            self._drain(handle)
            self._launcher.unregister(yarn_cid)
            handle.close()
            del self.handles[yarn_cid]
            if handle.stopped or self._shutdown or self.master.finished:
                continue
            self.relaunches += 1
            if self.relaunches > self.max_relaunches:
                detail = handle.error or {"error": "worker died"}
                raise RuntimeError(
                    f"worker for {yarn_cid} exceeded {self.max_relaunches} "
                    f"relaunches; last error: {detail}")
            if yarn_cid in self.master.samza_containers:
                reason = (handle.error or {}).get(
                    "error", "worker process died")
                # FAILED -> the master re-requests, the RM schedules, and
                # on_containers_allocated builds + starts a replacement
                # container in the parent, restoring state from the
                # mirrored changelog and checkpoint topics.  The next
                # ensure_workers() forks it with a bumped incarnation;
                # the route push retargets surviving senders — elastic
                # rebalance, not a job restart.
                self.runner.rm.fail_container(yarn_cid, reason)
                # The kill freed the dead container's slot; if the
                # replacement request still queued AND no node could place
                # it, the rebalance would hang short of quiescent — fail
                # fast with the reason instead.
                resource = self.master.job.container_resource()
                if (self.runner.rm.pending_request_count() > 0
                        and not self.runner.rm.can_allocate(resource)):
                    raise RuntimeError(
                        f"worker for {yarn_cid} died ({reason}) and no "
                        f"node can fit a replacement {resource} — elastic "
                        f"rebalance needs cluster headroom")

    # -- input forwarding ------------------------------------------------------

    def _build_input_msg(self, handle: WorkerHandle) -> bytes | None:
        """One atomic multi-group input frame for this handle, capped by
        the forward-credit window.

        A single frame is applied atomically by the worker (one
        ``recv_bytes``), so its container can never run an iteration
        having seen only part of this round's input.  Bootstrap topics
        (relation changelogs) order first in the frame: an update
        produced before a stream record is always visible to the task by
        the time that record is processed — matching the in-process mode,
        where production order alone decides visibility.
        """
        budget = self._credit_bytes - handle.fwd_inflight
        if budget <= 0:
            return None
        groups = []
        new_pos: dict[TopicPartition, int] = {}
        size = 0
        ordered = sorted(
            handle.forward_pos.items(),
            key=lambda item: (item[0].topic not in self._bootstrap_topics,
                              item[0].topic, item[0].partition))
        for tp, pos in ordered:
            end = self.cluster.latest_offset(tp)
            while pos < end and size < budget:
                records = list(map(record_of, self.cluster.fetch(
                    tp, pos, min(FORWARD_CHUNK, end - pos))))
                if not records:  # pragma: no cover - defensive
                    break
                groups.append((
                    tp.topic, tp.partition,
                    self.cluster.topic(tp.topic).partition_count,
                    records))
                size += group_size(tp.topic, records)
                pos = records[-1][0] + 1
            if pos != handle.forward_pos[tp]:
                new_pos[tp] = pos
            if size >= budget:
                break
        if not groups:
            return None
        frame = encode_frame(groups)
        handle.forward_pos.update(new_pos)
        handle.fwd_sent += len(frame)
        self.mesh.forwarded_input_bytes += len(frame)
        return MSG_INPUT + frame

    def _pending_forwards(self) -> int:
        backlog = 0
        for handle in self.handles.values():
            for tp, pos in handle.forward_pos.items():
                backlog += max(0, self.cluster.latest_offset(tp) - pos)
        return backlog

    # -- the pump: one cooperative parent-side round ---------------------------

    def pump(self) -> int:
        """Mirror, reap, spawn, forward, and collect one status round.

        Returns the number of records workers report processing since the
        previous round — the parallel counterpart of the processed count
        :meth:`SamzaApplicationMaster.run_iteration` returns.
        """
        if self._shutdown:
            return 0
        for handle in list(self.handles.values()):
            self._drain(handle)
        self._reap_dead()
        self.ensure_workers()
        return self._status_round()

    def _status_round(self) -> int:
        """Per live handle, pack this round's control traffic — input
        frame, ingress frames, status request — into ONE pipe write
        (``MSG_MULTI``): one syscall and one worker wakeup per pump.
        Every live handle's write goes out before any reply is awaited,
        so the workers apply their input and answer side by side; a
        worker that dies before answering yields no status here and is
        reaped by the next pump."""
        asked: list[WorkerHandle] = []
        for handle in list(self.handles.values()):
            if handle.dead:
                continue
            msgs: list[bytes] = []
            input_msg = self._build_input_msg(handle)
            if input_msg is not None:
                msgs.append(input_msg)
            msgs.extend(self.mesh.ingress_msgs(handle, self._credit_bytes))
            msgs.append(MSG_STATUS_REQ)
            try:
                if len(msgs) == 1:
                    send_msg(handle.cmd_conn, MSG_STATUS_REQ)
                else:
                    send_msg(handle.cmd_conn, MSG_MULTI, pack_msgs(msgs))
            except (BrokenPipeError, OSError):
                with handle.cond:
                    handle.eof = True
                continue
            asked.append(handle)
        delta = 0
        for handle in asked:
            payload = self._await(handle, MSG_STATUS)
            if payload is None:
                continue
            status = json.loads(payload.decode("utf-8"))
            delta += status["processed"] - handle.last_processed
            handle.last_processed = status["processed"]
            handle.last_lag = status["lag"]
            handle.last_shutdown = status["shutdown"]
            handle.fwd_acked = status.get("fwd", handle.fwd_acked)
            handle.peer_stats = status.get("peer", handle.peer_stats)
        return delta

    # -- introspection ---------------------------------------------------------

    def total_lag(self) -> int:
        if self._shutdown:
            return 0
        lag = sum(h.last_lag for h in self.handles.values())
        lag += self._pending_forwards()
        lag += self.mesh.control_backlog(self)
        # Containers with no worker yet can't be quiescent.
        lag += sum(1 for yarn_cid in self.master.samza_containers
                   if yarn_cid not in self.handles)
        return lag

    def all_shutdown(self) -> bool:
        return bool(self.handles) and all(
            h.last_shutdown for h in self.handles.values())

    def container_metrics(self) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = {}
        for yarn_cid, handle in self.handles.items():
            container = self.master.samza_containers.get(yarn_cid)
            container_id = container.container_id if container else yarn_cid
            out[container_id] = {
                "processed": float(handle.last_processed),
                "lag": float(handle.last_lag),
                "bootstrapping": 0.0,
            }
        return out

    def live_worker_ids(self) -> list[str]:
        return sorted(yarn_cid for yarn_cid, handle in self.handles.items()
                      if not handle.dead)

    def peer_link_stats(self) -> dict[str, dict]:
        """Last status round's per-worker peer stats, keyed by gid."""
        return {handle.gid: handle.peer_stats
                for handle in self.handles.values() if handle.peer_stats}

    # -- control barriers ------------------------------------------------------

    def _barrier(self, request: bytes, ack: bytes) -> None:
        pending = []
        for handle in list(self.handles.values()):
            if handle.dead:
                continue
            try:
                send_msg(handle.cmd_conn, request)
            except (BrokenPipeError, OSError):
                with handle.cond:
                    handle.eof = True
                continue
            pending.append(handle)
        for handle in pending:
            self._await(handle, ack)

    def commit_barrier(self) -> None:
        """Every live worker commits (state flush + checkpoint) and mirrors
        the result before this returns — run_until_quiescent's guarantee
        that 'quiescent' includes durable."""
        if self._shutdown:
            return
        self._barrier(MSG_COMMIT, MSG_ACK_COMMIT)

    def force_metrics(self) -> None:
        """Out-of-cycle metrics snapshot from every live worker, mirrored."""
        if self._shutdown:
            return
        self._barrier(MSG_METRICS, MSG_ACK_METRICS)

    # -- lifecycle -------------------------------------------------------------

    def shutdown_all(self) -> None:
        """Gracefully stop every worker (final commit + snapshot mirrored)."""
        if self._shutdown:
            return
        self._shutdown = True
        for handle in list(self.handles.values()):
            if handle.dead:
                continue
            try:
                send_msg(handle.cmd_conn, MSG_SHUTDOWN)
            except (BrokenPipeError, OSError):
                with handle.cond:
                    handle.eof = True
        for yarn_cid, handle in list(self.handles.items()):
            if not handle.dead:
                if self._await(handle, MSG_ACK_SHUTDOWN) is not None:
                    handle.stopped = True
            self._drain(handle)
            self._launcher.unregister(yarn_cid)
            handle.close()
            del self.handles[yarn_cid]
        self.mesh.maybe_cleanup()

    def kill_worker(self, index: int = 0) -> str | None:
        """SIGKILL the index-th live worker (chaos hook); returns its
        container id, or None when no worker is live."""
        live = self.live_worker_ids()
        if not live:
            return None
        yarn_cid = live[index % len(live)]
        handle = self.handles[yarn_cid]
        try:
            os.kill(handle.process.pid, signal.SIGKILL)
        except ProcessLookupError:  # pragma: no cover - already gone
            pass
        handle.process.join(timeout=5)
        return yarn_cid
