"""Worker↔worker data plane: framed peer links with credit backpressure.

Each worker that owns partitions of an owner-sequenced topic hosts a
:class:`PeerEndpoint` — an ``AF_UNIX`` listener plus per-connection
reader threads feeding one inbound queue.  Producers hold one
:class:`PeerLink` per owner group and send record frames directly over
the socket; the parent process never sees the bytes.  The protocol per
connection:

* initiator -> acceptor: ``HELLO {gid, epoch}`` once, then
  ``DATA (seq, n_records, frame)`` messages with per-link monotonically
  increasing frame sequence numbers;
* acceptor -> initiator: ``CREDIT {grant, applied, mirrored}`` — byte
  grants returned as frames are applied (flow control), plus two
  watermarks: *applied* (frame is in the receiver's shard) and
  *mirrored* (the receiver has flushed the applied records, and the
  watermark itself, to the parent's durable copy).

Three rules make the link at-least-once across SIGKILLs:

1. **Retention** — a sender keeps every frame until the receiver reports
   it *mirrored*; an applied-but-unmirrored frame dies with the receiver
   and must be resendable.
2. **Dedup** — the receiver drops ``(epoch, seq)`` at or below its
   watermark for that sender.  Watermarks ride the receiver's mirror
   frames to the parent, so a relaunched receiver restores watermarks
   that exactly match its restored shard.
3. **Epoch fencing** — a sender's epoch is its incarnation number.  A
   relaunched *sender* replays from its checkpoint under a higher epoch
   (fresh seq space, intentionally not deduped); frames from an older
   epoch than the watermark's are dropped, since the replacement sender
   re-produces anything unacknowledged.

Credit is the backpressure bound: ``credit_bytes`` is the ceiling on
bytes in flight per link (sent but not yet applied), so a slow consumer
plateaus the sender instead of growing anyone's buffers without bound.
A sender with a frame larger than the whole window may send it only when
nothing else is in flight (the classic oversize allowance).
"""

from __future__ import annotations

import collections
import json
import threading

from repro.common.errors import SerdeError
from repro.common.varint import encode_varint, read_varint

# -- peer connection message tags ---------------------------------------------
PEER_HELLO = b"h"    # JSON {gid, epoch} — first message on a connection
PEER_DATA = b"d"     # varint seq + varint n_records + record frame
PEER_CREDIT = b"k"   # JSON {grant, applied: [epoch, seq], mirrored: [epoch, seq]}

#: Default per-link credit window (bytes in flight before the sender blocks).
DEFAULT_CREDIT_BYTES = 4 * 1024 * 1024
#: Adaptive window clamp: a receiver never shrinks a sender's window below
#: this floor (keeps trickle links from stalling on one oversize frame)...
MIN_CREDIT_BYTES = 64 * 1024
#: ...nor grows it beyond this ceiling (bounds receiver queue memory).
MAX_CREDIT_BYTES = 16 * 1024 * 1024
#: EWMA smoothing for the per-status-round applied-bytes estimate.
CREDIT_EWMA_ALPHA = 0.3
#: Ceiling on a single framed payload, so one frame never eats the window.
MAX_FRAME_BYTES = 256 * 1024


def _parse(raw: bytes) -> tuple[bytes, bytes]:
    if not raw:
        raise SerdeError("empty peer message")
    return raw[:1], raw[1:]


class PeerLink:
    """Sender half of one worker->worker connection (single-threaded)."""

    def __init__(self, self_gid: str, self_epoch: int, peer_gid: str,
                 address: str, incarnation: int,
                 credit_bytes: int = DEFAULT_CREDIT_BYTES):
        self.self_gid = self_gid
        self.self_epoch = self_epoch
        self.peer_gid = peer_gid
        self.address = address
        self.incarnation = incarnation
        self.credit_bytes = credit_bytes
        self._conn = None
        # (topic, partition) -> (partition_count, [records]); framed at flush.
        self._pending: dict[tuple[str, int], tuple[int, list]] = {}
        self._pending_records = 0
        # Framed but unsent (no connection / no credit): (seq, payload, n).
        self._unsent: collections.deque[tuple[int, bytes, int]] = collections.deque()
        # Sent, awaiting the *mirrored* watermark: (seq, payload, n).
        self._retained: collections.deque[tuple[int, bytes, int]] = collections.deque()
        self._inflight: dict[int, int] = {}   # seq -> bytes awaiting apply-grant
        self._next_seq = 1
        self.applied_acked = 0
        self.mirrored_acked = 0
        self.credit_avail = credit_bytes
        # Observability (mirrored into metrics gauges + status rounds).
        self.sent_bytes = 0
        self.sent_frames = 0
        self.credit_waits = 0
        self.connect_failures = 0
        self.max_inflight_bytes = 0

    # -- produce path ----------------------------------------------------------

    def produce(self, topic: str, partition: int, partition_count: int,
                record: tuple) -> None:
        key = (topic, partition)
        entry = self._pending.get(key)
        if entry is None:
            entry = (partition_count, [])
            self._pending[key] = entry
        entry[1].append(record)
        self._pending_records += 1

    def _frame_pending(self, encode_frame) -> None:
        if not self._pending:
            return
        groups = [(topic, partition, partition_count, records)
                  for (topic, partition), (partition_count, records)
                  in sorted(self._pending.items())]
        # Split into bounded frames so credit granularity stays fine-grained
        # and no frame (single-record outliers aside) outgrows the window.
        frame_cap = min(MAX_FRAME_BYTES, self.credit_bytes)
        batch: list = []
        batch_records = 0
        size = 0

        def record_size(record) -> int:
            return len(record[2] or b"") + len(record[3] or b"") + 16

        def emit() -> None:
            nonlocal batch, batch_records, size
            if batch:
                self._push_frame(encode_frame(batch), batch_records)
                batch, batch_records, size = [], 0, 0

        for topic, partition, partition_count, records in groups:
            chunk: list = []
            chunk_size = 0
            for record in records:
                rsize = record_size(record)
                if (batch or chunk) and size + chunk_size + rsize > frame_cap:
                    if chunk:
                        batch.append((topic, partition, partition_count, chunk))
                        batch_records += len(chunk)
                        chunk, chunk_size = [], 0
                    emit()
                chunk.append(record)
                chunk_size += rsize
            if chunk:
                batch.append((topic, partition, partition_count, chunk))
                batch_records += len(chunk)
                size += chunk_size
        emit()
        self._pending.clear()
        self._pending_records = 0

    def _push_frame(self, payload: bytes, n_records: int) -> None:
        self._unsent.append((self._next_seq, payload, n_records))
        self._next_seq += 1

    # -- wire ------------------------------------------------------------------

    def _connect(self) -> bool:
        if self._conn is not None:
            return True
        from multiprocessing.connection import Client

        try:
            self._conn = Client(self.address)
        except (FileNotFoundError, ConnectionRefusedError, OSError):
            self.connect_failures += 1
            return False
        hello = json.dumps({"gid": self.self_gid, "epoch": self.self_epoch},
                           sort_keys=True).encode("utf-8")
        try:
            self._conn.send_bytes(PEER_HELLO + hello)
        except (BrokenPipeError, OSError):
            self._disconnect()
            return False
        self.credit_avail = self.credit_bytes
        return True

    def _disconnect(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None

    def service_acks(self) -> None:
        """Consume CREDIT messages (non-blocking)."""
        conn = self._conn
        if conn is None:
            return
        try:
            while conn.poll(0):
                tag, payload = _parse(conn.recv_bytes())
                if tag != PEER_CREDIT:
                    continue
                credit = json.loads(payload.decode("utf-8"))
                window = credit.get("window")
                if window is not None and window != self.credit_bytes:
                    # Receiver retuned our window: apply the delta to both
                    # the ceiling and the available balance, so bytes
                    # already in flight keep counting against the new
                    # window (a shrink can leave avail at 0, never < 0).
                    delta = window - self.credit_bytes
                    self.credit_bytes = window
                    self.credit_avail = max(
                        0, min(window, self.credit_avail + delta))
                grant = credit.get("grant", 0)
                if grant:
                    self.credit_avail = min(
                        self.credit_bytes, self.credit_avail + grant)
                applied = credit.get("applied")
                if applied and applied[0] > self.self_epoch:
                    # The receiver's watermark is from a newer incarnation
                    # of this sender: it will never apply this epoch again
                    # (fencing), so everything outstanding is moot — the
                    # replacement replays it.  Release it all, or a stale
                    # sender would wedge on retention forever.
                    self.applied_acked = self._next_seq - 1
                    self._inflight.clear()
                elif applied and applied[0] == self.self_epoch:
                    if applied[1] > self.applied_acked:
                        self.applied_acked = applied[1]
                    for seq in [s for s in self._inflight
                                if s <= self.applied_acked]:
                        del self._inflight[seq]
                mirrored = credit.get("mirrored")
                if mirrored and mirrored[0] > self.self_epoch:
                    self.mirrored_acked = self._next_seq - 1
                    self._retained.clear()
                    self._unsent.clear()
                elif mirrored and mirrored[0] == self.self_epoch:
                    if mirrored[1] > self.mirrored_acked:
                        self.mirrored_acked = mirrored[1]
                    while (self._retained
                           and self._retained[0][0] <= self.mirrored_acked):
                        self._retained.popleft()
                    while (self._unsent
                           and self._unsent[0][0] <= self.mirrored_acked):
                        self._unsent.popleft()
        except (EOFError, BrokenPipeError, OSError):
            self._disconnect()

    def flush(self, encode_frame) -> None:
        """Frame pending records and send what the credit window allows."""
        self._frame_pending(encode_frame)
        if not self._unsent:
            return
        if not self._connect():
            return
        self.service_acks()
        while self._unsent:
            seq, payload, n_records = self._unsent[0]
            size = len(payload)
            inflight = sum(self._inflight.values())
            if size > self.credit_avail and not (
                    size > self.credit_bytes and inflight == 0):
                self.credit_waits += 1
                break
            message = (PEER_DATA + encode_varint(seq)
                       + encode_varint(n_records) + payload)
            try:
                self._conn.send_bytes(message)
            except (BrokenPipeError, OSError):
                self._disconnect()
                break
            self._unsent.popleft()
            self._retained.append((seq, payload, n_records))
            self._inflight[seq] = size
            self.credit_avail -= min(size, self.credit_avail)
            self.sent_bytes += size
            self.sent_frames += 1
            self.max_inflight_bytes = max(
                self.max_inflight_bytes, sum(self._inflight.values()))

    # -- rebalance -------------------------------------------------------------

    def retarget(self, address: str, incarnation: int) -> None:
        """Point at a replacement incarnation: reconnect and queue every
        unmirrored frame for resend (the receiver's restored watermark
        dedups whatever its fork baseline already holds)."""
        if incarnation == self.incarnation and address == self.address:
            return
        self._disconnect()
        self.address = address
        self.incarnation = incarnation
        resend = sorted(set(self._retained) | set(self._unsent))
        self._retained.clear()
        self._unsent.clear()
        self._unsent.extend(resend)
        self._inflight.clear()
        self.credit_avail = self.credit_bytes

    # -- introspection ---------------------------------------------------------

    @property
    def outstanding_records(self) -> int:
        """Records produced but not yet applied by the peer (quiescence
        must wait for them)."""
        applied_pending = sum(
            n for seq, _p, n in self._retained if seq > self.applied_acked)
        return (self._pending_records + applied_pending
                + sum(n for _s, _p, n in self._unsent))

    @property
    def drained(self) -> bool:
        """True when every produced record is mirrored in the parent via
        the peer (commit gate predicate)."""
        return not (self._pending or self._unsent or self._retained)

    @property
    def inflight_bytes(self) -> int:
        return sum(self._inflight.values())

    @property
    def retained_frames(self) -> int:
        return len(self._retained)

    def stats(self) -> dict:
        return {
            "sent_bytes": self.sent_bytes,
            "sent_frames": self.sent_frames,
            "credit_window": self.credit_bytes,
            "inflight_bytes": self.inflight_bytes,
            "max_inflight_bytes": self.max_inflight_bytes,
            "retained_frames": self.retained_frames,
            "credit_waits": self.credit_waits,
            "connect_failures": self.connect_failures,
            "outstanding": self.outstanding_records,
        }

    def close(self) -> None:
        self._disconnect()


class PeerEndpoint:
    """Receiver half: listener, reader threads, dedup, credit grants."""

    def __init__(self, gid: str, epoch: int, address: str | None,
                 apply_fn, credit_bytes: int = DEFAULT_CREDIT_BYTES,
                 watermarks: dict[str, list] | None = None):
        self.gid = gid
        self.epoch = epoch
        self.address = address
        self._apply_fn = apply_fn
        self.credit_bytes = credit_bytes
        # sender gid -> [epoch, applied_seq]; restored from the parent's
        # copy of this worker's last mirrored watermarks.
        self.watermarks: dict[str, list] = {
            gid: list(wm) for gid, wm in (watermarks or {}).items()}
        self._mirrored: dict[str, list] = {
            gid: list(wm) for gid, wm in self.watermarks.items()}
        self._lock = threading.Lock()
        # Adaptive per-sender credit windows: tune_windows() (called once
        # per status round) sizes each sender's window from an EWMA of the
        # bytes applied from it per round.  All three dicts are touched
        # only from the main/service thread.
        self._windows: dict[str, int] = {}
        self._applied_ewma: dict[str, float] = {}
        self._round_bytes: dict[str, int] = {}
        # Watermarks are per-sender but a CREDIT message does not name the
        # sender — it is only ever valid on that sender's own connection.
        self._conn_gids: dict = {}
        # (conn, sender_gid, sender_epoch, seq, n_records, frame_bytes)
        self._inbound: collections.deque = collections.deque()
        self.queued_bytes = 0
        self.queued_records = 0
        self.max_queued_bytes = 0
        self.applied_records = 0
        self.applied_bytes = 0
        self._conns: list = []
        self._listener = None
        self._threads: list[threading.Thread] = []
        self._closed = False
        if address is not None:
            self.ensure_listener(address)

    def ensure_listener(self, address: str) -> None:
        """Bind the mesh listener (at construction, or later when a routes
        push makes a previously link-only worker a partition owner)."""
        if self._listener is not None or self._closed:
            return
        from multiprocessing.connection import Listener

        self.address = address
        self._listener = Listener(address, backlog=16)
        accept = threading.Thread(
            target=self._accept_loop, daemon=True,
            name=f"peer-accept-{self.gid}")
        accept.start()
        self._threads.append(accept)

    # -- reader threads --------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn = self._listener.accept()
            except (OSError, EOFError):
                return
            with self._lock:
                self._conns.append(conn)
            reader = threading.Thread(
                target=self._conn_loop, args=(conn,), daemon=True,
                name=f"peer-reader-{self.gid}")
            reader.start()
            self._threads.append(reader)

    def _conn_loop(self, conn) -> None:
        sender_gid = None
        sender_epoch = 0
        try:
            while True:
                tag, payload = _parse(conn.recv_bytes())
                if tag == PEER_HELLO:
                    hello = json.loads(payload.decode("utf-8"))
                    sender_gid = hello["gid"]
                    sender_epoch = hello["epoch"]
                    with self._lock:
                        self._conn_gids[conn] = sender_gid
                    # Tell the (possibly reconnecting) sender where we
                    # stand so it can prune retention before resending.
                    self._send_credit(conn, sender_gid, grant=0)
                elif tag == PEER_DATA and sender_gid is not None:
                    seq, pos = read_varint(payload, 0)
                    n_records, pos = read_varint(payload, pos)
                    frame = payload[pos:]
                    with self._lock:
                        self._inbound.append(
                            (conn, sender_gid, sender_epoch, seq,
                             n_records, frame))
                        self.queued_bytes += len(frame)
                        self.queued_records += n_records
                        self.max_queued_bytes = max(
                            self.max_queued_bytes, self.queued_bytes)
        except (EOFError, OSError, SerdeError):
            with self._lock:
                if conn in self._conns:
                    self._conns.remove(conn)
                self._conn_gids.pop(conn, None)
            try:
                conn.close()
            except OSError:
                pass

    # -- main-thread service ---------------------------------------------------

    def service(self) -> int:
        """Apply every queued frame (dedup by (epoch, seq)); grant credit
        back per applied frame.  Returns records applied."""
        applied = 0
        while True:
            with self._lock:
                if not self._inbound:
                    return applied
                conn, sender_gid, epoch, seq, n_records, frame = (
                    self._inbound.popleft())
                self.queued_bytes -= len(frame)
                self.queued_records -= n_records
            wm = self.watermarks.get(sender_gid)
            fresh = (wm is None or epoch > wm[0]
                     or (epoch == wm[0] and seq > wm[1]))
            if fresh:
                self._apply_fn(frame)
                self.watermarks[sender_gid] = [epoch, seq]
                self.applied_records += n_records
                self.applied_bytes += len(frame)
                self._round_bytes[sender_gid] = (
                    self._round_bytes.get(sender_gid, 0) + len(frame))
                applied += n_records
            # Grant the bytes back either way — a deduped or stale-epoch
            # frame consumed window on the sender too.  (A stale-epoch
            # frame is safe to drop: its sender died, and the replacement
            # replays everything unacknowledged under a fresh epoch.)
            self._send_credit(conn, sender_gid, grant=len(frame))
        return applied

    def tune_windows(self) -> None:
        """Retune each connected sender's credit window from the EWMA of
        bytes applied from it per status round: 2× the smoothed per-round
        rate (double-buffering — one round applying while the next is in
        flight), clamped to [MIN_CREDIT_BYTES, MAX_CREDIT_BYTES].  Changed
        windows ride a zero-grant CREDIT message; the sender applies the
        delta to its window and available balance."""
        with self._lock:
            targets = list(self._conn_gids.items())
        changed = set()
        for sender_gid in {gid for _conn, gid in targets}:
            observed = self._round_bytes.pop(sender_gid, 0)
            prev = self._applied_ewma.get(sender_gid)
            ewma = (float(observed) if prev is None
                    else CREDIT_EWMA_ALPHA * observed
                    + (1.0 - CREDIT_EWMA_ALPHA) * prev)
            self._applied_ewma[sender_gid] = ewma
            window = max(MIN_CREDIT_BYTES,
                         min(MAX_CREDIT_BYTES, int(2 * ewma)))
            if self._windows.get(sender_gid, self.credit_bytes) != window:
                self._windows[sender_gid] = window
                changed.add(sender_gid)
        for conn, gid in targets:
            if gid in changed:
                self._send_credit(conn, gid, grant=0)

    def credit_window(self, sender_gid: str) -> int:
        """The current credit window for one sender (gauge source)."""
        return self._windows.get(sender_gid, self.credit_bytes)

    def _send_credit(self, conn, sender_gid: str, grant: int) -> None:
        credit = {"grant": grant}
        window = self._windows.get(sender_gid)
        if window is not None:
            credit["window"] = window
        wm = self.watermarks.get(sender_gid)
        if wm is not None:
            credit["applied"] = wm
        mirrored = self._mirrored.get(sender_gid)
        if mirrored is not None:
            credit["mirrored"] = mirrored
        try:
            conn.send_bytes(
                PEER_CREDIT
                + json.dumps(credit, sort_keys=True).encode("utf-8"))
        except (BrokenPipeError, OSError):
            pass

    def applied_watermarks(self) -> dict[str, list]:
        """Snapshot for the mirror-frame header (what is durable once the
        frame carrying this snapshot reaches the parent)."""
        return {gid: list(wm) for gid, wm in self.watermarks.items()}

    def publish_mirrored(self) -> None:
        """After a mirror flush: tell senders their frames are durable so
        they can prune retention (and commit gates can release)."""
        advanced = {
            gid: wm for gid, wm in self.watermarks.items()
            if self._mirrored.get(gid) != wm
        }
        if not advanced:
            return
        self._mirrored.update(
            {gid: list(wm) for gid, wm in advanced.items()})
        with self._lock:
            targets = [(conn, gid) for conn, gid in self._conn_gids.items()
                       if gid in advanced]
        for conn, gid in targets:
            self._send_credit(conn, gid, grant=0)

    # -- introspection / lifecycle ---------------------------------------------

    @property
    def inbound_records(self) -> int:
        with self._lock:
            return self.queued_records

    def stats(self) -> dict:
        with self._lock:
            return {
                "queued_bytes": self.queued_bytes,
                "max_queued_bytes": self.max_queued_bytes,
                "queued_records": self.queued_records,
                "applied_records": self.applied_records,
                "applied_bytes": self.applied_bytes,
                "credit_windows": dict(self._windows),
            }

    def close(self) -> None:
        self._closed = True
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            conns = list(self._conns)
            self._conns.clear()
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass

