"""Wire protocol between the coordinator and worker processes.

Two ``duplex=False`` pipes connect each worker to the parent: a command
pipe (parent → worker) and a data pipe (worker → parent).  Every message
is one ``send_bytes`` payload — a 1-byte type tag followed by either a
*record frame* or a canonical-JSON control payload.  No pickling: records
cross the boundary as the already-serialized key/value bytes the batched
execution path produced.

A record frame groups records per (topic, partition) exactly like
``Consumer.poll_batches`` groups fetches, and lays each group out in
columns: a group's five fixed-width columns pack and unpack in one
``struct`` call, its keys and its values join into one blob each, and
the only per-record step left in Python is slicing the blobs back into
bytes on decode.  All integers are little-endian::

    u32 n_groups
    per group:
        u32 len(topic_utf8)  u32 partition  u32 partition_count
        u32 n_records  u64 len(key_blob)  u64 len(value_blob)   # 32 bytes
        topic_utf8
        i64[n]  offset          # producer-side offset (informational)
        u8[n]   has_timestamp   # 0 | 1
        i64[n]  timestamp_ms    # 0 where has_timestamp is 0
        i32[n]  key_length      # -1 encodes None
        i32[n]  value_length    # -1 encodes None
        key_blob                # the keys, concatenated
        value_blob              # the values, concatenated

A record therefore costs exactly :data:`RECORD_FIXED_BYTES` plus its key
and value bytes (:func:`record_size`), and a group adds
:func:`group_header_size` — the sizes credit windows and frame caps are
computed from.

Frames are applied atomically by the receiver: ``Connection.recv_bytes``
delivers whole messages or nothing, so a SIGKILLed worker can never leave
a half-applied frame in the parent — the at-least-once argument for
worker kills rests on this.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from operator import attrgetter, itemgetter

from repro.common.errors import SerdeError
from repro.common.varint import encode_varint, read_varint

# -- message type tags ---------------------------------------------------------
# parent -> worker
MSG_INPUT = b"I"         # record frame: input forwarded to partitions this worker owns
MSG_INGRESS = b"G"       # varint seq + frame: parent-origin records for owner-sequenced
                         # partitions this worker owns (retained until echoed)
MSG_ROUTES = b"R"        # JSON route table push (epoch + owner addresses); acked
MSG_STATUS_REQ = b"S"    # request a status reply (flushes pending frames first)
MSG_COMMIT = b"C"        # commit barrier: commit every task, flush, ack
MSG_METRICS = b"M"       # force an out-of-cycle metrics snapshot, flush, ack
MSG_SHUTDOWN = b"Q"      # stop the container, flush, ack, exit
MSG_MULTI = b"B"         # writev-style envelope: several tagged messages, one pipe write

# worker -> parent
MSG_DATA = b"D"          # header + record frame: records produced beyond the fork baseline
MSG_ROUTED = b"r"        # record frame: produces to parent-sequenced input topics (outbox)
MSG_ROUTES_ACK = b"a"    # route table installed (sent after a flush, so every frame
                         # produced under the old routes precedes it in the pipe)
MSG_STATUS = b"s"        # JSON {processed, lag, shutdown, ...}
MSG_ACK_COMMIT = b"c"
MSG_ACK_METRICS = b"m"
MSG_ACK_SHUTDOWN = b"q"
MSG_ERROR = b"E"         # JSON {kind, error} — worker is about to exit nonzero

#: (topic, partition, partition_count, records); records are
#: (offset, timestamp_ms | None, key_bytes | None, value_bytes | None).
RecordGroup = tuple[str, int, int, list[tuple]]


_FRAME_HEADER = struct.Struct("<I")
_GROUP_HEADER = struct.Struct("<IIIIQQ")
#: Bytes of the frame header (the group count).
FRAME_HEADER_BYTES = _FRAME_HEADER.size
#: Fixed bytes per record: offset, timestamp flag, timestamp, two lengths.
RECORD_FIXED_BYTES = 8 + 1 + 8 + 4 + 4

#: ``Message`` -> RecordGroup record, as one C-level call per message.
record_of = attrgetter("offset", "timestamp_ms", "key", "value")
_keys_of = itemgetter(2)
_values_of = itemgetter(3)


def record_size(key: bytes | None, value: bytes | None) -> int:
    """Exact encoded bytes of one record inside a group."""
    return (RECORD_FIXED_BYTES + (len(key) if key is not None else 0)
            + (len(value) if value is not None else 0))


def group_header_size(topic: str) -> int:
    """Exact encoded bytes a group adds before its records."""
    return _GROUP_HEADER.size + len(topic.encode("utf-8"))


def group_size(topic: str, records: list[tuple]) -> int:
    """Exact encoded bytes of one whole group (header plus records)."""
    return (group_header_size(topic) + RECORD_FIXED_BYTES * len(records)
            + sum(map(len, filter(None, map(_keys_of, records))))
            + sum(map(len, filter(None, map(_values_of, records)))))


@lru_cache(maxsize=4096)
def _columns(n: int) -> struct.Struct:
    """The five fixed-width columns of an n-record group, as one layout."""
    return struct.Struct(f"<{n}q{n}B{n}q{n}i{n}i")


def _lengths(items: tuple):
    """Length column for keys or values (-1 for None), and their blob."""
    absent = items.count(None)
    if absent == 0:
        return map(len, items), b"".join(items)
    if absent == len(items):
        return (-1,) * absent, b""
    return ([-1 if item is None else len(item) for item in items],
            b"".join(filter(None, items)))


def encode_frame(groups: list[RecordGroup]) -> bytes:
    parts = [_FRAME_HEADER.pack(len(groups))]
    try:
        for topic, partition, partition_count, records in groups:
            topic_bytes = topic.encode("utf-8")
            n = len(records)
            if n:
                offsets, stamps, keys, values = zip(*records)
            else:
                offsets = stamps = keys = values = ()
            key_lengths, key_blob = _lengths(keys)
            value_lengths, value_blob = _lengths(values)
            absent = stamps.count(None)
            if absent == 0:
                presence = (1,) * n
            elif absent == n:
                presence = stamps = (0,) * n
            else:
                presence = [stamp is not None for stamp in stamps]
                stamps = [0 if stamp is None else stamp for stamp in stamps]
            parts += (
                _GROUP_HEADER.pack(len(topic_bytes), partition,
                                   partition_count, n,
                                   len(key_blob), len(value_blob)),
                topic_bytes,
                _columns(n).pack(*offsets, *presence, *stamps,
                                 *key_lengths, *value_lengths),
                key_blob, value_blob)
    except struct.error as err:
        raise SerdeError(f"record does not fit the frame layout: {err}") from None
    return b"".join(parts)


def _read_blobs(buf: bytes, pos: int, lengths: tuple,
                total: int) -> list[bytes | None]:
    """Slice one blob into its records' bytes (None where length is -1).
    A plain loop: on CPython 3.11 it beats ``accumulate`` plus
    ``map(slice, …)`` at every group size."""
    items = []
    append = items.append
    start = pos
    for length in lengths:
        if length < 0:
            if length != -1:
                raise SerdeError("corrupt frame: negative length")
            append(None)
        else:
            end = pos + length
            append(buf[pos:end])
            pos = end
    if pos - start != total:
        raise SerdeError("corrupt frame: lengths disagree with the blob")
    return items


def _decode(buf: bytes, batches: bool) -> list:
    size = len(buf)
    if size < FRAME_HEADER_BYTES:
        raise SerdeError("truncated frame: missing group count")
    (n_groups,) = _FRAME_HEADER.unpack_from(buf, 0)
    pos = FRAME_HEADER_BYTES
    groups = []
    for _ in range(n_groups):
        if pos + _GROUP_HEADER.size > size:
            raise SerdeError("truncated frame: missing group header")
        (topic_len, partition, partition_count, n, key_total,
         value_total) = _GROUP_HEADER.unpack_from(buf, pos)
        pos += _GROUP_HEADER.size
        end = pos + topic_len + RECORD_FIXED_BYTES * n + key_total + value_total
        if end > size:
            raise SerdeError("truncated frame: group runs past the buffer")
        try:
            topic = buf[pos:pos + topic_len].decode("utf-8")
        except UnicodeDecodeError as err:
            raise SerdeError(f"corrupt frame: topic is not UTF-8: {err}") from None
        pos += topic_len
        columns = _columns(n).unpack_from(buf, pos)
        pos += RECORD_FIXED_BYTES * n
        presence = columns[n:2 * n]
        stamps = columns[2 * n:3 * n]
        keys = _read_blobs(buf, pos, columns[3 * n:4 * n], key_total)
        pos += key_total
        values = _read_blobs(buf, pos, columns[4 * n:], value_total)
        pos += value_total
        present = presence.count(1)
        if present != n:
            if present + presence.count(0) != n:
                raise SerdeError("corrupt frame: timestamp flag not 0 or 1")
            stamps = [stamp if flag else None
                      for flag, stamp in zip(presence, stamps)]
        if batches:
            records = list(zip(keys, values, stamps))
        else:
            records = list(zip(columns[:n], stamps, keys, values))
        groups.append((topic, partition, partition_count, records))
    if pos != size:
        raise SerdeError(f"trailing bytes after frame: {size - pos}")
    return groups


def decode_frame(buf: bytes) -> list[RecordGroup]:
    return _decode(buf, batches=False)


def decode_frame_batches(buf: bytes) -> list[tuple[str, int, int, list[tuple]]]:
    """Decode straight into ``(topic, partition, partition_count,
    [(key, value, timestamp_ms), ...])`` — the record shape
    ``produce_batch`` appends, with the informational offsets dropped."""
    return _decode(buf, batches=True)


def send_msg(conn, tag: bytes, payload: bytes = b"") -> None:
    """One tagged message down a pipe (atomic on the receiving side)."""
    conn.send_bytes(tag + payload)


def parse_msg(raw: bytes) -> tuple[bytes, bytes]:
    if not raw:
        raise SerdeError("empty pipe message")
    return raw[:1], raw[1:]


# -- data-frame headers --------------------------------------------------------
# A MSG_DATA payload is varint(len(header_json)) + header_json + frame.  The
# header carries the worker's durability watermarks — ``ia`` (highest ingress
# seq applied) and ``pa`` (per-sender peer apply watermarks, {gid: [epoch,
# seq]}) — in the SAME atomic pipe message as the frame that echoes the
# applied records.  A replacement worker restored from the parent's mirror
# therefore inherits dedup watermarks that exactly match the records in its
# fork baseline; there is no window where a watermark promises data the
# mirror does not have.

def encode_data_payload(header: dict | None, frame: bytes) -> bytes:
    if not header:
        return b"\x00" + frame
    import json

    blob = json.dumps(header, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return encode_varint(len(blob)) + blob + frame


def decode_data_payload(payload: bytes) -> tuple[dict, bytes]:
    length, pos = read_varint(payload, 0)
    if length == 0:
        return {}, payload[pos:]
    end = pos + length
    if end > len(payload):
        raise SerdeError("truncated data header")
    import json

    header = json.loads(payload[pos:end].decode("utf-8"))
    return header, payload[end:]


# -- writev-style message packing ----------------------------------------------
# One pump's worth of parent->worker traffic (routes, forwarded input,
# ingress frames, the status request) packs into a single MSG_MULTI pipe
# write: one syscall, one wakeup, and the worker still applies each inner
# message with the same atomicity — recv_bytes delivers the whole envelope
# or nothing.

def pack_msgs(messages: list[bytes]) -> bytes:
    out = bytearray()
    for raw in messages:
        out += encode_varint(len(raw))
        out += raw
    return bytes(out)


def unpack_msgs(payload: bytes) -> list[bytes]:
    messages = []
    pos = 0
    while pos < len(payload):
        length, pos = read_varint(payload, pos)
        end = pos + length
        if end > len(payload):
            raise SerdeError("truncated multi-message envelope")
        messages.append(payload[pos:end])
        pos = end
    return messages
