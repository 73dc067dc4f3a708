"""Seeded fast feeds: the benchmark's inputs, synthesised once per run.

``--seed`` drives record *content* only (product, units, padding text);
sizes, rates and timestamps are fixed per workload.  Records are encoded
here, by hand, into the Avro binary layout of the Orders/Products schemas
(zig-zag varints, length-prefixed strings), so the program under test
receives nothing but bytes — and the reference checker
(:mod:`perfbench.reference`) evaluates the same rows without going through
any of the program's codecs.

Entries are ``(value, key, partition, timestamp_ms)`` tuples, exactly the
shape ``Producer.send_batch`` takes; partitions are precomputed with the
same FNV-1a hash the default partitioner uses, so the Orders and Products
topics are co-partitioned by ``productId``.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

#: (name, avro type) — the padded Orders schema of the paper's §5.1.
ORDERS_FIELDS = (("rowtime", "long"), ("productId", "int"),
                 ("orderId", "long"), ("units", "int"), ("padding", "string"))
PRODUCTS_FIELDS = (("productId", "int"), ("name", "string"),
                   ("supplierId", "int"))

#: Padding length that lands the encoded Orders record at ~100 bytes.
PADDING_CHARS = 86
_BLOB_CHARS = 8192


def _varint(n: int) -> bytes:
    """Avro long/int: zig-zag then base-128 varint (non-negative ``n``)."""
    z = n << 1
    out = bytearray()
    while z > 0x7F:
        out.append((z & 0x7F) | 0x80)
        z >>= 7
    out.append(z)
    return bytes(out)


_SMALL = [_varint(i) for i in range(4096)]


def fnv1a_partition(key: bytes, partitions: int) -> int:
    h = 0xCBF29CE484222325
    for byte in key:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h % partitions


@dataclass
class OrdersFeed:
    """``rows[i]`` is the plain tuple ``entries[i]`` encodes."""

    rows: list[tuple]      # (rowtime, productId, orderId, units, padding)
    entries: list[tuple]   # (value, key, partition, timestamp_ms)

    def __len__(self) -> int:
        return len(self.rows)

    def slice(self, start: int, stop: int) -> "OrdersFeed":
        return OrdersFeed(self.rows[start:stop], self.entries[start:stop])


def orders_feed(seed: int, count: int, partitions: int,
                product_count: int = 100, start_ts: int = 1_000_000,
                interarrival_ms: int = 1000) -> OrdersFeed:
    """``count`` Orders records: ids 0..count-1, one every
    ``interarrival_ms`` of event time, keyed by ``productId``."""
    rng = random.Random(seed)
    blob = "".join(rng.choices(string.ascii_letters, k=_BLOB_CHARS))
    span = _BLOB_CHARS - PADDING_CHARS
    pad_len = _varint(PADDING_CHARS)
    routes = []
    for pid in range(product_count):
        key = str(pid).encode()
        routes.append((key, fnv1a_partition(key, partitions), _varint(pid)))
    small = _SMALL
    rows, entries = [], []
    randrange = rng.randrange
    for i in range(count):
        rowtime = start_ts + i * interarrival_ms
        pid = randrange(product_count)
        units = randrange(100)
        off = randrange(span)
        padding = blob[off:off + PADDING_CHARS]
        key, partition, pid_bytes = routes[pid]
        value = b"".join((
            _varint(rowtime), pid_bytes,
            small[i] if i < 4096 else _varint(i),
            small[units], pad_len, padding.encode("ascii")))
        rows.append((rowtime, pid, i, units, padding))
        entries.append((value, key, partition, rowtime))
    return OrdersFeed(rows, entries)


def products_feed(seed: int, partitions: int, product_count: int = 100,
                  supplier_count: int = 10) -> tuple[list[tuple], list[tuple]]:
    """The Products relation as changelog entries (one upsert per key);
    returns ``(rows, entries)`` with rows ``(productId, name, supplierId)``."""
    rng = random.Random(seed + 1)
    rows, entries = [], []
    for pid in range(product_count):
        name = f"product-{pid}"
        supplier = rng.randrange(supplier_count)
        key = str(pid).encode()
        encoded = name.encode("ascii")
        value = b"".join((_varint(pid), _varint(len(encoded)), encoded,
                          _varint(supplier)))
        rows.append((pid, name, supplier))
        entries.append((value, key, fnv1a_partition(key, partitions), None))
    return rows, entries
