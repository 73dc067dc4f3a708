"""The Orders stream generator.

§5.1: "we choose 100 bytes messages for our benchmark by adding a random
string to each record from Orders stream."  ``padding`` is sized so the
Avro-encoded record lands at ~100 bytes.
"""

from __future__ import annotations

import random
import string
from typing import Iterator

from repro.kafka.cluster import KafkaCluster
from repro.kafka.producer import Producer
from repro.serde.avro import AvroSchema, AvroSerde

ORDERS_SCHEMA = AvroSchema.record(
    "Orders",
    [("rowtime", "long"), ("productId", "int"), ("orderId", "long"),
     ("units", "int")],
)


def padded_orders_schema() -> AvroSchema:
    """Orders plus the benchmark's random-string padding field."""
    return AvroSchema.record(
        "Orders",
        [("rowtime", "long"), ("productId", "int"), ("orderId", "long"),
         ("units", "int"), ("padding", "string")],
    )


def make_order(order_id: int, rowtime: int, product_count: int = 100,
               rng: random.Random | None = None,
               padding_bytes: int = 0) -> dict:
    rng = rng or random
    record = {
        "rowtime": rowtime,
        "productId": rng.randrange(product_count),
        "orderId": order_id,
        "units": rng.randrange(100),
    }
    if padding_bytes:
        record["padding"] = "".join(
            rng.choices(string.ascii_letters, k=padding_bytes))
    return record


class OrdersGenerator:
    """Deterministic (seeded) Orders workload.

    ``target_message_bytes`` pads records toward the paper's ~100-byte
    message size; set to 0 for unpadded records.
    """

    def __init__(self, product_count: int = 100, seed: int = 42,
                 start_ts: int = 1_000_000, interarrival_ms: int = 1,
                 target_message_bytes: int = 100):
        self.product_count = product_count
        self.rng = random.Random(seed)
        self.start_ts = start_ts
        self.interarrival_ms = interarrival_ms
        self.padded = target_message_bytes > 0
        self.schema = padded_orders_schema() if self.padded else ORDERS_SCHEMA
        self.serde = AvroSerde(self.schema)
        self._padding_bytes = 0
        if self.padded:
            self._padding_bytes = self._calibrate_padding(target_message_bytes)

    def _calibrate_padding(self, target: int) -> int:
        probe = make_order(10**6, self.start_ts, self.product_count,
                           random.Random(0), padding_bytes=0)
        probe["padding"] = ""
        base = len(self.serde.to_bytes(probe))
        return max(target - base, 0)

    def records(self, count: int, start_id: int = 0) -> Iterator[dict]:
        for i in range(count):
            yield make_order(
                start_id + i,
                self.start_ts + (start_id + i) * self.interarrival_ms,
                self.product_count, self.rng,
                padding_bytes=self._padding_bytes)

    def encoded(self, count: int, start_id: int = 0) -> Iterator[tuple[bytes, bytes, int]]:
        """(key, value, timestamp) triples ready to produce."""
        for record in self.records(count, start_id):
            yield (str(record["productId"]).encode(),
                   self.serde.to_bytes(record), record["rowtime"])

    def produce(self, cluster: KafkaCluster, topic: str, count: int,
                partitions: int = 32, start_id: int = 0) -> int:
        """Create the topic (if needed) and write ``count`` records."""
        cluster.create_topic(topic, partitions=partitions, if_not_exists=True)
        producer = Producer(cluster)
        written = 0
        for key, value, ts in self.encoded(count, start_id):
            producer.send(topic, value, key=key, timestamp_ms=ts)
            written += 1
        return written



ORDER_STAGES = ("Fills", "Shipments", "Invoices")


def order_stage_schema(name: str) -> AvroSchema:
    """Schema of one fulfilment-stage stream (same key family as Orders)."""
    return AvroSchema.record(
        name, [("rowtime", "long"), ("orderId", "long"), ("units", "int")])


class OrderLifecycleGenerator:
    """Each order observed again on Fills, Shipments and Invoices.

    Every order is re-emitted on the downstream stage streams with a
    growing jittered delay, all keyed by ``orderId`` — the K-way join
    scenario: reassemble the fulfilment lifecycle inside a rowtime window
    anchored at the original order.  Unlike :meth:`OrdersGenerator.produce`
    (which keys by ``productId`` for the relation join), every topic here
    is keyed by ``orderId`` so the join sides are co-partitioned.
    """

    def __init__(self, seed: int = 46, start_ts: int = 1_000_000,
                 interarrival_ms: int = 5, product_count: int = 100,
                 stage_delays_ms: tuple[int, ...] = (600, 1_600, 2_600),
                 jitter_ms: int = 350):
        self.rng = random.Random(seed)
        self.start_ts = start_ts
        self.interarrival_ms = interarrival_ms
        self.product_count = product_count
        self.stage_delays_ms = stage_delays_ms
        self.jitter_ms = jitter_ms
        self.serdes = {"Orders": AvroSerde(ORDERS_SCHEMA)}
        for stage in ORDER_STAGES:
            self.serdes[stage] = AvroSerde(order_stage_schema(stage))

    def events(self, count: int) -> Iterator[tuple[str, dict]]:
        """(stream_name, record) pairs, one order plus its stages at a time."""
        for i in range(count):
            ts = self.start_ts + i * self.interarrival_ms
            order = make_order(i, ts, self.product_count, self.rng)
            yield "Orders", order
            for stage, delay in zip(ORDER_STAGES, self.stage_delays_ms):
                yield stage, {
                    "rowtime": ts + delay + self.rng.randrange(self.jitter_ms),
                    "orderId": i,
                    "units": order["units"],
                }

    def produce(self, cluster: KafkaCluster, count: int, partitions: int = 4,
                streams: tuple[str, ...] | None = None) -> dict[str, int]:
        """Write ``count`` orders (and their stage records) per stream.

        ``streams`` limits which lifecycle streams are produced (always
        includes Orders); topics are named after the streams.
        """
        wanted = set(streams) if streams is not None else (
            {"Orders"} | set(ORDER_STAGES))
        wanted.add("Orders")
        for name in wanted:
            cluster.create_topic(name, partitions=partitions,
                                 if_not_exists=True)
        producer = Producer(cluster)
        written = {name: 0 for name in wanted}
        for name, record in self.events(count):
            if name not in wanted:
                continue
            producer.send(name, self.serdes[name].to_bytes(record),
                          key=str(record["orderId"]).encode(),
                          timestamp_ms=record["rowtime"])
            written[name] += 1
        return written
