"""PacketsR1/R2 generator — the §3.8.1 router-latency scenario."""

from __future__ import annotations

import random
from typing import Iterator

from repro.kafka.cluster import KafkaCluster
from repro.kafka.producer import Producer
from repro.serde.avro import AvroSchema, AvroSerde

PACKETS_SCHEMA = AvroSchema.record(
    "Packets",
    [("rowtime", "long"), ("sourcetime", "long"), ("packetId", "long")],
)


class PacketsGenerator:
    """Packets observed at router R1 then at R2 with a random transit delay."""

    def __init__(self, seed: int = 44, start_ts: int = 1_000_000,
                 interarrival_ms: int = 10, max_transit_ms: int = 1500,
                 loss_rate: float = 0.0):
        self.rng = random.Random(seed)
        self.start_ts = start_ts
        self.interarrival_ms = interarrival_ms
        self.max_transit_ms = max_transit_ms
        self.loss_rate = loss_rate
        self.serde = AvroSerde(PACKETS_SCHEMA)

    def pairs(self, count: int) -> Iterator[tuple[dict, dict | None]]:
        """(r1_record, r2_record_or_None) per packet; None = lost in transit."""
        for pid in range(count):
            t1 = self.start_ts + pid * self.interarrival_ms
            r1 = {"rowtime": t1, "sourcetime": t1 - self.rng.randrange(5),
                  "packetId": pid}
            if self.rng.random() < self.loss_rate:
                yield r1, None
                continue
            transit = self.rng.randrange(1, self.max_transit_ms)
            r2 = {"rowtime": t1 + transit, "sourcetime": r1["sourcetime"],
                  "packetId": pid}
            yield r1, r2

    def produce(self, cluster: KafkaCluster, topic_r1: str, topic_r2: str,
                count: int, partitions: int = 32) -> tuple[int, int]:
        for topic in (topic_r1, topic_r2):
            cluster.create_topic(topic, partitions=partitions, if_not_exists=True)
        producer = Producer(cluster)
        arrivals: list[dict] = []
        for r1, r2 in self.pairs(count):
            producer.send(topic_r1, self.serde.to_bytes(r1),
                          key=str(r1["packetId"]).encode(),
                          timestamp_ms=r1["rowtime"])
            if r2 is not None:
                arrivals.append(r2)
        # A router logs packets as they arrive: R2's topic is in R2-rowtime
        # order, not in the order the packets left R1 (§3.8.1 assumes
        # timestamps increase monotonically within a partition).
        arrivals.sort(key=lambda r2: r2["rowtime"])
        for r2 in arrivals:
            producer.send(topic_r2, self.serde.to_bytes(r2),
                          key=str(r2["packetId"]).encode(),
                          timestamp_ms=r2["rowtime"])
        return count, len(arrivals)
