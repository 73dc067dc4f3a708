"""Hand-written Samza jobs for the four benchmark queries (§5.1).

These mirror what the paper's authors wrote in the Samza Java API as the
comparison baseline, including each job's specific shortcut over the
SQL-generated pipeline:

* **filter** — checks the deserialized record but forwards the *raw
  message bytes* unchanged ("directly reads from incoming Avro message and
  writes back the message into the output stream without any
  modification");
* **project** — builds the output Avro record straight from the input
  record ("we create Avro messages directly from incoming Avro messages"),
  no array-tuple detour;
* **join** — caches the Products relation with an *Avro* value serde
  (the paper's SamzaSQL used Kryo, its measured 2x handicap; the bench
  harness's SQL pipeline models it with the generic object serde);
* **sliding window** — the same Algorithm-1 state layout as the SQL
  operator, on the same store stack (both implementations are dominated by
  KV-store access, Figure 6).
"""

from __future__ import annotations

from repro.common.config import Config
from repro.samza.serdes import SerdeRegistry
from repro.samza.system import OutgoingMessageEnvelope, SystemStream
from repro.samza.task import InitableTask, StreamTask
from repro.serde.avro import AvroSerde
from repro.workloads.orders import ORDERS_SCHEMA, padded_orders_schema
from repro.workloads.products import PRODUCTS_SCHEMA


class NativeFilterTask(StreamTask):
    """SELECT STREAM * FROM Orders WHERE units > 50 — by hand."""

    def __init__(self, output_stream: str = "NativeFilterOut", threshold: int = 50):
        self.output = SystemStream("kafka", output_stream)
        self.threshold = threshold

    def process(self, envelope, collector, coordinator):
        if envelope.message["units"] > self.threshold:
            # pass-through: the raw Avro bytes go out unmodified
            collector.send(OutgoingMessageEnvelope(
                system_stream=self.output,
                message=envelope.raw_message,
                key=envelope.raw_key,
                timestamp_ms=envelope.timestamp_ms,
                pre_serialized=True,
            ))


class NativeProjectTask(StreamTask):
    """SELECT STREAM rowtime, productId, units FROM Orders — by hand."""

    PROJECTED_SCHEMA = AvroSerde(
        {"type": "record", "name": "OrdersProjected",
         "fields": [{"name": "rowtime", "type": "long"},
                    {"name": "productId", "type": "int"},
                    {"name": "units", "type": "int"}]})

    def __init__(self, output_stream: str = "NativeProjectOut"):
        self.output = SystemStream("kafka", output_stream)

    def process(self, envelope, collector, coordinator):
        record = envelope.message
        projected = {"rowtime": record["rowtime"],
                     "productId": record["productId"],
                     "units": record["units"]}
        collector.send(OutgoingMessageEnvelope(
            system_stream=self.output,
            message=self.PROJECTED_SCHEMA.to_bytes(projected),
            key=envelope.raw_key,
            timestamp_ms=envelope.timestamp_ms,
            pre_serialized=True,
        ))


class NativeJoinTask(StreamTask, InitableTask):
    """Orders ⋈ Products through a bootstrapped local store — by hand.

    The store is configured with the Avro value serde (see
    ``native_job_config``), the faster schema-driven path the paper credits
    for native Samza's 2x join advantage.
    """

    JOINED_SCHEMA = AvroSerde(
        {"type": "record", "name": "JoinedOrder",
         "fields": [{"name": "rowtime", "type": "long"},
                    {"name": "orderId", "type": "long"},
                    {"name": "productId", "type": "int"},
                    {"name": "units", "type": "int"},
                    {"name": "supplierId", "type": "int"}]})

    def __init__(self, output_stream: str = "NativeJoinOut"):
        self.output = SystemStream("kafka", output_stream)
        self.store = None

    def init(self, config, context):
        self.store = context.get_store("products")

    def process(self, envelope, collector, coordinator):
        if envelope.stream.endswith("changelog") or envelope.stream == "Products":
            product = envelope.message
            self.store.put(str(product["productId"]), product)
            return
        order = envelope.message
        product = self.store.get(str(order["productId"]))
        if product is None:
            return
        joined = {"rowtime": order["rowtime"], "orderId": order["orderId"],
                  "productId": order["productId"], "units": order["units"],
                  "supplierId": product["supplierId"]}
        collector.send(OutgoingMessageEnvelope(
            system_stream=self.output,
            message=self.JOINED_SCHEMA.to_bytes(joined),
            key=envelope.raw_key,
            timestamp_ms=envelope.timestamp_ms,
            pre_serialized=True))


class NativeSlidingWindowTask(StreamTask, InitableTask):
    """5-minute sliding SUM(units) per productId — by hand (Algorithm 1)."""

    WINDOW_MS = 5 * 60 * 1000

    WINDOWED_SCHEMA = AvroSerde(
        {"type": "record", "name": "WindowedOrder",
         "fields": [{"name": "rowtime", "type": "long"},
                    {"name": "productId", "type": "int"},
                    {"name": "units", "type": "int"},
                    {"name": "unitsLastFiveMinutes", "type": "long"}]})

    def __init__(self, output_stream: str = "NativeWindowOut"):
        self.output = SystemStream("kafka", output_stream)
        self.messages = None
        self.state = None

    def init(self, config, context):
        self.messages = context.get_store("window-messages")
        self.state = context.get_store("window-state")

    def process(self, envelope, collector, coordinator):
        order = envelope.message
        key = str(order["productId"])
        ts = order["rowtime"]

        state = self.state.get(key)
        if state is None:
            state = {"rows": [], "sum": 0, "seq": 0}
        seq = state["seq"]
        state["seq"] = seq + 1
        self.messages.put((key, ts, seq), order["units"])

        cutoff = ts - self.WINDOW_MS
        rows = state["rows"]
        keep = 0
        for keep, (row_ts, row_seq, row_units) in enumerate(rows):
            if row_ts >= cutoff:
                break
        else:
            keep = len(rows)
        for row_ts, row_seq, row_units in rows[:keep]:
            state["sum"] -= row_units
            self.messages.delete((key, row_ts, row_seq))
        del rows[:keep]

        rows.append((ts, seq, order["units"]))
        state["sum"] += order["units"]
        self.state.put(key, state)

        collector.send(OutgoingMessageEnvelope(
            system_stream=self.output,
            message=self.WINDOWED_SCHEMA.to_bytes(
                {"rowtime": ts, "productId": order["productId"],
                 "units": order["units"],
                 "unitsLastFiveMinutes": state["sum"]}),
            key=envelope.raw_key, timestamp_ms=ts, pre_serialized=True))


def native_job_config(query: str, job_name: str, containers: int = 1,
                      orders_topic: str = "Orders",
                      products_topic: str = "Products-changelog",
                      padded: bool = True) -> tuple[Config, SerdeRegistry, type]:
    """(config, serdes, task factory) for one native benchmark job.

    This is the per-query configuration burden §5 mentions users carrying
    for every native job ("users needs to maintain stream job configuration
    for each query in case of Samza").
    """
    serdes = SerdeRegistry()
    orders_schema = padded_orders_schema() if padded else ORDERS_SCHEMA
    serdes.register("avro-orders", AvroSerde(orders_schema))
    serdes.register("avro-products", AvroSerde(PRODUCTS_SCHEMA))

    base = {
        "job.name": job_name,
        "job.container.count": containers,
        "task.inputs": f"kafka.{orders_topic}",
        f"systems.kafka.streams.{orders_topic}.samza.msg.serde": "avro-orders",
        f"systems.kafka.streams.{orders_topic}.samza.key.serde": "string",
    }
    if query == "filter":
        return Config(base), serdes, NativeFilterTask
    if query == "project":
        return Config(base), serdes, NativeProjectTask
    if query == "join":
        base.update({
            "task.inputs": f"kafka.{orders_topic},kafka.{products_topic}",
            f"systems.kafka.streams.{products_topic}.samza.bootstrap": "true",
            f"systems.kafka.streams.{products_topic}.samza.msg.serde": "avro-products",
            f"systems.kafka.streams.{products_topic}.samza.key.serde": "string",
            # Avro-schema state serde: the native job's join advantage.
            "stores.products.changelog": f"kafka.{job_name}-products-changelog",
            "stores.products.key.serde": "string",
            "stores.products.msg.serde": "avro-products",
        })
        return Config(base), serdes, NativeJoinTask
    if query == "window":
        base.update({
            "stores.window-messages.changelog": f"kafka.{job_name}-msgs-changelog",
            "stores.window-messages.key.serde": "object",
            "stores.window-messages.msg.serde": "object",
            "stores.window-state.changelog": f"kafka.{job_name}-state-changelog",
            "stores.window-state.key.serde": "object",
            "stores.window-state.msg.serde": "object",
        })
        return Config(base), serdes, NativeSlidingWindowTask
    raise ValueError(f"unknown benchmark query {query!r}")
