"""Serialization layer (Samza's *Serde* API).

Samza pushes all message-format concerns into pluggable serializers; the
SamzaSQL paper's evaluation hinges on the relative cost of two of them:

* :class:`~repro.serde.avro.AvroSerde` — schema-driven binary codec
  (a faithful subset of Avro's datum encoding),
* :class:`~repro.serde.object_serde.ObjectSerde` — a generic, reflective,
  tag-prefixed codec standing in for Kryo.

The paper attributes SamzaSQL's join slowdown to generic deserialisation
being >2x slower than Avro; the two codecs here reproduce that mechanism.
SQL operator state does not pay it: :mod:`repro.serde.state_codecs`
compiles an order-preserving key codec and a positional value codec per
store layout the planner derives.
"""

from repro.serde.base import (
    BytesSerde,
    IntegerSerde,
    LongSerde,
    NoOpSerde,
    Serde,
    StringSerde,
)
from repro.serde.avro import AvroSchema, AvroSerde
from repro.serde.json_serde import JsonSerde
from repro.serde.object_serde import ObjectSerde
from repro.serde.registry import SchemaRegistry, RegisteredSchema

__all__ = [
    "Serde",
    "NoOpSerde",
    "BytesSerde",
    "StringSerde",
    "IntegerSerde",
    "LongSerde",
    "JsonSerde",
    "AvroSchema",
    "AvroSerde",
    "ObjectSerde",
    "SchemaRegistry",
    "RegisteredSchema",
]
