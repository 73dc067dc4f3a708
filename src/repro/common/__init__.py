"""Shared infrastructure used by every substrate in the reproduction.

The modules here are deliberately dependency-free (standard library only)
so that the substrates (``repro.kafka``, ``repro.samza``, ...) can build on
them without import cycles.
"""

from repro.common.clock import Clock, SystemClock, VirtualClock
from repro.common.config import Config
from repro.common.errors import (
    CheckpointError,
    ConfigError,
    ContainerCrashError,
    KafkaError,
    OffsetOutOfRangeError,
    RetryExhaustedError,
    PlannerError,
    ReproError,
    SchemaError,
    SerdeError,
    SqlParseError,
    SqlValidationError,
    StateStoreError,
    TopicExistsError,
    TransientKafkaError,
    UnknownTopicError,
    YarnError,
    ZkError,
    ZkSessionExpiredError,
)
from repro.common.metrics import Counter, Gauge, MetricsRegistry, Timer
from repro.common.varint import (
    decode_varint,
    decode_zigzag,
    encode_varint,
    encode_zigzag,
    read_varint,
    read_zigzag,
)

__all__ = [
    "Clock",
    "SystemClock",
    "VirtualClock",
    "Config",
    "ReproError",
    "ConfigError",
    "SerdeError",
    "SchemaError",
    "KafkaError",
    "TopicExistsError",
    "UnknownTopicError",
    "OffsetOutOfRangeError",
    "TransientKafkaError",
    "RetryExhaustedError",
    "ContainerCrashError",
    "ZkError",
    "ZkSessionExpiredError",
    "YarnError",
    "CheckpointError",
    "StateStoreError",
    "SqlParseError",
    "SqlValidationError",
    "PlannerError",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Timer",
    "encode_varint",
    "decode_varint",
    "read_varint",
    "encode_zigzag",
    "decode_zigzag",
    "read_zigzag",
]
