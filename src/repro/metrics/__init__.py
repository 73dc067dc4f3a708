"""Metrics-stream observability: periodic snapshots over ``__metrics``.

Real Samza ships a ``MetricsSnapshotReporter`` that serializes every
container's metrics registry on a fixed interval and publishes the
snapshots to a Kafka metrics stream; downstream jobs (and the follow-up
paper's self-monitoring) consume that stream like any other.  This package
is the reproduction of that loop:

* :mod:`repro.metrics.snapshot` — the versioned, fixed-Avro-schema
  snapshot record (one record per metric statistic, flat columns) and the
  deterministic registry→records flattening;
* :mod:`repro.metrics.reporter` — :class:`MetricsSnapshotReporter`, driven
  by the container run loop off the (virtual) clock;
* :mod:`repro.metrics.instrument` — per-operator instrumentation hooks:
  messages-in/out counters, ``process-ns`` timers and
  window-state-size gauges under a stable ``job/container/operator`` path.

Because ``__metrics`` is registered in the SQL catalog with its fixed
schema, the system monitors itself with its own streaming SQL::

    SELECT STREAM * FROM __metrics WHERE operator = 'filter-1'
"""

from repro.metrics.instrument import instrument_operators, operator_group
from repro.metrics.reporter import MetricsSnapshotReporter
from repro.metrics.snapshot import (
    METRICS_STREAM,
    METRICS_SNAPSHOT_SCHEMA,
    SNAPSHOT_VERSION,
    latest_by_container,
    snapshot_records,
    state_bytes_by_job,
)

__all__ = [
    "METRICS_STREAM",
    "METRICS_SNAPSHOT_SCHEMA",
    "SNAPSHOT_VERSION",
    "MetricsSnapshotReporter",
    "instrument_operators",
    "operator_group",
    "latest_by_container",
    "snapshot_records",
    "state_bytes_by_job",
]
