"""The layer ledger: where the tracer hooks in, and what it reports.

:func:`install` lists every boundary the tracer wraps, grouped by the
``src/repro`` package that owns it (the layer names of the ledger).
:func:`ledger` turns one traced phase into the ``<layer>.<metric>``
numbers named in ``BENCHMARK.json``; :func:`isolated` drives the layers the
fused function hides from outside (marked † in the README) on the
workload's own bytes.

All boundaries are public callables except ``_Collector`` — the container's
implementation of the public ``MessageCollector`` interface, which is the
only place the samzasql → samza hand-off can be seen from outside.
"""

from __future__ import annotations

import time

from perfbench import BenchmarkError
from perfbench.tracer import Tracer, TraceWindow

ISOLATION_SAMPLE = 10_000
MIN_COVERAGE = 0.95


def _len_arg(index: int):
    return lambda args, _result: len(args[index])


def _one(_args, _result) -> int:
    return 1


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries.  Call once, before building the
    environment whose work should be traced."""
    import repro.samza.container as container_mod
    import repro.serving.frontdoor as frontdoor_mod
    import repro.sql.parser as parser_mod
    import repro.sql.planner as planner_mod
    from repro.kafka.consumer import Consumer
    from repro.kafka.producer import Producer
    from repro.metrics.instrument import TimingSampler
    from repro.metrics.reporter import MetricsSnapshotReporter
    from repro.parallel.coordinator import ParallelJobCoordinator
    from repro.samza.checkpoint import CheckpointManager
    from repro.samza.container import SamzaContainer
    from repro.samza.storage import (SerializedKeyValueStore,
                                     WriteBehindKeyValueStore)
    from repro.samza.task_instance import TaskInstance
    from repro.samzasql.batch import BatchExecutor
    from repro.samzasql.compile import CompiledExecutor
    from repro.samzasql.operators.router import MessageRouter
    from repro.samzasql.shell import SamzaSQLShell
    from repro.samzasql.task import SamzaSqlTask
    from repro.serde.avro import AvroSerde
    from repro.serde.object_serde import ObjectSerde
    from repro.serving.admission import AdmissionController
    from repro.serving.frontdoor import FrontDoor
    from repro.serving.policy import PolicyValidator
    from repro.sql.planner import QueryPlanner

    span, leaf = tracer.span, tracer.leaf

    # kafka
    span(Consumer, "poll_batches", "kafka.poll",
         lambda _a, groups: sum(len(records) for _tp, records in groups))
    span(Consumer, "poll", "kafka.poll", lambda _a, records: len(records))
    span(Producer, "send_batch", "kafka.produce", _len_arg(2))
    leaf(Producer, "send", "kafka.produce", _one)

    # serde
    span(AvroSerde, "from_bytes_batch", "serde.decode", _len_arg(1))
    span(AvroSerde, "to_bytes_batch", "serde.encode", _len_arg(1))
    leaf(ObjectSerde, "from_bytes", "serde.object_decode", _one)
    leaf(ObjectSerde, "to_bytes", "serde.object_encode", _one)

    # samza
    span(SamzaContainer, "run_iteration", "samza.loop")
    span(SamzaContainer, "commit", "samza.commit")
    span(SamzaContainer, "start", "samza.container_start")
    span(TaskInstance, "process_batch", "samza.process", _len_arg(2))
    span(TaskInstance, "process_batch_raw", "samza.process", _len_arg(2))
    leaf(TaskInstance, "process", "samza.process", _one)
    collector = container_mod._Collector
    leaf(collector, "send", "samza.send", _one)
    span(collector, "send_batch", "samza.send", _len_arg(1))
    span(collector, "send_pre_serialized_batch", "samza.send", _len_arg(2))
    leaf(WriteBehindKeyValueStore, "get", "samza.store_get")
    leaf(WriteBehindKeyValueStore, "put", "samza.store_put")
    leaf(WriteBehindKeyValueStore, "delete", "samza.store_put")
    span(WriteBehindKeyValueStore, "flush", "samza.store_flush")
    leaf(SerializedKeyValueStore, "put", "samza.store_write")
    leaf(SerializedKeyValueStore, "delete", "samza.store_write")
    leaf(CheckpointManager, "write_checkpoint", "samza.checkpoint_write")

    # samzasql
    span(SamzaSQLShell, "execute", "samzasql.plan")
    span(SamzaSqlTask, "process_batch", "samzasql.chain", _len_arg(2))
    span(SamzaSqlTask, "process_batch_raw", "samzasql.fused_fn", _len_arg(2))
    leaf(SamzaSqlTask, "process", "samzasql.chain", _one)
    span(CompiledExecutor, "route_batch", "samzasql.route", _len_arg(2))
    span(MessageRouter, "route_batch", "samzasql.route", _len_arg(2))
    leaf(MessageRouter, "route", "samzasql.route_single", _one)
    span(BatchExecutor, "execute", "samzasql.batch_exec")

    # sql — parse_statement is a module-level function imported by name,
    # so every module that holds a reference gets the wrapper.
    span(parser_mod, "parse_statement", "sql.parse")
    planner_mod.parse_statement = parser_mod.parse_statement
    frontdoor_mod.parse_statement = parser_mod.parse_statement
    span(QueryPlanner, "plan_statement", "sql.plan")

    # serving
    span(FrontDoor, "execute", "serving.execute")
    span(PolicyValidator, "validate", "serving.policy")
    span(AdmissionController, "admit", "serving.admission")

    # metrics
    span(MetricsSnapshotReporter, "report", "metrics.report")
    span(TimingSampler, "route_batch", "metrics.sampler", _len_arg(2))

    # parallel (parent side; workers inherit the wrappers at fork but their
    # spans die with them — the parent sees them as pump wait)
    span(ParallelJobCoordinator, "pump", "parallel.pump")
    span(ParallelJobCoordinator, "ensure_workers", "parallel.fork")
    span(ParallelJobCoordinator, "commit_barrier", "parallel.commit_barrier")


def uninstall(tracer: Tracer) -> None:
    import repro.serving.frontdoor as frontdoor_mod
    import repro.sql.parser as parser_mod
    import repro.sql.planner as planner_mod

    tracer.uninstall()
    planner_mod.parse_statement = parser_mod.parse_statement
    frontdoor_mod.parse_statement = parser_mod.parse_statement


def _per(total_ns: float, count: float) -> float:
    return total_ns / count if count else 0.0


def ledger(window: TraceWindow, messages: int) -> dict[str, float]:
    """Per-layer numbers of one traced drain phase over ``messages`` inputs.
    Times are *self* times unless the name says otherwise."""
    ns, count, units = window.ns, window.count, window.units.get
    commits = count("samza.commit")
    flushed = window.leaf_under("samza.store_write", "samza.store_flush")[0]
    mutations = count("samza.store_put")
    chain_ns = (ns("samzasql.chain") + ns("samzasql.route")
                + ns("samzasql.route_single"))
    return {
        "kafka.poll_ns_per_msg": _per(ns("kafka.poll"), messages),
        "kafka.poll_calls": count("kafka.poll"),
        "kafka.poll_msgs_per_call": _per(units("kafka.poll", 0),
                                         count("kafka.poll")),
        "kafka.produce_ns_per_msg": _per(ns("kafka.produce"), messages),
        "kafka.produce_calls": count("kafka.produce"),
        "serde.decode_ns_per_msg": _per(ns("serde.decode"), messages),
        "serde.decode_calls": count("serde.decode"),
        "serde.encode_ns_per_msg": _per(ns("serde.encode"), messages),
        "serde.encode_calls": count("serde.encode"),
        "serde.object_decode_ns_per_msg": _per(ns("serde.object_decode"),
                                               messages),
        "serde.object_encode_ns_per_msg": _per(ns("serde.object_encode"),
                                               messages),
        "samza.process_ns_per_msg": _per(ns("samza.process"), messages),
        "samza.loop_self_ns_per_msg": _per(ns("samza.loop"), messages),
        "samza.send_ns_per_msg": _per(ns("samza.send"), messages),
        "samza.commit_ns_per_msg": _per(ns("samza.commit", self_time=False),
                                        messages),
        "samza.commit_count": commits,
        "samza.commit_max_ms": window.max_ns.get("samza.commit", 0) / 1e6,
        "samza.store_get_ns": ns("samza.store_get", self_time=False),
        "samza.store_get_count": count("samza.store_get"),
        "samza.store_put_ns": ns("samza.store_put", self_time=False),
        "samza.store_put_count": mutations,
        "samza.store_flush_ns_per_commit": _per(
            ns("samza.store_flush", self_time=False), commits),
        "samza.store_flushed_entries": flushed,
        "samza.store_coalesce_ratio": _per(mutations, flushed),
        "samza.checkpoint_write_ns": ns("samza.checkpoint_write",
                                        self_time=False),
        "samzasql.chain_ns_per_msg": _per(chain_ns, messages),
        "samzasql.fused_fn_ns_per_msg": _per(ns("samzasql.fused_fn"),
                                             messages),
        "metrics.report_ns_total": ns("metrics.report", self_time=False),
        "metrics.snapshots_published": count("metrics.report"),
        "metrics.sampler_ns_per_msg": _per(ns("metrics.sampler"), messages),
        "metrics.sampled_msgs": window.leaf_under(
            "samzasql.route_single", "metrics.sampler")[0],
        "parallel.commit_barriers": count("parallel.commit_barrier"),
    }


def isolated(values: list[bytes], keys: list[bytes], schema,
             pruned_columns: frozenset[str]) -> dict[str, float]:
    """† Layers the fused function hides, driven alone on the feed's bytes:
    pruned vs full decode, full encode, and the parallel frame codec."""
    from repro.parallel.frames import decode_frame, encode_frame

    values = values[:ISOLATION_SAMPLE]
    keys = keys[:ISOLATION_SAMPLE]
    n = len(values)
    clock = time.perf_counter_ns

    pruned = schema.pruned_decoder(pruned_columns)
    start = clock()
    for value in values:
        pruned(value, 0)
    pruned_ns = clock() - start

    start = clock()
    decoded = schema.decode_batch(values)
    decode_ns = clock() - start

    start = clock()
    schema.encode_batch(decoded)
    encode_ns = clock() - start

    records = [(offset, 1_000_000 + offset, key, value)
               for offset, (key, value) in enumerate(zip(keys, values))]
    groups = [("Orders", 0, 32, records[i:i + 2048])
              for i in range(0, n, 2048)]
    start = clock()
    frames = [encode_frame([group]) for group in groups]
    frame_encode_ns = clock() - start
    start = clock()
    for frame in frames:
        decode_frame(frame)
    frame_decode_ns = clock() - start

    return {
        "serde.pruned_decode_ns_per_msg": pruned_ns / n,
        "serde.full_decode_ns_per_msg": decode_ns / n,
        "serde.full_encode_ns_per_msg": encode_ns / n,
        "parallel.frame_encode_ns_per_msg": frame_encode_ns / n,
        "parallel.frame_decode_ns_per_msg": frame_decode_ns / n,
    }


def coverage(window: TraceWindow, phase_wall_s: float) -> float:
    """Share of a timed phase that lies inside some root span."""
    return window.root_ns / (phase_wall_s * 1e9) if phase_wall_s else 0.0


def traced_drain(workload: str, untraced: dict, traced: dict) -> dict:
    """The ledger of the traced repeat's drain phase plus what vouches for
    it: ``trace.coverage`` (the run aborts below MIN_COVERAGE) and
    ``trace.overhead_ratio`` against the untraced repeat of the same
    process — reported, never subtracted."""
    window = traced["drain_window"]
    metrics = ledger(window, traced["processed"])
    covered = coverage(window, traced["wall_s"])
    if covered < MIN_COVERAGE:
        raise BenchmarkError(
            f"{workload}: spans cover {covered:.3f} of the traced drain "
            f"phase, need {MIN_COVERAGE}")
    metrics["trace.coverage"] = covered
    metrics["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"]
    return metrics
