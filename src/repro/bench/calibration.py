"""Measure real per-message costs of each query pipeline.

The scaling figures need a per-message CPU cost for the simulator; rather
than guessing, we run each variant (native Samza task vs SamzaSQL-compiled
query) through the *real* in-process runtime over a bounded workload and
time it.  This is the "shape comes from measurement" half of the
substitution documented in DESIGN.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.kafka import KafkaCluster
from repro.samza import SamzaJob
from repro.samzasql import SamzaSqlEnvironment
from repro.bench.native_jobs import native_job_config
from repro.workloads.orders import OrdersGenerator, padded_orders_schema
from repro.workloads.products import PRODUCTS_SCHEMA, ProductsGenerator

# The four §5.1 benchmark queries, in SamzaSQL.
SQL_QUERIES = {
    "filter": "SELECT STREAM * FROM Orders WHERE units > 50",
    "project": "SELECT STREAM rowtime, productId, units FROM Orders",
    "window": ("SELECT STREAM rowtime, productId, units, SUM(units) OVER "
               "(PARTITION BY productId ORDER BY rowtime RANGE INTERVAL '5' "
               "MINUTE PRECEDING) unitsLastFiveMinutes FROM Orders"),
    "join": ("SELECT STREAM Orders.rowtime, Orders.orderId, Orders.productId, "
             "Orders.units, Products.supplierId FROM Orders JOIN Products "
             "ON Orders.productId = Products.productId"),
}

QUERIES = tuple(SQL_QUERIES)
VARIANTS = ("native", "samzasql")


@dataclass
class CalibrationResult:
    query: str
    variant: str
    messages: int
    elapsed_s: float

    @property
    def per_message_ms(self) -> float:
        return self.elapsed_s * 1000.0 / self.messages

    @property
    def throughput_msgs_per_s(self) -> float:
        return self.messages / self.elapsed_s


def _build_runtime(partitions: int,
                   metrics_interval_ms: int = 0) -> SamzaSqlEnvironment:
    return SamzaSqlEnvironment(
        broker_count=3, node_count=3, node_mem_mb=61_000, start_ms=0,
        metrics_interval_ms=metrics_interval_ms)


def _feed_workload(cluster: KafkaCluster, query: str, messages: int,
                   partitions: int, product_count: int = 100) -> None:
    orders = OrdersGenerator(product_count=product_count,
                             interarrival_ms=1000)
    orders.produce(cluster, "Orders", messages, partitions=partitions)
    if query == "join":
        ProductsGenerator(product_count=product_count).produce(
            cluster, "Products-changelog", partitions=partitions)


def _measure_once(query: str, variant: str, messages: int,
                  partitions: int, containers: int, warmup: int,
                  metrics_interval_ms: int = 0) -> float:
    env = _build_runtime(partitions, metrics_interval_ms=metrics_interval_ms)
    cluster, runner = env.cluster, env.runner
    _feed_workload(cluster, query, messages, partitions)

    if variant == "native":
        config, serdes, factory = native_job_config(
            query, f"native-{query}", containers=containers)
        if metrics_interval_ms > 0:
            config = config.merge(
                {"metrics.reporter.interval.ms": metrics_interval_ms})
        job = SamzaJob(config=config, task_factory=factory, serdes=serdes)
        runner.submit(job)
    else:
        shell = env.shell
        shell.register_stream("Orders", padded_orders_schema(),
                              partitions=partitions)
        if query == "join":
            shell.register_table("Products", PRODUCTS_SCHEMA,
                                 key_field="productId", partitions=partitions)
        shell.execute(SQL_QUERIES[query], containers=containers)

    # Warm the pipeline (codegen, store setup) before timing.
    for _ in range(max(warmup // 200, 1)):
        runner.run_iteration()
    import gc

    gc.collect()
    # The run is single-threaded and CPU-bound, so CPU time is the right
    # measure of per-message cost — and unlike wall clock it is immune to
    # scheduler preemption, which on a busy host swamps a ~100ms run.  A
    # single GC pause inside the window is still several percent, so
    # collection is suspended for the measurement.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.process_time_ns()
        runner.run_until_quiescent(max_iterations=1_000_000)
        return (time.process_time_ns() - started) / 1e9
    finally:
        if gc_was_enabled:
            gc.enable()


def measure(query: str, variant: str, messages: int = 5000,
            partitions: int = 32, containers: int = 1,
            warmup: int = 200, repeats: int = 2,
            metrics_interval_ms: int = 0) -> CalibrationResult:
    """Run one (query, variant) to completion; best-of-``repeats`` timing.

    The minimum over repeats is the standard noise-robust estimator for
    CPU-bound work (GC pauses and scheduler noise only ever add time).
    """
    if query not in SQL_QUERIES:
        raise ValueError(f"unknown query {query!r}; known: {sorted(SQL_QUERIES)}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    elapsed = min(
        _measure_once(query, variant, messages, partitions, containers, warmup,
                      metrics_interval_ms=metrics_interval_ms)
        for _ in range(max(repeats, 1)))
    return CalibrationResult(query=query, variant=variant,
                             messages=messages, elapsed_s=max(elapsed, 1e-9))


def measure_metrics_overhead(query: str = "filter", messages: int = 4000,
                             partitions: int = 32, repeats: int = 3,
                             metrics_interval_ms: int = 1_000) -> dict[str, float]:
    """Instrumentation overhead of the metrics reporter on one query.

    Runs plain and instrumented rounds interleaved (like
    :func:`calibrate_pair`), alternating which mode goes first each round
    so anything that grows over the process lifetime (heap size, interned
    state) taxes both modes equally, and keeps the per-mode minimum —
    scheduler noise and GC only ever *add* time, so the minima are the
    cleanest estimate of each mode's true cost.  Both modes run the
    default execution config, so "on" is what a default environment pays.
    Returns best elapsed seconds per mode, keyed
    ``{"off": ..., "on": ..., "overhead_percent": ...}``.
    """
    best: dict[str, float] = {}
    modes = [("off", 0), ("on", metrics_interval_ms)]
    for round_no in range(max(repeats, 1)):
        order = modes if round_no % 2 == 0 else modes[::-1]
        for mode, interval in order:
            elapsed = _measure_once(query, "samzasql", messages, partitions,
                                    containers=1, warmup=200,
                                    metrics_interval_ms=interval)
            if mode not in best or elapsed < best[mode]:
                best[mode] = elapsed
    best["overhead_percent"] = (best["on"] / best["off"] - 1.0) * 100.0
    return best


def calibrate_pair(query: str, messages: int = 5000,
                   partitions: int = 32,
                   repeats: int = 3) -> dict[str, CalibrationResult]:
    """Both variants of one query: {'native': ..., 'samzasql': ...}.

    Measurement rounds are *interleaved* (native, sql, native, sql, ...)
    and the per-variant minimum is kept, so slow drifts in machine load
    bias both variants equally instead of whichever ran last.
    """
    best: dict[str, float] = {}
    for _ in range(max(repeats, 1)):
        for variant in VARIANTS:
            elapsed = _measure_once(query, variant, messages, partitions,
                                    containers=1, warmup=200)
            if variant not in best or elapsed < best[variant]:
                best[variant] = elapsed
    return {
        variant: CalibrationResult(query=query, variant=variant,
                                   messages=messages,
                                   elapsed_s=max(best[variant], 1e-9))
        for variant in VARIANTS
    }
