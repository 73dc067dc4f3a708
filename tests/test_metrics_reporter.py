"""Metrics snapshots: serde round-trip, reporter intervals, SQL over
``__metrics``, and the operator instrumentation hooks."""

from __future__ import annotations

import io

from repro.common import VirtualClock
from repro.common.metrics import MetricsRegistry, Timer
from repro.kafka import KafkaCluster, Producer
from repro.metrics import (
    METRICS_SNAPSHOT_SCHEMA,
    METRICS_STREAM,
    SNAPSHOT_VERSION,
    MetricsSnapshotReporter,
    latest_by_container,
    snapshot_records,
)
from repro.samzasql import SamzaSqlEnvironment
from repro.samzasql.cli import SamzaSQLCli
from repro.serde import AvroSerde

from tests.helpers import ORDERS_SCHEMA, produce_orders
from tests.samzasql_fixtures import reference_arm, sql_tasks


def make_env(**kwargs):
    kwargs.setdefault("broker_count", 1)
    kwargs.setdefault("metrics_interval_ms", 1_000)
    return SamzaSqlEnvironment(**kwargs)


def run_filter_query(env, orders=100, partitions=4):
    env.shell.register_stream("Orders", ORDERS_SCHEMA, partitions=partitions)
    produce_orders(env.cluster, orders, partitions=partitions)
    handle = env.shell.execute("SELECT STREAM * FROM Orders WHERE units > 50")
    env.run_until_quiescent()
    return handle


def operator_metrics(handle, prefix):
    """``{(operator, part, metric): value}`` for metrics named ``prefix*``."""
    return {(r["operator"], r["part"], r["metric"]): r["value"]
            for r in handle.snapshots()
            if r["operator"] and r["metric"].startswith(prefix)}


# -- Timer math ---------------------------------------------------------------


def test_timer_single_sample_stdev_is_zero():
    t = Timer("t")
    t.update(42.0)
    assert t.count == 1
    assert t.stdev == 0.0
    assert t.mean == 42.0


def test_timer_single_sample_percentiles_are_that_sample():
    t = Timer("t")
    t.update(7.0)
    for q in (0.0, 0.5, 0.95, 0.99, 1.0):
        assert t.percentile(q) == 7.0


def test_timer_empty_percentile_and_stats():
    t = Timer("t")
    assert t.percentile(0.95) == 0.0
    assert t.stdev == 0.0
    assert t.mean == 0.0


def test_timer_stdev_matches_population_stdev():
    t = Timer("t")
    samples = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
    for s in samples:
        t.update(s)
    assert abs(t.stdev - 2.0) < 1e-12  # classic population-stdev fixture


def test_timer_stdev_never_negative_under_cancellation():
    t = Timer("t")
    for _ in range(10_000):
        t.update(1e9 + 0.001)
    assert t.stdev >= 0.0


def test_timer_percentile_uses_recent_reservoir():
    t = Timer("t")
    for i in range(2000):
        t.update(float(i))
    # reservoir holds the most recent 512 samples: 1488..1999
    assert t.percentile(0.0) >= 1488.0
    assert t.percentile(1.0) == 1999.0


# -- snapshot records + serde -------------------------------------------------


def _sample_registry(order: str = "forward") -> MetricsRegistry:
    registry = MetricsRegistry()
    groups = ["container-0", "operator.filter-1.p0"]
    if order == "reverse":
        groups = list(reversed(groups))
    for group in groups:
        registry.counter(group, "processed").inc(5)
        registry.gauge(group, "lag").set(3.0)
        registry.timer(group, "process-ns").update(100.0)
    return registry


def test_snapshot_records_round_trip_through_avro():
    records = snapshot_records("job-1", "c-0", _sample_registry(), 12_345)
    serde = AvroSerde(METRICS_SNAPSHOT_SCHEMA)
    decoded = [serde.from_bytes(serde.to_bytes(r)) for r in records]
    assert decoded == records
    assert all(r["version"] == SNAPSHOT_VERSION for r in decoded)
    assert all(r["rowtime"] == 12_345 for r in decoded)


def test_snapshot_records_deterministic_across_registration_order():
    a = snapshot_records("j", "c", _sample_registry("forward"), 1)
    b = snapshot_records("j", "c", _sample_registry("reverse"), 1)
    assert a == b
    serde = AvroSerde(METRICS_SNAPSHOT_SCHEMA)
    assert [serde.to_bytes(r) for r in a] == [serde.to_bytes(r) for r in b]


def test_snapshot_records_split_operator_groups():
    records = snapshot_records("j", "c", _sample_registry(), 1)
    by_group = {}
    for r in records:
        by_group.setdefault(r["grp"], r)
    assert by_group["container-0"]["operator"] == ""
    assert by_group["container-0"]["part"] == -1
    assert by_group["operator.filter-1.p0"]["operator"] == "filter-1"
    assert by_group["operator.filter-1.p0"]["part"] == 0


def test_snapshot_records_timer_statistics():
    registry = MetricsRegistry()
    registry.timer("g", "t").update(10.0)
    metrics = {r["metric"] for r in snapshot_records("j", "c", registry, 1)}
    assert metrics == {"t.count", "t.mean", "t.max", "t.stdev",
                       "t.p50", "t.p95", "t.p99"}


def test_latest_by_container_keeps_newest_batch():
    registry = MetricsRegistry()
    registry.counter("g", "n").inc()
    old = snapshot_records("j", "c", registry, 100)
    registry.counter("g", "n").inc()
    new = snapshot_records("j", "c", registry, 200)
    other = snapshot_records("j2", "c", registry, 50)
    latest = latest_by_container(old + new + other)
    assert all(r["rowtime"] == 200 for r in latest if r["job"] == "j")
    assert any(r["job"] == "j2" for r in latest)
    only_j = latest_by_container(old + new + other, job="j")
    assert {r["job"] for r in only_j} == {"j"}
    assert all(r["value"] == 2.0 for r in only_j if r["kind"] == "counter")


# -- reporter interval semantics ----------------------------------------------


def _make_reporter(interval_ms=1_000):
    clock = VirtualClock(10_000)
    cluster = KafkaCluster(broker_count=1, clock=clock)
    registry = MetricsRegistry()
    registry.counter("g", "n").inc()
    reporter = MetricsSnapshotReporter(
        job="j", container="c", registry=registry, cluster=cluster,
        clock=clock, interval_ms=interval_ms)
    return reporter, clock, cluster


def test_reporter_waits_one_full_interval():
    reporter, clock, _ = _make_reporter()
    assert reporter.maybe_report() == 0
    clock.advance(999)
    assert reporter.maybe_report() == 0
    clock.advance(1)
    assert reporter.maybe_report() > 0
    assert reporter.reports_published == 1


def test_reporter_clock_jump_publishes_one_catchup_snapshot():
    reporter, clock, _ = _make_reporter()
    clock.advance(5_500)  # five-and-a-half intervals at once
    reporter.maybe_report()
    assert reporter.reports_published == 1
    # next snapshot is due one interval after the catch-up
    clock.advance(999)
    reporter.maybe_report()
    assert reporter.reports_published == 1
    clock.advance(1)
    reporter.maybe_report()
    assert reporter.reports_published == 2


def test_reporter_forced_report_ignores_interval():
    reporter, _, cluster = _make_reporter()
    assert reporter.report() > 0
    assert cluster.has_topic(METRICS_STREAM)
    serde = AvroSerde(METRICS_SNAPSHOT_SCHEMA)
    tp = cluster.partitions_for(METRICS_STREAM)[0]
    messages = cluster.fetch(tp, cluster.earliest_offset(tp))
    decoded = [serde.from_bytes(m.value) for m in messages]
    assert any(r["metric"] == "n" and r["value"] == 1.0 for r in decoded)


def test_reporter_rejects_nonpositive_interval():
    clock = VirtualClock(0)
    cluster = KafkaCluster(broker_count=1, clock=clock)
    try:
        MetricsSnapshotReporter(job="j", container="c",
                                registry=MetricsRegistry(), cluster=cluster,
                                clock=clock, interval_ms=0)
    except ValueError:
        pass
    else:
        raise AssertionError("interval_ms=0 must be rejected")


# -- end to end through the runtime -------------------------------------------


def test_operator_snapshots_published_for_filter_query():
    env = make_env()
    handle = run_filter_query(env)
    records = handle.snapshots()
    operators = {r["operator"] for r in records if r["operator"]}
    assert {"scan-2", "filter-1", "insert-0"} <= operators
    by_metric = {}
    for r in records:
        if r["operator"] == "filter-1" and r["metric"] == "messages-in":
            by_metric[r["part"]] = r["value"]
    assert sum(by_metric.values()) == 100  # every order reached the filter


def test_metrics_survive_the_fused_path():
    """Reporting rides the generated function: exact per-operator counters,
    one live timer on the chain's leaf, none where no boundary exists."""
    fused = run_filter_query(make_env())
    assert all(task.decision.path == "fused" and task.decision.sampled
               for task in sql_tasks(fused))
    with reference_arm("interpreted"):
        interpreted = run_filter_query(make_env())
    assert all(task.decision.path == "interpreted"
               for task in sql_tasks(interpreted))

    counters = operator_metrics(fused, "messages-")
    assert counters == operator_metrics(interpreted, "messages-")
    assert {op for op, _part, _metric in counters} == {
        "scan-2", "filter-1", "insert-0"}

    timers = operator_metrics(fused, "process-ns.")
    assert {op for op, _part, _metric in timers} == {"scan-2"}  # the leaf
    for part in range(4):
        assert timers["scan-2", part, "process-ns.count"] > 0
        assert timers["scan-2", part, "process-ns.mean"] > 0


#: The fig 6 window: a stage of the fused function.
SLIDING_WINDOW_SQL = (
    "SELECT STREAM rowtime, productId, SUM(units) OVER "
    "(PARTITION BY productId ORDER BY rowtime "
    "RANGE INTERVAL '5' MINUTE PRECEDING) s FROM Orders")


def test_group_window_keeps_per_operator_timers():
    env = make_env()
    env.shell.register_stream("Orders", ORDERS_SCHEMA, partitions=2)
    # a minute of event time per wave: windows close inside the first
    # sampled burst, so every operator downstream of the window is timed
    for minute in range(4):
        produce_orders(env.cluster, 10, partitions=2,
                       start_ts=1_000_000 + minute * 60_000)
    handle = env.shell.execute(
        "SELECT STREAM START(rowtime) AS ws, productId, COUNT(*) AS c "
        "FROM Orders GROUP BY TUMBLE(rowtime, INTERVAL '1' MINUTE), "
        "productId")
    env.run_until_quiescent()
    assert all(task.decision.path == "interpreted"
               for task in sql_tasks(handle))
    operators = {op for op, _part, _metric
                 in operator_metrics(handle, "messages-in")}
    counts = operator_metrics(handle, "process-ns.count")
    assert {op for op, _part, _metric in counts} == operators
    assert len(operators) >= 3
    assert all(value > 0 for value in counts.values())


def test_fused_window_times_on_the_leaf():
    """A fused window task has one run-time boundary, the function call:
    the leaf carries the one ``process-ns`` timer; counters and the
    ``window-state-size`` gauge read as on the interpreted router."""

    def run():
        env = make_env()
        env.shell.register_stream("Orders", ORDERS_SCHEMA, partitions=2)
        produce_orders(env.cluster, 50, partitions=2)
        handle = env.shell.execute(SLIDING_WINDOW_SQL)
        env.run_until_quiescent()
        return handle

    fused = run()
    assert all(task.decision.path == "fused" and task.decision.sampled
               for task in sql_tasks(fused))
    with reference_arm("interpreted"):
        interpreted = run()
    for prefix in ("messages-", "window-state-size"):
        assert operator_metrics(fused, prefix) == operator_metrics(
            interpreted, prefix)
    timers = operator_metrics(fused, "process-ns.count")
    assert {op for op, _part, _metric in timers} == {"scan-3"}
    assert all(value > 0 for value in timers.values())


def test_select_stream_over_metrics_stream():
    env = make_env()
    run_filter_query(env)
    env.metrics(force=True)  # publish a snapshot batch to read back
    handle = env.shell.execute(
        "SELECT STREAM job, operator, metric, value FROM __metrics "
        "WHERE kind = 'gauge' AND metric = 'messages-in'")
    env.run_until_quiescent()
    rows = handle.results()
    assert rows, "metrics query returned no rows"
    assert all(r["metric"] == "messages-in" for r in rows)
    assert any(r["operator"] == "filter-1" for r in rows)


def test_metrics_consumer_job_has_no_reporter():
    # Feedback-loop guard: a job consuming __metrics must not also report
    # into it, or it would never quiesce under a real clock.
    env = make_env()
    run_filter_query(env)
    handle = env.shell.execute("SELECT STREAM * FROM __metrics")
    env.run_until_quiescent()
    containers = list(handle.master.samza_containers.values())
    assert containers
    assert all(c.metrics_reporter is None for c in containers)


def test_container_level_counters_in_snapshots():
    env = make_env()
    handle = run_filter_query(env)
    records = handle.snapshots()
    container_metrics = {r["metric"] for r in records if not r["operator"]}
    assert {"processed", "sent", "commits"} <= container_metrics


def test_window_state_size_gauge():
    env = make_env()
    env.shell.register_stream("Orders", ORDERS_SCHEMA, partitions=2)
    produce_orders(env.cluster, 50, partitions=2)
    handle = env.shell.execute(
        "SELECT STREAM rowtime, productId, SUM(units) OVER "
        "(PARTITION BY productId ORDER BY rowtime "
        "RANGE INTERVAL '5' MINUTE PRECEDING) s FROM Orders")
    env.run_until_quiescent()
    sizes = [r["value"] for r in handle.snapshots()
             if r["metric"] == "window-state-size"]
    assert sizes and sum(sizes) > 0


def test_late_rows_gauge():
    """A row for a window the watermark already closed is dropped, and
    the group window's ``late-rows`` gauge counts it."""
    env = make_env()
    env.shell.register_stream("Orders", ORDERS_SCHEMA, partitions=1)
    serde = AvroSerde(ORDERS_SCHEMA)
    producer = Producer(env.cluster)
    # the second order closes [960 000, 1 020 000); the third is late for it
    for order_id, ts in enumerate((1_000_000, 1_070_000, 1_000_500)):
        producer.send("Orders", serde.to_bytes(
            {"rowtime": ts, "productId": 0, "orderId": order_id,
             "units": 1}), key=b"0", timestamp_ms=ts)
    handle = env.shell.execute(
        "SELECT STREAM START(rowtime) AS ws, COUNT(*) AS c "
        "FROM Orders GROUP BY TUMBLE(rowtime, INTERVAL '1' MINUTE)")
    env.run_until_quiescent()
    assert [r["c"] for r in handle.results()] == [1]
    late = [r["value"] for r in handle.snapshots()
            if r["metric"] == "late-rows"]
    assert late and late[-1] == 1


def test_cli_metrics_command_renders_snapshots():
    env = make_env()
    out = io.StringIO()
    cli = SamzaSQLCli(shell=env.shell, runner=env.runner, out=out)
    env.shell.register_stream("Orders", ORDERS_SCHEMA, partitions=2)
    produce_orders(env.cluster, 40, partitions=2)
    cli.process_line("SELECT STREAM * FROM Orders WHERE units > 50;")
    cli.process_line("!run")
    cli.process_line("!metrics 1")
    text = out.getvalue()
    assert "messages-in" in text
    assert "filter-1" in text


def test_cli_metrics_command_without_queries():
    env = make_env()
    out = io.StringIO()
    cli = SamzaSQLCli(shell=env.shell, runner=env.runner, out=out)
    cli.process_line("!metrics")
    assert "no metrics snapshots" in out.getvalue()


def test_store_flush_and_elision_counters_are_a_sql_query_away():
    """Rows put and purged inside one commit interval never reach the
    changelog; ``flushed-entries`` / ``elided-entries`` say so in SQL."""
    env = make_env()
    env.shell.register_stream("Orders", ORDERS_SCHEMA, partitions=1)
    produce_orders(env.cluster, 50, partitions=1)
    handle = env.shell.execute(
        "SELECT STREAM rowtime, productId, SUM(units) OVER "
        "(PARTITION BY productId ORDER BY rowtime ROWS 1 PRECEDING) s "
        "FROM Orders")
    env.run_until_quiescent()
    handle.master.finish()  # the commit that flushes the 50-message interval
    metrics = env.shell.execute(
        "SELECT STREAM grp, metric, value FROM __metrics "
        "WHERE metric = 'elided-entries' OR metric = 'flushed-entries'")
    env.run_until_quiescent()
    latest = {(r["grp"], r["metric"]): r["value"] for r in metrics.results()}
    group = "store.sql-window-messages.p0"
    # 10 products x 5 orders, 2 rows retained per product: 30 purged rows
    assert latest[(group, "elided-entries")] == 30
    assert latest[(group, "flushed-entries")] == 20
    changelog = [name for name in env.cluster.topics()
                 if "sql-window-messages" in name and "changelog" in name]
    assert sum(env.cluster.topic(name).total_messages()
               for name in changelog) == 20
