"""The seven workloads.  Names are normative (``BENCHMARK.json``).

Sizes and rates are constants sized on the reference host (2-core Xeon
2.1 GHz, see README): a drain takes roughly half a second to two seconds,
``rate_lo`` is about a fifth and ``rate_hi`` about two fifths of the drain
throughput measured there (of ``filter_default``'s for both filter
workloads: identical rates, so their latencies compare).
``--seed`` changes record content, never these.
"""

from __future__ import annotations

import os
import time

from repro.chaos.faults import FaultInjector, FaultSchedule
from repro.chaos.supervisor import ChaosSupervisor
from repro.samzasql import SamzaSqlEnvironment

from perfbench import BenchmarkError, harness, reference, stats
from perfbench.harness import StreamWorkload
from perfbench.streams import StreamRunner

FILTER_SQL = "SELECT STREAM * FROM {stream} WHERE units > 50"
WINDOW_SQL = (
    "SELECT STREAM rowtime, productId, units, SUM(units) OVER "
    "(PARTITION BY productId ORDER BY rowtime RANGE INTERVAL '5' MINUTE "
    "PRECEDING) unitsLastFiveMinutes FROM {stream}")
JOIN_SQL = (
    "SELECT STREAM {stream}.rowtime, {stream}.orderId, {stream}.productId, "
    "{stream}.units, Products.supplierId FROM {stream} JOIN Products "
    "ON {stream}.productId = Products.productId")


def _filter(rows, _products):
    return reference.expected_filter(rows)


def _window(rows, _products):
    return reference.expected_window(rows)


def _window_state(rows, _products):
    return reference.window_state_rows(rows)


def _join_state(_rows, products):
    return len(products)


FILTER_FUSED = StreamWorkload(
    name="filter_fused", sql=FILTER_SQL, expected=_filter, id_field="orderId",
    drain_messages=100_000, rate_lo=25_000, rate_hi=60_000,
    env_kwargs={"metrics_interval_ms": 0}, require_fused=True)

FILTER_DEFAULT = StreamWorkload(
    name="filter_default", sql=FILTER_SQL, expected=_filter,
    id_field="orderId", drain_messages=100_000, rate_lo=25_000,
    rate_hi=60_000)

SLIDING_WINDOW = StreamWorkload(
    name="sliding_window", sql=WINDOW_SQL, expected=_window,
    id_field="rowtime", drain_messages=25_000, rate_lo=9_000, rate_hi=18_000,
    expected_state_rows=_window_state, smoke_divisor=25)

TABLE_JOIN = StreamWorkload(
    name="table_join", sql=JOIN_SQL, expected=reference.expected_join,
    id_field="orderId", drain_messages=30_000, rate_lo=12_000, rate_hi=24_000,
    needs_products=True, expected_state_rows=_join_state, smoke_divisor=25)

#: More products and 50x denser event time than ``sliding_window`` (a
#: five-minute window holds 15 000 rows, not 300), so every kill has real
#: state to restore: bounds records, retained rows, a long changelog.
WINDOW_CRASH_RECOVERY = StreamWorkload(
    name="window_crash_recovery", sql=WINDOW_SQL, expected=_window,
    id_field="rowtime", drain_messages=30_000, product_count=400,
    interarrival_ms=20, drain_chunks=1, expected_state_rows=_window_state,
    smoke_divisor=25)

PARALLEL_FILTER_2W = StreamWorkload(
    name="parallel_filter_2w", sql=FILTER_SQL, expected=_filter,
    id_field="orderId", drain_messages=100_000,
    containers=min(2, os.cpu_count() or 1),
    env_kwargs={"metrics_interval_ms": 0,
                "config": {"cluster.parallel.execution": "true"}})


class RecoveryRunner(StreamRunner):
    """``sliding_window`` under scripted container kills: the store,
    changelog and checkpoint layers used for restore and replay."""

    at_least_once = True
    KILLS = 5

    def deploy(self, stream: str = "Orders", env=None) -> harness.Deployment:
        # Crash points are processed-message counts, replays included; the
        # first lies past the warm-up, the last well before the feed ends.
        stride = self.drain_messages // (self.KILLS + 1)
        points = [self.warm_messages + stride * (k + 1)
                  for k in range(self.KILLS)]
        injector = FaultInjector(FaultSchedule.script().add_crash(*points))
        env = SamzaSqlEnvironment(fault_injector=injector,
                                  **self.workload.env_kwargs)
        supervisor = ChaosSupervisor(env.runner, injector, zk=env.zk)
        recoveries: list[tuple[float, int]] = []
        fail_container = env.rm.fail_container
        cluster = env.cluster

        def timed_fail_container(container_id: str, message: str = "") -> None:
            """The crash -> relaunched-and-restored call, timed."""
            restored = sum(
                len(log) for topic in cluster.topics()
                if topic.endswith("-changelog")
                for log in cluster.topic(topic).partitions)
            started = time.perf_counter()
            fail_container(container_id, message)
            recoveries.append((time.perf_counter() - started, restored))

        env.rm.fail_container = timed_fail_container
        dep = harness.deploy(self.workload, self.warm, None, stream=stream,
                             env=env, step=supervisor.run_iteration)
        dep.extras.update(supervisor=supervisor, injector=injector,
                          recoveries=recoveries)
        return dep

    def after_drain(self, dep: harness.Deployment, sample: dict) -> None:
        supervisor = dep.extras["supervisor"]
        if supervisor.restarts != self.KILLS:
            raise BenchmarkError(
                f"scripted {self.KILLS} kills, {supervisor.restarts} fired")
        sample["recoveries"] = dep.extras["recoveries"]
        # the injector sees every processed message, replays included
        sample["replayed"] = dep.extras["injector"].processed - (
            self.warm_messages + self.drain_messages)

    def summarise(self, samples, metrics, per_repeat) -> None:
        kills = self.KILLS
        per_repeat["recovery_s_per_kill"] = [
            seconds for s in samples for seconds, _ in s["recoveries"]]
        per_repeat["duplicates_per_kill"] = [
            s["duplicates"] / kills for s in samples]
        for name in ("recovery_s_per_kill", "duplicates_per_kill"):
            metrics[name] = stats.median(per_repeat[name])
        last = samples[-1]
        metrics["samza.restored_records_per_kill"] = (
            sum(records for _, records in last["recoveries"]) / kills)
        metrics["samza.replayed_msgs_per_kill"] = last["replayed"] / kills

    def trace_metrics(self, samples, paced, metrics, result) -> None:
        super().trace_metrics(samples, paced, metrics, result)
        window = samples[1]["drain_window"]
        metrics["samza.restore_s_per_kill"] = (
            window.ns("samza.container_start", self_time=False) / 1e9
            / self.KILLS)


class ParallelRunner(StreamRunner):
    """``filter_fused``'s SQL and feed on forked workers.  The warm-up wave
    forks them (inside set-up); the timed wave is fed after the fork, so it
    reaches the workers by live input forwarding."""

    def deploy(self, stream: str = "Orders", env=None) -> harness.Deployment:
        dep = harness.deploy(self.workload, self.warm, None, stream=stream)
        coordinator = dep.handle.master.parallel_coordinator
        dep.worker_pids = tuple(
            handle.process.pid for handle in coordinator.handles.values())
        if len(dep.worker_pids) != self.workload.containers:
            raise BenchmarkError(
                f"expected {self.workload.containers} workers, "
                f"found {len(dep.worker_pids)}")
        return dep

    def check_path(self, dep: harness.Deployment) -> dict:
        # Tasks initialise inside the workers; the parent can only ask the
        # planner what they will run.
        report = dep.env.shell.execute(
            "EXPLAIN " + self.workload.sql.format(stream="Orders"),
            containers=self.workload.containers)
        tasks = self.workload.partitions
        if "× compiled" not in report or "decode pruned" not in report:
            raise BenchmarkError(
                "parallel_filter_2w must plan the fused path; EXPLAIN says:\n"
                + report)
        return {"fused": tasks, "compiled": 0, "interpreted": 0}

    def after_drain(self, dep: harness.Deployment, sample: dict) -> None:
        coordinator = dep.handle.master.parallel_coordinator
        mesh = coordinator.mesh
        processed = [m["processed"]
                     for m in coordinator.container_metrics().values()]
        sample["parallel"] = {
            "parallel.forwarded_input_bytes": mesh.forwarded_input_bytes,
            "parallel.mirror_bytes": mesh.mirror_data_bytes,
            "parallel.routed_bytes_via_parent": mesh.routed_data_bytes,
            "parallel.parent_cpu_share": sample["own_cpu_s"] / sample["cpu_s"],
            "parallel.worker_msgs_skew": max(processed) / max(min(processed), 1),
        }
        if mesh.routed_data_bytes:
            raise BenchmarkError(
                f"{mesh.routed_data_bytes} data bytes were routed via the "
                f"parent; the steady-state contract is 0")

    def summarise(self, samples, metrics, per_repeat) -> None:
        metrics.update(samples[-1]["parallel"])

    def trace_metrics(self, samples, paced, metrics, result) -> None:
        super().trace_metrics(samples, paced, metrics, result)
        setup = samples[1]["setup_window"]
        metrics["parallel.fork_s"] = setup.ns("parallel.fork",
                                              self_time=False) / 1e9


STREAM_RUNNERS = {
    "filter_fused": (FILTER_FUSED, StreamRunner),
    "filter_default": (FILTER_DEFAULT, StreamRunner),
    "sliding_window": (SLIDING_WINDOW, StreamRunner),
    "table_join": (TABLE_JOIN, StreamRunner),
    "window_crash_recovery": (WINDOW_CRASH_RECOVERY, RecoveryRunner),
    "parallel_filter_2w": (PARALLEL_FILTER_2W, ParallelRunner),
}
