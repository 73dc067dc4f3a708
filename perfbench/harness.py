"""The run shape shared by the six stream workloads.

One process, one thread.  Per run:

0. **feed synthesis** — :mod:`perfbench.feeds`, once; ``driver.feed_gen_s``.
1. **set-up** (``setup_s``) — environment, registration, warm-up feed,
   ``shell.execute``, container start/bootstrap, warm-up drained to
   quiescence, drain feed produced into the log.
2. **drain phase** (closed loop) — timed from the first ``run_iteration``
   to quiescence, wall and CPU; GC stays on, ``gc.freeze()`` after set-up.
   Steps 1–2 repeat on a fresh environment each time, so one run yields
   several set-up and several drain samples; the run reports their medians.
3. **paced phase** (open loop) — on the last environment, per rate a fresh
   stream and query; entries are sent when *due*, and a result's latency
   is its emit time minus the due time of the input that produced it.
4. **verification** — :mod:`perfbench.reference`, outside every timed phase.

Only public entry points drive the program: ``SamzaSqlEnvironment``,
``shell.register_*``, ``shell.execute``, ``env.run_iteration``,
``Producer.send_batch`` (and ``ChaosSupervisor`` where a workload says so).
"""

from __future__ import annotations

import gc
import os
import resource
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.common.clock import VirtualClock
from repro.kafka.producer import Producer
from repro.samzasql import SamzaSqlEnvironment
from repro.serde.avro import AvroSchema

from perfbench import feeds, layers, stats
from perfbench.reference import Verdict, check_outputs

WARMUP_MESSAGES = 2_000
MIN_REPEATS = 3
MAX_REPEATS = 8
#: Share of ``--seconds`` each paced rate is held for.
PACED_SHARE = 0.2
_CLK_TCK = os.sysconf("SC_CLK_TCK")


# -- process-level measurements ----------------------------------------------------


def cpu_seconds(child_pids: tuple[int, ...] = ()) -> float:
    """CPU of this process plus the named live children (utime+stime from
    ``/proc``; ``getrusage`` only sees children once they are reaped)."""
    total = time.process_time()
    for pid in child_pids:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / _CLK_TCK
    return total


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus the largest reaped child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# -- workload description --------------------------------------------------------------


@dataclass
class StreamWorkload:
    name: str
    sql: str                       # ``{stream}`` is the input stream name
    expected: Callable             # (rows, products) -> {id: row}
    id_field: str
    drain_messages: int
    #: The drain feed is handed over in this many chunks, each a timed
    #: closed-loop drain of its own: more samples per set-up.
    drain_chunks: int = 4
    rate_lo: int = 0               # msgs/s; 0 = no paced phase
    rate_hi: int = 0
    partitions: int = 32
    containers: int = 1
    product_count: int = 100
    interarrival_ms: int = 1000
    needs_products: bool = False
    env_kwargs: dict = field(default_factory=dict)
    require_fused: bool = False
    #: (rows, products) -> rows the stores must retain at quiescence.
    expected_state_rows: Callable | None = None
    smoke_divisor: int = 50


def orders_schema() -> AvroSchema:
    return AvroSchema.record("Orders", list(feeds.ORDERS_FIELDS))


def products_schema() -> AvroSchema:
    return AvroSchema.record("Products", list(feeds.PRODUCTS_FIELDS))


@dataclass
class Deployment:
    """One set-up environment with its running query."""

    env: SamzaSqlEnvironment
    handle: object
    producer: Producer
    step: Callable[[], int]
    worker_pids: tuple[int, ...] = ()
    extras: dict = field(default_factory=dict)


def run_repeats(repeat: Callable[[bool], dict], tracer,
                budget_s: float) -> list[dict]:
    """Call ``repeat(traced)`` — one set-up plus drain — and return the
    samples that count.

    The first set-up + drain of a process pays for heap growth and
    interpreter warm-up that no later one does; it is run (and verified)
    but left out.  Untraced: at least MIN_REPEATS, then as many as the time
    budget has room for, at most MAX_REPEATS.  Traced: one untraced repeat,
    then the layer wrappers go in and one traced repeat follows, so
    ``trace.overhead_ratio`` compares like with like."""
    repeat(False)
    if tracer is not None:
        untraced = repeat(False)
        layers.install(tracer)
        tracer.enabled = True
        return [untraced, repeat(True)]
    samples: list[dict] = []
    started = time.perf_counter()
    while True:
        samples.append(repeat(False))
        done = len(samples)
        spent = time.perf_counter() - started
        if done >= MAX_REPEATS or (
                done >= MIN_REPEATS and spent * (1 + 1 / done) > budget_s):
            return samples


TIMED = (("setup_s", "lower"), ("throughput_msgs_per_s", "higher"),
         ("cpu_us_per_msg", "lower"))


def summarise_timed(samples: list[dict], metrics: dict,
                    per_repeat: dict) -> None:
    """The three time-based end-to-end metrics: every sample, and the
    run's value — the fast quartile (see :func:`stats.fast_quartile`)."""
    per_repeat["setup_s"] = [s["setup_s"] for s in samples]
    per_repeat["throughput_msgs_per_s"] = [
        value for s in samples for value in s["throughputs"]]
    per_repeat["cpu_us_per_msg"] = [
        value for s in samples for value in s["cpu_us"]]
    for name, better in TIMED:
        metrics[name] = stats.fast_quartile(per_repeat[name], better)


def masters_lag(env) -> int:
    return sum(m.total_lag() for m in env.runner.masters() if not m.finished)


class Ticker:
    """Keeps a VirtualClock in step with real time, so the default
    environment's 1 s metrics interval means 1 s — as it would for a user
    on a wall clock.  A no-op on a SystemClock."""

    def __init__(self, env):
        self._env = env
        self._virtual = isinstance(env.clock, VirtualClock)
        self._start = time.perf_counter()
        self._advanced_ms = 0

    def tick(self) -> None:
        if not self._virtual:
            return
        target = int((time.perf_counter() - self._start) * 1000)
        if target > self._advanced_ms:
            self._env.advance(target - self._advanced_ms)
            self._advanced_ms = target


def run_to_quiescence(dep: Deployment, settle: int = 2) -> int:
    ticker = Ticker(dep.env)
    total = idle = 0
    while idle < settle:
        ticker.tick()
        done = dep.step()
        total += done
        idle = idle + 1 if done == 0 and masters_lag(dep.env) == 0 else 0
    # Process-backed jobs only count as quiescent once every worker has
    # committed and mirrored (a no-op for in-process jobs).
    dep.env.runner.finalize_parallel_jobs()
    return total


# -- set-up ---------------------------------------------------------------------------


def deploy(workload: StreamWorkload, warm: feeds.OrdersFeed,
           products: list[tuple] | None, stream: str = "Orders",
           env: SamzaSqlEnvironment | None = None,
           step: Callable[[], int] | None = None) -> Deployment:
    """Everything ``setup_s`` covers except producing the drain feed.
    ``step`` drives one cooperative round (default ``env.run_iteration``)."""
    if env is None:
        env = SamzaSqlEnvironment(**workload.env_kwargs)
    shell = env.shell
    shell.register_stream(stream, orders_schema(),
                          partitions=workload.partitions)
    producer = Producer(env.cluster)
    if products is not None and env.catalog.table("Products") is None:
        shell.register_table("Products", products_schema(),
                             key_field="productId",
                             partitions=workload.partitions)
        producer.send_batch("Products-changelog", products)
    producer.send_batch(stream, warm.entries)
    handle = shell.execute(workload.sql.format(stream=stream),
                           containers=workload.containers)
    dep = Deployment(env=env, handle=handle, producer=producer,
                     step=step or env.run_iteration)
    run_to_quiescence(dep)
    return dep


def execution_path(handle) -> dict:
    """The path each task actually took, read from task state."""
    counts = {"fused": 0, "compiled": 0, "interpreted": 0}
    for container in handle.master.samza_containers.values():
        for instance in container.tasks.values():
            task = instance.task
            if getattr(task, "serde_fused", False):
                counts["fused"] += 1
            elif getattr(task, "compiled", False):
                counts["compiled"] += 1
            else:
                counts["interpreted"] += 1
    return counts


def state_rows(handle) -> int:
    """Rows retained across every store of every task, exact."""
    return sum(len(store)
               for container in handle.master.samza_containers.values()
               for instance in container.tasks.values()
               for store in instance.stores.values())


# -- timed phases ----------------------------------------------------------------------


def timed_drain(dep: Deployment) -> dict:
    """Wall, CPU (this process plus live workers) and own CPU, from the
    first iteration to quiescence."""
    own0 = time.process_time()
    cpu0 = cpu_seconds(dep.worker_pids)
    wall0 = time.perf_counter()
    processed = run_to_quiescence(dep)
    wall = time.perf_counter() - wall0
    return {"wall_s": wall, "cpu_s": cpu_seconds(dep.worker_pids) - cpu0,
            "own_cpu_s": time.process_time() - own0, "processed": processed}


def chunked(entries: list, chunks: int) -> list[list]:
    size = -(-len(entries) // chunks)
    return [entries[i:i + size] for i in range(0, len(entries), size)]


def chunked_drain(dep: Deployment, topic: str, chunks: list[list],
                  tracer=None) -> dict:
    """Drain the feed chunk by chunk: the first chunk is already in the
    log (set-up put it there); every later one is produced — untimed,
    untraced — once the previous drain reached quiescence.  Returns the
    per-chunk throughput and CPU samples plus the phase totals."""
    drains = []
    for index, chunk in enumerate(chunks):
        if index:
            if tracer is not None:
                tracer.enabled = False
            dep.producer.send_batch(topic, chunk)
            gc.freeze()
            if tracer is not None:
                tracer.enabled = True
        drains.append(timed_drain(dep))
    totals = {key: sum(d[key] for d in drains) for key in drains[0]}
    totals["throughputs"] = [len(chunk) / d["wall_s"]
                             for chunk, d in zip(chunks, drains)]
    totals["cpu_us"] = [d["cpu_s"] / len(chunk) * 1e6
                        for chunk, d in zip(chunks, drains)]
    return totals


def topic_ledger(dep: Deployment, input_topic: str) -> dict:
    """Exact byte and record counts, read off the topics after a phase."""
    cluster = dep.env.cluster

    def size(topic: str) -> tuple[int, int]:
        logs = cluster.topic(topic).partitions
        return sum(len(log) for log in logs), sum(log.size_bytes for log in logs)

    prefix = dep.handle.query_id + "-"
    changelogs = [size(topic) for topic in cluster.topics()
                  if topic.startswith(prefix) and topic.endswith("-changelog")]
    return {
        "kafka.bytes_in": size(input_topic)[1],
        "kafka.bytes_out": size(dep.handle.output_stream)[1],
        "samza.changelog_records": sum(records for records, _ in changelogs),
        "samza.changelog_bytes": sum(nbytes for _, nbytes in changelogs),
    }


@dataclass
class PacedResult:
    rate: int
    sent: int
    duration_s: float
    sample_times: np.ndarray       # s since phase start, one per iteration
    sample_ends: np.ndarray        # [iteration, partition] output end offsets
    base_ends: np.ndarray          # output end offsets when the clock started
    send_log: list[tuple]          # (time s, first index, stop index)
    lag_at_end: int
    lag_max: int


def paced_phase(dep: Deployment, topic: str, entries: list[tuple], rate: int,
                output_topic: str) -> PacedResult:
    """Open loop: send every entry whose due time has passed, run one
    iteration, note the output end offsets; repeat until the feed is sent
    and the query has caught up."""
    env, step = dep.env, dep.step
    logs = env.cluster.topic(output_topic).partitions
    send_batch = dep.producer.send_batch
    count = len(entries)
    ticker = Ticker(env)
    times: list[float] = []
    ends: list[list[int]] = []
    send_log: list[tuple] = []
    base = [log.end_offset for log in logs]
    sent = iteration = lag_max = lag_at_end = idle = 0
    clock = time.perf_counter
    start = clock()
    while True:
        now = clock() - start
        due = min(count, int(now * rate) + 1)
        if due > sent:
            send_batch(topic, entries[sent:due])
            send_log.append((now, sent, due))
            sent = due
            if sent == count:
                lag_at_end = masters_lag(env)
        ticker.tick()
        done = step()
        times.append(clock() - start)
        ends.append([log.end_offset for log in logs])
        iteration += 1
        if iteration & 7 == 0 or sent == count:
            lag = masters_lag(env)
            if lag > lag_max:
                lag_max = lag
            if sent == count:
                idle = idle + 1 if done == 0 and lag == 0 else 0
                if idle >= 2:
                    break
    return PacedResult(
        rate=rate, sent=sent, duration_s=clock() - start,
        sample_times=np.asarray(times), sample_ends=np.asarray(ends),
        base_ends=np.asarray(base), send_log=send_log,
        lag_at_end=lag_at_end, lag_max=lag_max)


def read_output(env, topic: str) -> list[list]:
    """Per partition, the raw output values in offset order."""
    return [[m.value for m in log.read(log.log_start_offset)]
            for log in env.cluster.topic(topic).partitions]


def paced_latencies_ms(result: PacedResult,
                       index_by_partition: list[np.ndarray]) -> np.ndarray:
    """Latency of every result produced by a paced input.

    ``index_by_partition[p][k]`` is the position in the paced feed of the
    input behind the k-th output appended to partition ``p`` since the
    clock started.  Emit time is the first end-offset sample that shows the
    output; due time is ``index / rate`` — due, not send, so a stall
    charges the events queued behind it."""
    out = []
    last = len(result.sample_times) - 1
    for partition, index in enumerate(index_by_partition):
        if not len(index):
            continue
        offsets = int(result.base_ends[partition]) + np.arange(len(index))
        sample = np.searchsorted(result.sample_ends[:, partition], offsets,
                                 side="right")
        emit = result.sample_times[np.minimum(sample, last)]
        out.append((emit - index / result.rate) * 1e3)
    return np.concatenate(out) if out else np.empty(0)


def generator_lateness_ms(results: list[PacedResult]) -> np.ndarray:
    """How late each entry was handed to the producer vs its due time."""
    out = []
    for result in results:
        for now, first, stop in result.send_log:
            out.append((now - np.arange(first, stop) / result.rate) * 1e3)
    return np.concatenate(out) if out else np.empty(0)


# -- verification -----------------------------------------------------------------------


def decode(handle, values_by_partition: list[list]) -> list[list[dict]]:
    serde = handle.output_serde
    return [serde.from_bytes_batch(values) for values in values_by_partition]


def verify(workload: StreamWorkload, rows: list[tuple],
           products: list[tuple] | None, decoded: list[list[dict]],
           at_least_once: bool = False) -> Verdict:
    expected = workload.expected(rows, products)
    outputs = [row for partition in decoded for row in partition]
    return check_outputs(len(rows), expected, outputs, workload.id_field,
                         at_least_once=at_least_once)


def latency_summary(latencies_ms: np.ndarray) -> dict:
    ordered = np.sort(latencies_ms).tolist()
    return {"p50": stats.percentile(ordered, 0.50),
            "p99": stats.percentile(ordered, 0.99), "n": len(ordered)}


def release(dep: Deployment) -> None:
    """Stop the deployment and give its memory back before the next one."""
    dep.env.close()
    dep.env = dep.handle = dep.producer = dep.step = None
    gc.unfreeze()
    gc.collect()
