"""Runs one stream workload through the shape :mod:`perfbench.harness`
describes and returns every number it can vouch for.

:class:`StreamRunner` is the plain single-container run; the crash-recovery
and two-worker workloads override how a deployment is built and what is
read off it after a drain (see :mod:`perfbench.workloads`).
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field

import numpy as np

from perfbench import BenchmarkError, feeds, harness, layers, stats
from perfbench.harness import StreamWorkload
from perfbench.reference import Verdict
from perfbench.tracer import Tracer

@dataclass
class RunResult:
    workload: str
    seed: int
    params: dict
    metrics: dict = field(default_factory=dict)   # name -> value
    samples: dict = field(default_factory=dict)   # name -> per-repeat values
    attempted: int = 0
    failed: int = 0
    notes: dict = field(default_factory=dict)


class StreamRunner:
    at_least_once = False

    def __init__(self, workload: StreamWorkload, seed: int, seconds: float,
                 tracer: Tracer | None = None, smoke: bool = False):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        divisor = workload.smoke_divisor if smoke else 1
        self.drain_messages = max(workload.drain_messages // divisor, 200)
        self.warm_messages = max(harness.WARMUP_MESSAGES // divisor, 100)
        self.paced_seconds = (seconds * harness.PACED_SHARE
                              if workload.rate_lo else 0.0)
        self.verdict = Verdict()
        self.verify_s = 0.0
        self.paced_windows: list = []
        self.dep: harness.Deployment | None = None
        self._reference_values = None

    # -- overridable pieces -----------------------------------------------------

    def deploy(self, stream: str = "Orders", env=None) -> harness.Deployment:
        return harness.deploy(self.workload, self.warm, self.products_entries,
                              stream=stream, env=env)

    def check_path(self, dep: harness.Deployment) -> dict:
        path = harness.execution_path(dep.handle)
        if self.workload.require_fused and (
                path["fused"] == 0 or path["compiled"] or path["interpreted"]):
            raise BenchmarkError(
                f"{self.workload.name} must run the fused path on every "
                f"task, but task state reports {path}")
        return path

    def after_drain(self, dep: harness.Deployment, sample: dict) -> None:
        """Hook: read workload-specific numbers off a drained deployment."""

    # -- feeds --------------------------------------------------------------------

    def synthesise(self) -> None:
        workload = self.workload
        paced = [int(rate * self.paced_seconds)
                 for rate in (workload.rate_lo, workload.rate_hi) if rate]
        started = time.perf_counter()
        feed = feeds.orders_feed(
            self.seed, self.warm_messages + self.drain_messages + sum(paced),
            workload.partitions, product_count=workload.product_count,
            interarrival_ms=workload.interarrival_ms)
        self.products_rows = self.products_entries = None
        if workload.needs_products:
            self.products_rows, self.products_entries = feeds.products_feed(
                self.seed, workload.partitions, workload.product_count)
        self.feed_gen_s = time.perf_counter() - started
        cut = self.warm_messages
        self.warm = feed.slice(0, cut)
        self.drain = feed.slice(cut, cut + self.drain_messages)
        cut += self.drain_messages
        self.chunks = harness.chunked(self.drain.entries,
                                      workload.drain_chunks)
        self.paced = []
        for count in paced:
            self.paced.append(feed.slice(cut, cut + count))
            cut += count

    # -- one set-up + drain ---------------------------------------------------------

    def repeat(self, traced: bool) -> dict:
        """Fresh environment, set-up, chunked drain, verification.  The
        deployment stays up (``self.dep``) until the next repeat replaces
        it — the paced phase runs on the last one."""
        if self.dep is not None:
            harness.release(self.dep)
        tracer = self.tracer
        sample: dict = {}
        setup_mark = tracer.mark() if traced else None
        started = time.perf_counter()
        dep = self.dep = self.deploy()
        dep.producer.send_batch("Orders", self.chunks[0])
        gc.collect()
        gc.freeze()
        sample["setup_s"] = time.perf_counter() - started
        sample["path"] = self.check_path(dep)
        if traced:
            sample["setup_window"] = tracer.window(setup_mark)
            drain_mark = tracer.mark()
        sample.update(harness.chunked_drain(
            dep, "Orders", self.chunks, tracer if traced else None))
        if traced:
            sample["drain_window"] = tracer.window(drain_mark)
            sample["topics"] = harness.topic_ledger(dep, "Orders")
        sample["state_rows"] = harness.state_rows(dep.handle)
        self.after_drain(dep, sample)

        started = time.perf_counter()
        values = harness.read_output(dep.env, dep.handle.output_stream)
        sample["rows_out"] = sum(len(v) for v in values)
        if self.at_least_once or values != self._reference_values:
            verdict = harness.verify(
                self.workload, self.warm.rows + self.drain.rows,
                self.products_rows, harness.decode(dep.handle, values),
                at_least_once=self.at_least_once)
            self._reference_values, self._reference_verdict = values, verdict
        else:
            # byte-identical to an output that was already checked row by row
            verdict = self._reference_verdict
        self.verdict.add(verdict)
        sample["duplicates"] = verdict.duplicates
        self.verify_s += time.perf_counter() - started
        return sample

    # -- the paced phase --------------------------------------------------------------

    def paced_run(self, dep: harness.Deployment, slice_: feeds.OrdersFeed,
                  rate: int) -> tuple[harness.PacedResult, np.ndarray]:
        workload = self.workload
        stream = f"OrdersAt{rate}"
        paced_dep = self.deploy(stream=stream, env=dep.env)
        gc.collect()
        gc.freeze()
        output_topic = paced_dep.handle.output_stream
        mark = self.tracer.mark() if self.tracer is not None else None
        result = harness.paced_phase(paced_dep, stream, slice_.entries, rate,
                                     output_topic)
        if mark is not None:
            self.paced_windows.append(self.tracer.window(mark))
        paced_dep.handle.stop()

        started = time.perf_counter()
        values = harness.read_output(dep.env, output_topic)
        decoded = harness.decode(paced_dep.handle, values)
        rows = self.warm.rows + slice_.rows
        self.verdict.add(harness.verify(workload, rows, self.products_rows,
                                        decoded))
        # id -> position in the paced feed (ids are orderId or rowtime, both
        # strictly increasing along the feed)
        id_column = {"orderId": 2, "rowtime": 0}[workload.id_field]
        ids = np.asarray([row[id_column] for row in slice_.rows])
        index_by_partition = []
        for partition, out_rows in enumerate(decoded):
            base = int(result.base_ends[partition])
            got = np.asarray([row[workload.id_field]
                              for row in out_rows[base:]], dtype=np.int64)
            index_by_partition.append(np.searchsorted(ids, got))
        latencies = harness.paced_latencies_ms(result, index_by_partition)
        self.verify_s += time.perf_counter() - started
        gc.unfreeze()
        return result, latencies

    # -- the whole run -------------------------------------------------------------------

    def run(self) -> RunResult:
        workload, tracer = self.workload, self.tracer
        self.synthesise()
        samples = harness.run_repeats(
            self.repeat, tracer, self.seconds - 2 * self.paced_seconds)
        dep = self.dep

        result = RunResult(workload.name, self.seed, params=self.params())
        metrics, per_repeat = result.metrics, result.samples
        harness.summarise_timed(samples, metrics, per_repeat)
        metrics["peak_state_rows"] = max(s["state_rows"] for s in samples)
        self.check_state_rows(samples)
        self.summarise(samples, metrics, per_repeat)

        paced: list[harness.PacedResult] = []
        if workload.rate_lo:
            dep.handle.stop()
            gc.unfreeze()
            for slice_, rate, which in zip(
                    self.paced, (workload.rate_lo, workload.rate_hi),
                    ("p50", "p99")):
                outcome, latencies = self.paced_run(dep, slice_, rate)
                paced.append(outcome)
                summary = harness.latency_summary(latencies)
                metrics[f"latency_{which}_ms"] = summary[which]
                result.notes[f"paced_{rate}"] = {
                    **summary, "duration_s": outcome.duration_s,
                    "lag_at_end": outcome.lag_at_end,
                    "lag_max": outcome.lag_max, "sent": outcome.sent}
            hot = paced[-1]
            if hot.lag_at_end > hot.rate:
                # more than a second of input still queued when the feed
                # ended: every result of the window missed the limit
                self.verdict.failed += hot.sent
                result.notes["overloaded_at_rate_hi"] = True
        if tracer is not None:
            self.trace_metrics(samples, paced, metrics, result)
        metrics["peak_rss_mb"] = harness.peak_rss_mb()
        metrics["driver.feed_gen_s"] = self.feed_gen_s
        metrics["driver.verify_s"] = self.verify_s
        lateness = harness.generator_lateness_ms(paced)
        metrics["driver.generator_lateness_p99_ms"] = (
            stats.percentile(np.sort(lateness).tolist(), 0.99)
            if len(lateness) else 0.0)
        metrics["kafka.lag_max_msgs"] = max((p.lag_max for p in paced),
                                            default=0)
        result.attempted = self.verdict.attempted
        result.failed = self.verdict.failed
        metrics["ops_attempted"] = result.attempted
        metrics["ops_failed"] = result.failed
        metrics["error_ratio"] = result.failed / result.attempted
        result.notes["verdict"] = vars(self.verdict)
        result.notes["repeats"] = len(samples)
        result.notes["path"] = samples[-1]["path"]
        harness.release(dep)
        return result

    def params(self) -> dict:
        workload = self.workload
        return {"drain_messages": self.drain_messages,
                "warmup_messages": self.warm_messages,
                "rate_lo": workload.rate_lo, "rate_hi": workload.rate_hi,
                "paced_seconds_each": self.paced_seconds,
                "partitions": workload.partitions,
                "containers": workload.containers,
                "product_count": workload.product_count,
                "sql": workload.sql.format(stream="Orders")}

    def check_state_rows(self, samples: list[dict]) -> None:
        want = self.workload.expected_state_rows
        if want is None:
            return
        expected = want(self.warm.rows + self.drain.rows, self.products_rows)
        for sample in samples:
            if sample["state_rows"] != expected:
                raise BenchmarkError(
                    f"{self.workload.name}: stores retain "
                    f"{sample['state_rows']} rows at quiescence, the "
                    f"reference says {expected}")

    def summarise(self, samples: list[dict], metrics: dict,
                  per_repeat: dict) -> None:
        """Hook: workload-specific medians over the repeats."""

    # -- per-layer numbers of the traced repeat ------------------------------------------

    def trace_metrics(self, samples: list[dict], paced: list,
                      metrics: dict, result: RunResult) -> None:
        untraced, traced = samples
        setup = traced["setup_window"]
        metrics.update(layers.traced_drain(self.workload.name, untraced,
                                           traced))
        for outcome, paced_window in zip(paced, self.paced_windows):
            result.notes[f"paced_{outcome.rate}"]["trace_coverage"] = (
                layers.coverage(paced_window, outcome.duration_s))
            # commit stalls matter most where latency is measured, and a
            # drain is too short to see many 1 s metrics reports
            metrics["samza.commit_max_ms"] = max(
                metrics["samza.commit_max_ms"],
                paced_window.max_ns.get("samza.commit", 0) / 1e6)
            metrics["metrics.snapshots_published"] += paced_window.count(
                "metrics.report")
            metrics["metrics.report_ns_total"] += paced_window.ns(
                "metrics.report", self_time=False)
        metrics["samzasql.plan_s"] = setup.ns("samzasql.plan",
                                              self_time=False) / 1e9
        metrics["samza.container_start_s"] = setup.ns(
            "samza.container_start", self_time=False) / 1e9
        path = traced["path"]
        metrics["samzasql.tasks_fused"] = path["fused"]
        metrics["samzasql.tasks_compiled"] = path["compiled"]
        metrics["samzasql.tasks_interpreted"] = path["interpreted"]
        metrics["samzasql.rows_in"] = self.warm_messages + self.drain_messages
        metrics["samzasql.rows_out"] = traced["rows_out"]
        metrics["samzasql.state_rows_peak"] = traced["state_rows"]
        metrics.update(traced["topics"])
        metrics.update(layers.isolated(
            [entry[0] for entry in self.drain.entries],
            [entry[1] for entry in self.drain.entries],
            harness.orders_schema(), frozenset({"rowtime", "units"})))
        result.notes["span_count"] = self.tracer.span_count
