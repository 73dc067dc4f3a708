"""``frontdoor_mixed``: the one workload where parse, policy, admission and
plan/compile/submit are the work and the container loop is not.

Shape (closed loop, one client): a ``retail`` data source with two virtual
tables (the lab shape: data source -> virtual table -> filter ->
aggregate); 24 tenants — tenant 0 an over-quota hog, odd tenants ACL-limited
to ``retail.Orders``; 240 named sessions, each issuing a seeded mix of one
streaming submission, one bounded batch statement and one probe of the
restricted table.  Every outcome class is predicted by
:class:`perfbench.reference.AdmissionModel` before the statement is sent.
Then all admitted queries drain a shared feed — the throughput and CPU
numbers — and their outputs are checked row for row.

Each repeat builds a fresh environment, like the stream workloads.
"""

from __future__ import annotations

import gc
import random
import time

from repro.kafka.producer import Producer
from repro.samzasql import SamzaSqlEnvironment
from repro.serving import (PendingQuery, PipelineError, TenantPolicy,
                           TenantQuota)

from perfbench import (BenchmarkError, feeds, harness, layers, reference,
                       stats)
from perfbench.streams import RunResult
from perfbench.tracer import Tracer

TENANTS = 24
SESSIONS = 240
PARTITIONS = 4
PRODUCTS = 20
HISTORY_MESSAGES = 500       # what batch statements scan
DRAIN_MESSAGES = 3_000       # what every admitted query then drains
DRAIN_CHUNKS = 3             # ... in this many timed closed-loop drains
QUOTA = TenantQuota(max_concurrent_queries=2, max_queue_depth=2,
                    max_state_bytes=256 * 1024 * 1024)
HOG_QUOTA = TenantQuota(max_concurrent_queries=1, max_queue_depth=0)

#: (sql template, plain-Python row function or None to drop the row).
STREAMING = (
    ("SELECT STREAM rowtime, productId, units FROM Orders WHERE units > {n}",
     lambda row, n: ({"rowtime": row[0], "productId": row[1], "units": row[3]}
                     if row[3] > n else None)),
    ("SELECT STREAM rowtime, orderId FROM Orders",
     lambda row, n: {"rowtime": row[0], "orderId": row[2]}),
    ("SELECT STREAM rowtime, productId, units * 2 AS twice FROM Orders "
     "WHERE productId = {n}",
     lambda row, n: ({"rowtime": row[0], "productId": row[1],
                      "twice": row[3] * 2} if row[1] == n else None)),
)
GROUP_SQL = "SELECT productId, COUNT(*) AS c FROM Orders GROUP BY productId"
BATCH_FILTER_SQL = "SELECT orderId, units FROM Orders WHERE units > {n}"
PROBE_SQL = "SELECT name FROM Products"


#: The order a session issues its three statements in, cycled by session.
ORDERS = (("stream", "batch", "probe"), ("batch", "probe", "stream"),
          ("probe", "stream", "batch"))


def statement_plan(seed: int, sessions: int) -> list[dict]:
    """The statement mix, with the outcome each statement must meet.

    Which template a session uses and in which order it issues its
    statements cycle with the session index, so every seed runs the same
    mix; the seed draws the literals (like the record content)."""
    rng = random.Random(seed)
    admission = reference.AdmissionModel()
    plan = []
    for index in range(sessions):
        tenant_index = index % TENANTS
        tenant = f"tenant-{tenant_index:03d}"
        quota = HOG_QUOTA if tenant_index == 0 else QUOTA
        # sessions of one tenant are TENANTS apart: cycle per tenant visit
        visit = index // TENANTS
        for kind in ORDERS[(visit + tenant_index) % len(ORDERS)]:
            item = {"tenant": tenant, "session": f"session-{index:04d}",
                    "kind": kind}
            if kind == "stream":
                template = (visit + tenant_index) % len(STREAMING)
                n = rng.randrange(PRODUCTS) if template == 2 \
                    else 30 + rng.randrange(50)
                item.update(
                    sql=STREAMING[template][0].format(n=n),
                    template=template, n=n,
                    expect=admission.submit(tenant,
                                            quota.max_concurrent_queries,
                                            quota.max_queue_depth))
            elif kind == "batch":
                if index % 2 == 0:
                    item.update(sql=GROUP_SQL, n=None, expect="rows")
                else:
                    n = 30 + rng.randrange(50)
                    item.update(sql=BATCH_FILTER_SQL.format(n=n), n=n,
                                expect="rows")
            else:
                item.update(sql=PROBE_SQL, expect=(
                    "rows" if tenant_index % 2 == 0 else "SECURITY_VIOLATION"))
            plan.append(item)
    return plan


class FrontDoorRunner:
    name = "frontdoor_mixed"

    def __init__(self, seed: int, seconds: float,
                 tracer: Tracer | None = None, smoke: bool = False):
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.sessions = SESSIONS // 5 if smoke else SESSIONS
        self.drain_messages = DRAIN_MESSAGES // 10 if smoke else DRAIN_MESSAGES
        self.history_messages = (HISTORY_MESSAGES // 5 if smoke
                                 else HISTORY_MESSAGES)
        self.attempted = self.failed = 0
        self.verify_s = 0.0
        self._checked_outputs = None
        self._checked_failed = 0

    # -- set-up -------------------------------------------------------------------

    def build(self):
        slots = TENANTS * QUOTA.max_concurrent_queries + 4
        env = SamzaSqlEnvironment(node_count=max(2, (slots + 7) // 8))
        front_door = env.front_door(default_quota=QUOTA)
        catalog = front_door.catalog
        catalog.add_data_source("retail", "shared cluster, retail topics")
        catalog.create("Orders", "retail", harness.orders_schema(),
                       kind="stream", partitions=PARTITIONS)
        catalog.create("Products", "retail", harness.products_schema(),
                       kind="table", key_field="productId",
                       partitions=PARTITIONS)
        for index in range(TENANTS):
            tenant = f"tenant-{index:03d}"
            allowed = {"retail.*"} if index % 2 == 0 else {"retail.Orders"}
            front_door.register_tenant(
                tenant, TenantPolicy(tenant, frozenset(allowed)),
                quota=HOG_QUOTA if index == 0 else QUOTA)
        producer = Producer(env.cluster)
        producer.send_batch("Products-changelog", self.products_entries)
        producer.send_batch("Orders", self.history.entries)
        sessions = {}
        for item in self.plan:
            key = (item["tenant"], item["session"])
            if key not in sessions:
                sessions[key] = front_door.connect(*key)
        return env, front_door, producer, sessions

    # -- the statement phase ---------------------------------------------------------

    def issue(self, front_door, sessions) -> dict:
        """Send every planned statement; classify, time and check each."""
        history = self.history.rows
        clock = time.perf_counter
        timings = {"stream_started": [], "batch_rows": [], "rejected": []}
        outcomes: dict[str, int] = {}
        started_queries = []
        wrong = 0
        batch_checks = []
        for item in self.plan:
            session = sessions[item["tenant"], item["session"]]
            begin = clock()
            try:
                answer = front_door.execute(session, item["sql"])
            except PipelineError as error:
                answer = error
            elapsed_ms = (clock() - begin) * 1e3
            if isinstance(answer, PipelineError):
                outcome = answer.code.value
                timings["rejected"].append(elapsed_ms)
            elif isinstance(answer, PendingQuery):
                outcome = "queued"
            elif isinstance(answer, list):
                outcome = "rows"
                timings["batch_rows"].append(elapsed_ms)
                batch_checks.append((item, answer))
            else:
                outcome = "started"
                timings["stream_started"].append(elapsed_ms)
                started_queries.append((item, answer))
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
            if outcome != item["expect"]:
                wrong += 1
        # batch answers are checked after the clock stops
        check_started = clock()
        for item, answer in batch_checks:
            if item["kind"] == "probe":
                want = [{"name": name} for _pid, name, _s in self.products_rows]
            elif item["n"] is None:
                want = reference.expected_group_count(history)
            else:
                want = reference.expected_batch_filter(history, item["n"])
            if not reference.same_rows(answer, want):
                wrong += 1
        check_s = clock() - check_started
        self.verify_s += check_s
        return {"check_s": check_s, "timings": timings, "outcomes": outcomes, "wrong": wrong,
                "queries": started_queries,
                "running_peak": len(front_door.running_queries())}

    # -- one repeat ---------------------------------------------------------------------

    def repeat(self, traced: bool) -> dict:
        """Build, issue every statement, let the admitted queries consume
        the history (all of it ``setup_s``: what precedes the drain clock,
        as in the stream workloads), then the timed drain."""
        tracer = self.tracer
        sample: dict = {}
        setup_started = time.perf_counter()
        env, front_door, producer, sessions = self.build()
        mark = tracer.mark() if traced else None
        started = time.perf_counter()
        issued = self.issue(front_door, sessions)
        sample["statements_s"] = time.perf_counter() - started
        if traced:
            sample["statement_window"] = tracer.window(mark)
        sample.update(issued)
        dep = harness.Deployment(env=env, handle=None, producer=producer,
                                 step=env.run_iteration)
        harness.run_to_quiescence(dep)
        chunks = harness.chunked(self.drain.entries, DRAIN_CHUNKS)
        producer.send_batch("Orders", chunks[0])
        gc.collect()
        gc.freeze()
        sample["setup_s"] = (time.perf_counter() - setup_started
                             - issued["check_s"])

        mark = tracer.mark() if traced else None
        sample.update(harness.chunked_drain(
            dep, "Orders", chunks, tracer if traced else None))
        if traced:
            sample["drain_window"] = tracer.window(mark)
        queries = issued["queries"]
        inputs = len(queries) * self.drain_messages
        if sample["processed"] != inputs:
            raise BenchmarkError(
                f"{len(queries)} admitted queries should drain {inputs} "
                f"messages, the runtime reports {sample['processed']}")
        # every admitted query reads every message
        sample["throughputs"] = [v * len(queries)
                                 for v in sample["throughputs"]]
        sample["cpu_us"] = [v / len(queries) for v in sample["cpu_us"]]
        sample["stats"] = front_door.admission.stats
        sample["error_counts"] = dict(front_door.error_counts)

        started = time.perf_counter()
        rows = self.history.rows + self.drain.rows
        failed = issued["wrong"]
        outputs = [harness.read_output(env, handle.output_stream)
                   for _item, handle in queries]
        if outputs != self._checked_outputs:
            failed_rows = 0
            for item, handle in queries:
                evaluate = STREAMING[item["template"]][1]
                expected = {}
                for row in rows:
                    out = evaluate(row, item["n"])
                    if out is not None:
                        expected[row[0]] = out
                failed_rows += reference.check_outputs(
                    len(rows), expected, handle.results(), "rowtime").failed
            # later repeats that are byte-identical reuse this verdict
            self._checked_outputs, self._checked_failed = outputs, failed_rows
        failed += self._checked_failed
        self.attempted += len(self.plan) + len(queries) * len(rows)
        self.failed += failed
        self.verify_s += time.perf_counter() - started
        # closing finishes every job without freeing slots one by one, so
        # the queued submissions are abandoned, not started
        env.close()
        gc.unfreeze()
        gc.collect()
        return sample

    # -- the whole run ---------------------------------------------------------------------

    def run(self) -> RunResult:
        tracer = self.tracer
        started = time.perf_counter()
        feed = feeds.orders_feed(
            self.seed, self.history_messages + self.drain_messages,
            PARTITIONS, product_count=PRODUCTS)
        self.products_rows, self.products_entries = feeds.products_feed(
            self.seed, PARTITIONS, PRODUCTS)
        self.plan = statement_plan(self.seed, self.sessions)
        feed_gen_s = time.perf_counter() - started
        self.history = feed.slice(0, self.history_messages)
        self.drain = feed.slice(self.history_messages, len(feed))

        samples = harness.run_repeats(self.repeat, tracer, self.seconds)

        result = RunResult(self.name, self.seed, params={
            "tenants": TENANTS, "sessions": self.sessions,
            "statements": len(self.plan),
            "history_messages": self.history_messages,
            "drain_messages": self.drain_messages, "partitions": PARTITIONS})
        metrics, per_repeat = result.metrics, result.samples
        harness.summarise_timed(samples, metrics, per_repeat)

        def pooled(kind: str) -> list[float]:
            return sorted(ms for s in samples for ms in s["timings"][kind])

        submits, batches, rejects = (pooled("stream_started"),
                                     pooled("batch_rows"), pooled("rejected"))
        metrics["stream_submit_p50_ms"] = stats.percentile(submits, 0.50)
        metrics["stream_submit_p90_ms"] = stats.percentile(submits, 0.90)
        metrics["batch_stmt_p50_ms"] = stats.percentile(batches, 0.50)
        metrics["serving.reject_p50_ms"] = stats.percentile(rejects, 0.50)
        last = samples[-1]
        admission = last["stats"]
        metrics["serving.admitted"] = admission.admitted
        metrics["serving.queued"] = admission.queued
        metrics["serving.rejected_quota"] = admission.rejected.get(
            "QUOTA_EXCEEDED", 0)
        metrics["serving.rejected_acl"] = last["error_counts"].get(
            "SECURITY_VIOLATION", 0)
        metrics["serving.running_peak"] = last["running_peak"]
        result.notes["outcomes"] = last["outcomes"]
        result.notes["statements_s"] = [s["statements_s"] for s in samples]
        if tracer is not None:
            self.trace_metrics(samples, metrics, result)
        metrics["peak_rss_mb"] = harness.peak_rss_mb()
        metrics["driver.feed_gen_s"] = feed_gen_s
        metrics["driver.verify_s"] = self.verify_s
        result.attempted, result.failed = self.attempted, self.failed
        metrics["ops_attempted"] = self.attempted
        metrics["ops_failed"] = self.failed
        metrics["error_ratio"] = self.failed / self.attempted
        result.notes["repeats"] = len(samples)
        return result

    def trace_metrics(self, samples: list[dict], metrics: dict,
                      result: RunResult) -> None:
        untraced, traced = samples
        statements = traced["statement_window"]
        count = len(self.plan)
        metrics.update(layers.traced_drain(self.name, untraced, traced))
        result.notes["trace_coverage_statements"] = layers.coverage(
            statements, traced["statements_s"])

        def per_statement(name: str, scale: float) -> float:
            return statements.ns(name) / scale / count

        metrics["sql.parse_us_per_stmt"] = per_statement("sql.parse", 1e3)
        metrics["sql.plan_us_per_stmt"] = per_statement("sql.plan", 1e3)
        metrics["serving.policy_us_per_stmt"] = per_statement(
            "serving.policy", 1e3)
        metrics["serving.admission_us_per_stmt"] = per_statement(
            "serving.admission", 1e3)
        batch_statements = statements.count("samzasql.batch_exec")
        metrics["serving.batch_exec_ms_per_stmt"] = (
            statements.ns("samzasql.batch_exec", self_time=False) / 1e6
            / max(batch_statements, 1))
        metrics["samzasql.plan_s"] = statements.ns("samzasql.plan") / 1e9
        metrics["samza.container_start_s"] = statements.ns(
            "samza.container_start", self_time=False) / 1e9
        metrics["samzasql.rows_in"] = traced["processed"]
        result.notes["span_count"] = self.tracer.span_count
