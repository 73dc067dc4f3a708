"""End-to-end chaos validation: scenario rows, one driver, one oracle.

A :class:`Scenario` is data — the SQL, the streams it reads, a seeded
feed and the :meth:`FaultSchedule.from_seed` arguments of its schedule.
:func:`run_scenario` builds the environment, feeds it, arms the injector,
supervises the job to quiescence and audits it:

* **stream ≡ table** — the distinct emitted rows must equal the same SQL
  without ``STREAM`` over the fed history (§3.3), which the batch
  executor evaluates with injection suspended and no streaming operator
  code.  ``lost`` rows are in the table but were never emitted;
  ``unexpected`` rows were emitted but are not in the table — a wrong
  aggregate after a bad restore lands here;
* **duplicates** — at-least-once replay may emit a row more than once;
  the report counts the extra emissions and bounds nothing;
* **restore** — the run meets its criteria only if the schedule's faults
  fired, a relaunch read state back (``restored-entries`` gauges summed
  over the job's containers > 0) and no store changelog is empty;
* **replay determinism** — ``--replay-check`` runs the scenario twice and
  requires identical distinct outputs and, on the virtual clock,
  identical fired-fault logs.

Usage::

    PYTHONPATH=src python -m repro.chaos.validate --seed 42 --replay-check
    PYTHONPATH=src python -m repro.chaos.validate --scenario multiway
    PYTHONPATH=src python -m repro.chaos.validate --scenario nested-window
    PYTHONPATH=src python -m repro.chaos.validate --scenario relation-join
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Callable, Iterator

from repro.chaos.faults import (
    CONTAINER_CRASH,
    WORKER_KILL,
    ZK_EXPIRE,
    FaultInjector,
    FaultSchedule,
)
from repro.chaos.supervisor import ChaosSupervisor
from repro.common.clock import SystemClock, VirtualClock
from repro.kafka.producer import Producer
from repro.samzasql.environment import SamzaSqlEnvironment
from repro.serde.avro import AvroSchema, AvroSerde
from repro.workloads.orders import (
    ORDERS_SCHEMA,
    OrderLifecycleGenerator,
    order_stage_schema,
)
from repro.workloads.products import PRODUCTS_SCHEMA, ProductsGenerator


@dataclass(frozen=True)
class Scenario:
    """One chaos run, as data."""

    sql: str                                  # a SELECT STREAM query
    streams: tuple[tuple[str, AvroSchema], ...]
    key: str                                  # partition-key field of every stream
    feed: Callable[[int, int], Iterator[tuple[str, dict]]]  # (seed, orders)
    faults: dict = field(default_factory=dict)    # FaultSchedule.from_seed kwargs
    minimum: dict = field(default_factory=dict)   # fault kind -> fired at least
    parallel: bool = False
    explain: str | None = None                # a line EXPLAIN must print
    # (name, schema, primary-key field) of each relation, fed through its
    # changelog; a fed row that holds only its key is a tombstone
    tables: tuple[tuple[str, AvroSchema, str], ...] = ()


def _orders_feed(seed: int, orders: int) -> Iterator[tuple[str, dict]]:
    """Units (i*7) % 100, ten products, one order a second; seed unused."""
    for i in range(orders):
        yield "Orders", {"rowtime": 1_000_000 + i * 1_000, "productId": i % 10,
                         "orderId": i, "units": (i * 7) % 100}


def _lifecycle_feed(seed: int, orders: int) -> Iterator[tuple[str, dict]]:
    """Each order, then its fill and shipment inside the 5 s window."""
    return ((name, record) for name, record
            in OrderLifecycleGenerator(seed=seed).events(orders)
            if name != "Invoices")


def _catalog_feed(seed: int, orders: int) -> Iterator[tuple[str, dict]]:
    """A hundred products (suppliers drawn from the seed), product 7 then
    deleted, all before :func:`_orders_feed` — enough rows that each
    container's first commit logs some before the orders start."""
    for record in ProductsGenerator(seed=seed).records():
        yield "Products", record
    yield "Products", {"productId": 7}
    yield from _orders_feed(seed, orders)


#: Filter + sliding window — the paper's two single-stream benchmark
#: shapes composed into one query.
WINDOW_SQL = (
    "SELECT STREAM rowtime, productId, orderId, units, "
    "SUM(units) OVER (PARTITION BY productId ORDER BY rowtime "
    "RANGE INTERVAL '5' MINUTE PRECEDING) unitsLastFiveMinutes "
    "FROM Orders WHERE units > 10"
)

_FIVE_MINUTES = ("OVER (PARTITION BY productId ORDER BY rowtime "
                 "RANGE INTERVAL '5' MINUTE PRECEDING)")

#: A sliding window over a sliding window's output: two window instances,
#: each restored from its own stores (sql-window-*, sql-window2-*), run
#: as two stages of one fused function.
NESTED_WINDOW_SQL = (
    f"SELECT STREAM rowtime, productId, orderId, w, SUM(w) {_FIVE_MINUTES} ww "
    f"FROM (SELECT STREAM rowtime, productId, orderId, units, "
    f"SUM(units) {_FIVE_MINUTES} w FROM Orders)"
)

#: 3-way fulfilment reassembly.  Both windows anchor at the order row, so
#: the planner collapses the chain into one operator with one
#: changelog-backed store per input (sql-mjoin-0/1/2).
MULTIWAY_SQL = (
    "SELECT STREAM Orders.rowtime AS rowtime, Orders.orderId, "
    "Orders.units, Shipments.rowtime - Orders.rowtime AS fulfilmentMs "
    "FROM Orders "
    "JOIN Fills ON Orders.rowtime BETWEEN "
    "Fills.rowtime - INTERVAL '5' SECOND AND "
    "Fills.rowtime + INTERVAL '5' SECOND "
    "AND Orders.orderId = Fills.orderId "
    "JOIN Shipments ON Orders.rowtime BETWEEN "
    "Shipments.rowtime - INTERVAL '5' SECOND AND "
    "Shipments.rowtime + INTERVAL '5' SECOND "
    "AND Fills.orderId = Shipments.orderId"
)

#: The fig 5c join (Listing 8): a lookup stage of the fused function.
RELATION_JOIN_SQL = (
    "SELECT STREAM Orders.rowtime, Orders.orderId, Orders.productId, "
    "Orders.units, Products.supplierId FROM Orders JOIN Products "
    "ON Orders.productId = Products.productId"
)

_BROKER_CHAOS = {"transient": 5, CONTAINER_CRASH: 1, ZK_EXPIRE: 1}

SCENARIOS: dict[str, Scenario] = {
    # Broker errors, latency, an unavailable partition, a container
    # crash and a ZooKeeper session expiry against the window query, run
    # as a stage of the fused function.
    "window": Scenario(
        WINDOW_SQL, (("Orders", ORDERS_SCHEMA),), "productId", _orders_feed,
        minimum=_BROKER_CHAOS, explain="× compiled"),
    # The same schedule against two windows in one fused chain.
    "nested-window": Scenario(
        NESTED_WINDOW_SQL, (("Orders", ORDERS_SCHEMA),), "productId",
        _orders_feed, minimum=_BROKER_CHAOS, explain="× compiled"),
    # The same schedule against the fused relation join: a relaunch fills
    # the join's decoded rows from the restored relation store.
    "relation-join": Scenario(
        RELATION_JOIN_SQL, (("Orders", ORDERS_SCHEMA),), "productId",
        _catalog_feed, minimum=_BROKER_CHAOS, explain="× compiled",
        tables=(("Products", PRODUCTS_SCHEMA, "productId"),)),
    # The same schedule against the collapsed 3-way join's shared stores.
    "multiway": Scenario(
        MULTIWAY_SQL,
        (("Orders", ORDERS_SCHEMA),)
        + tuple((s, order_stage_schema(s)) for s in ("Fills", "Shipments")),
        "orderId", _lifecycle_feed, minimum=_BROKER_CHAOS,
        explain="multi-way join: collapsed 3 inputs"),
    # SIGKILL forked workers mid-run; the process boundary is the system
    # under test, so the brokers stay healthy.
    "worker-kill": Scenario(
        WINDOW_SQL, (("Orders", ORDERS_SCHEMA),), "productId", _orders_feed,
        faults=dict(transient_faults=0, latency_faults=0, crashes=0,
                    zk_expiries=0, unavailability_windows=0,
                    worker_kills=2, worker_kill_range=(2, 8)),
        minimum={WORKER_KILL: 1}, parallel=True, explain="× compiled"),
}


@dataclass
class ValidationReport:
    """Audit of one chaos run against the table query."""

    scenario: str
    seed: int
    inputs: int
    table_rows: int              # rows of the same SQL without STREAM
    distinct: int                # distinct emitted rows
    lost: list[str]              # table rows never emitted (canonical JSON)
    unexpected: list[str]        # emitted rows the table query does not return
    duplicates: int              # emissions beyond the first of each row
    faults: dict[str, int]       # fired, per kind, plus the "transient" total
    minimum: dict[str, int]
    restarts: int
    restored_entries: int        # store entries the relaunches restored
    changelogs: dict[str, int]   # records in each store changelog, by topic
    explained: bool              # EXPLAIN printed the scenario's line
    fingerprint: str
    events_blob: bytes = field(repr=False)
    outputs_blob: bytes = field(repr=False)
    replay_identical: bool | None = None  # set by a --replay-check rerun

    @property
    def table_equal(self) -> bool:
        return not self.lost and not self.unexpected

    def meets_criteria(self) -> bool:
        """Did the faults fire, a relaunch restore state, every store log?"""
        return (self.explained and self.restarts >= 1
                and self.restored_entries > 0
                and all(records > 0 for records in self.changelogs.values())
                and all(self.faults.get(kind, 0) >= count
                        for kind, count in self.minimum.items()))

    def to_dict(self) -> dict[str, object]:
        payload = {name: value for name, value in asdict(self).items()
                   if not name.endswith("_blob")}
        payload.update(table_equal=self.table_equal,
                       meets_criteria=self.meets_criteria())
        return payload

    def summary(self) -> str:
        verdict = "VERIFIED" if self.table_equal else "VIOLATION"
        replay = {None: [], True: ["  replay determinism: byte-identical"],
                  False: ["  replay determinism: MISMATCH"]}
        return "\n".join([
            f"chaos validation ({self.scenario}, seed {self.seed}): "
            f"stream = table {verdict}",
            f"  inputs: {self.inputs}; table query: {self.table_rows} rows",
            f"  outputs: {self.distinct + self.duplicates} emissions, "
            f"{self.distinct} distinct ({self.duplicates} duplicate emissions)",
            f"  lost: {len(self.lost)}, unexpected: {len(self.unexpected)}"
            + "".join(f"\n    - {row}" for row in self.lost[:3])
            + "".join(f"\n    + {row}" for row in self.unexpected[:3]),
            f"  faults fired: {self.faults}",
            f"  recovery: {self.restarts} container restart(s), "
            f"{self.restored_entries} restored entries",
            f"  changelog records: {self.changelogs}",
            f"  criteria {'met' if self.meets_criteria() else 'UNMET'}: "
            f"faults {self.minimum}, a restart, a restore, no empty changelog"
            + ("" if self.explained else "; the EXPLAIN line is MISSING"),
            f"  schedule fingerprint: {self.fingerprint[:16]}…",
        ] + replay[self.replay_identical])


def _canonical(row: dict) -> str:
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


def restored_entries(master) -> int:
    """Store entries the job's containers restored from changelogs when
    they opened — under parallel execution a relaunch restores into the
    parent-side container before the fork, so those count too."""
    return int(sum(gauge.value for container in master.samza_containers.values()
                   for _, metric, gauge in container.metrics.gauges()
                   if metric == "restored-entries"))


def run_scenario(name: str = "window", seed: int = 42, orders: int = 300,
                 containers: int = 2, partitions: int = 4) -> ValidationReport:
    """One full chaos run of ``SCENARIOS[name]``: build, feed, inject,
    supervise, audit against the table query."""
    scenario = SCENARIOS[name]
    clock = SystemClock() if scenario.parallel else VirtualClock(0)
    schedule = FaultSchedule.from_seed(seed, partitions=partitions,
                                       **scenario.faults)
    injector = FaultInjector(schedule, clock=clock)
    # Worker kills fire from the supervisor alone; an armed broker appends
    # one record at a time, off the batched path the mesh uses.
    armed = replace(schedule, worker_kills=()) != FaultSchedule()
    env = SamzaSqlEnvironment(
        broker_count=3, node_count=2, node_mem_mb=61_000, clock=clock,
        fault_injector=injector if armed else None, metrics_interval_ms=1_000,
        config={"cluster.parallel.execution": str(scenario.parallel).lower()})
    shell = env.shell
    try:
        targets = {}  # fed name -> (topic, key field, serde)
        for stream, schema in scenario.streams:
            shell.register_stream(stream, schema, partitions=partitions)
            targets[stream] = (stream, scenario.key, AvroSerde(schema))
        for table, schema, key in scenario.tables:
            topic = shell.register_table(table, schema, key_field=key,
                                         partitions=partitions).changelog_topic
            targets[table] = (topic, key, AvroSerde(schema))
        producer = Producer(env.cluster)
        feed = list(scenario.feed(seed, orders))
        for fed, record in feed:
            topic, key, serde = targets[fed]
            value = None if record.keys() == {key} else serde.to_bytes(record)
            producer.send(topic, value, key=str(record[key]).encode(),
                          timestamp_ms=record.get("rowtime"))
        # EXPLAIN and the feed are fixture set-up: arm the brokers after.
        explained = (scenario.explain is None or scenario.explain
                     in shell.execute("EXPLAIN " + scenario.sql))
        if armed:
            env.cluster.install_fault_injector(injector)

        # Commit every 10 messages, so a relaunch has logged state to restore.
        handle = shell.execute(scenario.sql, containers=containers,
                               config_overrides={
                                   "task.checkpoint.interval.messages": 10,
                                   "task.poll.batch.size": 25,
                               })
        supervisor = ChaosSupervisor(env.runner, injector, zk=env.zk)
        supervisor.run_until_quiescent(max_iterations=1_000_000)

        with injector.suspended():
            emitted = [_canonical(row) for row in handle.results()]
            table = {_canonical(row) for row in shell.execute(
                scenario.sql.replace("SELECT STREAM", "SELECT", 1))}
        restored = restored_entries(handle.master)
        changelogs = {topic: sum(
            env.cluster.latest_offset(tp) - env.cluster.earliest_offset(tp)
            for tp in env.cluster.partitions_for(topic))
            for topic in handle.master.job.changelog_topics()}
    finally:
        env.close()

    distinct = set(emitted)
    faults = injector.fault_counts()
    faults["transient"] = injector.transient_fault_count()
    return ValidationReport(
        scenario=name, seed=seed, inputs=len(feed),
        table_rows=len(table), distinct=len(distinct),
        lost=sorted(table - distinct), unexpected=sorted(distinct - table),
        duplicates=len(emitted) - len(distinct), faults=faults,
        minimum=dict(scenario.minimum), restarts=supervisor.restarts,
        restored_entries=restored, changelogs=changelogs, explained=explained,
        fingerprint=injector.fingerprint(), events_blob=injector.events_blob(),
        outputs_blob="\n".join(sorted(distinct)).encode("utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos.validate",
        description="Streaming output under seeded fault injection, "
                    "audited against the same SQL without STREAM.")
    parser.add_argument("--scenario", choices=sorted(SCENARIOS),
                        default="window")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--orders", type=int, default=300)
    parser.add_argument("--containers", type=int, default=2)
    parser.add_argument("--partitions", type=int, default=4)
    parser.add_argument("--replay-check", action="store_true",
                        help="run the scenario twice and require identical "
                             "distinct outputs and (virtual clock) fault logs")
    parser.add_argument("--json", action="store_true",
                        help="emit the report as JSON instead of text")
    args = parser.parse_args(argv)
    run = partial(run_scenario, args.scenario, seed=args.seed,
                  orders=args.orders, containers=args.containers,
                  partitions=args.partitions)
    report = run()
    if args.replay_check:
        second = run()
        # SIGKILL timing is real time; only the output content must replay.
        report.replay_identical = (
            second.outputs_blob == report.outputs_blob
            and (SCENARIOS[args.scenario].parallel
                 or second.events_blob == report.events_blob))
    print(json.dumps(report.to_dict(), indent=2) if args.json
          else report.summary())
    return 0 if (report.table_equal and report.meets_criteria()
                 and report.replay_identical is not False) else 1


if __name__ == "__main__":
    sys.exit(main())
