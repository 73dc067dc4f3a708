"""One-stop SamzaSQL runtime wiring.

Every consumer of the stack used to hand-assemble the same five objects —
virtual clock, Kafka cluster, ZooKeeper, YARN resource manager with its
node managers, job runner — before it could build a shell.  The
environment owns that wiring behind a single constructor::

    env = SamzaSqlEnvironment(broker_count=3, node_count=2)
    env.shell.register_stream("Orders", ORDERS_SCHEMA)
    handle = env.shell.execute("SELECT STREAM ...")
    env.run_until_quiescent()
    records = env.metrics()

Metrics reporting is on by default (interval ``metrics_interval_ms``, set
to 0 to disable): every submitted job publishes registry snapshots to the
``__metrics`` stream, which the environment registers in the catalog so it
is itself queryable with ``SELECT STREAM``.
"""

from __future__ import annotations

from repro.common.clock import Clock, SystemClock, VirtualClock
from repro.common.config import Config
from repro.common.execution import parallel_execution
from repro.kafka.cluster import KafkaCluster
from repro.samza.job import JobRunner
from repro.samzasql.shell import SamzaSQLShell
from repro.sql.catalog import Catalog
from repro.yarn import NodeManager, Resource, ResourceManager
from repro.zk.server import ZkServer

DEFAULT_METRICS_INTERVAL_MS = 1_000


class SamzaSqlEnvironment:
    """The full in-process SamzaSQL stack behind one constructor."""

    def __init__(self, broker_count: int = 3, node_count: int = 2,
                 clock: Clock | None = None,
                 config: dict | Config | None = None,
                 node_mem_mb: int = 16_384, node_cores: int = 8,
                 metrics_interval_ms: int = DEFAULT_METRICS_INTERVAL_MS,
                 start_ms: int = 1_000_000,
                 fault_injector=None,
                 catalog: Catalog | None = None):
        overrides = dict(config) if config is not None else {}
        parallel = parallel_execution(overrides, clock)
        if clock is None:
            # A VirtualClock cannot be shared across forked workers (each
            # process would advance its own copy), so parallel mode runs
            # on real time.
            clock = SystemClock() if parallel else VirtualClock(start_ms)
        self.clock = clock
        self.cluster = KafkaCluster(broker_count=broker_count, clock=self.clock)
        self.zk = ZkServer()
        self.rm = ResourceManager()
        for i in range(node_count):
            self.rm.add_node(
                NodeManager(f"node-{i}", Resource(node_mem_mb, node_cores)))
        self.runner = JobRunner(self.cluster, self.rm, self.clock,
                                fault_injector=fault_injector)
        self.metrics_interval_ms = metrics_interval_ms
        self.shell = SamzaSQLShell(
            self.cluster, self.runner, zk=self.zk, catalog=catalog,
            metrics_interval_ms=metrics_interval_ms,
            default_overrides=overrides)

    @property
    def catalog(self) -> Catalog:
        return self.shell.catalog

    def front_door(self, default_quota=None):
        """The multi-tenant serving layer over this environment's shell.

        Lazily constructed and cached: every caller shares one
        :class:`~repro.serving.frontdoor.FrontDoor` (sessions, virtual
        tables, quotas are global to the environment, like the cluster).
        """
        if getattr(self, "_front_door", None) is None:
            # Imported lazily: repro.serving sits above the samzasql layer.
            from repro.serving.frontdoor import FrontDoor

            self._front_door = FrontDoor(self.shell,
                                         default_quota=default_quota)
        return self._front_door

    # -- drive -----------------------------------------------------------------

    def run_until_quiescent(self, max_iterations: int = 10_000,
                            settle_rounds: int = 2) -> int:
        """Drive every running job until all input is drained."""
        return self.runner.run_until_quiescent(
            max_iterations=max_iterations, settle_rounds=settle_rounds)

    def run_iteration(self) -> int:
        return self.runner.run_iteration()

    def advance(self, delta_ms: int) -> None:
        """Advance virtual time (no-op semantics require a VirtualClock)."""
        self.clock.sleep_ms(delta_ms)

    # -- observability ---------------------------------------------------------

    def metrics(self, job: str | None = None, force: bool = True) -> list[dict]:
        """Latest snapshot records per (job, container) from ``__metrics``."""
        return self.shell.latest_snapshots(job=job, force=force)

    # -- teardown --------------------------------------------------------------

    def close(self) -> None:
        """Finish every running job.  Under parallel execution this stops
        the worker processes (final commit + snapshot mirrored); idle
        workers otherwise outlive the test or benchmark that forked them."""
        for master in self.runner.masters():
            if not master.finished:
                master.finish()

    def __enter__(self) -> "SamzaSqlEnvironment":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
