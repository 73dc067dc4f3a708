"""Process-backed execution: the same end-to-end scenarios, real processes.

``cluster.parallel.execution=true`` reruns the integration suite with
every container forked into its own OS process hosting a shared-nothing
broker shard, mirrored back to the parent over framed pipes.  The suite
is parametrized over ``task.poll.batch.size`` (200 and 1) as well, so
every combination of (execution mode, poll size) produces identical results.

Also here: the frame codec unit tests, the golden-value regressions the
parallel mode depends on (canonical plan JSON, the FNV-1a partitioner),
the clock-compatibility errors, and worker kill/relaunch recovery.
"""

import json

import pytest

from repro.common import ConfigError, SystemClock, VirtualClock
from repro.kafka.message import TopicPartition
from repro.kafka.producer import _fnv1a, hash_partitioner
from repro.parallel.frames import decode_frame, encode_frame
from repro.samzasql.physical import PhysicalPlan
from repro.samzasql.plan_builder import PhysicalPlanBuilder

from tests import test_samzasql_integration as integration
from tests.samzasql_fixtures import Deployment


@pytest.fixture(autouse=True, params=["200", "1"],
                ids=["batched", "single-message"])
def parallel_mode(request, monkeypatch):
    """Force every Deployment in this module into parallel execution and
    reap the forked workers after each test (idle workers would otherwise
    outlive the whole pytest run)."""
    instances = []
    original_init = Deployment.__init__

    def tracking_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        instances.append(self)

    monkeypatch.setattr(Deployment, "default_overrides", {
        "cluster.parallel.execution": "true",
        "task.poll.batch.size": request.param,
    })
    monkeypatch.setattr(Deployment, "__init__", tracking_init)
    yield request.param
    for deployment in instances:
        for master in deployment.runner.masters():
            if not master.finished:
                master.finish()


# -- the integration suite, re-run across process boundaries ------------------


class TestParallelFilter(integration.TestFilterQuery):
    pass


class TestParallelProject(integration.TestProjectQuery):
    pass


class TestParallelStreamRelationJoin(integration.TestStreamRelationJoin):
    pass


class TestParallelSlidingWindow(integration.TestSlidingWindowQuery):
    pass


class TestParallelStreamStreamJoin(integration.TestStreamStreamJoin):
    pass


class TestParallelGroupWindows(integration.TestGroupWindows):
    pass


class TestParallelInsertInto(integration.TestInsertInto):
    pass


class TestParallelStreamTableEquivalence(integration.TestStreamTableEquivalence):
    pass


# -- parallel vs in-process equivalence ---------------------------------------


class TestModeEquivalence:
    SQL = ("SELECT STREAM rowtime, productId, orderId, units, SUM(units) OVER "
           "(PARTITION BY productId ORDER BY rowtime RANGE INTERVAL '5' MINUTE "
           "PRECEDING) unitsLastFiveMinutes FROM Orders")

    def test_same_outputs_as_in_process(self):
        parallel = Deployment().with_orders(120)
        in_process = Deployment().with_orders(120)
        a = parallel.run(self.SQL, containers=2).results()
        b = in_process.run(self.SQL, containers=2, config_overrides={
            "cluster.parallel.execution": "false"}).results()
        key = lambda r: r["orderId"]
        assert sorted(a, key=key) == sorted(b, key=key)


# -- worker kill + relaunch ---------------------------------------------------


class TestWorkerRelaunch:
    SQL = ("SELECT STREAM rowtime, productId, orderId, units, SUM(units) OVER "
           "(PARTITION BY productId ORDER BY rowtime RANGE INTERVAL '5' MINUTE "
           "PRECEDING) unitsLastFiveMinutes FROM Orders")

    def test_sigkill_mid_run_recovers_at_least_once(self):
        deployment = Deployment(partitions=4).with_orders(200)
        handle = deployment.run(self.SQL, containers=2, config_overrides={
            "task.checkpoint.interval.messages": 40,
            "task.poll.batch.size": 25})
        # run() drained the initial input; now kill a live worker and feed
        # a second wave so the replacement has real work.
        coordinator = handle.master.parallel_coordinator
        assert coordinator is not None
        victim = coordinator.kill_worker()
        assert victim is not None
        deployment.feed_orders(100, start_ts=2_000_000, start_id=500)
        deployment.runner.run_until_quiescent(max_iterations=1_000_000)
        assert coordinator.relaunches >= 1
        assert handle.master.container_restarts >= 1
        ids = {r["orderId"] for r in handle.results()}
        assert set(range(200)) <= ids
        assert set(range(500, 600)) <= ids
        # duplicates allowed (at-least-once), inconsistencies are not
        by_id = {}
        for r in handle.results():
            previous = by_id.setdefault(r["orderId"], r)
            assert previous == r


# -- worker loop ---------------------------------------------------------------


class TestWorkerLoop:
    def test_a_pipe_that_is_never_empty_does_not_starve_the_container(self):
        """The parent sends its next status request as soon as a reply
        lands; on two CPUs it is often queued before the worker looks, and
        a worker that drained its pipe before iterating answered status
        requests forever without processing a record."""
        import collections
        from types import SimpleNamespace

        from repro.parallel.worker import _WorkerLoop

        commands, iterations = [], []

        class BusyPipe:
            def poll(self, _timeout=0):
                return True

            def recv_bytes(self):
                return b"status request"

        def handle_command(raw):
            commands.append(raw)
            loop.stopping = len(commands) == 50

        loop = SimpleNamespace(
            stopping=False, _deferred=collections.deque(),
            cmd_conn=BusyPipe(), handle_command=handle_command,
            service_peers=lambda: 0, flush=lambda: None,
            container=SimpleNamespace(
                run_iteration=lambda: iterations.append(1) or 1))
        _WorkerLoop.run(loop)
        assert len(iterations) == len(commands) - 1 == 49


# -- frame codec --------------------------------------------------------------


class TestFrameCodec:
    def test_round_trip(self):
        groups = [
            ("Orders", 2, 4, [(0, 1_000_000, b"k", b"v"),
                              (1, None, None, b""),
                              (2, 5, b"", None)]),
            ("__metrics", 0, 1, []),
        ]
        assert decode_frame(encode_frame(groups)) == groups

    def test_empty_frame(self):
        assert decode_frame(encode_frame([])) == []

    def test_negative_timestamp(self):
        groups = [("t", 0, 1, [(7, -123, None, b"x")])]
        assert decode_frame(encode_frame(groups)) == groups

    def test_none_vs_empty_bytes_distinguished(self):
        groups = [("t", 0, 1, [(0, None, None, b""), (1, None, b"", None)])]
        decoded = decode_frame(encode_frame(groups))
        assert decoded[0][3][0][2] is None and decoded[0][3][0][3] == b""
        assert decoded[0][3][1][2] == b"" and decoded[0][3][1][3] is None


# -- golden regressions the parallel mode depends on --------------------------


#: Canonical plan JSON for the paper's fig5a filter query.  Workers
#: render operators from the trees in exactly these bytes (via
#: ZooKeeper), so the serialization must stay byte-stable across
#: processes and releases.
FILTER_PLAN_GOLDEN = (
    '{"bootstrap_streams":[],"input_streams":["Orders"],"output_stream":'
    '"out","relation_output":false,"root":{"field_names":["rowtime",'
    '"productId","orderId","units"],"field_types":["TIMESTAMP","INTEGER",'
    '"BIGINT","INTEGER"],"inputs":[{"inputs":[{"field_names":["rowtime",'
    '"productId","orderId","units"],"inputs":[],"kind":"scan",'
    '"rowtime_index":0,"stream":"Orders"}],"kind":"filter",'
    '"predicate":{"op":">","operands":[{"input":3,"type":"INTEGER"},'
    '{"literal":50,"type":"INTEGER"}],"type":"BOOLEAN"}}],'
    '"key_field_indexes":null,"kind":"insert","output_stream":"out",'
    '"rowtime_index":0},"stores":{}}'
)


class TestPlanJsonGolden:
    @staticmethod
    def _canonical(plan: PhysicalPlan) -> str:
        return json.dumps(plan.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def _filter_plan(self) -> PhysicalPlan:
        deployment = Deployment().with_orders(0)
        planned = deployment.shell.planner.plan_statement(
            "SELECT STREAM * FROM Orders WHERE units > 50")
        return PhysicalPlanBuilder(deployment.shell.catalog).build(
            planned.plan, "out")

    def test_fig5a_filter_plan_bytes_pinned(self):
        assert self._canonical(self._filter_plan()) == FILTER_PLAN_GOLDEN

    def test_round_trip_is_byte_stable(self):
        blob = self._canonical(self._filter_plan())
        restored = PhysicalPlan.from_dict(json.loads(blob))
        assert self._canonical(restored) == blob

    def test_shell_shares_canonical_bytes_through_zk(self):
        deployment = Deployment().with_orders(5)
        handle = deployment.run("SELECT STREAM * FROM Orders WHERE units > 50")
        path = f"/samza-sql/queries/{handle.query_id}/plan"
        raw, _stat = deployment.shell.zk.get(path)
        payload = json.loads(raw.decode("utf-8"))
        assert raw == json.dumps(payload, sort_keys=True,
                                 separators=(",", ":")).encode("utf-8")


class TestHashPartitionerGolden:
    """FNV-1a must yield the same partition in every process; these pins
    fail if anyone swaps in Python's randomized ``hash`` (or any other
    per-process function) — which would scatter keyed records across
    shard owners."""

    GOLDEN = {
        b"": 0xCBF29CE484222325,
        b"0": 0xAF63AD4C86019CAF,
        b"7": 0xAF63AA4C86019796,
        b"orders": 0x125D9250BE8B4C,
        b"productId-3": 0xCF3D0CF1D8C49FF5,
        b"\x00\x01\x02": 0xD949AA186C0C4928,
    }

    def test_fnv1a_pinned_values(self):
        for key, value in self.GOLDEN.items():
            assert _fnv1a(key) == value, key

    def test_partitioner_pinned_assignments(self):
        assert hash_partitioner(b"0", 4) == 3
        assert hash_partitioner(b"7", 4) == 2
        assert hash_partitioner(b"orders", 4) == 0
        assert hash_partitioner(b"orders", 8) == 4
        assert hash_partitioner(b"productId-3", 8) == 5


# -- clock compatibility ------------------------------------------------------


class TestParallelClockRules:
    def test_environment_auto_selects_system_clock(self):
        from repro.samzasql.environment import SamzaSqlEnvironment

        env = SamzaSqlEnvironment(
            config={"cluster.parallel.execution": "true"},
            metrics_interval_ms=0)
        assert isinstance(env.clock, SystemClock)

    def test_environment_rejects_virtual_clock(self):
        from repro.samzasql.environment import SamzaSqlEnvironment

        with pytest.raises(ConfigError, match="VirtualClock"):
            SamzaSqlEnvironment(
                clock=VirtualClock(0),
                config={"cluster.parallel.execution": "true"})

    def test_submit_rejects_virtual_clock_runner(self):
        deployment = Deployment().with_orders(5)
        deployment.runner.clock = VirtualClock(0)
        with pytest.raises(ConfigError, match="VirtualClock"):
            deployment.run("SELECT STREAM * FROM Orders")
