"""Unit tests for the chaos subsystem: retry policy, fault schedules,
injector hook points, and the client-side resilience they exercise."""

import pytest

from repro.chaos import FaultInjector, FaultSchedule, RetryPolicy
from repro.chaos.faults import (
    CONTAINER_CRASH,
    FETCH_ERROR,
    LATENCY,
    PARTITION_UNAVAILABLE,
    PRODUCE_ERROR,
)
from repro.common import (
    ConfigError,
    ContainerCrashError,
    RetryExhaustedError,
    TransientKafkaError,
    VirtualClock,
    ZkSessionExpiredError,
)
from repro.kafka import Consumer, KafkaCluster, Producer
from repro.kafka.message import TopicPartition
from repro.zk.client import ZkClient
from repro.zk.server import ZkServer


class TestRetryPolicy:
    def test_success_passes_through(self):
        policy = RetryPolicy(clock=VirtualClock(0))
        assert policy.call(lambda: 42) == 42
        assert policy.retry_count == 0

    def test_transient_errors_retried_until_success(self):
        clock = VirtualClock(0)
        policy = RetryPolicy(max_attempts=5, clock=clock)
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientKafkaError("hiccup")
            return "ok"

        assert policy.call(flaky) == "ok"
        assert len(attempts) == 3
        assert policy.retry_count == 2
        assert policy.total_backoff_ms > 0
        assert clock.now_ms() > 0  # backoff slept through the injected clock

    def test_exhaustion_wraps_last_error(self):
        policy = RetryPolicy(max_attempts=3, clock=VirtualClock(0))
        calls = []

        def always_fails():
            calls.append(1)
            raise TransientKafkaError("still down")

        with pytest.raises(RetryExhaustedError) as excinfo:
            policy.call(always_fails)
        assert len(calls) == 3
        assert isinstance(excinfo.value.__cause__, TransientKafkaError)
        assert policy.exhausted_count == 1

    def test_non_retryable_propagates_immediately(self):
        policy = RetryPolicy(clock=VirtualClock(0))

        def bad():
            raise ValueError("permanent")

        with pytest.raises(ValueError):
            policy.call(bad)
        assert policy.retry_count == 0

    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(base_backoff_ms=10, multiplier=2.0,
                             max_backoff_ms=80, jitter=0.0,
                             clock=VirtualClock(0))
        assert [policy.backoff_ms(a) for a in range(1, 6)] == [10, 20, 40, 80, 80]

    def test_jitter_is_deterministic_per_seed(self):
        mk = lambda: RetryPolicy(base_backoff_ms=100, jitter=0.2, seed=7,
                                 clock=VirtualClock(0))
        a, b = mk(), mk()
        seq_a = [a.backoff_ms(1) for _ in range(5)]
        seq_b = [b.backoff_ms(1) for _ in range(5)]
        assert seq_a == seq_b
        assert all(80 <= d <= 120 for d in seq_a)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ConfigError):
            RetryPolicy(base_backoff_ms=-1)


class TestFaultSchedule:
    def test_from_seed_is_deterministic(self):
        assert (FaultSchedule.from_seed(42).to_dict()
                == FaultSchedule.from_seed(42).to_dict())
        assert (FaultSchedule.from_seed(1).to_dict()
                != FaultSchedule.from_seed(2).to_dict())

    def test_from_seed_honours_counts(self):
        schedule = FaultSchedule.from_seed(
            7, transient_faults=6, latency_faults=2, crashes=2, zk_expiries=1)
        assert schedule.planned_transient_faults() == 6
        assert len(schedule.latency_ms) == 2
        assert len(schedule.crash_points) == 2
        assert len(schedule.zk_expiries) == 1

    def test_script_builder(self):
        schedule = (FaultSchedule.script()
                    .add_fetch_fault(3, 5)
                    .add_produce_fault(2)
                    .add_latency(4, 30)
                    .add_crash(10)
                    .add_zk_expiry(2)
                    .add_unavailability(6, 8, partition=1))
        assert schedule.fetch_faults == frozenset({3, 5})
        assert schedule.produce_faults == frozenset({2})
        assert schedule.latency_ms == {4: 30}
        assert schedule.crash_points == (10,)
        assert schedule.zk_expiries == (2,)
        assert schedule.planned_transient_faults() == 3

    def test_worker_kill_burst(self):
        schedule = (FaultSchedule.script()
                    .add_worker_kill(1)
                    .add_worker_kill_burst(4, count=3, spacing=2))
        assert schedule.worker_kills == (1, 4, 6, 8)
        assert schedule.to_dict()["worker_kills"] == [1, 4, 6, 8]

    def test_worker_kill_burst_rejects_bad_shape(self):
        with pytest.raises(ConfigError):
            FaultSchedule.script().add_worker_kill_burst(2, count=0)
        with pytest.raises(ConfigError):
            FaultSchedule.script().add_worker_kill_burst(2, spacing=0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ConfigError):
            FaultSchedule.from_seed(1, transient_faults=-1)


def make_cluster_with_orders(count=6, partitions=2):
    clock = VirtualClock(0)
    cluster = KafkaCluster(broker_count=2, clock=clock)
    cluster.create_topic("Orders", partitions=partitions)
    producer = Producer(cluster)
    for i in range(count):
        producer.send("Orders", f"v{i}".encode(), key=str(i % partitions).encode())
    return cluster, clock


class TestFaultInjectorHooks:
    def test_scheduled_fetch_fault_raises_from_broker(self):
        cluster, clock = make_cluster_with_orders()
        schedule = FaultSchedule.script().add_fetch_fault(1)
        cluster.install_fault_injector(FaultInjector(schedule, clock=clock))
        tp = TopicPartition("Orders", 0)
        with pytest.raises(TransientKafkaError):
            cluster.fetch(tp, 0)
        # the fault was one-shot: the next fetch (op 2) succeeds
        assert cluster.fetch(tp, 0)

    def test_scheduled_produce_fault_raises_from_broker(self):
        cluster, clock = make_cluster_with_orders()
        schedule = FaultSchedule.script().add_produce_fault(1)
        cluster.install_fault_injector(FaultInjector(schedule, clock=clock))
        tp = TopicPartition("Orders", 0)
        with pytest.raises(TransientKafkaError):
            cluster.produce(tp, b"k", b"v")
        assert cluster.produce(tp, b"k", b"v") >= 0

    def test_latency_fault_advances_the_clock(self):
        cluster, clock = make_cluster_with_orders()
        schedule = FaultSchedule.script().add_latency(1, 25)
        cluster.install_fault_injector(FaultInjector(schedule, clock=clock))
        before = clock.now_ms()
        cluster.fetch(TopicPartition("Orders", 0), 0)
        assert clock.now_ms() == before + 25

    def test_unavailability_window_blocks_only_target_partition(self):
        cluster, clock = make_cluster_with_orders()
        schedule = FaultSchedule.script().add_unavailability(1, 10, partition=0)
        injector = FaultInjector(schedule, clock=clock)
        cluster.install_fault_injector(injector)
        assert cluster.fetch(TopicPartition("Orders", 1), 0)  # unaffected
        with pytest.raises(TransientKafkaError):
            cluster.fetch(TopicPartition("Orders", 0), 0)
        counts = injector.fault_counts()
        assert counts == {PARTITION_UNAVAILABLE: 1}

    def test_suspended_freezes_injection_and_counters(self):
        cluster, clock = make_cluster_with_orders()
        schedule = FaultSchedule.script().add_fetch_fault(1, 2, 3)
        injector = FaultInjector(schedule, clock=clock)
        cluster.install_fault_injector(injector)
        with injector.suspended():
            cluster.fetch(TopicPartition("Orders", 0), 0)
            assert injector.fetch_ops == 0
        with pytest.raises(TransientKafkaError):
            cluster.fetch(TopicPartition("Orders", 0), 0)

    def test_container_crash_hook(self):
        injector = FaultInjector(FaultSchedule.script().add_crash(3))
        injector.on_processed("c-0")
        injector.on_processed("c-0")
        with pytest.raises(ContainerCrashError):
            injector.on_processed("c-0")
        # one-shot: processing continues after the scheduled point
        injector.on_processed("c-0")
        assert injector.fault_counts() == {CONTAINER_CRASH: 1}

    def test_events_blob_is_replay_identical(self):
        def run_once():
            cluster, clock = make_cluster_with_orders()
            schedule = (FaultSchedule.script()
                        .add_fetch_fault(2).add_produce_fault(1).add_latency(1, 10))
            injector = FaultInjector(schedule, clock=clock)
            cluster.install_fault_injector(injector)
            tp = TopicPartition("Orders", 0)
            with pytest.raises(TransientKafkaError):
                cluster.produce(tp, b"k", b"v")
            cluster.fetch(tp, 0)
            with pytest.raises(TransientKafkaError):
                cluster.fetch(tp, 0)
            return injector

        first, second = run_once(), run_once()
        assert first.events_blob() == second.events_blob()
        assert first.fingerprint() == second.fingerprint()
        kinds = [e.kind for e in first.events]
        assert kinds == [PRODUCE_ERROR, LATENCY, FETCH_ERROR]


class TestClientRetryIntegration:
    def test_consumer_poll_rides_through_fetch_faults(self):
        cluster, clock = make_cluster_with_orders(count=4, partitions=1)
        schedule = FaultSchedule.script().add_fetch_fault(1, 2)
        cluster.install_fault_injector(FaultInjector(schedule, clock=clock))
        consumer = Consumer(cluster, retry_policy=RetryPolicy(clock=clock))
        consumer.assign([TopicPartition("Orders", 0)])
        records = consumer.poll()
        assert len(records) == 4

    def test_consumer_without_policy_surfaces_fault(self):
        cluster, clock = make_cluster_with_orders(count=4, partitions=1)
        schedule = FaultSchedule.script().add_fetch_fault(1)
        cluster.install_fault_injector(FaultInjector(schedule, clock=clock))
        consumer = Consumer(cluster)
        consumer.assign([TopicPartition("Orders", 0)])
        with pytest.raises(TransientKafkaError):
            consumer.poll()

    def test_producer_send_rides_through_produce_faults(self):
        cluster, clock = make_cluster_with_orders(count=0, partitions=1)
        schedule = FaultSchedule.script().add_produce_fault(1, 2)
        cluster.install_fault_injector(FaultInjector(schedule, clock=clock))
        producer = Producer(cluster, retry_policy=RetryPolicy(clock=clock))
        partition, offset = producer.send("Orders", b"v", key=b"k")
        assert (partition, offset) == (0, 0)

    def test_retry_exhaustion_surfaces_to_caller(self):
        cluster, clock = make_cluster_with_orders(count=2, partitions=1)
        schedule = FaultSchedule.script().add_fetch_fault(*range(1, 20))
        cluster.install_fault_injector(FaultInjector(schedule, clock=clock))
        consumer = Consumer(
            cluster, retry_policy=RetryPolicy(max_attempts=3, clock=clock))
        consumer.assign([TopicPartition("Orders", 0)])
        with pytest.raises(RetryExhaustedError):
            consumer.poll()


class TestConsumerReassignment:
    """Regression tests: reassignment must discard flow-control state."""

    def test_reassign_clears_paused_partitions(self):
        cluster, _ = make_cluster_with_orders(count=4, partitions=2)
        consumer = Consumer(cluster)
        tp0, tp1 = TopicPartition("Orders", 0), TopicPartition("Orders", 1)
        consumer.assign([tp0, tp1])
        consumer.pause(tp0)
        assert consumer.poll() == [] or all(r.partition == 1 for r in consumer.poll())
        consumer.assign([tp0])
        assert consumer.paused() == set()
        # a stale pause flag would starve tp0 here forever
        assert all(r.partition == 0 for r in consumer.poll())
        assert len(consumer.paused()) == 0

    def test_reassign_resets_round_robin_cursor(self):
        cluster, _ = make_cluster_with_orders(count=6, partitions=2)
        consumer = Consumer(cluster, fetch_max_records_per_partition=1)
        tps = [TopicPartition("Orders", 0), TopicPartition("Orders", 1)]
        consumer.assign(tps)
        consumer.poll(max_records=1)
        assert consumer._rr_cursor == 1
        consumer.assign(tps)
        assert consumer._rr_cursor == 0

    def test_reassign_restarts_from_committed_or_earliest(self):
        cluster, _ = make_cluster_with_orders(count=4, partitions=1)
        tp = TopicPartition("Orders", 0)
        consumer = Consumer(cluster, group_id="g1")
        consumer.assign([tp])
        consumer.poll()
        consumer.commit()
        consumer.assign([tp])
        assert consumer.position(tp) == 4  # resumes at the committed offset


class TestZkSessionExpiry:
    def test_expiry_drops_ephemerals_and_raises_typed_error(self):
        server = ZkServer()
        client = ZkClient(server)
        client.ensure_path("/live")
        client.create("/live/c-0", b"up", ephemeral=True)
        server.expire_session(client.session_id)
        assert server.exists("/live/c-0") is None
        with pytest.raises(ZkSessionExpiredError):
            client.get("/live/c-0")

    def test_reconnect_opens_a_fresh_session(self):
        server = ZkServer()
        client = ZkClient(server)
        client.ensure_path("/plans")
        client.write_json("/plans/q1", {"sql": "SELECT 1"})
        old_session = client.session_id
        server.expire_session(old_session)
        client.reconnect()
        assert client.session_id != old_session
        assert client.reconnect_count == 1
        # persistent data survived the expiry; the new session can read it
        assert client.read_json("/plans/q1") == {"sql": "SELECT 1"}

    def test_expire_unknown_session_is_noop(self):
        server = ZkServer()
        server.expire_session(999)
        assert server.live_sessions() == []
