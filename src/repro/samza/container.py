"""SamzaContainer: the per-container run loop.

A container hosts a set of task instances, one consumer over all their
input partitions, and one producer for outputs and changelogs.  The run
loop is cooperative — ``run_iteration`` polls a batch, dispatches each
record to the owning task, fires the window timer, and commits on the
configured interval — so a whole multi-container job can be driven
deterministically from a single thread (tests) or from the discrete-event
cluster simulator (benchmarks).

Bootstrap streams (§2): when any input stream is configured with
``systems.<sys>.streams.<stream>.samza.bootstrap = true``, all
non-bootstrap inputs are paused until every bootstrap partition has been
read up to its high watermark.  This is the substrate for SamzaSQL's
stream-to-relation join (§4.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chaos.retry import RetryPolicy
from repro.common.clock import Clock, SystemClock
from repro.common.config import Config
from repro.common.errors import ConfigError
from repro.common.execution import parallel_execution
from repro.common.metrics import MetricsRegistry
from repro.kafka.cluster import KafkaCluster
from repro.kafka.consumer import Consumer
from repro.kafka.message import TopicPartition
from repro.kafka.producer import Producer, hash_partitioner
from repro.samza.checkpoint import CheckpointManager
from repro.samza.serdes import SerdeRegistry
from repro.samza.storage import KeyValueStore, materialize, open_logged_store
from repro.samza.system import (
    OutgoingMessageEnvelope,
    SystemStreamPartition,
)
from repro.samza.task import MessageCollector, StreamTask, TaskCoordinator
from repro.samza.task_instance import TaskInstance
from repro.serde.object_serde import ObjectSerde

_PARTITION_KEY_SERDE = ObjectSerde()


@dataclass(frozen=True)
class TaskModel:
    """Assignment of one task: its name, id, and input partitions."""

    task_name: str
    partition_id: int
    ssps: frozenset[SystemStreamPartition]


@dataclass
class _StoreSpec:
    name: str
    changelog_stream: str | None
    key_serde: str
    msg_serde: str


_STORE_SUBKEYS = ("changelog", "key.serde", "msg.serde")


def _unlogged(records: list) -> None:
    """The log of a store configured without a changelog."""


class _Coordinator(TaskCoordinator):
    def __init__(self):
        self.commit_requested = False
        self.shutdown_requested = False

    def commit(self) -> None:
        self.commit_requested = True

    def shutdown(self) -> None:
        self.shutdown_requested = True


class _Collector(MessageCollector):
    """Serializes outgoing envelopes and produces them to Kafka."""

    def __init__(self, container: "SamzaContainer"):
        self._container = container

    def send(self, envelope: OutgoingMessageEnvelope) -> None:
        self._container._send_batch([envelope])

    def send_batch(self, envelopes: list[OutgoingMessageEnvelope]) -> None:
        self._container._send_batch(envelopes)

    def send_pre_serialized_batch(self, stream: str, entries: list) -> None:
        self._container._send_pre_serialized_batch(stream, entries)


class SamzaContainer:
    """Hosts task instances and drives their processing loop."""

    def __init__(self, container_id: str, config: Config, cluster: KafkaCluster,
                 serdes: SerdeRegistry, task_models: list[TaskModel],
                 task_factory, checkpoint_manager: CheckpointManager | None = None,
                 clock: Clock | None = None, metrics: MetricsRegistry | None = None,
                 fault_injector=None):
        self.container_id = container_id
        self.config = config
        self.cluster = cluster
        self.serdes = serdes
        self.clock = clock or SystemClock()
        self.metrics = metrics or MetricsRegistry()
        self._task_factory = task_factory
        self._task_models = task_models
        self._checkpoints = checkpoint_manager
        self._fault_injector = fault_injector

        # Transient broker errors are survived by backing off and
        # retrying; only exhaustion fails the container.
        self._retry = RetryPolicy(
            clock=self.clock, metrics=self.metrics,
            group=f"container-{container_id}-retry")
        self._consumer = Consumer(cluster, retry_policy=self._retry)
        self._producer = Producer(cluster, retry_policy=self._retry)
        self._collector = _Collector(self)
        # stream -> {key -> (key_bytes, partition)} for the pre-serialized
        # output lane; see _send_pre_serialized_batch.
        self._key_route_memo: dict[str, dict] = {}
        self._coordinator = _Coordinator()

        self.tasks: dict[str, TaskInstance] = {}
        self._task_by_ssp: dict[SystemStreamPartition, TaskInstance] = {}
        self._input_serdes: dict[str, tuple] = {}  # stream -> (key_serde, msg_serde)
        self._output_serdes: dict[str, tuple] = {}
        self._window_ms = config.get_int("task.window.ms", -1)
        self._commit_interval = config.get_int("task.checkpoint.interval.messages", 500)
        self._batch_size = config.get_int("task.poll.batch.size", 200)
        # Under parallel execution, task init (and with it the SQL job's
        # plan fetch + codegen, once per container) is deferred to the
        # worker process so compilation happens there, from the plan JSON.
        self._parallel_execution = parallel_execution(config)
        self._store_specs = self._parse_store_specs(config)
        self._tasks_initialized = False
        self._messages_since_commit = 0
        self._last_window_ms = 0
        self._started = False
        self.shutdown_requested = False
        # Invoked at the top of every commit().  Process-backed execution
        # installs a gate here: a checkpoint must not be written while
        # records this container produced are still in flight on peer
        # links — a crash after the checkpoint would orphan them.
        self.pre_commit_hook = None

        self._bootstrap_ssps: set[SystemStreamPartition] = set()
        self._bootstrap_active = False

        self._processed = self.metrics.counter(f"container-{container_id}", "processed")
        self._sent = self.metrics.counter(f"container-{container_id}", "sent")
        self._commits = self.metrics.counter(f"container-{container_id}", "commits")
        self._checkpoint_resets = self.metrics.counter(
            f"container-{container_id}", "checkpoint.reset")

        # Metrics snapshot reporter (opt-in): serializes this container's
        # registry to the __metrics stream every interval of virtual time.
        self.metrics_reporter = None
        interval_ms = config.get_int("metrics.reporter.interval.ms", 0)
        if interval_ms > 0:
            from repro.metrics.reporter import MetricsSnapshotReporter

            self.metrics_reporter = MetricsSnapshotReporter(
                job=config.get("job.name", "job"),
                container=container_id,
                registry=self.metrics,
                cluster=cluster,
                clock=self.clock,
                interval_ms=interval_ms,
                producer=self._producer,
            )

    # -- configuration parsing ---------------------------------------------------

    @staticmethod
    def _parse_store_specs(config: Config) -> list[_StoreSpec]:
        specs: list[_StoreSpec] = []
        names = set()
        for key in config:
            parts = key.split(".", 2)
            if parts[0] != "stores" or len(parts) < 3:
                continue
            if parts[2] not in _STORE_SUBKEYS:
                raise ConfigError(
                    f"unknown store config key {key!r}; a store accepts "
                    f"the sub-keys {', '.join(_STORE_SUBKEYS)}")
            names.add(parts[1])
        for name in sorted(names):
            prefix = f"stores.{name}."
            changelog = config.get(prefix + "changelog")
            if changelog is not None and "." in changelog:
                changelog = changelog.split(".", 1)[1]  # strip system name
            specs.append(_StoreSpec(
                name=name,
                changelog_stream=changelog,
                key_serde=config.get(prefix + "key.serde", "object"),
                msg_serde=config.get(prefix + "msg.serde", "object"),
            ))
        return specs

    def _is_bootstrap(self, ssp: SystemStreamPartition) -> bool:
        key = f"systems.{ssp.system}.streams.{ssp.stream}.samza.bootstrap"
        return self.config.get_bool(key, False)

    # -- startup ---------------------------------------------------------------------

    def start(self) -> None:
        """Build tasks, restore state and offsets, begin consuming."""
        if self._started:
            raise ConfigError(f"container {self.container_id} already started")
        all_ssps: set[SystemStreamPartition] = set()
        shared: dict = {}  # every task's TaskContext.container
        for model in self._task_models:
            stores = self._build_stores(model)
            task: StreamTask = self._task_factory()
            instance = TaskInstance(
                model.task_name, model.partition_id, task, set(model.ssps),
                stores, self._checkpoints, metrics=self.metrics,
                serdes=self.serdes, container=shared,
            )
            self.tasks[model.task_name] = instance
            for ssp in model.ssps:
                self._task_by_ssp[ssp] = instance
                all_ssps.add(ssp)

        self._consumer.assign([ssp.topic_partition for ssp in sorted(
            all_ssps, key=lambda s: (s.stream, s.partition))])

        # Restore offsets (checkpoint wins, else earliest) and seek, from
        # one read of the checkpoint topic for the whole container.  A
        # checkpointed offset can be stale: retention may have evicted it
        # (offset below log start) or the topic may have been recreated
        # (offset beyond the high watermark).  Either way the replay
        # contract is "resume from what still exists" — clamp into the
        # valid range and count the reset rather than crash on restore.
        checkpoints = (self._checkpoints.read_checkpoints()
                       if self._checkpoints is not None else {})
        for instance in self.tasks.values():
            earliest = {
                ssp: self.cluster.earliest_offset(ssp.topic_partition)
                for ssp in instance.ssps
            }
            instance.restore_offsets(checkpoints.get(instance.task_name),
                                     earliest)
            for ssp, offset in list(instance.offsets.items()):
                low = earliest[ssp]
                high = self.cluster.latest_offset(ssp.topic_partition)
                if offset < low or offset > high:
                    offset = low if offset < low else high
                    instance.offsets[ssp] = offset
                    self._checkpoint_resets.inc()
                self._consumer.seek(ssp.topic_partition, offset)

        # Resolve input serdes per stream.
        for ssp in all_ssps:
            if ssp.stream not in self._input_serdes:
                self._input_serdes[ssp.stream] = self.serdes.resolve_stream_serdes(
                    self.config, ssp.system, ssp.stream)

        # Bootstrap handling: pause everything that is not a bootstrap input.
        # Bootstrap streams also keep *poll priority* permanently (as in
        # Samza): after catch-up, a changelog record already in the log is
        # always consumed before stream records fetched in the same poll, so
        # relation-cache updates are never reordered behind the round-robin
        # cursor.
        self._bootstrap_ssps = {ssp for ssp in all_ssps if self._is_bootstrap(ssp)}
        if self._bootstrap_ssps:
            self._bootstrap_active = True
            self._consumer.set_priority(
                {ssp.topic_partition for ssp in self._bootstrap_ssps})
            for ssp in all_ssps - self._bootstrap_ssps:
                self._consumer.pause(ssp.topic_partition)

        if not self._parallel_execution:
            self.finish_task_init()

        self._last_window_ms = self.clock.now_ms()
        self._started = True

    def finish_task_init(self) -> None:
        """Initialize every task: the end of :meth:`start`, or under
        parallel execution its second half, run inside the forked worker
        so the SQL job's program is read from the (forked) ZooKeeper and
        compiled in the process that will run it."""
        if self._tasks_initialized:
            return
        for instance in self.tasks.values():
            instance.init(self.config)
        self._tasks_initialized = True

    def _build_stores(self, model: TaskModel) -> dict[str, KeyValueStore]:
        stores: dict[str, KeyValueStore] = {}
        for spec in self._store_specs:
            committed: dict[bytes, bytes] = {}
            log_batch = _unlogged
            if spec.changelog_stream is not None:
                topic = spec.changelog_stream
                committed = self._restore_store(topic, model.partition_id)
                tp = TopicPartition(topic, model.partition_id)

                def log_batch(records: list, _tp=tp) -> None:
                    # One request per store per commit.  A retry re-appends
                    # the batch from its start: keyed upserts, one per key,
                    # so the duplicates are idempotent under restore.
                    now_ms = self.clock.now_ms()
                    stamped = [(key, value, now_ms) for key, value in records]
                    self._retry.call(
                        lambda: self.cluster.produce_batch(_tp, stamped))

            store = open_logged_store(
                committed, self.serdes.get(spec.key_serde),
                self.serdes.get(spec.msg_serde), log_batch)
            group = f"store.{spec.name}.p{model.partition_id}"
            self.metrics.gauge(group, "dirty-entries",
                               fn=lambda s=store: s.dirty_count)
            self.metrics.gauge(group, "flushed-entries",
                               fn=lambda s=store: s.flushed_count)
            self.metrics.gauge(group, "elided-entries",
                               fn=lambda s=store: s.elided_count)
            # Entries the changelog restored when this container opened
            # the store: 0 on a first start, the recovered state after a
            # relaunch.
            self.metrics.gauge(group, "restored-entries",
                               initial=len(committed))
            stores[spec.name] = store
        return stores

    def _restore_store(self, topic: str, partition: int) -> dict[bytes, bytes]:
        """State restore: the changelog partition's content, ``{key bytes:
        value bytes}``, read in one fetch."""
        if not self.cluster.has_topic(topic):
            return {}
        tp = TopicPartition(topic, partition)
        start = self.cluster.earliest_offset(tp)
        messages = self._retry.call(lambda: self.cluster.fetch(tp, start))
        return materialize((message.key, message.value)
                           for message in messages if message.key is not None)

    # -- output path ------------------------------------------------------------------

    def _ensure_topic(self, stream: str) -> None:
        """Auto-create intermediate/output topics, co-partitioned with
        the widest input."""
        if not self.cluster.has_topic(stream):
            partitions = max(
                (self.cluster.topic(ssp.stream).partition_count
                 for ssp in self._task_by_ssp), default=1)
            self.cluster.create_topic(stream, partitions=partitions,
                                      if_not_exists=True)

    def _send_batch(self, envelopes: list[OutgoingMessageEnvelope]) -> None:
        """The envelope output path (a single ``send`` is a batch of one):
        per stream, resolve the serdes and the partition count once, encode
        with the serdes' batch forms, and hand the whole batch to
        ``Producer.send_batch``.

        Pre-serialized envelopes (the serde-fused fast path) carry bytes
        already; they skip encoding entirely — when a whole group is
        pre-serialized no serde is even resolved — while send order within
        the stream is preserved for mixed groups."""
        by_stream: dict[str, list[OutgoingMessageEnvelope]] = {}
        for envelope in envelopes:
            by_stream.setdefault(envelope.system_stream.stream, []).append(envelope)
        for stream, group in by_stream.items():
            self._ensure_topic(stream)
            plain = [e for e in group if not e.pre_serialized]
            if plain:
                if stream not in self._output_serdes:
                    self._output_serdes[stream] = self.serdes.resolve_stream_serdes(
                        self.config, group[0].system_stream.system, stream)
                key_serde, msg_serde = self._output_serdes[stream]
                plain_keys = iter(key_serde.to_bytes_batch([e.key for e in plain]))
                plain_values = iter(msg_serde.to_bytes_batch(
                    [e.message for e in plain]))
            count = self.cluster.topic(stream).partition_count
            to_partition_key = _PARTITION_KEY_SERDE.to_bytes
            now_ms = None
            entries = []
            for envelope in group:
                if envelope.pre_serialized:
                    kb = envelope.key
                    vb = envelope.message
                else:
                    kb = next(plain_keys)
                    vb = next(plain_values)
                partition = None
                if envelope.partition_key is not None:
                    partition = hash_partitioner(
                        to_partition_key(envelope.partition_key), count)
                timestamp = envelope.timestamp_ms
                if timestamp is None:
                    if now_ms is None:
                        now_ms = self.clock.now_ms()
                    timestamp = now_ms
                entries.append((vb, kb, partition, timestamp))
            self._producer.send_batch(stream, entries)
            self._sent.inc(len(entries))

    def _send_pre_serialized_batch(self, stream: str, entries: list) -> None:
        """Fast lane for serde-fused output: each entry is
        ``(message_bytes, timestamp_ms, key)`` straight from the sink's
        buffer, so no :class:`OutgoingMessageEnvelope` is ever built or
        unpacked.  Keys are string-serde encoded and partitions are chosen
        by hashing the object-serde encoding of the key — byte-for-byte
        the routing the envelope path performs.  Both encodings are
        memoized per key: output keys are grouping/join keys, whose
        cardinality is far below the record count.
        """
        self._ensure_topic(stream)
        count = self.cluster.topic(stream).partition_count
        memo = self._key_route_memo.get(stream)
        if memo is None:
            memo = self._key_route_memo[stream] = {}
        to_partition_key = _PARTITION_KEY_SERDE.to_bytes
        now_ms = None
        out = []
        append = out.append
        for message, timestamp_ms, key in entries:
            if key is None:
                kb = partition = None
            else:
                route = memo.get(key)
                if route is None:
                    if len(memo) >= 65536:  # bound unkeyed-cardinality blowup
                        memo.clear()
                    route = memo[key] = (
                        key.encode("utf-8"),
                        hash_partitioner(to_partition_key(key), count))
                kb, partition = route
            if timestamp_ms is None:
                if now_ms is None:
                    now_ms = self.clock.now_ms()
                timestamp_ms = now_ms
            append((message, kb, partition, timestamp_ms))
        self._producer.send_batch(stream, out)
        self._sent.inc(len(out))

    # -- the run loop --------------------------------------------------------------------

    def run_iteration(self) -> int:
        """Process one poll batch; returns the number of records handled."""
        if not self._started:
            raise ConfigError(f"container {self.container_id} not started")
        if not self._tasks_initialized:
            raise ConfigError(
                f"container {self.container_id} tasks not initialized — "
                f"parallel containers must run inside a worker process "
                f"(finish_task_init)")
        if self.shutdown_requested:
            return 0

        if self._bootstrap_active:
            self._maybe_finish_bootstrap()

        handled = self._process_poll()

        self._maybe_fire_window()

        if self.metrics_reporter is not None:
            self.metrics_reporter.maybe_report()

        if (self._coordinator.commit_requested
                or self._messages_since_commit >= self._commit_interval):
            self.commit()

        if self._coordinator.shutdown_requested:
            self.stop()
        return handled

    def _process_poll(self) -> int:
        """Batch-at-a-time loop: task, serdes and decode are resolved once
        per (topic, partition) group, the whole group flows through
        ``TaskInstance.process_batch``, and only then does the per-message
        bookkeeping (counters, fault injection) run for each record.

        Crash points stay per-message: each chunk is capped at the fault
        injector's next crash point, so every message before the point is
        fully processed (output flushed by the task) and nothing past it
        is touched — the crash loses exactly the uncommitted suffix.
        """
        groups = self._consumer.poll_batches(max_records=self._batch_size)
        injector = self._fault_injector
        coordinator = self._coordinator
        handled = 0
        for tp, records in groups:
            ssp = SystemStreamPartition("kafka", tp.topic, tp.partition)
            instance = self._task_by_ssp[ssp]
            raw = tp.topic in instance.raw_streams
            key_serde, msg_serde = self._input_serdes[tp.topic]
            start, total = 0, len(records)
            while start < total:
                limit = total - start
                if injector is not None:
                    until = injector.messages_until_crash()
                    if until is not None and until < limit:
                        limit = until
                chunk = records if limit == total else records[start:start + limit]
                if raw:
                    # Serde-fused task: the generated plan function decodes
                    # (only the columns it needs) — skip both batch decodes.
                    done = instance.process_batch_raw(
                        ssp, chunk, self._collector, coordinator)
                else:
                    keys = key_serde.from_bytes_batch([r.key for r in chunk])
                    messages = msg_serde.from_bytes_batch(
                        [r.value for r in chunk])
                    done = instance.process_batch(
                        ssp, chunk, keys, messages, self._collector, coordinator)
                handled += done
                self._processed.inc(done)
                self._messages_since_commit += done
                if injector is not None:
                    on_processed = injector.on_processed
                    for _ in range(done):
                        # May raise ContainerCrashError: the exception must
                        # escape WITHOUT committing, so work since the last
                        # checkpoint is genuinely lost and the replacement
                        # container replays it.  The chunk cap above
                        # guarantees no message past the crash point has
                        # been processed.
                        on_processed(self.container_id)
                if done < len(chunk) or coordinator.shutdown_requested:
                    return handled
                start += limit
        return handled

    def _maybe_finish_bootstrap(self) -> None:
        caught_up = all(
            self._consumer.lag(ssp.topic_partition) == 0
            for ssp in self._bootstrap_ssps
        )
        if caught_up:
            self._bootstrap_active = False
            for tp in list(self._consumer.paused()):
                self._consumer.resume(tp)

    def _maybe_fire_window(self) -> None:
        if self._window_ms < 0:
            return
        now = self.clock.now_ms()
        if now - self._last_window_ms >= self._window_ms:
            for instance in self.tasks.values():
                instance.window(self._collector, self._coordinator)
            self._last_window_ms = now

    # -- durability / lifecycle --------------------------------------------------------------

    def commit(self) -> None:
        if self.pre_commit_hook is not None:
            self.pre_commit_hook()
        for instance in self.tasks.values():
            instance.commit()
        self._messages_since_commit = 0
        self._coordinator.commit_requested = False
        self._commits.inc()

    def stop(self) -> None:
        if not self._started or self.shutdown_requested:
            self.shutdown_requested = True
            return
        self.commit()
        for instance in self.tasks.values():
            instance.close()
        if self.metrics_reporter is not None:
            # Final snapshot so post-shutdown counters are observable.
            self.metrics_reporter.report()
        self.shutdown_requested = True

    # -- introspection ---------------------------------------------------------------------------

    @property
    def processed_count(self) -> int:
        return self._processed.count

    @property
    def checkpoint_reset_count(self) -> int:
        return self._checkpoint_resets.count

    @property
    def retry_count(self) -> int:
        return self._retry.retry_count

    @property
    def is_bootstrapping(self) -> bool:
        return self._bootstrap_active

    def total_lag(self) -> int:
        return self._consumer.total_lag()
