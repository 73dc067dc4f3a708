"""Samza jobs: partition assignment, the per-job YARN master, the runner.

A :class:`SamzaJob` describes what to run (config + task factory + serde
registry); the :class:`SamzaApplicationMaster` is the job's own YARN
master — it requests one YARN container per ``job.container.count``,
launches a :class:`SamzaContainer` in each, and replaces failed
containers, re-attaching their task groups so state restores from the
changelog and input resumes from the last checkpoint.

Partition assignment follows Samza's *GroupByPartitionId*: task *i*
consumes partition *i* of every input stream (streams are assumed
co-partitioned, as the paper assumes for joins), and tasks are dealt
round-robin to containers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chaos.retry import RetryPolicy
from repro.common.clock import Clock, SystemClock
from repro.common.config import Config
from repro.common.errors import ConfigError
from repro.common.execution import parallel_execution
from repro.kafka.cluster import KafkaCluster
from repro.samza.checkpoint import CheckpointManager
from repro.samza.container import SamzaContainer, TaskModel
from repro.samza.serdes import SerdeRegistry
from repro.samza.system import SystemStream, SystemStreamPartition
from repro.yarn.app import ApplicationMaster
from repro.yarn.container import Container, ContainerState
from repro.yarn.resources import Resource
from repro.yarn.rm import ResourceManager


@dataclass
class SamzaJob:
    """A deployable streaming job."""

    config: Config
    task_factory: object  # zero-arg callable returning a StreamTask
    serdes: SerdeRegistry = field(default_factory=SerdeRegistry)

    @property
    def name(self) -> str:
        return self.config.get_str("job.name")

    @property
    def container_count(self) -> int:
        return self.config.get_int("job.container.count", 1)

    def input_streams(self) -> list[SystemStream]:
        return [SystemStream.parse(text) for text in self.config.get_list("task.inputs")]

    def container_resource(self) -> Resource:
        return Resource(
            memory_mb=self.config.get_int("cluster.container.memory.mb", 1024),
            vcores=self.config.get_int("cluster.container.cpu.cores", 1),
        )

    # -- partition assignment --------------------------------------------------------

    def build_task_models(self, cluster: KafkaCluster) -> list[TaskModel]:
        """GroupByPartitionId: task i <- partition i of each input stream."""
        inputs = self.input_streams()
        if not inputs:
            raise ConfigError(f"job {self.name!r} has no task.inputs")
        partition_counts = {
            ss: cluster.topic(ss.stream).partition_count for ss in inputs
        }
        task_count = max(partition_counts.values())
        models: list[TaskModel] = []
        for i in range(task_count):
            ssps = frozenset(
                SystemStreamPartition(ss.system, ss.stream, i)
                for ss in inputs
                if i < partition_counts[ss]
            )
            models.append(TaskModel(task_name=f"Partition {i}", partition_id=i, ssps=ssps))
        return models

    def group_tasks(self, models: list[TaskModel]) -> list[list[TaskModel]]:
        """Deal tasks round-robin into ``job.container.count`` groups."""
        count = min(self.container_count, len(models)) or 1
        groups: list[list[TaskModel]] = [[] for _ in range(count)]
        for index, model in enumerate(models):
            groups[index % count].append(model)
        return groups

    def changelog_topics(self) -> list[str]:
        """Topics declared as store changelogs in the job config."""
        topics = []
        for key in self.config:
            if key.startswith("stores.") and key.endswith(".changelog"):
                value = self.config[key]
                topics.append(value.split(".", 1)[1] if "." in value else value)
        return sorted(set(topics))


class SamzaApplicationMaster(ApplicationMaster):
    """The job's own master: container requests + failure recovery."""

    def __init__(self, job: SamzaJob, cluster: KafkaCluster,
                 checkpoint_manager: CheckpointManager, clock: Clock,
                 fault_injector=None):
        self.job = job
        self.cluster = cluster
        self.checkpoints = checkpoint_manager
        self.clock = clock
        self.fault_injector = fault_injector
        self.container_restarts = 0
        self.samza_containers: dict[str, SamzaContainer] = {}
        self._unassigned_groups: list[list[TaskModel]] = []
        self._group_by_container: dict[str, list[TaskModel]] = {}
        self._rm = None
        self._next_samza_container = 0
        self.finished = False
        # Set by JobRunner.submit under cluster.parallel.execution=true:
        # a repro.parallel.ParallelJobCoordinator that runs this job's
        # containers in forked worker processes.  When present, driving,
        # lag accounting and shutdown delegate to it.
        self.parallel_coordinator = None

    # -- ApplicationMaster protocol --------------------------------------------------

    def on_start(self, rm) -> None:
        self._rm = rm
        models = self.job.build_task_models(self.cluster)
        # Pre-create changelog topics, partitioned per task, compacted.
        for topic in self.job.changelog_topics():
            self.cluster.create_topic(
                topic, partitions=len(models), cleanup_policy="compact",
                if_not_exists=True,
            )
        self._unassigned_groups = self.job.group_tasks(models)
        rm.request_containers(
            self.application_id, len(self._unassigned_groups),
            self.job.container_resource(),
        )

    def on_containers_allocated(self, containers: list[Container]) -> None:
        for yarn_container in containers:
            if not self._unassigned_groups:
                self._rm.release_container(yarn_container.container_id)
                continue
            group = self._unassigned_groups.pop(0)
            samza_container = SamzaContainer(
                container_id=f"{self.application_id}-samza-{self._next_samza_container}",
                config=self.job.config,
                cluster=self.cluster,
                serdes=self.job.serdes,
                task_models=group,
                task_factory=self.job.task_factory,
                checkpoint_manager=self.checkpoints,
                clock=self.clock,
                fault_injector=self.fault_injector,
            )
            self._next_samza_container += 1
            samza_container.start()
            yarn_container.payload = samza_container
            self.samza_containers[yarn_container.container_id] = samza_container
            self._group_by_container[yarn_container.container_id] = group

    def on_container_completed(self, container: Container) -> None:
        group = self._group_by_container.pop(container.container_id, None)
        self.samza_containers.pop(container.container_id, None)
        if (container.state is ContainerState.FAILED and group is not None
                and not self.finished):
            # Re-request a replacement; its tasks restore state from the
            # changelog and resume input from the last checkpoint.
            self.container_restarts += 1
            self._unassigned_groups.append(group)
            self._rm.request_containers(
                self.application_id, 1, self.job.container_resource())

    # -- driving -------------------------------------------------------------------------

    def run_iteration(self) -> int:
        if self.parallel_coordinator is not None:
            return self.parallel_coordinator.pump()
        processed = 0
        for samza_container in list(self.samza_containers.values()):
            if not samza_container.shutdown_requested:
                processed += samza_container.run_iteration()
        return processed

    def total_lag(self) -> int:
        if self.parallel_coordinator is not None:
            return self.parallel_coordinator.total_lag()
        return sum(c.total_lag() for c in self.samza_containers.values())

    def all_shutdown(self) -> bool:
        if self.parallel_coordinator is not None:
            return self.parallel_coordinator.all_shutdown()
        return bool(self.samza_containers) and all(
            c.shutdown_requested for c in self.samza_containers.values())

    def finish(self, succeeded: bool = True) -> None:
        if self.finished:
            return
        self.finished = True
        if self.parallel_coordinator is not None:
            # Workers own the real state: stop them gracefully (final
            # commit + metrics mirrored to the parent cluster).  The
            # parent-side containers never initialized their tasks and
            # must NOT commit — a parent-side checkpoint would append
            # stale offsets after the workers' final checkpoints.
            self.parallel_coordinator.shutdown_all()
            for samza_container in self.samza_containers.values():
                samza_container.shutdown_requested = True
        else:
            for samza_container in self.samza_containers.values():
                if not samza_container.shutdown_requested:
                    samza_container.stop()
        self._rm.finish_application(self.application_id, succeeded)


class JobRunner:
    """Submits jobs to YARN and cooperatively drives their containers.

    This is the in-process equivalent of Samza's YARN client plus the
    cluster actually executing: ``run_until_quiescent`` advances every
    running job until all input is drained, which tests and benchmarks use
    to run a bounded workload to completion.
    """

    def __init__(self, cluster: KafkaCluster, rm: ResourceManager,
                 clock: Clock | None = None, fault_injector=None):
        self.cluster = cluster
        self.rm = rm
        self.clock = clock or SystemClock()
        self.fault_injector = fault_injector
        self._masters: dict[str, SamzaApplicationMaster] = {}

    def submit(self, job: SamzaJob) -> SamzaApplicationMaster:
        parallel = parallel_execution(job.config, self.clock)
        # Checkpoint IO rides the same transient-error retry as the data
        # plane — a dropped checkpoint write must not widen the replay
        # window, and a dropped read must not fail a container restart.
        checkpoint_manager = CheckpointManager(
            self.cluster, job.name,
            retry_policy=RetryPolicy(clock=self.clock))
        master = SamzaApplicationMaster(job, self.cluster, checkpoint_manager,
                                        self.clock, self.fault_injector)
        app_id = self.rm.submit_application(job.name, master)
        self._masters[app_id] = master
        if parallel:
            # Imported lazily: repro.parallel sits above the samza layer.
            from repro.parallel.coordinator import ParallelJobCoordinator

            master.parallel_coordinator = ParallelJobCoordinator(master, self)
        return master

    def masters(self) -> list[SamzaApplicationMaster]:
        return list(self._masters.values())

    def run_iteration(self) -> int:
        processed = 0
        for master in self._masters.values():
            if not master.finished:
                processed += master.run_iteration()
        return processed

    def run_until_quiescent(self, max_iterations: int = 10_000,
                            settle_rounds: int = 2) -> int:
        """Drive all jobs until no progress and no lag; returns total processed.

        ``settle_rounds`` consecutive empty rounds with zero lag are required
        before declaring quiescence (an iteration can legitimately process
        nothing while a bootstrap phase flips over).
        """
        total = 0
        idle = 0
        for _ in range(max_iterations):
            processed = self.run_iteration()
            total += processed
            if processed == 0 and all(
                    m.total_lag() == 0 for m in self._masters.values() if not m.finished):
                idle += 1
                if idle >= settle_rounds:
                    self.finalize_parallel_jobs()
                    return total
            else:
                idle = 0
        raise RuntimeError(
            f"jobs did not quiesce within {max_iterations} iterations")

    def finalize_parallel_jobs(self) -> None:
        """Commit barrier on every process-backed job: quiescence must
        leave worker state durable in the parent's mirrored topics (the
        in-process path commits inside run_iteration; workers only commit
        on their own interval unless told)."""
        for master in self._masters.values():
            coordinator = master.parallel_coordinator
            if coordinator is not None and not master.finished:
                coordinator.commit_barrier()

    def kill_container(self, master: SamzaApplicationMaster, index: int = 0) -> str:
        """Fail the index-th live container of a job (fault injection)."""
        container_ids = sorted(master.samza_containers)
        victim = container_ids[index]
        self.rm.fail_container(victim, "injected failure")
        return victim
