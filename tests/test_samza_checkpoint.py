"""Tests for checkpoints and their Kafka-topic persistence."""

import pytest

from repro.common import CheckpointError
from repro.kafka import KafkaCluster
from repro.samza import Checkpoint, CheckpointManager
from repro.samza.system import SystemStreamPartition


def ssp(stream, partition=0):
    return SystemStreamPartition("kafka", stream, partition)


class TestCheckpointPayload:
    def test_roundtrip(self):
        cp = Checkpoint({ssp("Orders", 3): 42, ssp("Products", 0): 7})
        restored = Checkpoint.from_payload(cp.to_payload())
        assert restored.offsets == cp.offsets

    def test_stream_name_with_dash(self):
        cp = Checkpoint({ssp("my-stream", 2): 5})
        assert Checkpoint.from_payload(cp.to_payload()).offsets == cp.offsets

    def test_malformed_key_raises(self):
        with pytest.raises(CheckpointError):
            Checkpoint.from_payload({"nodots": 1})


class TestCheckpointManager:
    def test_write_read_latest(self):
        cluster = KafkaCluster()
        manager = CheckpointManager(cluster, "job1")
        manager.write_checkpoint("Partition 0", Checkpoint({ssp("Orders"): 5}))
        manager.write_checkpoint("Partition 0", Checkpoint({ssp("Orders"): 9}))
        restored = manager.read_checkpoints().get("Partition 0")
        assert restored.offsets == {ssp("Orders"): 9}

    def test_unknown_task_is_none(self):
        manager = CheckpointManager(KafkaCluster(), "job1")
        assert manager.read_checkpoints().get("Partition 0") is None

    def test_tasks_isolated(self):
        manager = CheckpointManager(KafkaCluster(), "job1")
        manager.write_checkpoint("Partition 0", Checkpoint({ssp("Orders", 0): 1}))
        manager.write_checkpoint("Partition 1", Checkpoint({ssp("Orders", 1): 2}))
        checkpoints = manager.read_checkpoints()
        assert {task: checkpoint.offsets for task, checkpoint in checkpoints.items()} == {
            "Partition 0": {ssp("Orders", 0): 1}, "Partition 1": {ssp("Orders", 1): 2}}

    def test_survives_compaction(self):
        """The checkpoint topic is compacted; the latest entry per task must
        survive a compaction pass."""
        cluster = KafkaCluster()
        manager = CheckpointManager(cluster, "job1")
        for offset in range(10):
            manager.write_checkpoint("Partition 0", Checkpoint({ssp("Orders"): offset}))
        cluster.run_retention()
        assert manager.read_checkpoints().get("Partition 0").offsets == {ssp("Orders"): 9}

    def test_jobs_use_distinct_topics(self):
        cluster = KafkaCluster()
        m1 = CheckpointManager(cluster, "job1")
        m2 = CheckpointManager(cluster, "job2")
        m1.write_checkpoint("Partition 0", Checkpoint({ssp("Orders"): 1}))
        assert m2.read_checkpoints().get("Partition 0") is None
