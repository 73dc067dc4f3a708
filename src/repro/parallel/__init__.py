"""Process-backed parallel execution (``cluster.parallel.execution=true``).

The in-process runtime executes every container cooperatively on one
thread — perfect for determinism, useless for multi-core throughput.
This package adds a second execution mode in which each
:class:`~repro.samza.container.SamzaContainer` runs in its own forked OS
process hosting a *shared-nothing broker shard*: the fork inherits the
whole in-process object graph (cluster, ZooKeeper, config, serdes), so
the partitions a container consumes, its changelog partitions and its
checkpoint log are all served by broker objects living in the worker's
own address space.  The hot consume→DAG→produce loop therefore never
crosses a process boundary.

The data plane is decentralized.  Intermediate keyed traffic — topics
that are one parallel job's input and another's declared output
(``task.outputs``) — is *owner-sequenced*: each partition is owned by the
worker group that consumes it, and producers send record frames directly
worker↔worker over ``AF_UNIX`` peer links (:mod:`repro.parallel.peer`)
with credit-based backpressure.  The parent process keeps only control
plane duties — bootstrap ordering, route-table pushes, commit barriers,
status rounds, relaunch (:mod:`repro.parallel.coordinator`) — plus the
two flows that still need a single sequencer: source-topic input
forwarding and parent-origin ingress, both under a credit window.
Worker output is mirrored to the parent as framed batches
(:mod:`repro.parallel.frames`) whose headers carry apply watermarks, and
that mirrored copy is the durable store a relaunched worker restores
from: a SIGKILLed worker's partitions reassign to a replacement
incarnation, surviving workers retarget their peer links from the
re-pushed route table, and the job keeps running — at-least-once across
SIGKILL, verified by ``repro.chaos.validate --scenario worker-kill``.
"""

from repro.parallel.coordinator import ParallelJobCoordinator, RunnerMesh
from repro.parallel.frames import decode_frame, encode_frame
from repro.parallel.peer import PeerEndpoint, PeerLink

__all__ = [
    "ParallelJobCoordinator",
    "RunnerMesh",
    "PeerEndpoint",
    "PeerLink",
    "encode_frame",
    "decode_frame",
]
