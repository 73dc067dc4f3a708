"""Per-operator instrumentation: bind a router's operators to a registry.

Called by :class:`~repro.samzasql.task.SamzaSqlTask` at init when the
job's reporter is enabled.  The design keeps the hot path nearly free:

* ``messages-in`` / ``messages-out`` are *live gauges over the operator's
  existing plain-int counters* — nothing extra happens per message, the
  ints are read only when a snapshot is taken;
* ``window-state-size`` gauges call the operator's ``state_size()`` only
  at snapshot time;
* the ``process-ns`` timer is the one true hot-path hook, and it sits
  where a run-time boundary really exists.  A task that runs the
  generated serde-fused function has one boundary — the function
  call — so :class:`~repro.samzasql.compile.CompiledExecutor` times each
  delivered batch itself and records the per-message mean on the chain's
  *leaf* operator (timers are inclusive of everything downstream); the
  other chain operators get no timer.  An interpreted task has a
  boundary per operator, sampled *at the task entry point*: the
  :class:`TimingSampler` counts routed messages and, for a 16-message
  burst out of every 256, flips every operator's ``receive_batch`` onto
  its timed path for just that burst.  Unsampled messages cross zero
  wrappers — the whole DAG runs exactly as it does with metrics off.
"""

from __future__ import annotations

from repro.common.metrics import MetricsRegistry
from repro.metrics.snapshot import OPERATOR_GROUP_PREFIX


def operator_group(op_id: str, partition_id: int) -> str:
    """The registry group for one operator instance: ``operator.<id>.p<n>``.

    The partition suffix keeps instances of the same physical operator in
    different task instances (one per input partition) from colliding in
    the container's shared registry.
    """
    return f"{OPERATOR_GROUP_PREFIX}{op_id}.p{partition_id}"


class TimingSampler:
    """Routes an interpreted task's batches, timing every operator for
    1-in-16 of the messages.

    Every span goes through ``route_batch`` (the interpreted router's);
    for a sampled burst each timed operator's ``receive_batch`` is bound
    to ``_timed_process_batch`` for the duration of that one delivery.
    """

    #: A 16-message burst once per 256 messages: the 1-in-16 sampling
    #: rate, but a poll batch is split at period boundaries instead of at
    #: every 16th message.  Splitting is what sampling costs — each
    #: sub-batch pays the DAG's fixed per-call overhead — and each burst
    #: is routed as one batch, its timers recording the per-message mean.
    BURST_LEN = 16
    BURST_PERIOD_MASK = 255

    __slots__ = ("_route_batch", "_timed_ops", "_tick")

    def __init__(self, route_batch, operators):
        self._route_batch = route_batch
        self._timed_ops = [op for op in operators
                           if op._process_timer is not None]
        self._tick = 0

    def route_batch(self, stream: str, messages: list, timestamps: list) -> None:
        mask = self.BURST_PERIOD_MASK
        burst = self.BURST_LEN
        timed_ops = self._timed_ops
        start = 0
        n = len(messages)
        while start < n:
            pos = self._tick & mask
            if pos >= burst:  # unsampled span: batch until the next period
                stop = min(start + (mask + 1 - pos), n)
                self._tick += stop - start
                self._route_batch(stream, messages[start:stop],
                                  timestamps[start:stop])
            else:  # inside the burst: one batch through timed bindings
                stop = min(start + (burst - pos), n)
                self._tick += stop - start
                for op in timed_ops:
                    op.receive_batch = op._timed_process_batch
                try:
                    self._route_batch(stream, messages[start:stop],
                                      timestamps[start:stop])
                finally:
                    for op in timed_ops:
                        op.receive_batch = op.process_batch
            start = stop


def instrument_operators(operators, registry: MetricsRegistry,
                         partition_id: int = 0, *, timed) -> None:
    """Register metrics for every operator; attach a ``process-ns`` timer
    to those in ``timed`` (the ones with a run-time boundary to time)."""
    for op in operators:
        group = operator_group(op.op_id or op.METRIC_KIND, partition_id)
        registry.gauge(group, "messages-in", fn=lambda op=op: op.processed)
        registry.gauge(group, "messages-out", fn=lambda op=op: op.emitted)
        state_size = getattr(op, "state_size", None)
        if state_size is not None:
            registry.gauge(group, "window-state-size", fn=state_size)
        if hasattr(op, "late_rows"):
            registry.gauge(group, "late-rows", fn=lambda op=op: op.late_rows)
        if op in timed:
            op.enable_timing(registry.timer(group, "process-ns"))
