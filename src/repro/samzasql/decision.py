"""The one plan-time decision: which path a query's tasks execute.

:func:`decide_execution` is the only place that chooses between the two
paths: the serde-fused function (decode → chain → encode generated as
one function over raw bytes) and the interpreted operator DAG (the
reference router, full decode/encode).  A stateless chain fuses when
:func:`~repro.samzasql.serde_plan.analyze_serde` can inline both of its
serdes; everything else is interpreted, with one ``fallback`` reason.
:class:`~repro.samzasql.task.SamzaSqlTask` builds exactly the executor
the returned :class:`ExecutionDecision` names, and ``EXPLAIN`` prints
that same object computed from the same merged job config — so the
report cannot drift from what runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import Config
from repro.samzasql.compile import chain_fallback
from repro.samzasql.physical import PhysicalPlan
from repro.samzasql.serde_plan import SerdeAnalysis, analyze_serde
from repro.serde.avro import AvroSerde
from repro.serde.base import StringSerde

FUSED = "fused"
INTERPRETED = "interpreted"


@dataclass(frozen=True)
class ExecutionDecision:
    """What one task of the query runs, and why not something faster."""

    path: str                           # FUSED | INTERPRETED
    sampled: bool                       # metrics are on for this job
    fallback: str | None = None         # why INTERPRETED
    serde: SerdeAnalysis | None = None  # pruned columns + encode mode (FUSED)

    @property
    def task_status(self) -> str:
        """``compiled`` / ``interpreted (fallback: <reason>)`` for EXPLAIN."""
        if self.path == INTERPRETED:
            return f"interpreted (fallback: {self.fallback})"
        return "compiled"

    @property
    def serde_status(self) -> str:
        """The EXPLAIN line: pruned columns + decode/encode status."""
        serde = self.serde
        if serde is None:
            return "serde: full decode/encode"
        total = len(serde.required) + len(serde.pruned)
        skip = ", ".join(serde.pruned) if serde.pruned else "none"
        if serde.computed:
            encode = (f"fused ({len(serde.spliced)} spliced, "
                      f"{len(serde.computed)} re-encoded)")
        else:
            encode = "elided (raw byte splice)"
        return (f"serde: decode pruned {len(serde.required)}/{total} columns "
                f"(skip-scan: {skip}), encode {encode}")


def decide_execution(plan: PhysicalPlan, config: Config,
                     serdes) -> ExecutionDecision:
    """Choose the execution path from what the plan needs: its shape, the
    serdes the merged job config binds to its streams (``serdes`` is the
    job's registry, ``None`` when the host has none) and their schemas.
    No setting takes part — nor do metrics: an executor times its own
    batches, so ``sampled`` is recorded on the decision, never read here.
    """
    sampled = config.get_int("metrics.reporter.interval.ms", 0) > 0

    def interpreted(why: str) -> ExecutionDecision:
        return ExecutionDecision(INTERPRETED, sampled, fallback=why)

    reason = chain_fallback(plan)
    if reason is not None:
        return interpreted(reason)
    if serdes is None:
        return interpreted("no serde registry available")
    _in_key, in_msg = serdes.resolve_stream_serdes(
        config, "kafka", plan.input_streams[0])
    out_key, out_msg = serdes.resolve_stream_serdes(
        config, "kafka", plan.output_stream)
    if not (isinstance(in_msg, AvroSerde) and isinstance(out_msg, AvroSerde)
            and isinstance(out_key, StringSerde)):
        return interpreted("input/output streams are not Avro with string keys")
    reason, analysis = analyze_serde(plan, in_msg.schema, out_msg.schema)
    if reason is not None:
        return interpreted(reason)
    return ExecutionDecision(FUSED, sampled, serde=analysis)
