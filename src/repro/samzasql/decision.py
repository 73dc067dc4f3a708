"""The one plan-time decision: which path a query's tasks execute.

:func:`decide_execution` is the only place that chooses between the
serde-fused function, the compiled chain and the interpreted operator
DAG.  :class:`~repro.samzasql.task.SamzaSqlTask` builds exactly the
executor the returned :class:`ExecutionDecision` names, and ``EXPLAIN``
prints that same object computed from the same merged job config — so
the report cannot drift from what runs.
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
COMPILED = "compiled"
INTERPRETED = "interpreted"


@dataclass(frozen=True)
class ExecutionDecision:
    """What one task of the query runs, and why not something faster."""

    path: str                           # FUSED | COMPILED | INTERPRETED
    sampled: bool                       # metrics are on for this job
    compile_fallback: str | None = None  # why INTERPRETED
    serde_fallback: str | None = None   # why not FUSED
    serde: SerdeAnalysis | None = None  # pruned columns + encode mode (FUSED)

    @property
    def task_status(self) -> str:
        """``compiled`` / ``interpreted (fallback: <reason>)`` for EXPLAIN."""
        if self.path == INTERPRETED:
            return f"interpreted (fallback: {self.compile_fallback})"
        return "compiled"

    @property
    def serde_status(self) -> str:
        """The EXPLAIN line: pruned columns + decode/encode status."""
        serde = self.serde
        if serde is None:
            return f"serde: full decode/encode (fallback: {self.serde_fallback})"
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
    reason = chain_fallback(plan)
    if reason is not None:
        return ExecutionDecision(INTERPRETED, sampled, reason,
                                 f"chain not compiled: {reason}")

    def compiled(why: str) -> ExecutionDecision:
        return ExecutionDecision(COMPILED, sampled, serde_fallback=why)

    if serdes is None:
        return compiled("no serde registry available")
    _in_key, in_msg = serdes.resolve_stream_serdes(
        config, "kafka", plan.input_streams[0])
    out_key, out_msg = serdes.resolve_stream_serdes(
        config, "kafka", plan.output_stream)
    if not (isinstance(in_msg, AvroSerde) and isinstance(out_msg, AvroSerde)
            and isinstance(out_key, StringSerde)):
        return compiled("input/output streams are not Avro with string keys")
    reason, analysis = analyze_serde(plan, in_msg.schema, out_msg.schema)
    if reason is not None:
        return compiled(reason)
    return ExecutionDecision(FUSED, sampled, serde=analysis)
