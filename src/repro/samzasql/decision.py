"""The one plan-time derivation: which path a job's tasks execute, and
the program they run.

:func:`decide_execution` is the only place that chooses between the two
paths: the serde-fused function (decode → chain → encode generated as
one function over raw bytes) and the interpreted operator DAG (the
reference router, full decode/encode).  A chain — stateless operators
plus stream-to-relation joins on the relation's key and sliding windows
over built-in aggregates — fuses when
:func:`~repro.samzasql.serde_plan.analyze_serde` can inline the serdes
of the stream it consumes and of its output; a relation's changelog
stays decoded, whatever its serde.  Everything else is interpreted,
with one ``fallback`` reason.  Its one caller, :meth:`JobProgram.build`,
parses the plan bytes, decides and renders once per container start;
``EXPLAIN`` builds the same object from the same bytes, so the report
cannot drift from what runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from types import MappingProxyType

from repro.common.config import Config
from repro.samzasql.compile import chain_fallback, chain_nodes
from repro.samzasql.operators.router import changelog_key_types
from repro.samzasql.physical import PhysicalPlan
from repro.samzasql.serde_plan import SerdeAnalysis, analyze_serde, render_fused
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
        config, "kafka", chain_nodes(plan)[0].stream)
    out_key, out_msg = serdes.resolve_stream_serdes(
        config, "kafka", plan.output_stream)
    if not (isinstance(in_msg, AvroSerde) and isinstance(out_msg, AvroSerde)
            and isinstance(out_key, StringSerde)):
        return interpreted("input/output streams are not Avro with string keys")
    reason, analysis = analyze_serde(plan, in_msg.schema, out_msg.schema)
    if reason is not None:
        return interpreted(reason)
    return ExecutionDecision(FUSED, sampled, serde=analysis)


@dataclass(frozen=True)
class JobProgram:
    """What a job's tasks derive from the plan bytes, derived once per
    container start: the plan, its decision and, when fused, the
    generated function, which each task only binds
    (:class:`~repro.samzasql.compile.CompiledExecutor`)."""

    plan: PhysicalPlan
    decision: ExecutionDecision
    changelog_key_types: dict      # relation changelog -> its key's type
    early_emit: bool               # samzasql.window.early.emit
    source: str | None = None      # the fused function (None: interpreted)
    code: object = None            # its compiled code object
    constants: MappingProxyType | None = None  # what the code reads
    slots: tuple = ()              # (``_op<i>``, chain position) per stage

    @staticmethod
    def build(plan_json: bytes, config: Config, serdes) -> "JobProgram":
        """The program of ``plan_json`` under the merged job config and
        the job's serde registry (``None`` when the host has none)."""
        plan = PhysicalPlan.from_dict(json.loads(plan_json))
        decision = decide_execution(plan, config, serdes)
        program = JobProgram(plan, decision, changelog_key_types(plan),
                             config.get_bool("samzasql.window.early.emit",
                                             False))
        if decision.path != FUSED:
            return program
        source, code, constants, slots = render_fused(decision.serde)
        return replace(program, source=source, code=code,
                       constants=MappingProxyType(constants), slots=slots)
