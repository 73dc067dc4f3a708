"""SamzaSQL: streaming SQL compiled onto Samza (the paper's contribution).

The pieces, following §4:

* :mod:`repro.samzasql.physical` — the physical plan: a JSON-serializable
  operator tree (scan / filter / project / sliding window / windowed
  aggregate / joins / insert) carrying its expressions as Rex trees.
* :mod:`repro.samzasql.plan_builder` — lowers an optimized logical plan to
  the physical plan and derives the Samza job requirements (inputs,
  bootstrap streams, stores).
* :mod:`repro.samzasql.operators` — the operator layer, including the
  Algorithm-1 sliding window on changelog-backed local state and the
  bootstrap-stream stream-to-relation join.
* :mod:`repro.samzasql.decision` — the job program: the plan read from
  ZooKeeper, its execution decision and generated code, once per
  container start.
* :mod:`repro.samzasql.task` — the SamzaSQL StreamTask: at init it binds
  its container's program and builds the message router (the paper's
  two-step query planning).
* :mod:`repro.samzasql.shell` — the SamzaSQL shell/driver: plans queries,
  writes plan metadata to ZooKeeper, generates the job config, and
  submits the job through the YARN client.
* :mod:`repro.samzasql.batch` — executes non-STREAM queries over the
  retained history of a stream (§3.3: without STREAM, a stream is "a
  table consisting of the history of the stream up to the point of
  execution").
"""

from repro.samzasql.shell import SamzaSQLShell, QueryHandle, ResultCursor
from repro.samzasql.environment import SamzaSqlEnvironment
from repro.samzasql.plan_builder import PhysicalPlanBuilder
from repro.samzasql.task import SamzaSqlTask

__all__ = ["SamzaSQLShell", "SamzaSqlEnvironment", "QueryHandle",
           "ResultCursor", "PhysicalPlanBuilder", "SamzaSqlTask"]
