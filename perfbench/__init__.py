"""perfbench — the repo's one benchmark instrument.

Seven named workloads, bounded end-to-end metrics and an outside-in layer
ledger, declared in ``BENCHMARK.json`` at the repo root.  See
``perfbench/README.md`` for the glossary and how to read a result.
"""

SCHEMA = "perfbench/1"


class BenchmarkError(RuntimeError):
    """The instrument itself cannot vouch for the run (wrong path taken,
    trace does not cover the phase...) — distinct from failed operations."""
