"""Fault injection & recovery: prove the durability story actually holds.

The paper's §2 claim — "streams will be replayed from the last known
checkpointed partition offset" — is only worth anything if something can
*kill* a container, fail a fetch, or expire a ZooKeeper session and the
system still produces every answer.  This package is that something:

* :mod:`repro.chaos.faults` — a seeded (or explicitly scripted)
  :class:`FaultSchedule` and the :class:`FaultInjector` the Kafka brokers,
  containers, and supervisor consult at their hook points;
* :mod:`repro.chaos.retry` — the :class:`RetryPolicy` (exponential
  backoff with deterministic jitter through the injected clock) adopted
  by producer sends, consumer polls, checkpoint IO and changelog restore;
* :mod:`repro.chaos.supervisor` — the job-level
  :class:`ChaosSupervisor` that drives jobs under a schedule, fails
  crashed containers through YARN so the application master re-launches
  them from checkpoint + changelog, and fires ZK session expirations;
* :mod:`repro.chaos.validate` — the end-to-end driver over scenario rows
  (``window``, ``multiway``, ``worker-kill``), each audited against the
  same SQL without ``STREAM`` (``python -m repro.chaos.validate --seed 42``).

Everything is deterministic under a :class:`~repro.common.clock.VirtualClock`:
the same seed injects the byte-identical fault sequence on every run,
which is what makes a chaos result reviewable.
"""

from repro.chaos.faults import FaultEvent, FaultInjector, FaultSchedule
from repro.chaos.retry import RetryPolicy

# supervisor/validate sit above repro.samza, which itself pulls in
# repro.chaos.retry — import them lazily to keep the package acyclic.


def __getattr__(name: str):
    if name == "ChaosSupervisor":
        from repro.chaos.supervisor import ChaosSupervisor
        return ChaosSupervisor
    if name in ("SCENARIOS", "ValidationReport", "run_scenario"):
        from repro.chaos import validate
        return getattr(validate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "RetryPolicy",
    "ChaosSupervisor",
    "SCENARIOS",
    "ValidationReport",
    "run_scenario",
]
