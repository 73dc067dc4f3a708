"""The one execution setting: ``cluster.parallel.execution``.

The runtime has no execution modes.  Which path a task runs — the
serde-fused function or the interpreted operator DAG — is chosen from
the plan, the stream serdes and the schemas
(:func:`repro.samzasql.decision.decide_execution`); container stores are
always write-behind; join chains collapse whenever the collapse rule
accepts them.  What a deployment does set is whether containers run in
forked worker processes.

The ablation switches that used to sit beside it are retired, and a
retired spelling raises :class:`~repro.common.errors.ConfigError` — a
silently ignored key would make an equivalence test pass vacuously.
"""

from __future__ import annotations

from repro.common.clock import Clock, VirtualClock
from repro.common.config import Config
from repro.common.errors import ConfigError

PARALLEL_KEY = "cluster.parallel.execution"

#: Every key under this prefix is retired (``execution.compile``,
#: ``execution.serde.fusion``, ``execution.multiway.join``,
#: ``execution.write.behind``, ``execution.batch``, ``execution.parallel``).
RETIRED_PREFIX = "execution."

#: Older retired spellings outside the prefix.
RETIRED_KEYS = (
    "task.batch.execution",
    "task.compile.execution",
    "task.serde.fusion",
    "plan.multiway.join",
    "stores.write.behind",
)


def parallel_execution(config: Config | dict | None,
                       clock: Clock | None = None) -> bool:
    """Whether the job's containers run in forked worker processes.

    Raises :class:`ConfigError` for a retired execution key, and for
    parallel execution on a ``VirtualClock``.
    """
    cfg = config if isinstance(config, Config) else Config(config or {})
    for key in cfg:
        if key.startswith(RETIRED_PREFIX) or key in RETIRED_KEYS:
            raise ConfigError(
                f"config key {key!r} is retired: the execution path is "
                f"chosen from the plan and there is nothing to switch; "
                f"{PARALLEL_KEY} is the only execution setting")
    parallel = cfg.get_bool(PARALLEL_KEY, False)
    if parallel and isinstance(clock, VirtualClock):
        raise ConfigError(
            f"{PARALLEL_KEY}=true is incompatible with a VirtualClock: "
            "virtual time cannot advance across worker processes (each "
            "fork would advance its own copy).  Pass clock=None to "
            "SamzaSqlEnvironment (a SystemClock is selected "
            "automatically) or an explicit SystemClock.")
    return parallel
