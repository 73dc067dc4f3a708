"""Execution switches: four ablation knobs and one deployment setting.

The runtime has one execution path — batch-at-a-time, a single message
being a batch of one.  What remains configurable is which plan-time
optimizations apply (ablation switches, used by benches and equivalence
tests) and whether containers run in forked worker processes (a
deployment setting).  :class:`ExecutionConfig` is the one typed surface
over them: construct it directly, pass it to
:class:`~repro.samzasql.environment.SamzaSqlEnvironment`, or recover it
from a flat :class:`~repro.common.config.Config` with
:meth:`ExecutionConfig.from_config`.

Each switch has exactly one spelling.  A retired spelling raises
:class:`~repro.common.errors.ConfigError` naming its replacement — a
silently ignored ablation key would make an equivalence test pass
vacuously.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.common.clock import Clock, VirtualClock
from repro.common.config import Config
from repro.common.errors import ConfigError

#: field -> the config key that carries it.
KEYS: dict[str, str] = {
    "write_behind": "execution.write.behind",
    "parallel": "cluster.parallel.execution",
    "compile": "execution.compile",
    "multiway_join": "execution.multiway.join",
    "serde_fusion": "execution.serde.fusion",
}

_NO_BATCH_SWITCH = ("nothing (the batch path is the only path; "
                    "task.poll.batch.size=1 gives batches of one)")

#: retired spelling -> what to write instead.
RETIRED_KEYS: dict[str, str] = {
    "task.batch.execution": _NO_BATCH_SWITCH,
    "execution.batch": _NO_BATCH_SWITCH,
    "task.compile.execution": "execution.compile",
    "task.serde.fusion": "execution.serde.fusion",
    "plan.multiway.join": "execution.multiway.join",
    "stores.write.behind": "execution.write.behind (or the per-store "
                           "stores.<name>.write.behind)",
    "execution.parallel": "cluster.parallel.execution",
}


@dataclass(frozen=True)
class ExecutionConfig:
    """The execution switches, as one typed value.

    ``write_behind`` -- buffered changelog writes for window state
                        (per-store ``stores.<name>.write.behind`` wins).
    ``parallel``     -- process-backed containers (forked workers).
    ``compile``      -- whole-plan ``exec``-compilation of stateless
                        chains.
    ``multiway_join`` -- collapse left-deep windowed stream-join chains
                        into one K-way operator at plan time (off =
                        always plan the pairwise cascade).
    ``serde_fusion`` -- plan-aware serde: column-pruned decode,
                        re-encode elision, and decode→chain→encode
                        fusion for compiled stateless chains (requires
                        ``compile``).
    """

    write_behind: bool = True
    parallel: bool = False
    compile: bool = True
    multiway_join: bool = True
    serde_fusion: bool = True

    @classmethod
    def from_config(cls, config: Config | dict | None) -> "ExecutionConfig":
        """Recover the switches from a flat config map."""
        cfg = config if isinstance(config, Config) else Config(config or {})
        for retired, replacement in RETIRED_KEYS.items():
            if retired in cfg:
                raise ConfigError(
                    f"config key {retired!r} is retired; use {replacement}")
        return cls(**{
            f.name: cfg.get_bool(KEYS[f.name], f.default) for f in fields(cls)})

    def to_overrides(self) -> dict[str, str]:
        """Flat config entries carrying these switches."""
        return {key: "true" if getattr(self, name) else "false"
                for name, key in KEYS.items()}

    def validate(self, clock: Clock | None = None) -> "ExecutionConfig":
        """Reject illegal combinations; returns self for chaining."""
        if self.parallel and isinstance(clock, VirtualClock):
            raise ConfigError(
                "cluster.parallel.execution=true is incompatible with a "
                "VirtualClock: virtual time cannot advance across worker "
                "processes.  Pass clock=None (a SystemClock is selected "
                "automatically) or an explicit SystemClock.")
        return self

    def describe(self) -> str:
        """One-line human summary, used by ``EXPLAIN``."""
        return " ".join(f"{name}={'on' if getattr(self, name) else 'off'}"
                        for name in KEYS)
