"""OS-process launcher: maps YARN container ids to worker processes.

Under ``cluster.parallel.execution=true`` every Samza container is backed
by a real forked process.  The resource manager cannot know that — it
schedules logical containers — so the launcher is the bridge: the
parallel coordinator registers each worker process under its YARN
container id, and when the RM kills a container (failure injection, app
teardown, ``fail_node``) it tells the launcher, which delivers a real
SIGKILL.  That is what lets :class:`~repro.chaos.supervisor.ChaosSupervisor`
and :meth:`~repro.samza.job.JobRunner.kill_container` treat process-backed
containers exactly like in-process ones.
"""

from __future__ import annotations

import os
import signal


class ProcessLauncher:
    """Registry of live worker processes keyed by YARN container id."""

    def __init__(self):
        self._processes: dict[str, object] = {}

    def register(self, container_id: str, process) -> None:
        self._processes[container_id] = process

    def unregister(self, container_id: str) -> None:
        self._processes.pop(container_id, None)

    def kill(self, container_id: str) -> bool:
        """SIGKILL the process backing ``container_id``; True if one died."""
        process = self._processes.get(container_id)
        if process is None or not process.is_alive():
            return False
        try:
            os.kill(process.pid, signal.SIGKILL)
        except ProcessLookupError:  # pragma: no cover - raced its exit
            return False
        process.join(timeout=5)
        return True

    def on_container_killed(self, container_id: str) -> None:
        """RM notification: the logical container is gone, reap the process."""
        self.kill(container_id)
        self.unregister(container_id)
