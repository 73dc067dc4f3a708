"""Every name ``perfbench/layers.py`` wraps must still exist, or every
``--trace 1`` benchmark run aborts; this fails in seconds instead."""

import pytest

layers = pytest.importorskip("perfbench.layers")


def test_every_wrapped_boundary_exists():
    from perfbench.tracer import Tracer

    tracer = Tracer()
    try:
        layers.install(tracer)  # getattr(owner, attr) on each boundary
    finally:
        layers.uninstall(tracer)


class _Recorder:
    """Stands in for the tracer: lists the boundaries ``install`` would
    wrap, wrapping none."""

    def __init__(self):
        self.boundaries = []

    def span(self, owner, attr, *_args):
        getattr(owner, attr)
        self.boundaries.append((owner, attr))

    leaf = span


def test_uninstall_restores_every_wrapped_attribute():
    """Install, then uninstall, leaves every boundary as it was — among
    them the store, checkpoint and container-start boundaries the state
    ledger reads, so renaming one of those fails here too."""
    import inspect

    from perfbench.tracer import Tracer
    from repro.samza.checkpoint import CheckpointManager
    from repro.samza.container import SamzaContainer
    from repro.samza.storage import (SerializedKeyValueStore,
                                     WriteBehindKeyValueStore)

    recorder = _Recorder()
    layers.install(recorder)
    before = {(owner, attr): inspect.getattr_static(owner, attr)
              for owner, attr in recorder.boundaries}
    assert {(SerializedKeyValueStore, "put"),
            (SerializedKeyValueStore, "delete"),
            (WriteBehindKeyValueStore, "get"),
            (WriteBehindKeyValueStore, "put"),
            (WriteBehindKeyValueStore, "delete"),
            (WriteBehindKeyValueStore, "flush"),
            (CheckpointManager, "write_checkpoint"),
            (SamzaContainer, "start")} <= set(before)

    tracer = Tracer()
    try:
        layers.install(tracer)
        assert all(inspect.getattr_static(owner, attr) is not original
                   for (owner, attr), original in before.items())
    finally:
        layers.uninstall(tracer)
    restored = {boundary: inspect.getattr_static(*boundary)
                for boundary in before}
    assert [f"{owner.__name__}.{attr}" for (owner, attr), original
            in before.items() if restored[owner, attr] is not original] == []
