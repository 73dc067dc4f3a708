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
