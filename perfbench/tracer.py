"""Outside-in tracer: spans recorded from ``perfbench/`` only.

At start-up :func:`install` replaces layer-boundary callables of the
program (class attributes, plus one module-level function) with thin
wrappers living in this file — no file under ``src/`` is edited and the
program has no tracing of its own yet (in-program spans are a later
issue).  Two kinds of wrapper:

* **span** — batch-level boundaries (one ``run_iteration``, one poll, one
  ``process_batch``, one commit...).  Each call appends
  ``name_id, start_ns, end_ns, parent_index, units`` to an in-memory array;
  ``parent_index`` is the enclosing span, ``units`` the messages the call
  handled where the boundary can tell.  (A sixth field, the name of the
  enclosing span *or leaf*, is what self time is computed from.)
* **leaf** — per-message boundaries (store get/put, object serde, single
  sends).  A span per call would cost more than the call, so leaves are
  aggregated as ``(name, parent_name) -> [calls, total_ns, units]``.

Self time of a name = its total duration minus the durations of the spans
and leaves recorded directly beneath it.  Because the runtime is
single-threaded nothing overlaps, so self times of all names add up to
the covered wall time.

The wrappers are installed once per process and stay cheap when
:attr:`Tracer.enabled` is false, but the end-to-end numbers never run
with them installed at all: ``--trace 0`` processes do not call
:func:`install`.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter_ns

#: Fields per span in :attr:`Tracer.spans`, a flat ``array('q')`` — one
#: list object per span would be GC-tracked, and a few hundred thousand of
#: them make every full collection a visible stall in the traced run.
NAME, START, END, PARENT, UNITS, PARENT_NAME = range(6)
WIDTH = 6


class Tracer:
    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self.spans = array("q")
        self.leaves: dict[tuple[int, int], list] = {}
        self._name_ids: dict[str, int] = {}
        self._span_stack: list[int] = []
        self._name_stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- wrapping ----------------------------------------------------------------

    def span(self, owner, attr: str, name: str, units=None) -> None:
        """Wrap ``owner.attr`` as a span; ``units`` is
        ``(args, result) -> int``."""
        fn = getattr(owner, attr)
        tracer = self
        name_id = self._intern(name)
        spans, span_stack, name_stack = (
            self.spans, self._span_stack, self._name_stack)

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            at = len(spans)
            spans.extend((name_id, 0, 0,
                          span_stack[-1] if span_stack else -1, 0,
                          name_stack[-1] if name_stack else -1))
            span_stack.append(at // WIDTH)
            name_stack.append(name_id)
            spans[at + START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[at + END] = perf_counter_ns()
                span_stack.pop()
                name_stack.pop()
            if units is not None:
                spans[at + UNITS] = units(args, result)
            return result

        traced.__wrapped__ = fn
        self._originals.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def leaf(self, owner, attr: str, name: str, units=None) -> None:
        fn = getattr(owner, attr)
        tracer = self
        name_id = self._intern(name)
        leaves, name_stack = self.leaves, self._name_stack

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            key = (name_id, name_stack[-1] if name_stack else -1)
            name_stack.append(name_id)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                name_stack.pop()
                cell = leaves.get(key)
                if cell is None:
                    cell = leaves[key] = [0, 0, 0]
                cell[0] += 1
                cell[1] += elapsed
            if units is not None:
                cell[2] += units(args, result)
            return result

        traced.__wrapped__ = fn
        self._originals.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()

    # -- recording windows ---------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.spans) // WIDTH

    def mark(self) -> tuple[int, dict]:
        """A cursor: spans and leaf totals recorded so far."""
        return self.span_count, {k: list(v) for k, v in self.leaves.items()}

    def window(self, mark: tuple[int, dict]) -> "TraceWindow":
        """Everything recorded since ``mark``."""
        first, before = mark
        leaves = {}
        for key, cell in self.leaves.items():
            old = before.get(key, (0, 0, 0))
            delta = [cell[0] - old[0], cell[1] - old[1], cell[2] - old[2]]
            if delta[0]:
                leaves[key] = delta
        return TraceWindow(self, first, self.span_count, leaves)

    def dump(self, path) -> None:
        """Write every span and leaf as JSON."""
        spans = self.spans
        names = self.names
        payload = {
            "format": "spans: [name_id, start_ns, end_ns, parent_index, "
                      "units]; leaves: [name, parent_name, calls, total_ns, "
                      "units]",
            "names": names,
            "spans": [list(spans[at:at + PARENT_NAME])
                      for at in range(0, len(spans), WIDTH)],
            "leaves": [[names[name], names[parent] if parent >= 0 else "",
                        *cell]
                       for (name, parent), cell in sorted(self.leaves.items())],
        }
        with open(path, "w") as handle:
            json.dump(payload, handle, separators=(",", ":"))


class TraceWindow:
    """Aggregates over one slice of the trace (one timed phase)."""

    def __init__(self, tracer: Tracer, first: int, last: int,
                 leaves: dict[tuple[int, int], list]):
        names = tracer.names
        spans = tracer.spans
        self.total_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.units: dict[str, int] = {}
        self.max_ns: dict[str, int] = {}
        child_ns: dict[str, int] = {}
        self.root_ns = 0

        def add(name, parent_id, calls, duration, units):
            self.total_ns[name] = self.total_ns.get(name, 0) + duration
            self.calls[name] = self.calls.get(name, 0) + calls
            self.units[name] = self.units.get(name, 0) + units
            if parent_id >= 0:
                parent = names[parent_id]
                child_ns[parent] = child_ns.get(parent, 0) + duration
            else:
                self.root_ns += duration

        for at in range(first * WIDTH, last * WIDTH, WIDTH):
            name = names[spans[at + NAME]]
            duration = spans[at + END] - spans[at + START]
            add(name, spans[at + PARENT_NAME], 1, duration, spans[at + UNITS])
            if duration > self.max_ns.get(name, 0):
                self.max_ns[name] = duration
        self._leaves = {}
        for (name_id, parent_id), (calls, total, units) in leaves.items():
            add(names[name_id], parent_id, calls, total, units)
            parent = names[parent_id] if parent_id >= 0 else ""
            self._leaves[names[name_id], parent] = [calls, total, units]
        self.self_ns = {name: total - child_ns.get(name, 0)
                        for name, total in self.total_ns.items()}

    def ns(self, name: str, self_time: bool = True) -> int:
        table = self.self_ns if self_time else self.total_ns
        return table.get(name, 0)

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def leaf_under(self, name: str, parent_name: str) -> list:
        """``[calls, total_ns, units]`` of one leaf beneath one parent."""
        return self._leaves.get((name, parent_name), [0, 0, 0])
