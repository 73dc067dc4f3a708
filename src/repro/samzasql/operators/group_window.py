"""Hopping/tumbling windowed aggregation (§3.6).

A tumbling window is the special case of a hopping window with
``emit == retain``.  Window assignment is event-time based; windows are
*emitted when the event-time watermark (max rowtime seen by this task)
passes their end* — the paper's early-results policy: "multiple outputs
for the same window due to early results policy that send out partial
results as soon as a window boundary condition is met without waiting for
delayed arrivals".  Tuples arriving after their window was emitted are
discarded ("some tuples may get discarded due to the expiration of
timeouts"), counted in ``late_dropped``.

State (accumulators per open ``(window_start, group_key)``, and one meta
record: the watermark and the open windows) lives in a changelog-backed
store, so failure + replay reconstructs the same windows.  The plan names
the store per operator instance (``sql-group-windows``, then
``sql-group2-windows``...): a nested group window keeps its own meta
record.

This operator was only partially implemented in the paper's prototype
(future work item 4); it is implemented in full here.
"""

from __future__ import annotations

from repro.samzasql.operators.base import Operator, OperatorContext
from repro.samzasql.physical import GroupWindowAggNode
from repro.sql.codegen import compile_projection, compile_scalar

_META_KEY = "__meta__"


class GroupWindowAggOperator(Operator):
    METRIC_KIND = "group-window"

    def __init__(self, node: GroupWindowAggNode):
        super().__init__(node)
        if node.emit_ms <= 0 or node.retain_ms <= 0:
            raise ValueError("window emit/retain must be positive")
        self._time_fn = compile_scalar(node.time)
        self._key_fn = compile_projection(node.group_keys)
        self._arg_fns = [compile_scalar(call.operands[0]) if call.operands
                         else None for call in node.aggs]
        self._udafs = [self._resolve_udaf(call.op) for call in node.aggs]
        self._store = None
        self.late_dropped = 0

    @staticmethod
    def _resolve_udaf(func: str):
        if func in ("COUNT", "SUM", "AVG", "MIN", "MAX"):
            return None
        from repro.sql.udf import UDF_REGISTRY

        udaf = UDF_REGISTRY.udaf(func)
        if udaf is None:
            raise ValueError(f"unsupported aggregate {func}")
        return udaf

    def setup(self, context: OperatorContext) -> None:
        self._store = context.get_store(self.node.stores[0])  # open windows

    def state_size(self) -> int:
        """Open (not yet emitted) windows; backs ``window-state-size``."""
        if self._store is None:
            return 0
        meta = self._store.get(_META_KEY)
        return len(meta["open"]) if meta else 0

    # -- window assignment ----------------------------------------------------

    def windows_for(self, ts: int) -> list[int]:
        """Start times of every window containing ``ts``.

        Windows start at ``align + k*emit`` and span ``retain`` ms; retain
        need not be a multiple of emit (§3.6).
        """
        node = self.node
        shifted = ts - node.align_ms
        starts = []
        start = (shifted // node.emit_ms) * node.emit_ms
        while start > shifted - node.retain_ms:
            starts.append(start + node.align_ms)
            start -= node.emit_ms
        return starts

    # -- processing -----------------------------------------------------------------

    def process_batch(self, port: int, rows: list, timestamps: list) -> None:
        """The meta record is fetched once per batch and window states
        once per (window, batch), with write-back deferred to the end of
        the batch.  Watermark advancement and closed-window emission run
        per message, so lateness decisions and the emission sequence do
        not depend on how the input was batched."""
        self.processed += len(rows)
        store = self._store
        retain_ms = self.node.retain_ms
        meta = store.get(_META_KEY) or {"watermark": None, "open": {}}
        states: dict[str, dict] = {}  # per-batch (window, key) state cache
        dirty: dict[str, dict] = {}   # subset of states needing a put
        out_rows: list = []
        out_ts: list = []
        for row in rows:
            ts = self._time_fn(row)
            key_values = self._key_fn(row)
            key = repr(key_values)
            watermark = meta["watermark"]
            arg_values = [None if fn is None else fn(row)
                          for fn in self._arg_fns]
            for wstart in self.windows_for(ts):
                wend = wstart + retain_ms
                if watermark is not None and wend <= watermark:
                    self.late_dropped += 1
                    continue
                store_key = f"{wstart}|{key}"
                state = states.get(store_key)
                if state is None:
                    state = store.get(store_key)
                    if state is None:
                        state = {"wstart": wstart, "keys": key_values,
                                 "accs": [([None, 0, None, None, 0]
                                           if udaf is None
                                           else [udaf.create()])
                                          for udaf in self._udafs]}
                        meta["open"][store_key] = wend
                    states[store_key] = state
                dirty[store_key] = state
                for udaf, acc, value in zip(self._udafs, state["accs"],
                                            arg_values):
                    if udaf is not None:
                        acc[0] = udaf.add(acc[0], value)
                        continue
                    # acc = [sum, rows, min, max, non-null rows]
                    acc[1] += 1
                    if value is not None:
                        acc[4] += 1
                        acc[0] = value if acc[0] is None else acc[0] + value
                        acc[2] = value if acc[2] is None else min(acc[2], value)
                        acc[3] = value if acc[3] is None else max(acc[3], value)
            if watermark is None or ts > watermark:
                meta["watermark"] = ts
            self._close_windows(meta, states, dirty, out_rows, out_ts)
        for store_key, state in dirty.items():
            store.put(store_key, state)
        store.put(_META_KEY, meta)
        self.emit_batch(out_rows, out_ts)

    def _close_windows(self, meta: dict, states: dict, dirty: dict,
                       out_rows: list, out_ts: list) -> None:
        """Emit windows whose end the watermark has passed: consults the
        per-batch state cache before the store (deferred puts haven't
        landed yet) and collects the output rows."""
        watermark = meta["watermark"]
        if watermark is None:
            return
        for store_key, wend in sorted(meta["open"].items(), key=lambda kv: kv[1]):
            if wend > watermark:
                continue
            state = states.pop(store_key, None)
            if state is None:
                state = self._store.get(store_key)
            dirty.pop(store_key, None)  # closed: never write it back
            meta["open"].pop(store_key)
            if state is None:
                continue
            self._store.delete(store_key)
            out_rows.append(self._window_row(state, wend))
            out_ts.append(wend)

    def emit_partials(self) -> None:
        """Early-results policy: emit current partial aggregates for every
        open window *without* closing it — late tuples keep updating the
        window and trigger re-emission when it finally closes."""
        meta = self._store.get(_META_KEY)
        if meta is None:
            return
        self._emit_windows(meta, delete=False)

    def flush(self) -> None:
        """Force-emit every open window (end of bounded input / shutdown)."""
        meta = self._store.get(_META_KEY)
        if meta is None:
            return
        self._emit_windows(meta, delete=True)
        meta["open"] = {}
        self._store.put(_META_KEY, meta)

    def _emit_windows(self, meta: dict, delete: bool) -> None:
        """Emit every open window in end order, one batch downstream."""
        out_rows, out_ts = [], []
        for store_key, wend in sorted(meta["open"].items(), key=lambda kv: kv[1]):
            state = self._store.get(store_key)
            if state is not None:
                if delete:
                    self._store.delete(store_key)
                out_rows.append(self._window_row(state, wend))
                out_ts.append(wend)
        self.emit_batch(out_rows, out_ts)

    def _window_row(self, state: dict, wend: int) -> list:
        results = []
        for call, udaf, acc in zip(self.node.aggs, self._udafs,
                                   state["accs"]):
            func = call.op
            if udaf is not None:
                results.append(udaf.result(acc[0]))
            elif func == "COUNT":
                results.append(acc[1])
            elif func == "SUM":
                results.append(acc[0])
            elif func == "AVG":
                results.append(None if acc[0] is None else acc[0] / acc[4])
            elif func == "MIN":
                results.append(acc[2])
            elif func == "MAX":
                results.append(acc[3])
            else:
                raise ValueError(f"unsupported aggregate {func}")
        return [state["wstart"], wend, *state["keys"], *results]
