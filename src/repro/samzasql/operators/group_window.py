"""Hopping/tumbling windowed aggregation (§3.6).

A tumbling window is the special case of a hopping window with
``emit == retain``.  Window assignment is event-time based; windows are
*emitted when the event-time watermark (max rowtime seen by this task)
passes their end* — the paper's early-results policy: "multiple outputs
for the same window due to early results policy that send out partial
results as soon as a window boundary condition is met without waiting for
delayed arrivals".  Tuples arriving after their window was emitted are
discarded ("some tuples may get discarded due to the expiration of
timeouts"), counted in ``late_rows``.

The operator holds its open windows decoded, by window start, and
closes them when the watermark reaches the earliest open end: in end
order, each end's windows in creation order.  The store is their
changelog-backed durability log: each batch puts the windows it touched,
in first-touch order, then the meta record ``{"watermark": w}``, and a
closed window gets a delete.  ``setup`` reads it once, so a relaunch
reopens every window state in it (ending at ``wstart + retain``); windows
restored with one end come back in store-key order.  The plan names the
store per operator instance (``sql-group-windows``, then
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
        #: The open windows, decoded: window start -> {store key: state},
        #: each start's windows in creation order.
        self._open: dict[int, dict[str, dict]] = {}
        self._watermark = None   # the largest rowtime seen
        self._next_end = None    # the earliest open window end
        self.late_rows = 0

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
        self._store = context.get_store(self.node.stores[0])  # durability log
        # Empty on a first start, the restored changelog after a relaunch:
        # every window state the store holds is open.
        for store_key, value in self._store.all():
            if store_key == _META_KEY:
                self._watermark = value["watermark"]
            else:
                self._open.setdefault(value["wstart"], {})[store_key] = value
        self._next_end = self._first_end()

    def _first_end(self) -> int | None:
        """The earliest end among the open windows (None: none open)."""
        return min(self._open) + self.node.retain_ms if self._open else None

    def state_size(self) -> int:
        """Open (not yet emitted) windows; backs ``window-state-size``."""
        return sum(map(len, self._open.values()))

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
        """Window states change in memory; the store gets each touched
        window once per batch, in first-touch order, then the meta record.
        Watermark advancement and closed-window emission run per message,
        so lateness decisions and the emission sequence do not depend on
        how the input was batched."""
        self.processed += len(rows)
        retain_ms = self.node.retain_ms
        open_windows = self._open
        touched: dict[str, dict] = {}  # windows to put, first touch first
        out_rows: list = []
        out_ts: list = []
        for row in rows:
            ts = self._time_fn(row)
            key_values = self._key_fn(row)
            key = repr(key_values)
            watermark = self._watermark
            arg_values = [None if fn is None else fn(row)
                          for fn in self._arg_fns]
            for wstart in self.windows_for(ts):
                wend = wstart + retain_ms
                if watermark is not None and wend <= watermark:
                    self.late_rows += 1
                    continue
                store_key = f"{wstart}|{key}"
                windows = open_windows.get(wstart)
                if windows is None:
                    windows = open_windows[wstart] = {}
                    if self._next_end is None or wend < self._next_end:
                        self._next_end = wend
                state = windows.get(store_key)
                if state is None:
                    state = windows[store_key] = {
                        "wstart": wstart, "keys": key_values,
                        "accs": [([None, 0, None, None, 0] if udaf is None
                                  else [udaf.create()])
                                 for udaf in self._udafs]}
                touched[store_key] = state
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
                self._watermark = ts
                if self._next_end is not None and self._next_end <= ts:
                    self._close_windows(touched, out_rows, out_ts)
        store = self._store
        for store_key, state in touched.items():
            store.put(store_key, state)
        store.put(_META_KEY, {"watermark": self._watermark})
        self.emit_batch(out_rows, out_ts)

    def _close_windows(self, touched: dict, out_rows: list,
                       out_ts: list) -> None:
        """Emit and delete every window whose end the watermark has
        reached: in end order, each end's windows in creation order."""
        retain_ms = self.node.retain_ms
        for wstart in sorted(self._open):
            wend = wstart + retain_ms
            if wend > self._watermark:
                break
            for store_key, state in self._open.pop(wstart).items():
                touched.pop(store_key, None)  # closed: never write it back
                self._store.delete(store_key)
                out_rows.append(self._window_row(state, wend))
                out_ts.append(wend)
        self._next_end = self._first_end()

    def emit_partials(self) -> None:
        """Early-results policy: emit current partial aggregates for every
        open window *without* closing it — late tuples keep updating the
        window and trigger re-emission when it finally closes."""
        out_rows, out_ts = [], []
        for wstart in sorted(self._open):
            wend = wstart + self.node.retain_ms
            for state in self._open[wstart].values():
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
