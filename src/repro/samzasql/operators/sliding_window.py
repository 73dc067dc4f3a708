"""Sliding-window operator — Algorithm 1 of the paper (§4.3).

Per incoming tuple::

    save message in the message store
    if uninitialized window state: initialize window state
    get tuple timestamp; update window bounds
    add a reference to the tuple into the window store
    purge messages and adjust aggregate values
    compute new aggregate values adding current tuple
    send latest aggregate values downstream

State lives in two task-local key-value stores, as described, named by
the plan (``sql-window-*`` for its first window, ``sql-window2-*`` for a
second, so nested windows never share state):

* messages — every retained message, keyed ``(*partition_key, seq)``
  (purged rows are deleted).  The value is ``[order_value,
  *aggregate_arguments]``: the columns a rebuild reads, not the whole
  input row;
* state — per partition key, ``{"seq"}``: the seq the key's next message
  gets.

The partition key is a tuple: the PARTITION BY values themselves, or
their ``repr`` when one of them is of a type the ordered key codec does
not hold (the planner renders which).  The window bounds of Algorithm 1
are the retained rows' own order values, so nothing else is persisted.

The paper's Figure 6 finding — sliding-window throughput "is dominated by
access to the key-value store" — came from round-tripping the *entire*
window (all retained row references plus accumulators) through the store's
serde on every message.  This implementation keeps the live window in
operator memory (a deque of row references, running accumulators, and
monotonic MIN/MAX deques) and persists only the two O(1)-sized pieces per
message: the row's stored columns under their own key, and the small seq
record.  Under the write-behind store layer both are dict writes until
commit, so per-message state maintenance is O(1) serde (amortised to the
commit interval) instead of O(window).

Durability is unchanged: the retained-row entries and the seq record
fully determine the in-memory window, so :meth:`setup` rebuilds it
deterministically from the stores after a changelog restore — re-pushing
the retained rows in seq order reproduces the accumulators and the
monotonic deques exactly (a monotonic deque is a pure function of the
retained-row sequence).  Rows found without a covering seq record
(flushed ahead of a crash) are ignored; at-least-once replay regenerates
them with the same keys and values.

Algorithm 1 exists here in two forms.  :meth:`SlidingWindowOperator._advance`
is the interpreted one, run per batch by :meth:`process_batch` (the
reference arm).  :meth:`SlidingWindowOperator.render_stage` renders the
same steps from the node, once per job program, as source lines for the
serde-fused function (:func:`repro.samzasql.serde_plan.render_fused`),
inlined per record with one block per aggregate over the same
``_windows`` dict of the operator each task binds, the
same stores and the same ``_retained`` counter — so setup, rebuild,
restore and the ``window-state-size`` gauge serve both, and the two
forms leave identical store operations in identical order.  Every name
it renders carries the stage index, so two windows fuse into one chain.
"""

from __future__ import annotations

from collections import deque

from repro.samzasql.operators.base import Operator, OperatorContext
from repro.samzasql.physical import SlidingWindowNode
from repro.sql.codegen import compile_lambda, compile_scalar, render

#: The aggregates both forms of Algorithm 1 maintain incrementally; any
#: other is a UDAF, re-folded at emit, and keeps a task interpreted.
BUILTIN_AGGREGATES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


class _WindowState:
    """One partition key's live window.

    ``rows`` holds ``(order_value, seq, arg_values)`` references in arrival
    order; ``accs`` the running ``[sum, rows, non-null rows]`` per
    aggregate; ``minmax`` one
    monotonic deque per MIN/MAX aggregate (else ``None``); ``record`` the
    small persisted dict (``{"seq"}``) — mutated in place and re-put per
    batch, so the write-behind layer serializes only its commit-time
    value.
    """

    __slots__ = ("rows", "accs", "minmax", "record")

    def __init__(self, accs: list, minmax: list, record: dict):
        self.rows: deque = deque()
        self.accs = accs
        self.minmax = minmax
        self.record = record


class _Accumulators:
    """Incrementally maintained aggregate values over the window rows.

    SUM/AVG/COUNT keep running ``[sum, rows, non-null rows]``: COUNT
    reads the rows, SUM and AVG the sum over the non-null ones (NULL when
    there are none, as the table query has it).  MIN/MAX keep monotonic
    deques of ``(order_value, seq, value)`` so the current extreme is the
    deque front — add pops dominated tail entries, purge pops the front
    when it is the purged row, and emit is O(1) with no re-fold.  UDAFs
    (no retraction API) still re-fold the retained rows at emit.
    """

    __slots__ = ("funcs", "_summing", "_minmax")

    def __init__(self, funcs: list[str]):
        self.funcs = funcs
        self._summing = [func in ("SUM", "AVG") for func in funcs]
        self._minmax = [func if func in ("MIN", "MAX") else None
                        for func in funcs]

    def fresh(self) -> list:
        return [[0, 0, 0] for _ in self.funcs]

    def minmax_fresh(self) -> list:
        return [None if func is None else deque() for func in self._minmax]

    def add(self, window: _WindowState, order_value, seq: int,
            values: list) -> None:
        for index, (summing, func) in enumerate(zip(self._summing,
                                                    self._minmax)):
            value = values[index]
            acc = window.accs[index]
            acc[1] += 1
            if value is None:
                continue
            acc[2] += 1
            if summing:
                acc[0] += value
            if func is not None:
                dq = window.minmax[index]
                if func == "MIN":
                    while dq and dq[-1][2] >= value:
                        dq.pop()
                else:
                    while dq and dq[-1][2] <= value:
                        dq.pop()
                dq.append((order_value, seq, value))

    def remove(self, window: _WindowState, entry: tuple) -> None:
        order_value, seq, values = entry
        for index, (summing, func) in enumerate(zip(self._summing,
                                                    self._minmax)):
            value = values[index]
            acc = window.accs[index]
            acc[1] -= 1
            if value is not None:
                acc[2] -= 1
                if summing:
                    acc[0] -= value
            if func is not None:
                dq = window.minmax[index]
                if dq and dq[0][0] == order_value and dq[0][1] == seq:
                    dq.popleft()

    def results(self, window: _WindowState) -> list:
        out = []
        for index, (func, acc) in enumerate(zip(self.funcs, window.accs)):
            if func == "COUNT":
                out.append(acc[1])
            elif func == "SUM":
                out.append(acc[0] if acc[2] else None)
            elif func == "AVG":
                out.append(acc[0] / acc[2] if acc[2] else None)
            elif func in ("MIN", "MAX"):
                dq = window.minmax[index]
                out.append(dq[0][2] if dq else None)
            else:
                out.append(self._udaf_result(func, index, window.rows))
        return out

    @staticmethod
    def _udaf_result(func: str, index: int, rows):
        from repro.sql.udf import UDF_REGISTRY

        udaf = UDF_REGISTRY.udaf(func)
        if udaf is None:
            raise ValueError(f"unsupported window aggregate {func}")
        state = udaf.create()
        for entry in rows:
            state = udaf.add(state, entry[2][index])
        return udaf.result(state)


def _frame(node: SlidingWindowNode) -> tuple:
    """``(range_ms, rows_limit)``: a RANGE frame's width, or the rows a
    ROWS frame keeps, the current row included; None when unbounded."""
    rows = node.preceding_rows
    return ((node.preceding_ms, None) if node.frame_mode == "RANGE" else
            (None, rows + 1 if rows is not None else None))


class SlidingWindowOperator(Operator):
    METRIC_KIND = "sliding-window"

    def __init__(self, node: SlidingWindowNode):
        super().__init__(node)
        self._key_fn = compile_lambda(node.key_source(
            [render(key) for key in node.partition_keys]))
        self._order_fn = compile_scalar(node.order)
        self._arg_fns = [compile_scalar(call.operands[0]) if call.operands
                         else None for call in node.aggs]
        self._accumulators = _Accumulators([call.op for call in node.aggs])
        self._range_ms, self._rows_limit = _frame(node)
        self._messages = None
        self._state = None
        self._windows: dict[tuple, _WindowState] = {}
        self._retained = 0

    def setup(self, context: OperatorContext) -> None:
        # the plan names them: messages, state
        self._messages, self._state = map(context.get_store, self.node.stores)
        self._windows = {}
        self._retained = 0
        self._rebuild()

    def _rebuild(self) -> None:
        """Reconstruct every live window from the (restored) stores in one
        ordered scan of the messages store.

        Its keys are ordered ``(*partition_key, seq)``, so the scan meets
        each key's retained rows together and in seq order: the walk keeps
        the current key's window in hand, and re-adding its rows as they
        come replays exactly the add sequence that produced the committed
        accumulators and monotonic deques, with no grouping and no sort.
        Rows with ``seq >= record["seq"]`` were flushed ahead of a seq
        record that never made it — they are skipped here and regenerated
        identically by at-least-once replay.  A row keeps its arguments
        as a tuple, as the fused stage does: a tuple of plain values, and
        the row entry holding it, drop out of the garbage collector's
        scans.
        """
        windows = self._windows
        accumulators = self._accumulators
        add = accumulators.add
        for key, record in self._state.all():
            windows[key] = _WindowState(accumulators.fresh(),
                                        accumulators.minmax_fresh(), record)
        prefix = window = None
        fence = -1
        for store_key, value in self._messages.all():
            seq = store_key[-1]
            if store_key[:-1] != prefix:
                prefix = store_key[:-1]
                window = windows.get(prefix)
                fence = -1 if window is None else window.record["seq"]
            if seq < fence:
                order_value, arg_values = value[0], tuple(value[1:])
                window.rows.append((order_value, seq, arg_values))
                add(window, order_value, seq, arg_values)
                self._retained += 1

    # -- Algorithm 1, step by step ----------------------------------------

    def _advance(self, key: tuple, order_value, row: list) -> list:
        """Admit one row into its window; returns the new aggregate values.

        The caller persists ``window.record`` (once per touched key per
        batch)."""
        window = self._windows.get(key)
        if window is None:
            window = _WindowState(
                self._accumulators.fresh(), self._accumulators.minmax_fresh(),
                {"seq": 0})
            self._windows[key] = window
        record = window.record
        seq = record["seq"]
        record["seq"] = seq + 1

        # save message in message store: the columns a rebuild reads
        arg_values = [None if fn is None else fn(row) for fn in self._arg_fns]
        self._messages.put(key + (seq,), [order_value, *arg_values])

        # update window bounds: purge messages and adjust aggregate values
        rows = window.rows
        if self._range_ms is not None:
            cutoff = order_value - self._range_ms
            while rows and rows[0][0] < cutoff:
                self._purge(key, window, rows.popleft())

        # compute new aggregate values adding current tuple
        rows.append((order_value, seq, arg_values))
        self._retained += 1
        self._accumulators.add(window, order_value, seq, arg_values)

        if self._rows_limit is not None:
            while len(rows) > self._rows_limit:
                self._purge(key, window, rows.popleft())

        return self._accumulators.results(window)

    def _purge(self, key: tuple, window: _WindowState, entry: tuple) -> None:
        self._accumulators.remove(window, entry)
        self._messages.delete(key + (entry[1],))
        self._retained -= 1

    def process_batch(self, port: int, rows: list, timestamps: list) -> None:
        """Per-row window maintenance in input order, with the seq-record
        put deferred to once per (key, batch)."""
        self.processed += len(rows)
        key_fn = self._key_fn
        order_fn = self._order_fn
        advance = self._advance
        touched: dict[tuple, None] = {}
        out = []
        for row in rows:
            key = key_fn(row)
            out.append(row + advance(key, order_fn(row), row))
            touched[key] = None
        state_put = self._state.put
        windows = self._windows
        for key in touched:
            state_put(key, windows[key].record)
        # send latest aggregate values downstream
        self.emit_batch(out, list(timestamps))

    @staticmethod
    def render_stage(node: SlidingWindowNode, i: int, row: str,
                     exprs: list) -> tuple[dict, list, list, list]:
        """Algorithm 1 as source for stage ``i`` of the fused function,
        from the node alone: ``(constants, batch_lines, record_lines,
        end_lines)``, reading the binding task's operator as ``_op{i}``.

        ``exprs`` are the partition key, the order value and the argument
        of each aggregate that has one, over the decoded record; the
        record lines leave its aggregate values in the tuple ``row``.  Per
        record they do what :meth:`_advance` does, in the same order —
        message put, purge (RANGE before the add, ROWS after), accumulator
        upkeep — with one inlined block per aggregate.  Per batch, the end
        lines put each touched key's seq record in first-touch order, as
        :meth:`process_batch` does, and add the ``_retained`` delta.  The
        store methods are bound per batch, never here: whatever wraps
        the stores' classes sees every write.
        """
        key, order = exprs[:2]
        given = iter(exprs[2:])
        args = [next(given) if call.operands else None for call in node.aggs]
        funcs = [call.op for call in node.aggs]
        range_ms, rows_limit = _frame(node)
        values = [f"_v{i}_{j}" for j in range(len(funcs))]
        # literal lists: the generated namespace has no range()
        fresh = (", ".join("[0, 0, 0]" for _ in funcs),
                 ", ".join("_deque()" if func in ("MIN", "MAX") else "None"
                           for func in funcs))
        constants = {"_WindowState": _WindowState, "_deque": deque}
        batch = [f"    _windows{i} = _op{i}._windows",
                 f"    _mput{i} = _op{i}._messages.put",
                 f"    _mdel{i} = _op{i}._messages.delete",
                 f"    _sput{i} = _op{i}._state.put",
                 f"    _touched{i} = {{}}",
                 f"    _ret{i} = 0"]
        body = [f"_k{i} = {key}",
                f"_w{i} = _windows{i}.get(_k{i})",
                f"if _w{i} is None:",
                f"    _w{i} = _windows{i}[_k{i}] = _WindowState("
                f"[{fresh[0]}], [{fresh[1]}], {{'seq': 0}})",
                f"_s{i} = _w{i}.record",
                f"_q{i} = _s{i}['seq']",
                f"_s{i}['seq'] = _q{i} + 1",
                f"_touched{i}[_k{i}] = _s{i}",
                f"_o{i} = {order}",
                *(f"{value} = {'None' if arg is None else arg}"
                  for value, arg in zip(values, args)),
                f"_mput{i}(_k{i} + (_q{i},), [_o{i}, {', '.join(values)}])",
                f"_rows{i} = _w{i}.rows"]
        add: list[str] = []
        purge = [f"_e = _rows{i}.popleft()"]
        results: list[str] = []
        for j, (func, value) in enumerate(zip(funcs, values)):
            if func in ("MIN", "MAX"):
                dq = f"_d{i}_{j}"
                body.append(f"{dq} = _w{i}.minmax[{j}]")
                dominated = ">=" if func == "MIN" else "<="
                add += [f"if {value} is not None:",
                        f"    while {dq} and {dq}[-1][2] {dominated} {value}:",
                        f"        {dq}.pop()",
                        f"    {dq}.append((_o{i}, _q{i}, {value}))"]
                purge += [f"if {dq} and {dq}[0][1] == _e[1]:",
                          f"    {dq}.popleft()"]
                results.append(f"({dq}[0][2] if {dq} else None)")
                continue
            acc = f"_x{i}_{j}"
            body.append(f"{acc} = _w{i}.accs[{j}]")
            if func == "COUNT":
                add.append(f"{acc}[1] += 1")
                purge.append(f"{acc}[1] -= 1")
                results.append(f"{acc}[1]")
                continue
            add += [f"if {value} is not None:",
                    f"    {acc}[0] += {value}",
                    f"    {acc}[2] += 1"]
            purge += [f"_v = _e[2][{j}]",
                      "if _v is not None:",
                      f"    {acc}[0] -= _v",
                      f"    {acc}[2] -= 1"]
            results.append(f"({acc}[0] if {acc}[2] else None)"
                           if func == "SUM" else
                           f"({acc}[0] / {acc}[2] if {acc}[2] else None)")
        purge += [f"_mdel{i}(_k{i} + (_e[1],))", f"_ret{i} -= 1"]
        loop = [f"    {line}" for line in purge]
        if range_ms is not None:
            body += [f"_cut{i} = _o{i} - {range_ms}",
                     f"while _rows{i} and _rows{i}[0][0] < _cut{i}:", *loop]
        body += [f"_rows{i}.append((_o{i}, _q{i}, "
                 f"({''.join(v + ', ' for v in values)})))",
                 f"_ret{i} += 1", *add]
        if rows_limit is not None:
            body += [f"while len(_rows{i}) > {rows_limit}:", *loop]
        body.append(f"{row} = ({''.join(r + ', ' for r in results)})")
        end = [f"    for _key, _record in _touched{i}.items():",
               f"        _sput{i}(_key, _record)",
               f"    _op{i}._retained += _ret{i}"]
        return constants, batch, [" " * 8 + line for line in body], end

    def state_size(self) -> int:
        """Messages currently retained in open windows — an O(1) counter
        maintained on add/purge (backs the ``window-state-size`` gauge)."""
        return self._retained
