"""Windowed stream-to-stream join (§3.8.1) over K >= 2 inputs with one
shared, time-bucketed state layout.

"Sliding window join queries uses additional join condition on the tuple's
timestamp (rowtime) to specify the window over the stream.  SamzaSQL
assumes that the tuple's timestamp monotonically increases."

This is the only stream-to-stream join operator: a binary join is the
K = 2 case, and a join chain the optimizer cannot collapse runs as a
cascade of K = 2 instances.  A cascade pays for every intermediate stream
twice: each ``A ⋈ B`` match is routed as a fresh message into the next
join *and* buffered in that join's window store, so K-way state duplicates
every prefix of the chain.  The collapsed form (arXiv 2411.15835's
multi-way method, incremental per-arrival probing per Fegaras) keeps
exactly one window store per *input* and assembles output rows by probing
the other K−1 sides directly, so state is linear in the inputs regardless
of how many matches the windows hold.

Ordering assumption: within one input *partition*, rowtime never
decreases (the paper's, quoted above).  Watermarks and purge are built on
it — a port's watermark is the largest rowtime it has delivered, and the
other ports drop what that watermark has passed.  Nothing is assumed
about the order *between* ports or partitions: a side is never purged by
its own clock, so lagging or one-after-another consumption loses nothing.
A row that arrives behind its own port's watermark is still probed and
buffered, but rows of the other ports that the watermark already released
are gone: it can miss the matches that lie within its lateness of the
far edge of its window.  There is no allowed-lateness setting; a feed
that is out of order within a partition loses exactly those matches.  An
uncollapsed cascade meets this inside the plan: ``A ⋈ B`` emits in
arrival order, so the rowtime its output carries into the next join can
step back by up to the A–B window.

State layout (PR 4 style, per input port):

* in memory, the live buffers: ``bucket_id → key → [(ts, seq, row)]``
  where ``bucket_id = ts // bucket_ms``.  Monotonic timestamps mean
  bucket ids are created in ascending order, so the dict's insertion
  order doubles as the purge order;
* in the port's write-behind store, named by the plan (``sql-mjoin-<port>``,
  ``sql-mjoin<N>-<port>`` for a later join instance), one row entry
  ``(bucket_id, seq) → row`` per retained row plus a small per-bucket
  index record ``(bucket_id, -1) → {"count", "seq"}``, which the ordered
  key codec sorts just ahead of its bucket's rows — no monolithic blob is
  ever rebuilt.  A row's key and timestamp are functions of the row, so
  only the row is stored.

Purge drops whole expired time buckets from the front of the dict:
amortized O(1) per row (each row entry is deleted from the store exactly
once, when its bucket expires).  A port's buffer is purged against the
*other* ports' watermarks — row ``r`` at port *i* is dead only once every
other port *j* has advanced past ``r.ts + upper[j][i]``, so a side whose
consumption lags (e.g. topics drained one after another on catch-up)
never loses rows it still has to probe.  ``state_size()`` reads O(1)
per-port retained-row counters maintained on buffer/purge.

On an arrival from port *i*, the other sides are probed in the
planner-chosen order (smallest expected state first), short-circuiting
as soon as one side has no candidate — an inner join cannot produce
output then, so the larger sides are never touched.  The residual
condition is compiled once, over per-input rows ``p0..p{K-1}``, and
applied to each candidate combination.
"""

from __future__ import annotations

from itertools import product

from repro.samzasql.operators.base import Operator, OperatorContext
from repro.samzasql.physical import MultiWayStreamJoinNode
from repro.sql.codegen import compile_lambda, compile_scalar, render
from repro.sql.rex import RexInputRef

#: The seq of a bucket's index record in its store key: below every row's.
INDEX_SEQ = -1


def _keyless(row: list) -> None:
    """The join key of a port of a keyless join: every row shares it."""
    return None


class MultiWayStreamJoinOperator(Operator):
    METRIC_KIND = "multi-join"

    def __init__(self, node: MultiWayStreamJoinNode):
        super().__init__(node)
        self.k = len(node.widths)
        self.bucket_ms = max(1, int(node.bucket_ms))
        # the condition over the per-input rows p0..p{K-1}
        rows = [f"p{i}[{j}]" for i, width in enumerate(node.widths)
                for j in range(width)]
        self._condition = compile_lambda(
            render(node.condition, ref_sources=rows),
            params=", ".join(f"p{i}" for i in range(self.k)))
        self._key_fns = ([_keyless] * self.k if node.key_indexes is None
                         else [compile_scalar(RexInputRef(key))
                               for key in node.key_indexes])
        self._stores = [None] * self.k
        # port -> bucket_id -> key -> [(ts, seq, row)], ascending bucket ids
        self._buckets: list[dict] = [dict() for _ in range(self.k)]
        self._index: list[dict] = [dict() for _ in range(self.k)]
        self._retained = [0] * self.k
        self._watermarks: list[int | None] = [None] * self.k
        self._seq = 0

    # -- durability --------------------------------------------------------------

    def setup(self, context: OperatorContext) -> None:
        # the plan names one per input port
        self._stores = [context.get_store(name) for name in self.node.stores]
        self._buckets = [dict() for _ in range(self.k)]
        self._index = [dict() for _ in range(self.k)]
        self._retained = [0] * self.k
        self._watermarks = [None] * self.k
        self._seq = 0
        self._rebuild()

    def _rebuild(self) -> None:
        """Reconstruct the live buffers from the (restored) stores, one
        ordered scan per port.

        Keys are ordered ``(bucket_id, seq)``, so the scan meets buckets
        in ascending order — the buffers' purge order — each led by its
        index record and followed by its rows in seq (arrival) order.  Row
        entries with ``seq >= record["seq"]``, or with no index record,
        were flushed ahead of an index record that never made it (crash
        mid-commit); they are skipped and regenerated identically by
        at-least-once replay — the same partial-flush guard the
        sliding-window operator uses.
        """
        for port in range(self.k):
            time_index = self.node.time_indexes[port]
            key_fn = self._key_fns[port]
            buckets, index = self._buckets[port], self._index[port]
            current = fence = bucket = None
            for (bucket_id, seq), value in self._stores[port].all():
                if seq == INDEX_SEQ:
                    index[bucket_id] = value
                    bucket = buckets[bucket_id] = {}
                    current, fence = bucket_id, value["seq"]
                    self._seq = max(self._seq, fence)
                elif bucket_id == current and seq < fence:
                    bucket.setdefault(key_fn(value), []).append(
                        (value[time_index], seq, value))
                    self._retained[port] += 1

    def state_size(self) -> int:
        """Rows buffered across all K sides; backs ``window-state-size``."""
        return sum(self._retained)

    # -- probing -----------------------------------------------------------------

    def _candidates(self, port: int, key, low: int, high: int) -> list:
        """Rows of ``port``'s buffer for ``key`` with ts in [low, high].

        Only the overlapping time buckets are visited; missing (empty)
        buckets short-circuit on the dict lookup."""
        out: list = []
        buckets = self._buckets[port]
        bucket_ms = self.bucket_ms
        for bucket_id in range(low // bucket_ms, high // bucket_ms + 1):
            bucket = buckets.get(bucket_id)
            if not bucket:
                continue
            rows = bucket.get(key)
            if not rows:
                continue
            out.extend(entry for entry in rows if low <= entry[0] <= high)
        return out

    def _matches(self, port: int, row: list, ts: int, key) -> list | None:
        """Candidate rows per slot, or None when any probed side is empty."""
        slots: list = [None] * self.k
        slots[port] = [(ts, -1, row)]
        upper = self.node.upper_bounds_ms
        for j in self.node.probe_orders[port]:
            low = ts - upper[port][j]
            high = ts + upper[j][port]
            candidates = self._candidates(j, key, low, high)
            if not candidates:
                return None  # inner join: short-circuit the probe
            slots[j] = candidates
        return slots

    def _emit_combinations(self, slots: list, out_rows: list,
                           out_ts: list) -> None:
        condition = self._condition
        for combo in product(*slots):
            parts = [entry[2] for entry in combo]
            if not condition(*parts):
                continue
            joined: list = []
            for part in parts:
                joined.extend(part)
            out_rows.append(joined)
            out_ts.append(max(entry[0] for entry in combo))

    # -- buffering + purge -------------------------------------------------------

    def _buffer(self, port: int, key, ts: int, row: list) -> dict:
        """Add one row to its side's buffers; returns the touched index
        record (the caller persists it, once per touched bucket)."""
        bucket_id = ts // self.bucket_ms
        self._seq += 1
        seq = self._seq
        bucket = self._buckets[port].get(bucket_id)
        if bucket is None:
            bucket = {}
            self._buckets[port][bucket_id] = bucket
        bucket.setdefault(key, []).append((ts, seq, row))
        record = self._index[port].get(bucket_id)
        if record is None:
            record = {"count": 0, "seq": 0}
            self._index[port][bucket_id] = record
        record["count"] += 1
        record["seq"] = seq + 1
        self._retained[port] += 1
        self._stores[port].put((bucket_id, seq), row)
        return record

    def _advance(self, port: int, ts: int) -> None:
        """Advance ``port``'s watermark and purge the *other* ports.

        A row at port *p* can still match a future arrival at port *j*
        while ``watermark_j <= row.ts + upper[j][p]``, so port *p*'s safe
        purge horizon is ``min over j != p of (watermark_j - upper[j][p])``
        — no purge at all until every other port has seen traffic.  An
        arrival only moves its own watermark, hence only the other ports'
        horizons."""
        if self._watermarks[port] is None or ts > self._watermarks[port]:
            self._watermarks[port] = ts
        for p in range(self.k):
            if p != port:
                self._purge(p)

    def _purge(self, port: int) -> None:
        """Drop whole expired buckets from the front of the bucket dict."""
        horizon = None
        for j in range(self.k):
            if j == port:
                continue
            watermark = self._watermarks[j]
            if watermark is None:
                return
            bound = watermark - self.node.upper_bounds_ms[j][port]
            horizon = bound if horizon is None else min(horizon, bound)
        cutoff = horizon // self.bucket_ms
        buckets = self._buckets[port]
        store = self._stores[port]
        while buckets:
            oldest = next(iter(buckets))
            if oldest >= cutoff:
                break
            dropped = buckets.pop(oldest)
            self._index[port].pop(oldest, None)
            count = 0
            for rows in dropped.values():
                count += len(rows)
                for _ts, seq, _row in rows:
                    store.delete((oldest, seq))
            store.delete((oldest, INDEX_SEQ))
            self._retained[port] -= count

    # -- processing --------------------------------------------------------------

    def process_batch(self, port: int, rows: list, timestamps: list) -> None:
        """Rows probe/buffer in input order, with each touched (port,
        bucket) index record persisted once per batch."""
        self.processed += len(rows)
        time_index = self.node.time_indexes[port]
        key_fn = self._key_fns[port]
        out_rows: list = []
        out_ts: list = []
        touched: dict[int, dict] = {}
        # The watermark is the batch's latest timestamp, not its last: a
        # straggler at the end of a batch must not hold the watermark back
        # further than it would arriving alone.
        max_ts = None
        for row in rows:
            ts = row[time_index]
            key = key_fn(row)
            slots = self._matches(port, row, ts, key)
            if slots is not None:
                self._emit_combinations(slots, out_rows, out_ts)
            touched[ts // self.bucket_ms] = self._buffer(port, key, ts, row)
            if max_ts is None or ts > max_ts:
                max_ts = ts
        store_put = self._stores[port].put
        for bucket_id, record in touched.items():
            store_put((bucket_id, INDEX_SEQ), record)
        if max_ts is not None:
            self._advance(port, max_ts)
        self.emit_batch(out_rows, out_ts)
