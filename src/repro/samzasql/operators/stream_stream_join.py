"""Windowed stream-to-stream join (§3.8.1).

"Sliding window join queries uses additional join condition on the tuple's
timestamp (rowtime) to specify the window over the stream.  SamzaSQL
assumes that the tuple's timestamp monotonically increases."

Both sides buffer their recent tuples in task-local stores, bucketed by
the equi-join key.  On an arrival from one side, the other side's bucket
is scanned for rows whose timestamp satisfies the window bounds
(``left.rowtime - right.rowtime ∈ [-lower, upper]``), the full generated
join condition is applied as a residual predicate, and matches are
emitted.  Buffered rows older than the window (relative to the joint
watermark) are purged — monotonic timestamps make this safe.
"""

from __future__ import annotations

from repro.samzasql.operators.base import Operator, OperatorContext
from repro.sql.codegen import compile_lambda

LEFT_PORT = 0
RIGHT_PORT = 1

LEFT_STORE = "sql-join-left"
RIGHT_STORE = "sql-join-right"


class StreamStreamJoinOperator(Operator):
    METRIC_KIND = "stream-join"

    def __init__(self, left_width: int, right_width: int, condition_source: str,
                 left_time_index: int, right_time_index: int,
                 lower_bound_ms: int, upper_bound_ms: int,
                 left_key_source: str | None, right_key_source: str | None,
                 field_names: list[str],
                 left_store: str = LEFT_STORE, right_store: str = RIGHT_STORE):
        super().__init__()
        self.store_names = [left_store, right_store]
        self.left_width = left_width
        self.right_width = right_width
        self.condition_source = condition_source
        self.left_time_index = left_time_index
        self.right_time_index = right_time_index
        self.lower_bound_ms = lower_bound_ms
        self.upper_bound_ms = upper_bound_ms
        self.field_names = list(field_names)
        self._condition = compile_lambda(condition_source, params="l, r")
        self._left_key = (None if left_key_source is None
                          else compile_lambda(left_key_source))
        self._right_key = (None if right_key_source is None
                           else compile_lambda(right_key_source))
        self._stores = [None, None]
        self._seq = 0
        self._retained = 0

    def setup(self, context: OperatorContext) -> None:
        self._stores = [context.get_store(name) for name in self.store_names]
        # One walk at (re)start seeds the O(1) retained-row counter from
        # the restored stores; buffer/purge maintain it from here on.
        self._retained = sum(
            len(bucket["rows"])
            for store in self._stores for _key, bucket in store.all())

    def state_size(self) -> int:
        """Rows buffered on both sides — an O(1) counter maintained on
        buffer/purge (backs the sampled ``window-state-size`` gauge)."""
        return self._retained

    # -- helpers ----------------------------------------------------------------

    def _key_of(self, port: int, row: list) -> str:
        key_fn = self._left_key if port == LEFT_PORT else self._right_key
        return repr(key_fn(row)) if key_fn is not None else ""

    def _time_of(self, port: int, row: list) -> int:
        index = self.left_time_index if port == LEFT_PORT else self.right_time_index
        return row[index]

    def _retention_ms(self) -> int:
        return max(self.lower_bound_ms, self.upper_bound_ms)

    # -- processing -----------------------------------------------------------------

    def _purge_front(self, entries: list, horizon: int) -> None:
        drop = 0
        for entry in entries:
            if entry[0] >= horizon:
                break
            drop += 1
        if drop:
            del entries[:drop]
            self._retained -= drop

    def process_batch(self, port: int, rows: list, timestamps: list) -> None:
        """Rows are probed/buffered in input order; each touched bucket is
        fetched from the store once per batch and written back once per
        batch."""
        self.processed += len(rows)
        own_store = self._stores[port]
        other_port = RIGHT_PORT if port == LEFT_PORT else LEFT_PORT
        other_store = self._stores[other_port]
        own_buckets: dict[str, dict] = {}
        other_buckets: dict[str, dict] = {}
        out_rows: list = []
        out_ts: list = []
        condition = self._condition
        retention = self._retention_ms()
        for row in rows:
            ts = self._time_of(port, row)
            key = self._key_of(port, row)

            # probe the other side's buffer for rows inside the window
            other_bucket = other_buckets.get(key)
            if other_bucket is None:
                other_bucket = other_store.get(key) or {"rows": []}
                other_buckets[key] = other_bucket
            if port == LEFT_PORT:
                # need: ts - other_ts in [-lower, upper]
                low, high = ts - self.upper_bound_ms, ts + self.lower_bound_ms
            else:
                # other row is the left side: other_ts - ts in [-lower, upper]
                low, high = ts - self.lower_bound_ms, ts + self.upper_bound_ms
            for other_ts, _other_seq, other_row in other_bucket["rows"]:
                if not low <= other_ts <= high:
                    continue
                if port == LEFT_PORT:
                    left, right = row, other_row
                else:
                    left, right = other_row, row
                if condition(left, right):
                    out_rows.append(list(left) + list(right))
                    out_ts.append(max(self._time_of(LEFT_PORT, left),
                                      self._time_of(RIGHT_PORT, right)))

            # buffer this row on its own side
            bucket = own_buckets.get(key)
            if bucket is None:
                bucket = own_store.get(key) or {"rows": []}
                own_buckets[key] = bucket
            self._seq += 1
            bucket["rows"].append((ts, self._seq, row))
            self._retained += 1
            # Purge rows that can no longer match: the list is time-ordered
            # (monotonic timestamps), so scan from the front and stop at the
            # first survivor instead of rebuilding the whole list per message.
            self._purge_front(bucket["rows"], ts - retention)
        for key, bucket in own_buckets.items():
            own_store.put(key, bucket)
        self.emit_batch(out_rows, out_ts)

    def describe(self) -> str:
        return (f"StreamStreamJoin(window=[-{self.lower_bound_ms}ms, "
                f"+{self.upper_bound_ms}ms])")
