"""Reference outputs: plain-Python evaluation of the benchmark's SQL shapes.

Nothing here imports the program under test.  Each ``expected_*`` function
maps a feed's rows (see :mod:`perfbench.feeds`) to the output row every
input must produce, keyed by an id that also appears in that output row;
:func:`check_outputs` then compares a query's decoded output against it,
one *operation* per input message:

* an input whose expected row is absent, or present with different
  values, or present although none was expected, is a failed operation;
* a repeated output row is a failed operation too — except under
  at-least-once (the crash-recovery workload), where repeats are counted
  as ``duplicates`` and only required to be consistent.

The front-door half is a seeded *expected-outcome table*: a small model of
slots, queue and ACLs that says, per statement, which outcome class
(started / queued / QUOTA_EXCEEDED / SECURITY_VIOLATION / rows) the
serving layer must answer with.  Expected refusals are successes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

FILTER_THRESHOLD = 50
WINDOW_MS = 5 * 60 * 1000


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    duplicates: int = 0
    missing: int = 0
    inconsistent: int = 0
    unexpected: int = 0

    def add(self, other: "Verdict") -> None:
        for name in ("attempted", "failed", "duplicates", "missing",
                     "inconsistent", "unexpected"):
            setattr(self, name, getattr(self, name) + getattr(other, name))


# -- the four SQL shapes ---------------------------------------------------------


def expected_filter(rows: list[tuple]) -> dict[int, dict]:
    """``SELECT STREAM * FROM Orders WHERE units > 50``, keyed by orderId."""
    return {
        order_id: {"rowtime": rowtime, "productId": pid, "orderId": order_id,
                   "units": units, "padding": padding}
        for rowtime, pid, order_id, units, padding in rows
        if units > FILTER_THRESHOLD
    }


def expected_window(rows: list[tuple]) -> dict[int, dict]:
    """``SUM(units) OVER (PARTITION BY productId ORDER BY rowtime RANGE
    INTERVAL '5' MINUTE PRECEDING)``, keyed by rowtime (unique per feed)."""
    windows: dict[int, deque] = {}
    sums: dict[int, int] = {}
    out = {}
    for rowtime, pid, _order_id, units, _padding in rows:
        window = windows.setdefault(pid, deque())
        total = sums.get(pid, 0)
        cutoff = rowtime - WINDOW_MS
        while window and window[0][0] < cutoff:
            total -= window.popleft()[1]
        window.append((rowtime, units))
        total += units
        sums[pid] = total
        out[rowtime] = {"rowtime": rowtime, "productId": pid, "units": units,
                        "unitsLastFiveMinutes": total}
    return out


def window_state_rows(rows: list[tuple]) -> int:
    """Rows the two window stores retain after the whole feed: every
    message still inside its product's window plus one bounds record per
    product seen."""
    last_by_product: dict[int, int] = {}
    for rowtime, pid, *_ in rows:
        last_by_product[pid] = rowtime
    retained = sum(1 for rowtime, pid, *_ in rows
                   if rowtime >= last_by_product[pid] - WINDOW_MS)
    return retained + len(last_by_product)


def expected_join(rows: list[tuple], products: list[tuple]) -> dict[int, dict]:
    """``Orders JOIN Products ON productId`` (inner), keyed by orderId."""
    supplier = {pid: supplier_id for pid, _name, supplier_id in products}
    return {
        order_id: {"rowtime": rowtime, "orderId": order_id, "productId": pid,
                   "units": units, "supplierId": supplier[pid]}
        for rowtime, pid, order_id, units, _padding in rows
        if pid in supplier
    }


# -- comparison ------------------------------------------------------------------


def check_outputs(input_count: int, expected: dict[int, dict],
                  outputs: list[dict], id_field: str,
                  at_least_once: bool = False) -> Verdict:
    """One operation per input message; see the module docstring."""
    seen: dict[int, int] = {}
    bad: set[int] = set()
    verdict = Verdict(attempted=input_count)
    for row in outputs:
        key = row[id_field]
        want = expected.get(key)
        if want is None:
            verdict.unexpected += 1
            bad.add(key)
        elif row != want:
            verdict.inconsistent += 1
            bad.add(key)
        seen[key] = seen.get(key, 0) + 1
    for key in expected:
        if key not in seen:
            verdict.missing += 1
            bad.add(key)
    for key, count in seen.items():
        if count > 1:
            verdict.duplicates += count - 1
            if not at_least_once:
                bad.add(key)
    verdict.failed = len(bad)
    return verdict


# -- front door: batch statements and the expected-outcome table -------------------


def expected_group_count(rows: list[tuple]) -> list[dict]:
    """``SELECT productId, COUNT(*) AS c FROM Orders GROUP BY productId``."""
    counts: dict[int, int] = {}
    for _rowtime, pid, *_ in rows:
        counts[pid] = counts.get(pid, 0) + 1
    return [{"productId": pid, "c": c} for pid, c in counts.items()]


def expected_batch_filter(rows: list[tuple], units_above: int) -> list[dict]:
    """``SELECT orderId, units FROM Orders WHERE units > N``."""
    return [{"orderId": order_id, "units": units}
            for _rowtime, _pid, order_id, units, _padding in rows
            if units > units_above]


def same_rows(got: list[dict], want: list[dict]) -> bool:
    """Multiset equality (batch SELECTs promise no order)."""
    def canon(rows):
        return sorted(tuple(sorted(row.items())) for row in rows)
    return canon(got) == canon(want)


class AdmissionModel:
    """Per-tenant slots plus a bounded FIFO queue, as the serving layer
    documents them: a streaming submission *starts* while slots are free,
    is *queued* while the queue has room, and is refused with
    ``QUOTA_EXCEEDED`` after that."""

    def __init__(self):
        self._running: dict[str, int] = {}
        self._queued: dict[str, int] = {}

    def submit(self, tenant: str, slots: int, queue_depth: int) -> str:
        if self._running.get(tenant, 0) < slots:
            self._running[tenant] = self._running.get(tenant, 0) + 1
            return "started"
        if self._queued.get(tenant, 0) < queue_depth:
            self._queued[tenant] = self._queued.get(tenant, 0) + 1
            return "queued"
        return "QUOTA_EXCEEDED"
