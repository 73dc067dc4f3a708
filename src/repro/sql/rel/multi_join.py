"""Stream-join condition analysis (arXiv 2411.15835's planning step) — the
one reader of a windowed stream-to-stream join condition, for K >= 2 inputs.

Every conjunct of the (combined) join condition is classified as

* an equi-join between two inputs' fields; an equivalence class (key
  family) touching *every* input is the shared partition key the state
  layout is bucketed by — without one the join is *keyless* (one constant
  key: every buffered row is a candidate);
* a rowtime-window comparison between two inputs' timestamps
  (``a.rowtime <= b.rowtime + c`` and friends); or
* *residual* — anything else.  The operator evaluates the whole condition
  on every candidate combination, so a residual conjunct needs no plan
  support; it only blocks the collapse of a chain.

The analysis computes the time-offset matrix ``upper[i][j]`` = max allowed
``t_i - t_j`` and closes it transitively (Floyd–Warshall over
``upper[i][j] <= upper[i][k] + upper[k][j]``): a 3-way query typically
only states A–B and A–C windows, but the operator probes B from a C
arrival too, so the derived B–C bound is what makes every probe finite.
A pair the closed matrix leaves unbounded would need infinite state on
some side; the physical planner rejects it.

The same analysis runs twice by design: once inside the optimizer rule as
the collapse *decision* (``collapsible``: K >= 3, keyed, bounded, no
residual — anything else stays a chain of binary joins) and once in the
physical planner as the *extraction* of key/time metadata for
:class:`~repro.samzasql.physical.MultiWayStreamJoinNode`, whatever K is.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sql.rel.nodes import LogicalScan, RelNode
from repro.sql.rex import (
    RexCall,
    RexInputRef,
    RexLiteral,
    RexNode,
    split_conjunction,
)

_COMPARISONS = ("<", "<=", ">", ">=")

#: sentinel for "no bound yet" in the offset matrix.
_INF = float("inf")


@dataclass(frozen=True)
class MultiJoinAnalysis:
    """Everything the planner needs to run K inputs as one join operator."""

    widths: tuple[int, ...]          # fields per input
    offsets: tuple[int, ...]         # global index of each input's field 0
    # per-input local rowtime index; None: the input has no rowtime field
    rowtime_indexes: tuple[int | None, ...]
    # per-input local equi-key index; None: keyless (no all-input family)
    key_indexes: tuple[int, ...] | None
    # max(t_i - t_j), closed matrix; None: the pair is unbounded
    upper_ms: tuple[tuple[int | None, ...], ...]
    residual: bool                   # some conjunct is neither equi nor window

    @property
    def k(self) -> int:
        return len(self.widths)

    @property
    def bounded(self) -> bool:
        return all(v is not None for row in self.upper_ms for v in row)

    @property
    def collapsible(self) -> bool:
        """May a chain with this condition run as ONE K-way operator?"""
        return (self.k >= 3 and self.key_indexes is not None
                and self.bounded and not self.residual)

    def retention_ms(self, port: int) -> int:
        """How long a row buffered on ``port`` can still match a future
        arrival on any other port.  Symmetric, so interleaved
        near-synchronous streams never drop a row one direction of the
        window still needs."""
        spans = [max(self.upper_ms[j][port], self.upper_ms[port][j])
                 for j in range(self.k) if j != port]
        return max(0, *spans) if spans else 0


def input_offsets(inputs: tuple[RelNode, ...]) -> tuple[int, ...]:
    offsets = []
    total = 0
    for node in inputs:
        offsets.append(total)
        total += len(node.row_type)
    return tuple(offsets)


def stream_scan_of(node: RelNode) -> LogicalScan | None:
    """The unique stream scan inside a join input, or None."""
    found: list[LogicalScan] = []

    def walk(current: RelNode) -> None:
        if isinstance(current, LogicalScan):
            if current.is_stream:
                found.append(current)
            return
        for child in current.inputs:
            walk(child)

    walk(node)
    return found[0] if len(found) == 1 else None


def _rowtime_global_indexes(inputs: tuple[RelNode, ...],
                            offsets: tuple[int, ...]) -> list[int | None]:
    out: list[int | None] = []
    for node, offset in zip(inputs, offsets):
        out.append(None)
        for i, f in enumerate(node.row_type.fields):
            if f.name.lower() == "rowtime":
                out[-1] = offset + i
                break
    return out


def analyze_multi_join(inputs: tuple[RelNode, ...],
                       condition: RexNode) -> MultiJoinAnalysis:
    """Classify a (combined) join condition over K >= 2 inputs."""
    k = len(inputs)
    offsets = input_offsets(inputs)
    widths = tuple(len(node.row_type) for node in inputs)
    total = offsets[-1] + widths[-1]
    rowtimes = _rowtime_global_indexes(inputs, offsets)

    def input_of(index: int) -> int:
        for i in range(k - 1, -1, -1):
            if index >= offsets[i]:
                return i
        return 0

    # Union-find over field indexes, fed by the equi conjuncts.
    parent = list(range(total))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    def shifted_time(rex: RexNode) -> tuple[int, int] | None:
        """Match ``t``, ``t + c``, ``t - c`` where t is an input's rowtime;
        returns (input index, constant shift)."""
        if isinstance(rex, RexInputRef) and rex.index in rowtimes:
            return rowtimes.index(rex.index), 0
        if (isinstance(rex, RexCall) and rex.op in ("+", "-")
                and len(rex.operands) == 2):
            base, delta = rex.operands
            if (isinstance(base, RexInputRef) and base.index in rowtimes
                    and isinstance(delta, RexLiteral)
                    and isinstance(delta.value, (int, float))):
                sign = 1 if rex.op == "+" else -1
                return rowtimes.index(base.index), sign * int(delta.value)
        return None

    # upper[i][j]: max allowed t_i - t_j (None yet = unbounded).
    upper = [[0 if i == j else _INF for j in range(k)] for i in range(k)]

    def note_bound(op: str, a: tuple[int, int], b: tuple[int, int]) -> None:
        (ia, ca), (ib, cb) = a, b
        # t_a + ca (op) t_b + cb
        if op in (">", ">="):
            (ia, ca), (ib, cb) = (ib, cb), (ia, ca)
        # now: t_a + ca <= t_b + cb  =>  t_a - t_b <= cb - ca
        bound = cb - ca
        upper[ia][ib] = min(upper[ia][ib], bound)

    residual = False
    for conjunct in split_conjunction(condition):
        if (isinstance(conjunct, RexCall) and conjunct.op == "="
                and len(conjunct.operands) == 2):
            a, b = conjunct.operands
            if (isinstance(a, RexInputRef) and isinstance(b, RexInputRef)
                    and input_of(a.index) != input_of(b.index)):
                union(a.index, b.index)
                continue
        elif (isinstance(conjunct, RexCall) and conjunct.op in _COMPARISONS
                and len(conjunct.operands) == 2):
            a = shifted_time(conjunct.operands[0])
            b = shifted_time(conjunct.operands[1])
            if a is not None and b is not None and a[0] != b[0]:
                note_bound(conjunct.op, a, b)
                continue
        residual = True

    # One key family must cover every input; pick the lowest field per input.
    by_root: dict[int, list[int]] = {}
    for index in range(total):
        by_root.setdefault(find(index), []).append(index)
    key_indexes: tuple[int, ...] | None = None
    for members in by_root.values():
        if len(members) < 2:
            continue
        per_input: dict[int, int] = {}
        for member in members:
            owner = input_of(member)
            per_input.setdefault(owner, member)
        if len(per_input) == k:
            key_indexes = tuple(per_input[i] - offsets[i] for i in range(k))
            break

    # Transitive closure: a bound through k tightens (or creates) i->j.
    for mid in range(k):
        for i in range(k):
            for j in range(k):
                via = upper[i][mid] + upper[mid][j]
                if via < upper[i][j]:
                    upper[i][j] = via

    return MultiJoinAnalysis(
        widths=widths,
        offsets=offsets,
        rowtime_indexes=tuple(None if rowtimes[i] is None
                              else rowtimes[i] - offsets[i] for i in range(k)),
        key_indexes=key_indexes,
        upper_ms=tuple(tuple(None if v == _INF else int(v) for v in row)
                       for row in upper),
        residual=residual,
    )
