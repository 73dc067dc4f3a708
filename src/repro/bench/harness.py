"""The figure harness: regenerate the paper's evaluation series.

For each figure, the harness (1) measures real per-message costs of the
native and SamzaSQL pipelines through the in-process runtime, then (2)
feeds those costs into the calibrated cluster model to produce the
throughput-vs-container-count series the paper plots.  ``print`` output
mirrors the figures: one row per container count, native and SamzaSQL
columns, plus the ratio — the number the paper's claims are about
(filter/project ≈30-40% slower, join ≈2x slower, sliding window ≈parity).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.calibration import CalibrationResult, calibrate_pair
from repro.cluster.scaling import ClusterParameters, ScalingModel

# Figure id -> benchmark query (paper §5.1).
FIGURES = {
    "5a": "filter",
    "5b": "project",
    "5c": "join",
    "6": "window",
}

DEFAULT_CONTAINER_COUNTS = [1, 2, 4, 6, 8]


@dataclass
class BenchResult:
    """One figure's regenerated data."""

    figure: str
    query: str
    calibration: dict[str, CalibrationResult]
    native_series: list[tuple[int, float]]
    samzasql_series: list[tuple[int, float]]
    notes: list[str] = field(default_factory=list)

    @property
    def slowdown_percent(self) -> float:
        """SamzaSQL throughput deficit vs native at max containers."""
        native = self.native_series[-1][1]
        sql = self.samzasql_series[-1][1]
        return (1 - sql / native) * 100.0

    @property
    def native_over_sql_factor(self) -> float:
        return self.native_series[-1][1] / self.samzasql_series[-1][1]

    def scaling_factor(self, series: list[tuple[int, float]]) -> float:
        """Throughput gain from min to max container count (linear would
        equal the container ratio)."""
        return series[-1][1] / series[0][1]

    def format_table(self) -> str:
        lines = [
            f"Figure {self.figure} — {self.query} query throughput "
            f"(messages/second, simulated cluster, measured per-message costs)",
            f"  calibration: native {self.calibration['native'].per_message_ms:.4f} "
            f"ms/msg, samzasql {self.calibration['samzasql'].per_message_ms:.4f} ms/msg",
            f"  {'containers':>10} {'native':>12} {'samzasql':>12} {'sql/native':>10}",
        ]
        for (count, native), (_, sql) in zip(self.native_series,
                                             self.samzasql_series):
            lines.append(
                f"  {count:>10} {native:>12.0f} {sql:>12.0f} {sql / native:>10.2f}")
        lines.append(
            f"  SamzaSQL vs native at {self.native_series[-1][0]} containers: "
            f"{self.slowdown_percent:.0f}% slower "
            f"({self.native_over_sql_factor:.2f}x)")
        lines.extend(f"  note: {note}" for note in self.notes)
        return "\n".join(lines)


def run_figure(figure: str, container_counts: list[int] | None = None,
               messages: int = 4000, partitions: int = 32,
               params: ClusterParameters | None = None) -> BenchResult:
    """Regenerate one of the paper's figures."""
    try:
        query = FIGURES[figure]
    except KeyError:
        raise ValueError(f"unknown figure {figure!r}; known: {sorted(FIGURES)}") from None
    counts = container_counts or DEFAULT_CONTAINER_COUNTS
    calibration = calibrate_pair(query, messages=messages, partitions=partitions)
    model = ScalingModel(params or ClusterParameters(partitions=partitions))
    native_series = model.sweep(counts, calibration["native"].per_message_ms)
    sql_series = model.sweep(counts, calibration["samzasql"].per_message_ms)
    notes = []
    if query == "window":
        notes.append("paper ran sliding-window tests on a single machine "
                     "(EC2 I/O throttling); throughput is dominated by "
                     "KV-store access in both variants")
    return BenchResult(
        figure=figure, query=query, calibration=calibration,
        native_series=native_series, samzasql_series=sql_series, notes=notes)


def measure_query(query: str, variant: str, messages: int = 4000,
                  partitions: int = 32) -> CalibrationResult:
    """Convenience re-export for benchmark files."""
    from repro.bench.calibration import measure

    return measure(query, variant, messages=messages, partitions=partitions)


def run_all_figures(messages: int = 4000) -> dict[str, BenchResult]:
    return {figure: run_figure(figure, messages=messages) for figure in FIGURES}


def profile_operators(query: str, messages: int = 4000, partitions: int = 32,
                      containers: int = 1) -> list[dict]:
    """Per-operator profile of one benchmark query, read from the
    ``__metrics`` snapshot stream (not by reaching into registries).

    Returns one dict per operator: messages in/out summed over partitions,
    worst-partition p95 process time (on a fused query the
    leaf operator carries the whole chain's timer, the others read 0),
    and retained window state.
    """
    from repro.bench.calibration import (
        SQL_QUERIES,
        _build_runtime,
        _feed_workload,
    )
    from repro.workloads.orders import padded_orders_schema
    from repro.workloads.products import PRODUCTS_SCHEMA

    env = _build_runtime(partitions, metrics_interval_ms=1_000)
    _feed_workload(env.cluster, query, messages, partitions)
    env.shell.register_stream("Orders", padded_orders_schema(),
                              partitions=partitions)
    if query == "join":
        env.shell.register_table("Products", PRODUCTS_SCHEMA,
                                 key_field="productId", partitions=partitions)
    env.shell.execute(SQL_QUERIES[query], containers=containers)
    env.run_until_quiescent()

    ops: dict[str, dict] = {}
    for record in env.metrics(force=True):
        if not record["operator"]:
            continue
        entry = ops.setdefault(record["operator"], {
            "operator": record["operator"], "messages_in": 0.0,
            "messages_out": 0.0, "process_ns_p95": 0.0,
            "window_state_size": 0.0,
        })
        if record["metric"] == "messages-in":
            entry["messages_in"] += record["value"]
        elif record["metric"] == "messages-out":
            entry["messages_out"] += record["value"]
        elif record["metric"] == "process-ns.p95":
            entry["process_ns_p95"] = max(entry["process_ns_p95"],
                                          record["value"])
        elif record["metric"] == "window-state-size":
            entry["window_state_size"] += record["value"]
    return sorted(ops.values(), key=lambda e: e["operator"])
