"""Cascade vs multi-way stream join: the fig7 series (new to the repro).

Two long-window K-way join scenarios run through the full runtime:

* ``3way_market`` — Bids x Asks x Trades on ticker.  Quotes fan out
  (every bid matches many asks of its ticker inside the long window), so
  the pairwise cascade materializes every intermediate Bids-Asks pair
  into its second join's window store and pays serde + routing for each;
  trades are sparse, so the collapsed operator's cheapest-side-first
  probe order short-circuits most arrivals.
* ``4way_orders`` — Orders x Fills x Shipments x Invoices on orderId,
  reassembling the fulfilment lifecycle of each order inside windows
  anchored at the original order row.

Each scenario runs the same SQL twice — through the default planner (the
multi-way collapse) and through a planner whose rule list omits
``MultiJoinCollapseRule`` (the pairwise cascade: a chain of K = 2
instances of the same operator) — and reports:

* msgs/s over the input messages (process-time, GC suspended, variants
  interleaved, per-variant minimum over repeats — the fig5 methodology);
* peak retained join state, sampled from the ``window-state-size``
  gauges in the ``__metrics`` snapshots while the run drains (an
  untimed pass, so sampling never pollutes the throughput numbers);
* the output-row count per variant (the two plans must agree).

``--check`` gates the 3-way scenario: multi-way throughput >= 1.3x the
cascade and peak state <= 0.75x the cascade, plus output equality on
both scenarios.  CI runs this after the test suite.

Run:  python -m repro.bench.fig7_json [--messages N] [--out PATH] [--check]
"""

from __future__ import annotations

import gc
import json
import pathlib
import time
from dataclasses import dataclass
from typing import Callable

from repro.samzasql.environment import SamzaSqlEnvironment
from repro.sql.planner import QueryPlanner
from repro.sql.rel.optimizer import Optimizer
from repro.sql.rel.rules import DEFAULT_RULES, MultiJoinCollapseRule
from repro.workloads.market import (
    ASKS_SCHEMA,
    BIDS_SCHEMA,
    TRADES_SCHEMA,
    MarketGenerator,
    TradesGenerator,
    ticker_universe,
)
from repro.workloads.orders import (
    ORDER_STAGES,
    ORDERS_SCHEMA,
    OrderLifecycleGenerator,
    order_stage_schema,
)

DEFAULT_OUT = pathlib.Path(__file__).resolve().parents[3] / "BENCH_joins.json"

#: --check thresholds on the 3-way long-window scenario (ISSUE 9).
CHECK_MIN_THROUGHPUT_RATIO = 1.3
CHECK_MAX_STATE_RATIO = 0.75

_TICKER_COUNT = 64
_QUOTE_INTERARRIVAL_MS = 5
_TRADE_DIVISOR = 40  # one trade print per ~40 quotes

THREE_WAY_SQL = (
    "SELECT STREAM Bids.rowtime AS rowtime, Bids.ticker AS ticker, "
    "Bids.price AS bidPrice, Asks.price AS askPrice, "
    "Trades.price AS tradePrice FROM Bids "
    "JOIN Asks ON Bids.rowtime BETWEEN Asks.rowtime - INTERVAL '60' SECOND "
    "AND Asks.rowtime + INTERVAL '60' SECOND AND Bids.ticker = Asks.ticker "
    "JOIN Trades ON Bids.rowtime BETWEEN Trades.rowtime - INTERVAL '60' SECOND "
    "AND Trades.rowtime + INTERVAL '60' SECOND AND Asks.ticker = Trades.ticker"
)

FOUR_WAY_SQL = (
    "SELECT STREAM Orders.rowtime AS rowtime, Orders.orderId AS orderId, "
    "Invoices.rowtime - Orders.rowtime AS cycleMs FROM Orders "
    "JOIN Fills ON Orders.rowtime BETWEEN Fills.rowtime - INTERVAL '2' SECOND "
    "AND Fills.rowtime + INTERVAL '2' SECOND AND Orders.orderId = Fills.orderId "
    "JOIN Shipments ON Orders.rowtime BETWEEN Shipments.rowtime - "
    "INTERVAL '4' SECOND AND Shipments.rowtime + INTERVAL '4' SECOND "
    "AND Fills.orderId = Shipments.orderId "
    "JOIN Invoices ON Orders.rowtime BETWEEN Invoices.rowtime - "
    "INTERVAL '6' SECOND AND Invoices.rowtime + INTERVAL '6' SECOND "
    "AND Shipments.orderId = Invoices.orderId"
)


@dataclass
class Scenario:
    name: str
    sql: str
    setup: Callable[[SamzaSqlEnvironment, int, int], int]
    """Feed the workload + register the streams; returns messages fed."""


def _setup_market(env: SamzaSqlEnvironment, messages: int,
                  partitions: int) -> int:
    tickers = ticker_universe(_TICKER_COUNT)
    span_s = max(messages * _QUOTE_INTERARRIVAL_MS / 1000.0, 1e-3)
    trades = max(messages // _TRADE_DIVISOR, 8)
    quotes = MarketGenerator(interarrival_ms=_QUOTE_INTERARRIVAL_MS,
                             tickers=tickers)
    bids, asks = quotes.produce(env.cluster, "Bids", "Asks", messages,
                                partitions=partitions)
    prints = TradesGenerator(
        interarrival_ms=max(messages * _QUOTE_INTERARRIVAL_MS // trades, 1),
        tickers=tickers).produce(env.cluster, "Trades", trades,
                                 partitions=partitions)
    # Declared arrival rates drive the probe order: sparse trades are the
    # cheapest side, so they are probed (and short-circuited on) first.
    env.shell.register_stream("Bids", BIDS_SCHEMA, partitions=partitions,
                              rate_per_sec=bids / span_s)
    env.shell.register_stream("Asks", ASKS_SCHEMA, partitions=partitions,
                              rate_per_sec=asks / span_s)
    env.shell.register_stream("Trades", TRADES_SCHEMA, partitions=partitions,
                              rate_per_sec=prints / span_s)
    return bids + asks + prints


def _setup_orders(env: SamzaSqlEnvironment, messages: int,
                  partitions: int) -> int:
    orders = max(messages // 4, 100)
    span_s = max(orders * 5 / 1000.0, 1e-3)
    written = OrderLifecycleGenerator(interarrival_ms=5).produce(
        env.cluster, orders, partitions=partitions)
    env.shell.register_stream("Orders", ORDERS_SCHEMA, partitions=partitions,
                              rate_per_sec=written["Orders"] / span_s)
    for stage in ORDER_STAGES:
        env.shell.register_stream(stage, order_stage_schema(stage),
                                  partitions=partitions,
                                  rate_per_sec=written[stage] / span_s)
    return sum(written.values())


SCENARIOS = {
    "3way_market": Scenario("3way_market", THREE_WAY_SQL, _setup_market),
    "4way_orders": Scenario("4way_orders", FOUR_WAY_SQL, _setup_orders),
}

#: variant -> does its planner collapse join chains?
VARIANTS = (("cascade", False), ("multiway", True))


def _launch(scenario: Scenario, collapse: bool, messages: int,
            partitions: int, metrics_interval_ms: int = 0):
    env = SamzaSqlEnvironment(broker_count=3, node_count=3,
                              node_mem_mb=61_000, start_ms=0,
                              metrics_interval_ms=metrics_interval_ms)
    if not collapse:
        env.shell.planner = QueryPlanner(env.catalog, Optimizer(rules=[
            rule for rule in DEFAULT_RULES
            if not isinstance(rule, MultiJoinCollapseRule)]))
    fed = scenario.setup(env, messages, partitions)
    handle = env.shell.execute(scenario.sql, containers=1)
    return env, handle, fed


def _timed_run(scenario: Scenario, collapse: bool, messages: int,
               partitions: int) -> tuple[float, int]:
    """One throughput run: fig5 methodology (process time, GC suspended)."""
    env, _, fed = _launch(scenario, collapse, messages, partitions)
    env.runner.run_iteration()  # warm codegen + store setup
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.process_time_ns()
        env.runner.run_until_quiescent(max_iterations=1_000_000)
        return (time.process_time_ns() - started) / 1e9, fed
    finally:
        if gc_was_enabled:
            gc.enable()


def _state_rows(env: SamzaSqlEnvironment) -> float:
    return sum(record["value"] for record in env.metrics(force=True)
               if record["metric"] == "window-state-size")


def _state_run(scenario: Scenario, collapse: bool, messages: int,
               partitions: int, sample_every: int = 8) -> tuple[float, int]:
    """Untimed pass: drive to quiescence while sampling peak join state."""
    env, handle, _ = _launch(scenario, collapse, messages, partitions,
                             metrics_interval_ms=1_000)
    peak = 0.0
    idle = 0
    for iteration in range(1, 1_000_000):
        processed = env.runner.run_iteration()
        if iteration % sample_every == 0 or not processed:
            peak = max(peak, _state_rows(env))
        idle = idle + 1 if not processed else 0
        if idle >= 4:
            break
    env.run_until_quiescent()
    peak = max(peak, _state_rows(env))
    return peak, len(handle.results())


def measure_scenario(scenario: Scenario, messages: int, partitions: int = 2,
                     repeats: int = 2) -> dict:
    best: dict[str, tuple[float, int]] = {}
    for round_no in range(max(repeats, 1)):
        order = VARIANTS if round_no % 2 == 0 else VARIANTS[::-1]
        for variant, collapse in order:
            elapsed, fed = _timed_run(scenario, collapse, messages, partitions)
            if variant not in best or elapsed < best[variant][0]:
                best[variant] = (elapsed, fed)
    result: dict = {}
    for variant, collapse in VARIANTS:
        elapsed, fed = best[variant]
        peak, outputs = _state_run(scenario, collapse, messages, partitions)
        result[variant] = {
            "input_messages": fed,
            "elapsed_s": round(elapsed, 4),
            "msgs_per_s": round(fed / max(elapsed, 1e-9), 1),
            "peak_state_rows": peak,
            "output_rows": outputs,
        }
    result["throughput_ratio"] = round(
        result["multiway"]["msgs_per_s"]
        / max(result["cascade"]["msgs_per_s"], 1e-9), 3)
    result["state_ratio"] = round(
        result["multiway"]["peak_state_rows"]
        / max(result["cascade"]["peak_state_rows"], 1e-9), 3)
    return result


def collect(messages: int = 1200, repeats: int = 2,
            partitions: int = 2) -> dict:
    scenarios = {
        name: measure_scenario(scenario, messages=messages,
                               partitions=partitions, repeats=repeats)
        for name, scenario in SCENARIOS.items()
    }
    return {
        "messages_per_run": messages,
        "repeats": repeats,
        "method": ("throughput: process-time over input msgs, GC suspended, "
                   "variants interleaved, per-variant minimum over repeats; "
                   "peak_state_rows: retained rows summed over all join "
                   "stores (window-state-size gauges), sampled on a "
                   "separate untimed pass"),
        "scenarios": scenarios,
    }


def check(payload: dict) -> list[str]:
    """Gate failures (empty list = pass)."""
    errors = []
    row = payload["scenarios"]["3way_market"]
    if row["throughput_ratio"] < CHECK_MIN_THROUGHPUT_RATIO:
        errors.append(
            f"3way_market throughput_ratio {row['throughput_ratio']} < "
            f"{CHECK_MIN_THROUGHPUT_RATIO} (multi-way must beat the cascade)")
    if row["state_ratio"] > CHECK_MAX_STATE_RATIO:
        errors.append(
            f"3way_market state_ratio {row['state_ratio']} > "
            f"{CHECK_MAX_STATE_RATIO} (multi-way must retain less state)")
    for name, scenario in payload["scenarios"].items():
        cascade = scenario["cascade"]["output_rows"]
        multiway = scenario["multiway"]["output_rows"]
        if cascade != multiway:
            errors.append(f"{name} output mismatch: cascade {cascade} rows, "
                          f"multiway {multiway} rows")
    return errors


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--messages", type=int, default=1200)
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("--partitions", type=int, default=2)
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    parser.add_argument("--check", action="store_true",
                        help="fail unless the 3-way gate thresholds hold")
    args = parser.parse_args(argv)

    payload = collect(messages=args.messages, repeats=args.repeats,
                      partitions=args.partitions)
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for name, row in payload["scenarios"].items():
        print(f"{name}: cascade {row['cascade']['msgs_per_s']:,.0f} msgs/s "
              f"(peak state {row['cascade']['peak_state_rows']:,.0f} rows), "
              f"multiway {row['multiway']['msgs_per_s']:,.0f} msgs/s "
              f"(peak state {row['multiway']['peak_state_rows']:,.0f} rows) "
              f"-> {row['throughput_ratio']:.2f}x throughput, "
              f"{row['state_ratio']:.2f}x state")
    print(f"wrote {args.out}")
    if args.check:
        failures = check(payload)
        for failure in failures:
            print(f"CHECK FAILED: {failure}")
        if failures:
            return 1
        print("check passed: multi-way beats the cascade on both axes")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
