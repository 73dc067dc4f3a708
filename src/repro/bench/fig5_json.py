"""Machine-readable fig5/fig6 throughput snapshot.

Runs the four §5.1 benchmark queries — fig5a filter, fig5b project,
fig5c join, fig6 sliding window — through the full runtime and writes the
msgs/sec results to ``BENCH_fig5.json`` at the repo root, so tooling
(and the next session) can diff throughput without parsing prose.
For the stateless fig5a/b chains it also records the chain-isolated
whole-plan compilation numbers (``chain_*_msgs_per_s`` +
``compile_speedup``) from :func:`repro.bench.micro.measure_compile_speedup`.

Run:  python -m repro.bench.fig5_json [--messages 4000] [--out PATH]
"""

from __future__ import annotations

import json
import pathlib

from repro.bench.calibration import measure
from repro.bench.micro import measure_compile_speedup

#: figure label -> calibration query key
FIGURES = {
    "fig5a_filter": "filter",
    "fig5b_project": "project",
    "fig5c_join": "join",
    "fig6_sliding_window": "window",
}

#: figures whose stateless chains whole-plan compilation covers
COMPILED_FIGURES = ("fig5a_filter", "fig5b_project")

DEFAULT_OUT = pathlib.Path(__file__).resolve().parents[3] / "BENCH_fig5.json"


def collect(messages: int = 4000, repeats: int = 2) -> dict:
    """Measure every figure query; returns the JSON payload."""
    figures = {}
    for label, query in FIGURES.items():
        measured = measure(query, "samzasql", messages=messages,
                           repeats=repeats)
        figures[label] = {
            "batch_msgs_per_s": round(measured.throughput_msgs_per_s, 1),
        }
        if label in COMPILED_FIGURES:
            # chain-isolated (pre-decoded records, discard sink): end-to-end
            # throughput is serde-bound, so the compiled-vs-interpreted
            # ratio is reported where dispatch elimination actually acts
            compiled = measure_compile_speedup(query=query, messages=messages,
                                               repeats=repeats)
            figures[label].update({
                "chain_interpreted_msgs_per_s":
                    round(compiled["interpreted_msgs_per_s"], 1),
                "chain_compiled_msgs_per_s":
                    round(compiled["compiled_msgs_per_s"], 1),
                "compile_speedup": round(compiled["speedup"], 3),
            })
    return {
        "messages_per_run": messages,
        "repeats": repeats,
        "method": ("process-time, GC suspended, modes interleaved, "
                   "per-mode minimum over repeats"),
        "figures": figures,
    }


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--messages", type=int, default=4000)
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    payload = collect(messages=args.messages, repeats=args.repeats)
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for label, row in payload["figures"].items():
        line = f"{label}: {row['batch_msgs_per_s']:,.0f} msgs/s"
        if "compile_speedup" in row:
            line += (f", compiled chain "
                     f"{row['chain_compiled_msgs_per_s']:,.0f} msgs/s "
                     f"({row['compile_speedup']:.2f}x)")
        print(line)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
