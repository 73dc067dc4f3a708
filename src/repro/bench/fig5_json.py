"""Machine-readable fig5/fig6 throughput snapshot.

Runs the four §5.1 benchmark queries — fig5a filter, fig5b project,
fig5c join, fig6 sliding window — through the full runtime and writes the
msgs/sec results to ``BENCH_fig5.json`` at the repo root, so tooling
can diff throughput without parsing prose.

Run:  python -m repro.bench.fig5_json [--messages 4000] [--out PATH]
"""

from __future__ import annotations

import json
import pathlib

from repro.bench.calibration import measure

#: figure label -> calibration query key
FIGURES = {
    "fig5a_filter": "filter",
    "fig5b_project": "project",
    "fig5c_join": "join",
    "fig6_sliding_window": "window",
}

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
        print(f"{label}: {row['batch_msgs_per_s']:,.0f} msgs/s")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
