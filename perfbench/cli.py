"""Command line of the benchmark.

Two front ends over the same single-workload run:

* ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``
  — the contract ``BENCHMARK.json`` declares: one workload, one process,
  last stdout line one JSON object with ``correct``, ``attempted``,
  ``failed`` and ``metrics`` (every end-to-end metric when ``--trace 0``,
  every per-layer metric when ``--trace 1``).
* ``python -m perfbench run --seed 42 [--workload W] [--trace] [--runs K]``
  — every workload, each run in its own fresh subprocess, prints every
  metric by name with its unit, writes one result JSON with provenance.
  ``python -m perfbench compare A.json B.json`` compares two of those.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys

from perfbench import SCHEMA, stats

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Where runs leave traces and result files: inside the checkout, ignored.
OUT_DIR = pathlib.Path(".perfbench_out")

#: Reported by every run next to the metrics ``BENCHMARK.json`` lists.
EXTRA_UNITS = {"ops_attempted": "count", "ops_failed": "count",
               "error_ratio": "ratio"}


def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def metric_units(spec: dict) -> dict[str, str]:
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(EXTRA_UNITS)
    return units


def provenance() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(),
            "platform": platform.platform(), "git_commit": commit}


# -- one workload, this process ---------------------------------------------------------


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> dict:
    """Run one workload here and now; returns the single-run record."""
    from perfbench.frontdoor import FrontDoorRunner
    from perfbench.tracer import Tracer
    from perfbench.workloads import STREAM_RUNNERS

    spec = load_spec()
    units = metric_units(spec)
    tracer = Tracer() if trace else None
    if workload == FrontDoorRunner.name:
        runner = FrontDoorRunner(seed, seconds, tracer=tracer, smoke=smoke)
    elif workload in STREAM_RUNNERS:
        definition, runner_class = STREAM_RUNNERS[workload]
        runner = runner_class(definition, seed, seconds, tracer=tracer,
                              smoke=smoke)
    else:
        known = sorted([*STREAM_RUNNERS, FrontDoorRunner.name])
        raise SystemExit(f"unknown workload {workload!r}; known: {known}")
    result = runner.run()
    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        # one file per workload, overwritten: a trace is tens of MB
        tracer.dump(OUT_DIR / f"trace-{workload}.json")

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    # a per-layer metric another workload owns reads 0 here; every
    # end-to-end metric must be measured on every workload
    default = 0.0 if trace else None
    metrics = {}
    for metric in wanted:
        value = result.metrics.get(metric["name"], default)
        if value is None:
            raise SystemExit(
                f"{workload} did not measure end-to-end metric "
                f"{metric['name']!r}")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    everything = {name: {"value": value, "unit": units.get(name, "")}
                  for name, value in result.metrics.items()}
    return {
        "schema": SCHEMA, "workload": workload, "seed": seed,
        "seconds": seconds, "trace": int(trace), "smoke": smoke,
        "params": result.params, "correct": result.failed == 0,
        "attempted": result.attempted, "failed": result.failed,
        "metrics": metrics, "all_metrics": everything,
        "samples": result.samples, "notes": result.notes,
        "provenance": provenance(),
    }


def contract_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--json-out", type=pathlib.Path,
                        help="also write the full single-run record here")
    args = parser.parse_args(argv)
    record = run_one(args.workload, args.seed, args.seconds,
                     bool(args.trace), smoke=args.smoke)
    if args.json_out is not None:
        args.json_out.parent.mkdir(parents=True, exist_ok=True)
        args.json_out.write_text(json.dumps(record, default=_jsonable))
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


def _jsonable(value):
    """numpy scalars in notes -> plain numbers."""
    return value.tolist() if hasattr(value, "tolist") else str(value)


# -- every workload, fresh subprocess each -------------------------------------------------


def _spawn(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
           out: pathlib.Path) -> dict:
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace)),
               "--json-out", str(out)]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True,
                          check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} (trace={int(trace)}) exited "
                         f"{done.returncode}")
    return json.loads(out.read_text())


def summarise_runs(records: list[dict]) -> dict:
    """Median, IQR and every sample per metric over one workload's runs."""
    names = list(records[0]["all_metrics"])
    return {
        name: {"unit": records[0]["all_metrics"][name]["unit"],
               **stats.summary([r["all_metrics"][name]["value"]
                                for r in records])}
        for name in names
    }


def run_main(args) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    selected = [args.workload] if args.workload else names
    seconds = args.seconds if args.seconds is not None else (
        1.0 if args.smoke else float(spec["run_seconds"]))
    OUT_DIR.mkdir(exist_ok=True)
    report = {"schema": SCHEMA, "provenance": provenance(), "seed": args.seed,
              "runs": args.runs, "seconds": seconds, "smoke": args.smoke,
              "workloads": {}}
    all_correct = True
    for name in selected:
        entry = {"why": next(w["why"] for w in spec["workloads"]
                             if w["name"] == name)}
        for trace in ((False, True) if args.trace else (False,)):
            records = []
            for run in range(args.runs if not trace else 1):
                out = OUT_DIR / f"run-{name}-{int(trace)}-{run}.json"
                records.append(_spawn(name, args.seed, seconds, trace,
                                      args.smoke, out))
            key = "traced" if trace else "untraced"
            entry[key] = {
                "params": records[0]["params"],
                "ops_attempted": sum(r["attempted"] for r in records),
                "ops_failed": sum(r["failed"] for r in records),
                "correct": all(r["correct"] for r in records),
                "metrics": summarise_runs(records),
                "per_run": [{"samples": r["samples"], "notes": r["notes"]}
                            for r in records],
            }
            all_correct = all_correct and entry[key]["correct"]
            _print_table(name, key, entry[key], spec, trace)
        report["workloads"][name] = entry
    out = args.out or OUT_DIR / f"result-{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1, default=_jsonable))
    print(f"\nwrote {out}")
    return 0 if all_correct else 1


def _print_table(workload: str, key: str, entry: dict, spec: dict,
                 trace: bool) -> None:
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    shown = [m["name"] for m in listed] + list(EXTRA_UNITS)
    if not trace:
        # user-visible numbers that exist on this workload only
        shown += [m["name"] for m in spec["per_layer"]
                  if "." not in m["name"]]
    print(f"\n== {workload} ({key}; ops {entry['ops_attempted']}, "
          f"failed {entry['ops_failed']})")
    for name in shown:
        metric = entry["metrics"].get(name)
        if metric is None:
            continue
        spread = (f"  iqr {metric['iqr']:.4g} n={metric['n']}"
                  if metric["n"] > 1 else "")
        print(f"  {name:<38} {metric['median']:>14.6g} {metric['unit']}"
              f"{spread}")


def main(argv: list[str] | None = None) -> int:
    from perfbench import compare

    parser = argparse.ArgumentParser(prog="python -m perfbench",
                                     description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run workloads, print every metric")
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--workload")
    run.add_argument("--trace", action="store_true",
                     help="add one traced run per workload (per-layer ledger)")
    run.add_argument("--runs", type=int, default=1,
                     help="untraced fresh-process runs per workload")
    run.add_argument("--seconds", type=float)
    run.add_argument("--smoke", action="store_true",
                     help="every workload at a fraction of its size")
    run.add_argument("--out", type=pathlib.Path)
    cmp_ = commands.add_parser(
        "compare", help="ok / regressed / unresolved per workload and metric")
    cmp_.add_argument("baseline", type=pathlib.Path)
    cmp_.add_argument("candidate", type=pathlib.Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        return run_main(args)
    return compare.main(args.baseline, args.candidate, load_spec())
