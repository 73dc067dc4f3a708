"""``python -m perfbench compare A.json B.json``.

One row per (workload, end-to-end metric), so "two sets of runs agree" is
a command, not a judgement:

* ``regressed``  — the candidate's median is worse than the baseline's by
  more than the metric's bound;
* ``unresolved`` — not regressed, but the run-to-run spread (IQR / median,
  either side) is wider than the bound *and* the two sets of runs
  interleave, so the instrument cannot tell the sides apart;
* ``ok``         — otherwise.

``ops_failed`` is an exact count: one more failed operation than the
baseline is a regression, whatever the bound.
"""

from __future__ import annotations

import json

#: Exact counts: any difference is a regression.
EXACT = ("ops_failed",)


def verdict(base: dict, cand: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base_median, cand_median = base["median"], cand["median"]
    if sign * (cand_median - base_median) > bound * abs(base_median):
        return "regressed"
    spread = max(
        (side["iqr"] / abs(side["median"]) if side["median"] else 0.0)
        for side in (base, cand))
    separated = (min(cand["samples"]) > max(base["samples"])
                 or max(cand["samples"]) < min(base["samples"]))
    if spread > bound and not separated:
        return "unresolved"
    return "ok"


def compare(baseline: dict, candidate: dict, spec: dict) -> list[dict]:
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        base = baseline["workloads"].get(workload, {}).get("untraced")
        cand = candidate["workloads"].get(workload, {}).get("untraced")
        if base is None or cand is None:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b, c = base["metrics"][name], cand["metrics"][name]
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "baseline": b["median"], "candidate": c["median"],
                "bound": metric["bound"],
                "verdict": verdict(b, c, metric["better"], metric["bound"])})
        for name in EXACT:
            b, c = base["metrics"][name], cand["metrics"][name]
            rows.append({
                "workload": workload, "metric": name, "unit": b["unit"],
                "baseline": b["median"], "candidate": c["median"], "bound": 0,
                "verdict": "ok" if c["median"] <= b["median"] else "regressed"})
    return rows


def main(baseline_path, candidate_path, spec: dict) -> int:
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    with open(candidate_path) as handle:
        candidate = json.load(handle)
    rows = compare(baseline, candidate, spec)
    print(f"{'workload':<24}{'metric':<26}{'baseline':>14}{'candidate':>14}"
          f"{'change':>9}{'bound':>7}  verdict")
    for row in rows:
        change = ((row["candidate"] - row["baseline"]) / abs(row["baseline"])
                  if row["baseline"] else 0.0)
        print(f"{row['workload']:<24}{row['metric']:<26}"
              f"{row['baseline']:>14.6g}{row['candidate']:>14.6g}"
              f"{change:>+9.1%}{row['bound']:>7.2f}  {row['verdict']}")
    bad = [row for row in rows if row["verdict"] != "ok"]
    print(f"\n{len(rows)} rows, {len(bad)} not ok")
    return 1 if bad else 0
