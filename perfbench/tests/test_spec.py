"""``BENCHMARK.json`` stays inside the limits its contract sets."""

import json
import re

from perfbench.cli import SPEC_PATH

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


def test_benchmark_json_meets_the_contract():
    raw = SPEC_PATH.read_bytes()
    assert len(raw) <= 64 * 1024
    spec = json.loads(raw)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= len(spec["paths"]) <= 16
    assert all(PATH.match(p) and not p.startswith("/") and ".." not in p
               for p in spec["paths"])
    assert len(spec["command"]) <= 32
    assert all(len(part) <= 200 for part in spec["command"])
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    # 4 + 22 x workloads runs must fit the driver's 3420 s with room for
    # set-up, verification and process start-up around the measured seconds
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 5) < 3420


def test_workload_names_match_the_registry():
    from perfbench.frontdoor import FrontDoorRunner
    from perfbench.workloads import STREAM_RUNNERS

    spec = json.loads(SPEC_PATH.read_text())
    assert {w["name"] for w in spec["workloads"]} == {
        *STREAM_RUNNERS, FrontDoorRunner.name}
