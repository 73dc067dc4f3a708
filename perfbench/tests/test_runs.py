"""End-to-end self-tests: smoke mode, the fused-path guard, the contract's
refusal to run without a program."""

import dataclasses
import json
import shutil
import subprocess
import sys
import time

import pytest

from perfbench.cli import ROOT, SPEC_PATH
from perfbench import BenchmarkError


def test_smoke_prints_every_name_with_a_unit(tmp_path):
    """Every workload at a fraction of its size, untraced and traced."""
    out = tmp_path / "smoke.json"
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "run", "--smoke", "--trace",
         "--seed", "5", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stdout + done.stderr
    assert time.perf_counter() - started < 60
    spec = json.loads(SPEC_PATH.read_text())
    report = json.loads(out.read_text())
    assert set(report["provenance"]) >= {"nproc", "cpu_model", "python",
                                         "git_commit"}
    for workload in spec["workloads"]:
        entry = report["workloads"][workload["name"]]
        assert entry["untraced"]["ops_failed"] == 0
        assert entry["untraced"]["ops_attempted"] > 0
        untraced = entry["untraced"]["metrics"]
        for metric in spec["end_to_end"]:
            assert untraced[metric["name"]]["unit"] == metric["unit"]
            assert untraced[metric["name"]]["median"] > 0
            assert f" {metric['name']} " in done.stdout
        assert untraced["error_ratio"]["median"] == 0
        traced = entry["traced"]["metrics"]
        assert traced["trace.coverage"]["median"] >= 0.95
        assert traced["trace.overhead_ratio"]["median"] > 0
    # every per-layer name is measured by at least one workload's traced
    # (or, for the user-visible ones, untraced) run
    for metric in spec["per_layer"]:
        owners = [
            name for name, entry in report["workloads"].items()
            if metric["name"] in entry["traced"]["metrics"]
            or metric["name"] in entry["untraced"]["metrics"]]
        assert owners, metric["name"]
        assert f" {metric['name']} " in done.stdout
    fused = report["workloads"]["filter_fused"]["traced"]["metrics"]
    default = report["workloads"]["filter_default"]["traced"]["metrics"]
    assert fused["serde.decode_calls"]["median"] == 0
    assert fused["samzasql.tasks_fused"]["median"] > 0
    assert default["serde.decode_calls"]["median"] > 0
    assert default["samzasql.tasks_fused"]["median"] == 0
    window = report["workloads"]["sliding_window"]["traced"]["metrics"]
    join = report["workloads"]["table_join"]["traced"]["metrics"]
    assert window["samza.store_put_count"]["median"] > 0
    assert join["samza.store_put_count"]["median"] == 0
    assert join["samza.store_get_count"]["median"] > 0
    parallel = report["workloads"]["parallel_filter_2w"]["untraced"]["metrics"]
    assert parallel["parallel.routed_bytes_via_parent"]["median"] == 0


def test_filter_fused_fails_loudly_off_the_fused_path():
    from perfbench.streams import StreamRunner
    from perfbench.workloads import FILTER_FUSED

    # a default environment samples metrics, which needs decoded messages:
    # the runtime falls back to full decode/encode
    off_path = dataclasses.replace(FILTER_FUSED, env_kwargs={})
    with pytest.raises(BenchmarkError, match="fused path"):
        StreamRunner(off_path, seed=1, seconds=1.0, smoke=True).run()


def test_contract_run_prints_one_json_line():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table_join",
         "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    spec = json.loads(SPEC_PATH.read_text())
    assert list(line["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert line["correct"] is True and line["attempted"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "filter_fused",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, check=False)
    assert done.returncode != 0
    assert done.stdout == ""
