"""Small-size runs of every workload through the benchmark's own command.

    PYTHONPATH=src python -m pytest perfbench

Checks that each metric BENCHMARK.json names is printed with its unit, that
no op fails, that the traced run's exact counts repeat for a fixed seed, and
that the command fails cleanly where there is no perron package to measure.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_SUFFIXES = (".calls", ".rounds", ".steps", ".nodes", ".leaves",
                  ".max_depth", "max_entry_bits", "traced_ops")


def bench(workload, trace, cwd=ROOT, seed=3):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def assert_declared(metrics, declared):
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        value = metrics[m["name"]]
        assert value["unit"] == m["unit"], m["name"]
        assert isinstance(value["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = result_of(bench(workload, 0))["metrics"]
    assert_declared(metrics, SPEC["end_to_end"])
    for name, value in metrics.items():
        assert value["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first = result_of(bench(workload, 1))["metrics"]
    second = result_of(bench(workload, 1))["metrics"]
    assert_declared(first, SPEC["per_layer"])
    assert first["failed_ratio"]["value"] == 0
    exact = [name for name in first if name.endswith(EXACT_SUFFIXES)]
    assert first["traced_ops"]["value"] > 0
    assert {n: first[n] for n in exact} == {n: second[n] for n in exact}


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
