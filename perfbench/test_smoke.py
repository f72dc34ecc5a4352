"""Smoke test of the benchmark harness at a tiny size.

Runs every workload of BENCHMARK.json untraced and traced with a few
repetitions, and checks that each metric prints by name with its unit and
that the output checks pass. No timing is asserted.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
# At 30 repetitions the sweep still reproduces the reference matrix at seed 42.
TINY_REPS = {"sweep": 30, "wallet-bulk": 20, "agent-bulk": 20}


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=150)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "42", "--seconds", "0",
                     "--trace", str(trace), "--reps", str(TINY_REPS[workload]))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(name + " ") and line.endswith(" " + unit)
                   for line in lines[:-1]), name
    assert any(line.startswith("failed_op_share 0.000000 ratio") for line in lines)
    assert any(line.startswith("nproc ") and " python " in line for line in lines)


def test_fails_without_the_simulator(tmp_path):
    """With only BENCHMARK.json and the benchmark's own files there is nothing to run."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "sweep", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
