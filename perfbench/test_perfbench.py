"""Self-tests of the benchmark at tiny input sizes.

Run from the root of a checkout: python3 -m pytest perfbench
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


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    inputs = [line for line in lines if line.startswith("inputs ")]
    return inputs, json.loads(lines[-1])


def check_result(res, metrics):
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    assert {name: m["unit"] for name, m in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in metrics
    }
    assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric_and_fails_nothing(workload):
    inputs_1, timed_1 = result(run(workload, seed=1, trace=0))
    inputs_2, timed_2 = result(run(workload, seed=2, trace=0))
    inputs_t, traced = result(run(workload, seed=1, trace=1))

    for res in (timed_1, timed_2):
        check_result(res, SPEC["end_to_end"])
        assert all(m["value"] > 0 for m in res["metrics"].values())
    check_result(traced, SPEC["per_layer"])

    # The seed draws the inputs; the same seed draws the same ones.
    assert inputs_1 == inputs_t and len(inputs_1) == 1
    assert inputs_1 != inputs_2
    assert timed_1["metrics"].keys() == timed_2["metrics"].keys()


def test_exits_without_result_when_package_is_missing():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(WORKLOADS[0], seed=1, trace=0, cwd=bare)
        assert proc.returncode != 0
        assert "correct" not in proc.stdout
    finally:
        shutil.rmtree(bare)
