"""The benchmark's own test.  It takes several minutes, so the repository's
test suite does not collect it; run it from the checkout root with

    python3 -m pytest perfbench/test_perfbench.py

Two traced runs with one seed must give identical counts, and every
workload must pass its correctness gate at a second seed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
COUNT_UNITS = {"count", "bytes"}


def run(workload, seed, trace, seconds=1):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    _, first = run(workload, seed=7, trace=1)
    _, second = run(workload, seed=7, trace=1)
    names = {m["name"] for m in BENCH["per_layer"]}
    assert set(first["metrics"]) == names
    counts = {name for name, m in first["metrics"].items() if m["unit"] in COUNT_UNITS}
    assert {"tree.nodes", "optimize.iterations", "optimize.line_search_trials"} <= counts
    for name in sorted(counts):
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_passes_gate(workload):
    detail, result = run(workload, seed=12345, trace=0)
    assert result["correct"], detail["wrong"]
    assert result["failed"] == len(detail["uncertified"])
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_package(tmp_path):
    """A directory holding only the benchmark exits non-zero and prints no result."""
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
