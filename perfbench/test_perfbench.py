"""Tests of the benchmark itself (slow: several minutes).

    python3 -m pytest perfbench/test_perfbench.py

Not part of the package's test suite: each case runs the launcher the way
the benchmark is run, from the root of the checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS  # noqa: E402

EXACT_UNITS = {"count", "bytes"}


def run_bench(cwd: Path, workload: str, seed: int, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=400)


def last_json(res) -> dict:
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_and_outputs_match_goldens(workload):
    first = last_json(run_bench(ROOT, workload, 0, 1))
    second = last_json(run_bench(ROOT, workload, 1, 1))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
    counts = {name: m["value"] for name, m in first["metrics"].items()
              if m["unit"] in EXACT_UNITS}
    assert counts
    assert counts == {name: second["metrics"][name]["value"] for name in counts}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(first["metrics"]) == {m["name"] for m in spec["per_layer"]}


def test_untraced_run_reports_end_to_end_metrics():
    result = last_json(run_bench(ROOT, "mc-small", 3, 0))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = run_bench(tmp_path, "mc-small", 0, 0)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
