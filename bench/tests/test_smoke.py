"""Smoke test: every workload, untraced and traced, for two seconds each."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_reports_every_declared_metric(tmp_path, trace):
    out = tmp_path / "runs.json"
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--seed", "3",
         "--seconds", "2", "--trace", str(trace), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0

    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    runs = json.loads(out.read_text())["runs"]
    assert [r["workload"] for r in runs] == [w["name"] for w in SPEC["workloads"]]
    for run in runs:
        assert run["failed"] == 0, run["errors"]
        got = run["per_layer"] if trace else run["metrics"]
        for m in declared:
            metric = got[m["name"]]
            assert math.isfinite(metric["value"]), (run["workload"], m["name"])
            assert metric["unit"] == m["unit"]
            key = f"{run['workload']}/{m['name']}"
            assert last["metrics"][key] == metric
