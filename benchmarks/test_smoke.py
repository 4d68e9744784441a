"""Smoke test of the benchmark itself (not part of the library's test suite).

    python -m pytest -q benchmarks/test_smoke.py

Runs `run.py --smoke` (six queries, a two-task corpus) on both workloads,
untraced and traced, and checks that every answer matches its golden,
that traced and untraced answers agree, and that every metric named in
BENCHMARK.json is emitted with its unit.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == ["corpus", "queries"]


@pytest.mark.parametrize("workload", ["corpus", "queries"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        # some layer work was traced, and the traced pass was timed against the untraced one
        assert result["metrics"]["linalg.Matrix.constructed"]["value"] > 0
        assert "trace.overhead_s" in result["metrics"]
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
