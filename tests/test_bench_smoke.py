"""Each benchmark workload runs briefly, small, and checks every answer.

This keeps the benchmark's imports and its planted answers in step with the
library: a change to the public API that breaks bench/ fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


# --trace 1 replays the pipeline step by step through the public API,
# checks that its counters repeat and that its output equals the CLI's.
@pytest.mark.parametrize(
    "workload,trace",
    [pytest.param(w, 0, id=w) for w in WORKLOADS]
    + [pytest.param(w, 1, id=f"{w}-traced") for w in WORKLOADS],
)
def test_bench_workload_runs_clean(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--scale", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    assert result["correct"] is True
    # No time can be below zero; one that is was mismeasured.
    negative = {name: metric["value"] for name, metric in result["metrics"].items()
                if metric["unit"] in ("s", "ms") and metric["value"] < 0}
    assert not negative
