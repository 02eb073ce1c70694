"""The traced benchmark run ends with a complete result line.

A span wrapper whose target was renamed away reports its metric as null
while the run still exits 0, so a traced run is checked end to end on
every workload: a short run with --trace 1 must exit 0 and end with a
JSON line that is correct and has a number for every metric.  Each
workload reaches different wrapped names: lattice_aomoto reads the
lattice's length and the U and V of every Smith form.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload",
                         ["double_star", "multinet_search", "lattice_aomoto"])
def test_traced_run_reports_every_metric(workload):
    pytest.importorskip("sympy")  # the workloads' Aomoto check uses it
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    metrics = result["metrics"]
    assert metrics
    missing = sorted(name for name, m in metrics.items()
                     if type(m["value"]) not in (int, float)
                     or not math.isfinite(m["value"]))
    assert not missing, f"metrics without a number: {missing}"
