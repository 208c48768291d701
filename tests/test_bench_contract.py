"""Smoke run of the benchmark harness: what ``bench/`` reads from the
program keeps working. That is ``ConvexProgram.A_eq``, ``A_ub`` and
``nonneg`` (bench/checks.py), ``--jobs 1`` on ``reproduce-paper`` and
``robustness-sweep``, and the control CSV formats."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["paper", "control"])
def test_bench_workload_runs_correct(workload):
    run = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                          "--seed", "1", "--seconds", "1"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True, run.stderr
    assert result["failed"] == 0, run.stderr
