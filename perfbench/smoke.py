"""Smoke test of the benchmark at tiny sizes: output schema and metric names
only, never timings.

    PYTHONPATH=src python3 -m pytest -q perfbench/smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_output_schema(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        reported = result["metrics"][m["name"]]
        assert set(reported) == {"value", "unit"}
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], float)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "forecast", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_nan_forecast_counts_as_failure(tmp_path):
    sys.path.insert(0, str(HERE))
    try:
        import worker
        import workloads
    finally:
        sys.path.remove(str(HERE))

    def nan_forecast(lookbacks, horizon):
        return np.full((lookbacks.shape[0], horizon), np.nan)

    wl = workloads.Evaluate(1, "tiny", tmp_path, forecast_fn=nan_forecast)
    wl.prepare()
    phase = worker.Phase().run(wl, seconds=0.0, min_ops=2)
    assert len(phase.durations) == 2
    assert phase.failed == 2 and phase.ok_ms == []
