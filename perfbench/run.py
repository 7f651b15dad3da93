"""tokencast benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {pretrain,evaluate,forecast} \
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a source checkout; the program is imported from the
checkout's ``src/``. Each workload runs in fresh worker processes with BLAS
pinned to one thread, so evaluate's two worker threads use at most two cores.
Set-up is measured in the measured worker and in SETUP_PROBES more fresh
processes, half before and half after the measured run so that the samples
see different moments of a shared machine, and reported as their median.
With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` the per-layer metrics of a traced run, including the tracing
overhead. The line before it records the environment and the sample counts.
See README.md for what each metric means and should move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pretrain", "evaluate", "forecast")
SETUP_PROBES = 8
# the whole command ends within this many seconds, or fails
TIME_LIMIT_S = 170.0
# worker threads and BLAS threads together stay within two cores
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def _child(args: list[str], deadline: float) -> dict:
    """Run worker.py with args; return the JSON object on its last line."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=dict(os.environ, **THREAD_ENV),
            stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out: {' '.join(args)}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def run(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed), "--size", size]
    probes = 0 if trace else SETUP_PROBES // 2
    setup_only = base + ["--seconds", "0", "--setup-only"]
    setups = [_child(setup_only, deadline)["setup"] for _ in range(probes)]
    result = _child(base + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    setups.append(result["setup"])
    setups += [_child(setup_only, deadline)["setup"] for _ in range(probes)]

    if trace:
        metrics = result["per_layer"]
    else:
        metrics = dict(result["metrics"])
        metrics["setup_s"] = (statistics.median(s["setup_s"] for s in setups), "s")
    info = {"environment": result["environment"], "latency_ms": result["latency_ms"],
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_samples": [round(s["setup_s"], 4) for s in setups]}
    if trace:
        info["spans_file"] = result["spans_file"]
    print(json.dumps(info))
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: smoke-test sizes, not a measurement")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "tokencast" / "__init__.py").is_file():
        print(f"perfbench: no tokencast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, args.size)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
