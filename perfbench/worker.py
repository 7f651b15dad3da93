"""Run one workload in this process and print its raw results as JSON.

Started by run.py, once per set-up sample (``--setup-only``) and once for the
measured run. Set-up time starts before numpy and tokencast are imported.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tokencast  # noqa: E402
import tokencast.autodiff  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer, quantile  # noqa: E402

_T_IMPORTED = time.perf_counter()


def _environment(wl) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cfg = workloads.MODEL_CONFIG
    return {
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(), "evaluate_threads": workloads.EVAL_THREADS,
        "model": {"stages": cfg.num_stages, "pool_kernels": list(cfg.pool_kernels),
                  "token_len": cfg.token_len, "max_tokens": cfg.max_tokens,
                  "width": cfg.model_width, "heads": cfg.attention_heads,
                  "feedforward": cfg.feedforward_width,
                  "layers_per_stage": cfg.layers_per_stage},
        "workload": wl.name, "seed": wl.seed, "inputs": wl.describe(),
    }


class Phase:
    """Timed operations, back to back, with every result checked."""

    def __init__(self):
        self.durations: list[float] = []     # every operation
        self.ok_ms: list[float] = []         # operations that passed their checks
        self.failed = 0
        self.grad_leaks = 0

    def run(self, wl, seconds: float, min_ops: int, tracer=None) -> "Phase":
        perf = time.perf_counter
        start = perf()
        # a slow program still stops within the run's time limit
        limit = 2.0 * seconds + 10.0
        while True:
            elapsed = perf() - start
            if elapsed >= limit or (elapsed >= seconds and len(self.durations) >= min_ops):
                return self
            if tracer is not None:
                tracer.op_id += 1
            t0 = perf()
            try:
                result = wl.op()
                self.durations.append(perf() - t0)
                problems = wl.check(result)
            except Exception:  # an operation that raises is a failure, not a crash
                self.durations.append(perf() - t0)
                problems = [traceback.format_exc()]
            # a grad switch left off would break any later training in this
            # process: count it, then switch recording back on
            if not tokencast.autodiff._GRAD_ENABLED:
                self.grad_leaks += 1
                tokencast.autodiff._GRAD_ENABLED = True
            if problems:
                self.failed += 1
                print(f"perfbench: {wl.name} op {len(self.durations)} failed: "
                      + "; ".join(problems), file=sys.stderr)
            else:
                self.ok_ms.append(self.durations[-1] * 1000.0)


def _checks(named) -> int:
    """Run (name, fn) checks; one that raises has failed."""
    failed = 0
    for name, fn in named:
        try:
            problems = fn()
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            failed += 1
            print(f"perfbench: check {name} failed: " + "; ".join(problems), file=sys.stderr)
    return failed


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload](args.seed, args.size, WORKDIR)
    t_inputs = time.perf_counter()
    wl.prepare()
    t_ready = time.perf_counter()
    setup = {"setup_s": t_ready - _T_START, "import_s": _T_IMPORTED - _T_START,
             "inputs_s": t_inputs - _T_IMPORTED, "model_s": t_ready - t_inputs}
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    setup_checks = wl.setup_checks()
    failed_checks = _checks(setup_checks)
    min_ops = wl.size.min_ops if args.workload != "forecast" else wl.size.quality_requests
    tracer = None
    if args.trace:
        # untraced first, then traced: the difference is the tracing overhead
        plain = Phase().run(wl, args.seconds / 3.0, min_ops)
        tracer = Tracer()
        tracer.calibrate()
        tracer.install()
        try:
            phase = Phase().run(wl, args.seconds * 2.0 / 3.0, wl.size.min_ops, tracer)
        finally:
            tracer.uninstall()
        phases = [plain, phase]
    else:
        phase = Phase().run(wl, args.seconds, min_ops)
        phases = [phase]
    final_checks = wl.final_checks()
    failed_checks += _checks(final_checks)

    attempted = sum(len(ph.durations) for ph in phases) + len(setup_checks) + len(final_checks)
    failed = sum(ph.failed for ph in phases) + failed_checks
    ops = len(phase.durations)
    # timings come from operations that passed their checks, unless none did
    latencies = phase.ok_ms or [d * 1000.0 for d in phase.durations]
    fastest = min(latencies)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {
        "setup": setup, "attempted": attempted, "failed": failed,
        "environment": _environment(wl),
        "latency_ms": {"samples": len(latencies), "min": fastest,
                       "p50": quantile(latencies, 50), "p90": quantile(latencies, 90)},
        "peak_rss_mb": peak_rss_mb,
        "metrics": {
            "latency_min_ms": (fastest, "ms"),
            "windows_per_s": (wl.windows_per_op * 1000.0 / fastest, "1/s"),
            "output_mse": (wl.quality(), "mse"),
            "ok_share": ((attempted - failed) / attempted, "share"),
        },
    }
    if tracer is not None:
        plain_min = min(plain.ok_ms or [d * 1000.0 for d in plain.durations])
        per_layer = tracer.metrics(ops)
        per_layer.update({
            "autodiff.grad_mode_leaks": (
                sum(ph.grad_leaks for ph in phases) / sum(len(ph.durations) for ph in phases),
                "share"),
            "setup.import_s": (setup["import_s"], "s"),
            "setup.inputs_s": (setup["inputs_s"], "s"),
            "checkpoint.load_ms": (wl.load_s * 1000.0, "ms"),
            "checkpoint.bytes": (float(wl.checkpoint_bytes), "B"),
            "process.peak_rss_mb": (peak_rss_mb, "MB"),
            "trace.overhead_ms": (fastest - plain_min, "ms"),
            "trace.overhead_share": (fastest / plain_min - 1.0, "share"),
        })
        out["per_layer"] = per_layer
        spans = WORKDIR / f"spans-{wl.name}-seed{wl.seed}.jsonl"
        tracer.write_spans(spans, {"workload": wl.name, "seed": wl.seed, "ops": ops})
        out["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
