"""Per-layer tracing of tokencast from outside the program.

``Tracer.install()`` replaces functions by timed wrappers wherever a
``tokencast`` module binds them (``tokencast.model.matmul``,
``tokencast.train.backward``, ``tokencast.infer.model_forward``, ...), and
wraps the ``_backward_fn`` of every tensor an autodiff op returns, so that
backward closures are timed per op kind. Nothing in the program changes;
``uninstall()`` puts every original back.

Each wrapped call is a span: name, start, end, parent span and the id of the
workload operation (pretrain call, evaluate call or forecast request) it
served. Spans are kept in memory, up to ``max_spans``, in a flat float array
(six numbers a span) that the garbage collector never scans, and written
once by ``write_spans``. Sums are kept per thread, so evaluate's worker
threads never update a shared counter; ``metrics()`` merges them.

A span's self time is its duration minus the time its child spans on the same
thread took, and minus the tracer's own work around each child (measured once
by ``calibrate``), which would otherwise be counted as the parent's.
Evaluate's worker threads start with an empty stack; their decode spans are
parented to the running evaluate call, and evaluate's self time subtracts the
union of their intervals.
"""

from __future__ import annotations

import itertools
import json
import math
import statistics
import sys
import threading
import time
from array import array
from collections import defaultdict

# Autodiff kernels whose calls, forward time and backward-closure time are
# reported. The model calls dropout only at a nonzero rate, which the
# benchmark's model does not use.
OPS = (
    "matmul", "add", "sub", "mul", "reshape", "swap_axes", "slice_rows",
    "shift_right", "gelu", "softmax_lastdim", "layer_norm",
    "max_pool_within_token", "linear_interp_upsample", "mse",
)
PREPROCESS = ("flatten_channels", "tokenize", "detokenize",
              "instance_normalize", "denormalize")
MODEL_SPANS = ("model_forward", "stage_forward", "causal_self_attention")
INFER_SPANS = ("ar_forecast", "_decode_batch")
NUM_STAGES = 4


class _ThreadState:
    __slots__ = ("stack", "acc", "ops", "in_validation", "step_start",
                 "last_adam_end", "val_seen")

    def __init__(self):
        self.stack: list[list] = []          # [span id, child seconds, children]
        self.acc: dict[str, float] = defaultdict(float)
        self.ops = 0                         # autodiff op calls on this thread
        self.in_validation = False
        self.step_start: float | None = None
        self.last_adam_end = 0.0
        self.val_seen: set[int] = set()


class Tracer:
    def __init__(self, max_spans: int = 200_000):
        self.max_spans = max_spans
        self.spans = array("d")  # id, parent, name index, op id, start, end
        self.names: list[str] = []
        self.dropped = 0
        self.op_id = 0
        self.origin = time.perf_counter()
        self.missing: list[str] = []
        self.step_s: list[float] = []
        self.span_cost = 0.0  # tracer seconds per child span, outside its interval
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._patches: list[tuple] = []
        # evaluate call in progress: span id, decode intervals from worker
        # threads, and {horizon: decode steps} per call
        self._root = 0
        self._orphans: list[tuple[float, float]] = []
        self.eval_steps: list[dict[int, int]] = []

    # -- bookkeeping ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._states.append(st)
            return st

    def _record(self, sid, parent, name_idx, t0, t1) -> None:
        if len(self.spans) < 6 * self.max_spans:
            self.spans.extend((sid, parent, name_idx, self.op_id, t0, t1))
        else:
            self.dropped += 1

    def _name(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _leaf(self, fn, name, on_out=None):
        """Lean span for a call that makes no traced calls itself (an
        autodiff kernel); on_out(st, args, out) runs after the timed
        interval."""
        perf = time.perf_counter
        ms_key, calls_key = name + ".s", name + ".calls"
        name_idx = self._name(name)
        ids = self._ids
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            sid = next(ids)
            t0 = perf()
            out = fn(*args, **kwargs)
            t1 = perf()
            dur = t1 - t0
            if stack:
                stack[-1][1] += dur
                stack[-1][2] += 1
                parent = stack[-1][0]
            else:
                parent = tracer._root
            acc = st.acc
            acc[ms_key] += dur
            acc[calls_key] += 1
            tracer._record(sid, parent, name_idx, t0, t1)
            if on_out is not None:
                on_out(st, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed(self, fn, name, before=None, after=None, root=False):
        """Wrap fn in a span; before(st, args) and after(st, args, kwargs, out,
        t0, t1, child_s) run outside the timed interval. A root span becomes
        the parent of spans that start on threads with an empty stack."""
        perf = time.perf_counter
        ms_key, self_key, calls_key = name + ".s", name + ".self_s", name + ".calls"
        name_idx = self._name(name)
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer._state()
            if before is not None:
                before(st, args)
            stack = st.stack
            parent = stack[-1][0] if stack else tracer._root
            frame = [next(tracer._ids), 0.0, 0]
            stack.append(frame)
            if root:
                tracer._root = frame[0]
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                if root:
                    tracer._root = 0
                dur = t1 - t0
                child = frame[1] + frame[2] * tracer.span_cost
                if stack:
                    stack[-1][1] += dur
                    stack[-1][2] += 1
                elif parent:
                    tracer._orphans.append((t0, t1))
                acc = st.acc
                acc[ms_key] += dur
                acc[self_key] += dur - child
                acc[calls_key] += 1
                tracer._record(frame[0], parent, name_idx, t0, t1)
            if after is not None:
                after(st, args, kwargs, out, t0, t1, child)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, module: str, attr: str, make) -> None:
        """Replace module.attr, and every other tokencast binding of the same
        function, by make(original)."""
        original = getattr(sys.modules.get(module), attr, None)
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if name != "tokencast" and not name.startswith("tokencast."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._patches.append((mod, key, original))

    # -- hooks ---------------------------------------------------------------

    def _op_wrapper(self, fn, kind):
        bwd_key = "bwd." + kind + ".s"
        bwd_idx = self._name("bwd." + kind)
        count_matmul = self._count_matmul if kind == "matmul" else None

        def on_out(st, args, out):
            st.ops += 1
            backward_fn = out._backward_fn
            if backward_fn is not None and all(out is not a for a in args):
                out._backward_fn = self._closure(backward_fn, bwd_key, bwd_idx)
            if count_matmul is not None:
                count_matmul(st, args, out)

        return self._leaf(fn, "op." + kind, on_out)

    def _closure(self, fn, key, name_idx):
        """Time one backward closure; its parent is the backward walk."""
        perf = time.perf_counter
        tracer = self

        def closure(g):
            st = tracer._state()
            stack = st.stack
            sid = next(tracer._ids)
            t0 = perf()
            fn(g)
            t1 = perf()
            st.acc[key] += t1 - t0
            if stack:
                stack[-1][1] += t1 - t0
                stack[-1][2] += 1
            tracer._record(sid, stack[-1][0] if stack else 0, name_idx, t0, t1)

        return closure

    @staticmethod
    def _count_matmul(st, args, out) -> None:
        a, b = (getattr(x, "values", x) for x in args[:2])
        flop = 2.0 * out.values.size * a.shape[-1]
        moved = 8.0 * (a.size + b.size + out.values.size)
        st.acc["matmul.flop"] += flop
        st.acc["matmul.bytes"] += moved
        if out.requires_grad:
            # each operand that needs a gradient costs one more product of the
            # same size in backward
            grads = sum(bool(getattr(x, "requires_grad", False)) for x in args[:2])
            st.acc["matmul.flop"] += grads * flop
            st.acc["matmul.bytes"] += grads * moved

    def _model_forward(self, fn):
        def before(st, args):
            st.acc["model_forward.nodes"] -= st.ops

        def after(st, args, kwargs, out, t0, t1, child):
            st.acc["model_forward.nodes"] += st.ops
            tokens = args[1] if len(args) > 1 else kwargs["tokens"]
            st.acc["model_forward.rows"] += math.prod(tokens.shape[:-2])

        return self._timed(fn, "model_forward", before, after)

    def _stage_forward(self, fn):
        def after(st, args, kwargs, out, t0, t1, child):
            st.acc[f"stage{args[1]}.s"] += t1 - t0

        return self._timed(fn, "stage_forward", after=after)

    def _decode(self, fn):
        def after(st, args, kwargs, out, t0, t1, child):
            st.acc["decode.steps"] += out[3]
            if self._root:
                horizon = args[2] if len(args) > 2 else kwargs["horizon"]
                self.eval_steps[-1][horizon] = out[3]
                st.acc["evaluate.decode_s"] += t1 - t0

        return self._timed(fn, "_decode_batch", after=after)

    def _evaluate(self, fn):
        def before(st, args):
            self._orphans = []
            self.eval_steps.append({})

        def after(st, args, kwargs, out, t0, t1, child):
            busy = _union(self._orphans, t0, t1)
            st.acc["evaluate.outside_decode_s"] += (t1 - t0) - child - busy
            st.acc["evaluate.wall_threads_s"] += (t1 - t0) * kwargs.get("threads", 1)

        return self._timed(fn, "evaluate", before, after, root=True)

    def _batch_loss(self, fn):
        def before(st, args):
            if not st.in_validation:
                self._close_step(st)
                st.step_start = time.perf_counter()

        def after(st, args, kwargs, out, t0, t1, child):
            if not st.in_validation:
                st.acc["train.forward_s"] += t1 - t0
                st.acc["train.windows"] += len(args[1])

        return self._timed(fn, "_batch_loss", before, after)

    def _validation(self, fn):
        def before(st, args):
            self._close_step(st)
            st.in_validation = True
            windows = args[1]
            if id(windows) not in st.val_seen:
                st.val_seen.add(id(windows))
                st.acc["train.val_windows"] += len(windows)

        def after(st, args, kwargs, out, t0, t1, child):
            st.in_validation = False

        return self._timed(fn, "_mean_window_mse", before, after)

    def _fit(self, fn):
        def before(st, args):
            st.val_seen = set()

        def after(st, args, kwargs, out, t0, t1, child):
            self._close_step(st)

        return self._timed(fn, "_fit", before, after)

    def _adam(self, fn):
        def after(st, args, kwargs, out, t0, t1, child):
            st.last_adam_end = t1

        return self._timed(fn, "adam_step", after=after)

    def _sample_windows(self, fn):
        def after(st, args, kwargs, out, t0, t1, child):
            st.acc["data.windows_built"] += len(out)

        return self._timed(fn, "sample_windows", after=after)

    def _close_step(self, st) -> None:
        if st.step_start is not None and st.last_adam_end > st.step_start:
            self.step_s.append(st.last_adam_end - st.step_start)
        st.step_start = None

    # -- install -------------------------------------------------------------

    def calibrate(self, children: int = 2000, repeats: int = 5) -> None:
        """Measure span_cost: the parent self time one traced kernel call adds
        beyond the kernel itself, on a stand-in kernel, best of repeats."""
        class Out:
            _backward_fn = None

        out = Out()

        def kernel():
            return out

        perf = time.perf_counter
        costs = []
        for _ in range(repeats):
            probe = Tracer(max_spans=0)
            op = probe._op_wrapper(kernel, "probe")

            def parent():
                for _ in range(children):
                    op()

            probe._timed(parent, "parent")()
            t0 = perf()
            for _ in range(children):
                kernel()
            loop = perf() - t0
            costs.append((probe.totals()["parent.self_s"] - loop) / children)
        self.span_cost = max(0.0, min(costs))

    def install(self) -> None:
        import tokencast.autodiff  # noqa: F401  (loads every patched module)
        import tokencast.evaluate  # noqa: F401

        for kind in OPS:
            self._patch("tokencast.autodiff", kind, lambda f, k=kind: self._op_wrapper(f, k))
        self._patch("tokencast.autodiff", "backward", lambda f: self._timed(f, "backward"))
        self._patch("tokencast.autodiff", "adam_step", self._adam)
        self._patch("tokencast.model", "model_forward", self._model_forward)
        self._patch("tokencast.model", "stage_forward", self._stage_forward)
        self._patch("tokencast.model", "causal_self_attention",
                    lambda f: self._timed(f, "causal_self_attention"))
        self._patch("tokencast.infer", "_decode_batch", self._decode)
        self._patch("tokencast.infer", "ar_forecast", lambda f: self._timed(f, "ar_forecast"))
        self._patch("tokencast.evaluate", "evaluate", self._evaluate)
        self._patch("tokencast.train", "_fit", self._fit)
        self._patch("tokencast.train", "_batch_loss", self._batch_loss)
        self._patch("tokencast.train", "_mean_window_mse", self._validation)
        self._patch("tokencast.data", "sample_windows", self._sample_windows)
        for name in PREPROCESS:
            self._patch("tokencast.preprocess", name,
                        lambda f: self._timed(f, "preprocess"))
        for name in ("serialize", "checkpoint_hash"):
            self._patch("tokencast.checkpoint", name, lambda f, n=name: self._timed(f, n))
        if self.missing:
            print("perfbench: not traced (missing): " + ", ".join(self.missing),
                  file=sys.stderr)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def totals(self) -> dict[str, float]:
        total: dict[str, float] = defaultdict(float)
        with self._lock:
            states = list(self._states)
        for st in states:
            for key, value in st.acc.items():
                total[key] += value
        return total

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; sums are per workload operation."""
        t = self.totals()
        n = max(ops, 1)
        ms = 1000.0 / n
        out: dict[str, tuple[float, str]] = {}
        for kind in OPS:
            out[f"autodiff.{kind}.calls"] = (t[f"op.{kind}.calls"] / n, "count")
            out[f"autodiff.{kind}.fwd_ms"] = (t[f"op.{kind}.s"] * ms, "ms")
            out[f"autodiff.{kind}.bwd_ms"] = (t[f"bwd.{kind}.s"] * ms, "ms")
        out["autodiff.backward.walk_ms"] = (t["backward.self_s"] * ms, "ms")
        out["autodiff.adam_step.ms"] = (t["adam_step.s"] * ms, "ms")
        out["autodiff.matmul.gflop_computed"] = (t["matmul.flop"] / 1e9 / n, "GFLOP")
        out["autodiff.matmul.mb_computed"] = (t["matmul.bytes"] / 1e6 / n, "MB")
        forwards = t["model_forward.calls"]
        out["autodiff.nodes_per_forward"] = (
            t["model_forward.nodes"] / forwards if forwards else 0.0, "count")

        out["model.model_forward.calls"] = (forwards / n, "count")
        out["model.rows_per_forward"] = (
            t["model_forward.rows"] / forwards if forwards else 0.0, "count")
        for i in range(NUM_STAGES):
            out[f"model.stage{i}.ms"] = (t[f"stage{i}.s"] * ms, "ms")
        out["model.attention.ms"] = (t["causal_self_attention.s"] * ms, "ms")
        out["model.self_ms"] = (sum(t[s + ".self_s"] for s in MODEL_SPANS) * ms, "ms")

        out["infer.decode.calls"] = (t["_decode_batch.calls"] / n, "count")
        out["infer.decode_steps"] = (t["decode.steps"] / n, "count")
        out["infer.self_ms"] = (sum(t[s + ".self_s"] for s in INFER_SPANS) * ms, "ms")

        run = sum(sum(d.values()) for d in self.eval_steps)
        useful = sum(max(d.values(), default=0) for d in self.eval_steps)
        out["evaluate.decode_useful_share"] = (useful / run if run else 0.0, "share")
        wall = t["evaluate.wall_threads_s"]
        out["evaluate.worker_busy_share"] = (
            t["evaluate.decode_s"] / wall if wall else 0.0, "share")
        out["evaluate.self_ms"] = (t["evaluate.outside_decode_s"] * ms, "ms")
        out["evaluate.checkpoint_hash_ms"] = (t["checkpoint_hash.s"] * ms, "ms")

        steps = self.step_s
        out["train.step_p50_ms"] = (quantile(steps, 50) * 1000.0, "ms")
        out["train.step_p90_ms"] = (quantile(steps, 90) * 1000.0, "ms")
        out["train.forward_ms"] = (t["train.forward_s"] * ms, "ms")
        out["train.backward_ms"] = (t["backward.s"] * ms, "ms")
        out["train.validation_ms"] = (t["_mean_window_mse.s"] * ms, "ms")
        out["train.windows_trained"] = (t["train.windows"] / n, "count")

        built = t["data.windows_built"]
        out["data.sample_windows.calls"] = (t["sample_windows.calls"] / n, "count")
        out["data.sample_windows.ms"] = (t["sample_windows.s"] * ms, "ms")
        out["data.windows_built"] = (built / n, "count")
        out["data.window_use_share"] = (
            (t["train.windows"] + t["train.val_windows"]) / built if built else 0.0, "share")

        out["preprocess.calls"] = (t["preprocess.calls"] / n, "count")
        out["preprocess.ms"] = (t["preprocess.s"] * ms, "ms")
        out["checkpoint.serialize.calls"] = (t["serialize.calls"] / n, "count")
        out["trace.spans_per_op"] = ((len(self.spans) // 6 + self.dropped) / n, "count")
        return out

    def write_spans(self, path, header: dict) -> None:
        """Write the kept spans as JSON lines, times in seconds from start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(header, spans=len(self.spans) // 6,
                                     dropped=self.dropped)) + "\n")
            o, s = self.origin, self.spans
            for i in range(0, len(s), 6):
                fh.write(f'{{"id":{s[i]:.0f},"parent":{s[i + 1]:.0f},'
                         f'"name":"{self.names[int(s[i + 2])]}","op":{s[i + 3]:.0f},'
                         f'"start":{s[i + 4] - o:.7f},"end":{s[i + 5] - o:.7f}}}\n')


def _union(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def quantile(values: list[float], percent: int) -> float:
    """The percent-th percentile, interpolating between samples; 0 if none."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]
