"""The three benchmark workloads: inputs, one timed operation, and checks.

Every workload builds its inputs from the workload seed with its own numpy
generator, so the program receives only generated arrays. Model and training
settings are fixed (paper preset, width 64, 4 heads, feed-forward 128) and do
not depend on the seed; only the data does.

A workload exposes:

* ``prepare()``: model set-up (checkpoint round trip), timed as set-up;
* ``setup_checks()``: named checks of the inputs themselves, run once;
* ``op()``: one timed operation, returning its result;
* ``windows_per_op``: windows one operation trains, scores or forecasts;
* ``check(result)``: problems with one result (empty list = correct);
* ``final_checks()``: named checks run once after timing.

A named check is ``(name, fn)``; ``fn()`` returns its problems.
* ``quality()``: the deterministic output MSE reported as ``output_mse``.

Why these three (see also README.md):

* ``pretrain`` is the only path that records a tape, runs ``backward`` and
  Adam, and samples windows every epoch.
* ``evaluate`` is forward-only decoding at hundreds of rows per call, where
  BLAS does the work, split over worker threads.
* ``forecast`` is the same forward pass at one row, where Python cost per op
  dominates; a change that helps large batches but costs small ones shows here.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tokencast.checkpoint
import tokencast.data
import tokencast.evaluate
import tokencast.infer
import tokencast.model
import tokencast.train

REFERENCE_SEED = 0
REFERENCE_FILE = Path(__file__).with_name("reference.json")

HORIZONS = (96, 192, 336, 720)
LOOKBACK = 336
FORECAST_HORIZON = 96


@dataclass(frozen=True)
class Size:
    """Input sizes; ``full`` is what the benchmark measures."""

    # pretrain
    sources: int
    channels: int
    train_len: int
    val_len: int
    train_stride: int
    epochs: int
    # evaluate
    eval_channels: int
    eval_origins: int        # origins per channel at the longest horizon
    eval_stride: int
    # forecast
    forecast_series: int
    forecast_requests: int   # distinct lookbacks, cycled
    quality_requests: int    # first requests whose MSE is output_mse
    min_ops: int


SIZES = {
    "full": Size(sources=4, channels=2, train_len=624, val_len=496,
                 train_stride=16, epochs=2,
                 eval_channels=2, eval_origins=16, eval_stride=24,
                 forecast_series=8, forecast_requests=2048,
                 quality_requests=256, min_ops=3),
    "tiny": Size(sources=2, channels=1, train_len=400, val_len=384,
                 train_stride=16, epochs=1,
                 eval_channels=1, eval_origins=2, eval_stride=48,
                 forecast_series=1, forecast_requests=8,
                 quality_requests=4, min_ops=1),
}

MODEL_CONFIG = tokencast.model.paper_preset(
    model_width=64, attention_heads=4, feedforward_width=128, seed=0)
EVAL_THREADS = max(1, min(2, os.cpu_count() or 1))


# Periods and phases depend on the channel, not on the seed: they set the
# shape the untrained model responds to, and output_mse must be comparable
# across seeds. The seed draws each channel's trend and noise.
PERIOD_PAIRS = ((24.0, 168.0), (48.0, 96.0), (24.0, 96.0), (48.0, 168.0))
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def synth_series(rng: np.random.Generator, name: str, channels: int,
                 length: int) -> tokencast.data.MultivariateSeries:
    """Channels of two unit sines plus a seeded trend and Gaussian noise."""
    t = np.arange(length, dtype=np.float64)
    rows = []
    for c in range(channels):
        x = np.zeros(length)
        for k, period in enumerate(PERIOD_PAIRS[c % len(PERIOD_PAIRS)]):
            phase = 2.0 * np.pi * ((c + 1) * (k + 1) * GOLDEN % 1.0)
            x += np.sin(2.0 * np.pi * t / period + phase)
        x += rng.uniform(-0.5, 0.5) * t / length
        x += rng.normal(0.0, 0.2, size=length)
        rows.append(x)
    return tokencast.data.MultivariateSeries(name=name, values=np.stack(rows))


def _windows_per_segment(length: int, span: int, stride: int) -> int:
    return max(0, (length - span) // stride + 1)


def _load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def _close(observed: float, expected: float, rtol: float) -> bool:
    return math.isfinite(observed) and abs(observed - expected) <= rtol * abs(expected)


class Workload:
    name = ""

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.size_name = size
        self.size = SIZES[size]
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.checkpoint_bytes = 0
        self.load_s = 0.0

    def prepare(self) -> None:
        """Model set-up; the default workload has none."""

    def _checkpoint_roundtrip(self) -> tokencast.checkpoint.Checkpoint:
        """init_model -> save_checkpoint -> load_checkpoint, as a user would."""
        params = tokencast.model.init_model(MODEL_CONFIG)
        ckpt = tokencast.checkpoint.from_params(params, {"seed": "0"})
        tmp = self.workdir / f"ckpt-{os.getpid()}"
        tmp.mkdir(parents=True, exist_ok=True)
        try:
            path = tmp / "model.ckpt"
            tokencast.checkpoint.save_checkpoint(ckpt, path)
            self.checkpoint_bytes = path.stat().st_size
            t0 = time.perf_counter()
            loaded = tokencast.checkpoint.load_checkpoint(path)
            self.load_s = time.perf_counter() - t0
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return loaded

    def setup_checks(self) -> list[tuple[str, Callable[[], list[str]]]]:
        return []

    def final_checks(self) -> list[tuple[str, Callable[[], list[str]]]]:
        return []

    def describe(self) -> dict:
        return {"size": self.size_name}

    def _reference_check(self, observed: dict) -> list[str]:
        """Compare against the stored values for the reference seed."""
        if self.seed != REFERENCE_SEED or self.size_name != "full":
            return []
        ref = _load_reference()
        rtol = ref["rtol"]
        expected = ref[self.name]
        problems = [
            f"{key}: {observed[key]!r} differs from reference {value!r} (rtol {rtol})"
            for key, value in expected.items()
            if not _close(observed[key], value, rtol)
        ]
        if problems:
            problems.append("observed: " + json.dumps(observed))
        return problems


class Pretrain(Workload):
    """Mixed-dataset pretraining for a fixed number of epochs.

    The sources share their per-channel sines and differ in trend and noise.
    """

    name = "pretrain"

    def __init__(self, seed: int, size: str, workdir: Path):
        super().__init__(seed, size, workdir)
        s = self.size
        datasets = []
        for i in range(s.sources):
            series = synth_series(self.rng, f"src{i}", s.channels,
                                  s.train_len + s.val_len)
            split = tokencast.data.DatasetSplit(
                train=(0, s.train_len),
                validation=(s.train_len, s.train_len + s.val_len),
                test=(s.train_len + s.val_len, s.train_len + s.val_len))
            datasets.append((series, split))
        self.train_mixed = tokencast.data.build_mixed_dataset(datasets, "train")
        self.val_mixed = tokencast.data.build_mixed_dataset(datasets, "validation")
        # patience above the epoch count: early stopping never ends a call
        self.train_config = tokencast.train.TrainConfig(
            epochs=s.epochs, batch_size=64, learning_rate=1e-3,
            stride=s.train_stride, patience=s.epochs + 1, seed=0)
        span = MODEL_CONFIG.max_tokens * MODEL_CONFIG.token_len + MODEL_CONFIG.token_len
        segments = s.sources * s.channels
        self.train_windows = segments * _windows_per_segment(s.train_len, span, s.train_stride)
        self.windows_per_op = self.train_windows * s.epochs
        self.val_windows = segments * _windows_per_segment(s.val_len, span, s.train_stride)
        self.first_val: float | None = None

    def describe(self) -> dict:
        return {"size": self.size_name, "epochs": self.train_config.epochs,
                "batch_size": self.train_config.batch_size,
                "windows_per_epoch": self.train_windows,
                "validation_windows": self.val_windows}

    def setup_checks(self):
        return [("window_counts", self._window_counts)]

    def _window_counts(self) -> list[str]:
        lookback = MODEL_CONFIG.max_tokens * MODEL_CONFIG.token_len
        problems = []
        for mixed, expected in ((self.train_mixed, self.train_windows),
                                (self.val_mixed, self.val_windows)):
            got = len(tokencast.data.sample_windows(
                mixed, lookback, MODEL_CONFIG.token_len,
                stride=self.train_config.stride, seed=0))
            if got != expected:
                problems.append(f"{mixed.role}: {got} windows, expected {expected}")
        return problems

    def op(self):
        ckpt, history = tokencast.train.pretrain(
            MODEL_CONFIG, self.train_config, self.train_mixed, self.val_mixed)
        return ckpt, history

    def check(self, result) -> list[str]:
        ckpt, history = result
        problems = []
        if len(history) != self.train_config.epochs:
            problems.append(f"{len(history)} epochs run, expected {self.train_config.epochs}")
        if not all(math.isfinite(h.train_mse) and math.isfinite(h.val_mse) for h in history):
            problems.append("non-finite loss in history")
        if not all(np.all(np.isfinite(a)) for a in ckpt.arrays.values()):
            problems.append("non-finite parameters")
        best = float(ckpt.metadata.get("best_val_mse", "nan"))
        if not math.isfinite(best):
            problems.append(f"best validation MSE {best}")
        if int(ckpt.metadata.get("epoch", "0")) < 1:
            problems.append("no epoch improved on the untrained validation MSE")
        if self.first_val is None:
            self.first_val = best
        elif best != self.first_val:
            problems.append(f"not deterministic: best validation MSE {best!r} "
                            f"after {self.first_val!r}")
        return problems

    def quality(self) -> float:
        return float("nan") if self.first_val is None else self.first_val

    def final_checks(self):
        return [("reference",
                 lambda: self._reference_check({"best_val_mse": self.quality()}))]


class Evaluate(Workload):
    """The standard protocol over the four paper horizons, two worker threads."""

    name = "evaluate"

    def __init__(self, seed: int, size: str, workdir: Path, forecast_fn=None):
        super().__init__(seed, size, workdir)
        s = self.size
        self.test_len = LOOKBACK + max(HORIZONS) + (s.eval_origins - 1) * s.eval_stride
        # a short history before the test range; evaluate reads only the test range
        history = 2 * LOOKBACK
        self.series = synth_series(self.rng, "bench", s.eval_channels, history + self.test_len)
        self.split = tokencast.data.DatasetSplit(
            train=(0, LOOKBACK), validation=(LOOKBACK, history),
            test=(history, history + self.test_len))
        self.forecast_fn = forecast_fn
        self.origins = {h: _windows_per_segment(self.test_len, LOOKBACK + h, s.eval_stride)
                        for h in HORIZONS}
        self.windows_per_op = s.eval_channels * sum(self.origins.values())
        self.first_rows = None
        self.ckpt = None

    def describe(self) -> dict:
        return {"size": self.size_name, "threads": EVAL_THREADS,
                "horizons": list(HORIZONS), "lookback": LOOKBACK,
                "stride": self.size.eval_stride, "channels": self.size.eval_channels,
                "windows_per_call": self.windows_per_op}

    def prepare(self) -> None:
        self.ckpt = self._checkpoint_roundtrip()

    def op(self):
        report = tokencast.evaluate.evaluate(
            self.ckpt, self.series, self.split, list(HORIZONS), LOOKBACK,
            stride=self.size.eval_stride, forecast_fn=self.forecast_fn,
            threads=EVAL_THREADS)
        return report

    def check(self, report) -> list[str]:
        rows = [(r.horizon, r.mse, r.mae, r.windows) for r in report.rows]
        problems = []
        if [r[0] for r in rows] != list(HORIZONS):
            problems.append(f"rows for horizons {[r[0] for r in rows]}")
        for h, mse_v, mae_v, windows in rows:
            if not (math.isfinite(mse_v) and math.isfinite(mae_v)):
                problems.append(f"H={h}: non-finite metrics {mse_v}, {mae_v}")
            if windows != self.origins.get(h):
                problems.append(f"H={h}: {windows} windows, expected {self.origins.get(h)}")
        if self.first_rows is None:
            self.first_rows = rows
        elif rows != self.first_rows:
            problems.append("not deterministic across calls")
        return problems

    def quality(self) -> float:
        """Window-weighted MSE over all horizons of the first call."""
        if not self.first_rows:
            return float("nan")
        total = sum(mse_v * w for _, mse_v, _, w in self.first_rows)
        return total / sum(w for *_, w in self.first_rows)

    def final_checks(self):
        return [
            ("batched_equals_solo", lambda: _batched_equals_solo(
                self._params(), self._lookbacks(min(16, self.origins[96])), max(HORIZONS))),
            ("evaluate_matches_solo", self._evaluate_matches_solo),
            ("reference", self._reference_rows),
        ]

    def _params(self):
        return tokencast.checkpoint.to_params(self.ckpt)

    def _reference_rows(self) -> list[str]:
        if not self.first_rows:
            return ["no successful call"]
        return self._reference_check(
            {f"mse_{h}": m for h, m, _, _ in self.first_rows}
            | {f"mae_{h}": a for h, _, a, _ in self.first_rows})

    def _lookbacks(self, count: int) -> np.ndarray:
        lo = self.split.test[0]
        origins = [lo + LOOKBACK + i * self.size.eval_stride for i in range(count)]
        return np.concatenate([self.series.values[:, t - LOOKBACK:t] for t in origins])

    def _evaluate_matches_solo(self) -> list[str]:
        """Row metrics of a small evaluate call (channel 0 of the test range,
        sparse origins) against solo ar_forecast calls."""
        params = self._params()
        stride = 192
        lo, hi = self.split.test
        length = hi - lo
        series = tokencast.data.MultivariateSeries(
            "solo", self.series.values[:1, lo:hi])
        split = tokencast.data.DatasetSplit(train=(0, 0), validation=(0, 0),
                                            test=(0, length))
        report = tokencast.evaluate.evaluate(
            self.ckpt, series, split, list(HORIZONS), LOOKBACK,
            stride=stride, threads=EVAL_THREADS)
        problems = []
        for row in report.rows:
            h = row.horizon
            preds, truth = [], []
            for t in range(LOOKBACK, length - h + 1, stride):
                res = tokencast.infer.ar_forecast(params, tokencast.infer.ForecastRequest(
                    lookback=series.values[0, t - LOOKBACK:t], horizon=h))
                preds.append(res.predictions[0])
                truth.append(series.values[0, t:t + h])
            diff = np.stack(preds) - np.stack(truth)
            mse_v, mae_v = float((diff * diff).mean()), float(np.abs(diff).mean())
            if not (_close(row.mse, mse_v, 1e-12) and _close(row.mae, mae_v, 1e-12)):
                problems.append(f"H={h}: evaluate ({row.mse!r}, {row.mae!r}) vs "
                                f"solo ({mse_v!r}, {mae_v!r})")
        return problems


class Forecast(Workload):
    """Closed loop, one client: one univariate H=96 request at a time."""

    name = "forecast"

    def __init__(self, seed: int, size: str, workdir: Path):
        super().__init__(seed, size, workdir)
        s = self.size
        length = 4096
        self.values = synth_series(self.rng, "fc", s.forecast_series, length).values
        span = LOOKBACK + FORECAST_HORIZON
        self.requests = list(zip(
            self.rng.integers(0, s.forecast_series, size=s.forecast_requests),
            self.rng.integers(0, length - span + 1, size=s.forecast_requests)))
        self.next = 0
        self.windows_per_op = 1
        self.params = None
        self.scored = 0  # of the first quality_requests requests
        self.sq_err = 0.0

    def describe(self) -> dict:
        return {"size": self.size_name, "horizon": FORECAST_HORIZON,
                "lookback": LOOKBACK, "clients": 1,
                "distinct_requests": len(self.requests)}

    def prepare(self) -> None:
        self.params = tokencast.checkpoint.to_params(self._checkpoint_roundtrip())

    def _request(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        row, start = self.requests[i % len(self.requests)]
        x = self.values[row]
        return x[start:start + LOOKBACK], x[start + LOOKBACK:start + LOOKBACK + FORECAST_HORIZON]

    def op(self):
        i = self.next
        self.next += 1
        lookback, truth = self._request(i)
        result = tokencast.infer.ar_forecast(
            self.params, tokencast.infer.ForecastRequest(lookback=lookback,
                                                         horizon=FORECAST_HORIZON))
        return i, result, truth

    def check(self, result) -> list[str]:
        i, res, truth = result
        pred = res.predictions
        if pred.shape != (1, FORECAST_HORIZON):
            return [f"prediction shape {pred.shape}"]
        if not np.all(np.isfinite(pred)):
            return ["non-finite forecast"]
        if res.decode_steps != math.ceil(FORECAST_HORIZON / MODEL_CONFIG.token_len):
            return [f"{res.decode_steps} decode steps"]
        if i < self.size.quality_requests:
            self.scored += 1
            self.sq_err += float(((pred[0] - truth) ** 2).sum())
        return []

    def quality(self) -> float:
        """MSE of the first quality_requests forecasts; NaN if any failed."""
        if self.scored < self.size.quality_requests:
            return float("nan")
        return self.sq_err / (self.scored * FORECAST_HORIZON)

    def final_checks(self):
        lookbacks = np.stack([self._request(i)[0] for i in range(8)])
        return [("batched_equals_solo",
                 lambda: _batched_equals_solo(self.params, lookbacks, FORECAST_HORIZON)),
                ("reference", lambda: self._reference_check({"output_mse": self.quality()}))]


def _batched_equals_solo(params, lookbacks: np.ndarray, horizon: int) -> list[str]:
    """Sampled rows of one batched decode against solo decodes, bit for bit."""
    batched = tokencast.infer.ar_forecast(
        params, tokencast.infer.ForecastRequest(lookback=lookbacks, horizon=horizon)
    ).predictions
    rows = sorted({0, len(lookbacks) // 3, (2 * len(lookbacks)) // 3, len(lookbacks) - 1})
    problems = []
    for r in rows:
        solo = tokencast.infer.ar_forecast(
            params, tokencast.infer.ForecastRequest(lookback=lookbacks[r], horizon=horizon)
        ).predictions[0]
        if not np.array_equal(batched[r], solo):
            problems.append(f"row {r} of {len(lookbacks)}: batched differs from solo")
    return problems


WORKLOADS = {w.name: w for w in (Pretrain, Evaluate, Forecast)}
