"""Metrics, naive baseline oracles, and the evaluation protocols.

``evaluate`` slides windows over a dataset's test range and scores forecasts
per horizon. ``run_protocol`` is the one entry point for the three protocols
an ``EvalSettings`` names: standard evaluates directly, zero-shot first
refuses datasets that were part of the checkpoint's pretraining mix, and
few-shot first tunes the forecast heads on the most recent fraction of the
training range. Metrics are computed in series units on denormalized outputs.
"""

from __future__ import annotations

import csv
import io
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .checkpoint import Checkpoint, checkpoint_hash, to_params
from .data import DatasetSplit, MultivariateSeries, build_mixed_dataset
from .errors import ConfigError, ProtocolError, ShapeError
from .infer import _decode_batch
from .train import TrainConfig, finetune_heads


@dataclass(frozen=True)
class EvalSettings:
    protocol: str = "standard"  # "standard", "zero-shot" or "few-shot"
    horizons: tuple[int, ...] = (96,)
    lookback: int = 336
    stride: int = 1
    fraction: float = 0.0  # few-shot: most recent share of the train range

    def validate(self) -> None:
        if self.protocol not in ("standard", "zero-shot", "few-shot"):
            raise ConfigError(f"protocol {self.protocol!r} unknown")
        if not self.horizons:
            raise ConfigError("need at least one horizon")
        if min(self.horizons) < 1:
            raise ConfigError(f"horizons must be >= 1, got {sorted(self.horizons)}")
        for name in ("lookback", "stride"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.protocol == "few-shot" and not 0.0 < self.fraction <= 1.0:
            raise ConfigError(f"few-shot fraction must lie in (0, 1], got {self.fraction}")


@dataclass(frozen=True)
class EvalRow:
    dataset: str
    horizon: int
    mse: float
    mae: float
    windows: int


@dataclass
class EvalReport:
    rows: list[EvalRow]
    fingerprint: str = ""


def metrics(pred: np.ndarray, truth: np.ndarray) -> tuple[float, float]:
    """(MSE, MAE) over all elements; symmetric in its arguments."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ShapeError(f"metrics shapes disagree: {pred.shape} vs {truth.shape}")
    diff = pred - truth
    return float((diff * diff).mean()), float(np.abs(diff).mean())


def naive_baselines(
    lookback: np.ndarray, horizon: int, season_period: int
) -> tuple[np.ndarray, np.ndarray]:
    """Persistence (repeat last value) and seasonal-naive (repeat last season)."""
    lookback = np.asarray(lookback, dtype=np.float64)
    if season_period < 1:
        raise ConfigError(f"season period must be >= 1, got {season_period}")
    if season_period > lookback.shape[-1]:
        raise ConfigError(
            f"season period {season_period} exceeds lookback length "
            f"{lookback.shape[-1]}"
        )
    persistence = np.broadcast_to(
        lookback[..., -1:], lookback.shape[:-1] + (horizon,)
    ).copy()
    season = lookback[..., -season_period:]
    idx = np.arange(horizon) % season_period
    return persistence, season[..., idx]


def _model_decoder(ckpt: Checkpoint):
    params = to_params(ckpt)

    def decode(lookbacks: np.ndarray, row_horizons: np.ndarray) -> np.ndarray:
        horizon = int(row_horizons.max())
        preds, _, _, _ = _decode_batch(params, lookbacks, horizon,
                                       horizons=row_horizons)
        return preds

    return decode


def _grouped_decoder(forecast_fn):
    """Serve per-row horizons with one forecast_fn call per distinct horizon."""

    def decode(lookbacks: np.ndarray, row_horizons: np.ndarray) -> np.ndarray:
        preds = np.full((len(row_horizons), row_horizons.max()), np.nan)
        for horizon in np.unique(row_horizons):
            rows = row_horizons == horizon
            out = np.asarray(forecast_fn(lookbacks[rows], int(horizon)))
            if out.shape != (np.count_nonzero(rows), horizon):
                raise ShapeError(
                    f"forecast_fn returned {out.shape} for "
                    f"{np.count_nonzero(rows)} lookbacks at horizon {horizon}"
                )
            preds[rows, :horizon] = out
        return preds

    return decode


def _check_eval_settings(series: MultivariateSeries, split: DatasetSplit,
                         settings: EvalSettings, threads: int) -> None:
    """Reject evaluation settings before any decoding or fine-tuning."""
    settings.validate()
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    lo, hi = split.test
    needed = settings.lookback + max(settings.horizons)
    if hi - lo < needed:
        raise ConfigError(
            f"test range of {series.name} too short: need {needed} points "
            f"(lookback {settings.lookback} + horizon {max(settings.horizons)}), "
            f"have {hi - lo}"
        )


def evaluate(
    ckpt: Checkpoint | None,
    series: MultivariateSeries,
    split: DatasetSplit,
    horizons: list[int],
    lookback_len: int,
    stride: int = 1,
    forecast_fn=None,
    threads: int = 1,
) -> EvalReport:
    """Score stride-spaced test windows at each horizon.

    Windows live entirely inside the test range. All horizons share the first
    origin and the stride, so each (origin, channel) row is decoded once, to
    the longest horizon it is scored at, and every shorter horizon is scored
    on a prefix of that forecast. ``forecast_fn`` overrides the checkpoint
    model (signature: (M, L) lookbacks, horizon -> (M, horizon)); it is called
    once per distinct decode length with the rows that need that length, and
    its forecast at H must be the first H points of its forecast at any longer
    horizon, as it is for auto-regressive decoding and the naive baselines.
    Results are deterministic and row-independent, so ``threads`` only splits
    work: reports are bit-identical at any thread count.
    """
    _check_eval_settings(series, split, EvalSettings(
        horizons=tuple(horizons), lookback=lookback_len, stride=stride), threads)
    if forecast_fn is None:
        if ckpt is None:
            raise ConfigError("evaluate needs a checkpoint or a forecast_fn")
        decode = _model_decoder(ckpt)
    else:
        decode = _grouped_decoder(forecast_fn)
    lo, hi = split.test
    available = hi - lo
    needed = lookback_len + max(horizons)

    # origins lo + L + i * stride for i < count[h]; every horizon's origins
    # are a prefix of the shortest horizon's, so each origin is decoded to the
    # longest horizon whose origins include it, and that length never rises
    # with i
    count = {h: len(range(lo + lookback_len, hi - h + 1, stride)) for h in horizons}
    origin_horizon = np.zeros(max(count.values()), dtype=np.int64)
    for h in sorted(count):
        origin_horizon[:count[h]] = h
    channels = series.num_channels
    row_horizons = np.repeat(origin_horizon, channels)  # origin-major rows

    # one (lookback + longest horizon) window per row, NaN-padded past the
    # end of the test range; each row is scored only up to its own horizon
    pad = (len(origin_horizon) - 1) * stride + needed - available
    segment = np.pad(series.values[:, lo:hi], ((0, 0), (0, max(pad, 0))),
                     constant_values=np.nan)
    windows = sliding_window_view(segment, needed, axis=-1)[:, ::stride][:, :len(origin_horizon)]
    windows = windows.transpose(1, 0, 2).reshape(-1, needed)
    lookbacks, truth = windows[:, :lookback_len], windows[:, lookback_len:]

    if threads > 1 and len(windows) > 1:
        # worker k decodes rows k, k + threads, ...: every chunk stays
        # longest-first and gets an equal share of the long rows
        workers = min(threads, len(windows))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(
                lambda k: decode(lookbacks[k::threads], row_horizons[k::threads]),
                range(workers),
            ))
        preds = np.full(truth.shape, np.nan)
        for k, part in enumerate(parts):
            preds[k::threads, :part.shape[1]] = part
    else:
        preds = decode(lookbacks, row_horizons)

    rows: list[EvalRow] = []
    for horizon in sorted(horizons):
        scored = count[horizon] * channels
        mse_v, mae_v = metrics(preds[:scored, :horizon], truth[:scored, :horizon])
        rows.append(EvalRow(
            dataset=series.name, horizon=horizon,
            mse=mse_v, mae=mae_v, windows=count[horizon],
        ))
    fingerprint = checkpoint_hash(ckpt)[:16] if ckpt is not None else "custom"
    return EvalReport(rows=rows, fingerprint=fingerprint)


def run_protocol(
    ckpt: Checkpoint,
    series: MultivariateSeries,
    split: DatasetSplit,
    settings: EvalSettings,
    train_config: TrainConfig | None = None,
    threads: int = 1,
) -> EvalReport:
    """Score ``ckpt`` on ``series`` under ``settings.protocol``.

    Every setting is checked first. Zero-shot then refuses a target that was
    in the pretraining mix; few-shot tunes the heads with ``train_config`` on
    the most recent ``settings.fraction`` of the train range. The full test
    range is scored in every protocol.
    """
    _check_eval_settings(series, split, settings, threads)
    if settings.protocol == "zero-shot":
        sources = [s for s in ckpt.metadata.get("train_sources", "").split(",") if s]
        if series.name in sources:
            raise ProtocolError(
                f"zero-shot violation: {series.name} is one of the checkpoint's "
                f"pretraining sources ({', '.join(sources)})"
            )
    elif settings.protocol == "few-shot":
        if train_config is None:
            raise ConfigError("few-shot protocol needs a TrainConfig to tune the heads")
        a, b = split.train
        keep = int((b - a) * settings.fraction)
        reduced = replace(split, train=(b - keep, b))
        train_mixed = build_mixed_dataset([(series, reduced)], "train")
        val_mixed = build_mixed_dataset([(series, reduced)], "validation")
        ckpt, _ = finetune_heads(ckpt, train_config, train_mixed, val_mixed)
    return evaluate(ckpt, series, split, list(settings.horizons), settings.lookback,
                    stride=settings.stride, threads=threads)


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------


def report_to_csv(report: EvalReport) -> str:
    buf = io.StringIO()
    buf.write(f"# fingerprint={report.fingerprint}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["dataset", "horizon", "mse", "mae", "windows"])
    for row in report.rows:
        writer.writerow([row.dataset, row.horizon, repr(row.mse), repr(row.mae), row.windows])
    return buf.getvalue()


def format_table(report: EvalReport) -> str:
    header = f"{'dataset':<16} {'horizon':>7} {'mse':>12} {'mae':>12} {'windows':>8}"
    lines = [header, "-" * len(header)]
    for row in report.rows:
        lines.append(
            f"{row.dataset:<16} {row.horizon:>7} {row.mse:>12.6f} "
            f"{row.mae:>12.6f} {row.windows:>8}"
        )
    return "\n".join(lines)
