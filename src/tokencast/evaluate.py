"""Metrics and the evaluation protocols.

``evaluate`` slides windows over a dataset's test range and scores forecasts
per horizon. ``run_protocol`` is the one entry point for the three protocols
an ``EvalSettings`` names, over all of a run's datasets: it checks every
dataset before any work, zero-shot refusing any dataset the checkpoint was
pretrained or fine-tuned on, and few-shot then tunes the forecast heads on the
most recent fraction of each dataset's training range before scoring it.
Metrics are computed in series units on denormalized outputs.
"""

from __future__ import annotations

import csv
import io
import os
import pickle
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .checkpoint import Checkpoint, checkpoint_hash, to_params
from .data import DatasetSplit, MultivariateSeries, build_mixed_dataset
from .errors import MAX_ELEMENTS, ConfigError, ProtocolError, ShapeError
from .infer import _decode_batch
from .train import TrainConfig, check_windows, finetune_heads


@dataclass(frozen=True)
class EvalSettings:
    protocol: str = "standard"  # "standard", "zero-shot" or "few-shot"
    horizons: tuple[int, ...] = (96,)
    lookback: int = 336
    stride: int = 1
    fraction: float = 0.0  # few-shot: most recent share of the train range

    def __post_init__(self) -> None:
        if self.protocol not in ("standard", "zero-shot", "few-shot"):
            raise ConfigError(f"protocol {self.protocol!r} unknown")
        if not self.horizons:
            raise ConfigError("need at least one horizon")
        if min(self.horizons) < 1:
            raise ConfigError(f"horizons must be >= 1, got {sorted(self.horizons)}")
        if len(set(self.horizons)) != len(self.horizons):
            raise ConfigError(f"horizons must not repeat, got {self.horizons}")
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
    fingerprint: str = ""  # run_protocol's; evaluate leaves it empty


def metrics(pred: np.ndarray, truth: np.ndarray) -> tuple[float, float]:
    """(MSE, MAE) over all elements; symmetric in its arguments."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ShapeError(f"metrics shapes disagree: {pred.shape} vs {truth.shape}")
    diff = pred - truth
    return float((diff * diff).mean()), float(np.abs(diff).mean())


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
    """Reject a thread count, a test range or a row count before any decoding
    or fine-tuning."""
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
    rows = len(range(lo + settings.lookback, hi - min(settings.horizons) + 1,
                     settings.stride)) * series.num_channels
    if rows * needed > MAX_ELEMENTS:
        raise ConfigError(f"{series.name}: {rows} rows of lookback and prediction "
                          f"need {rows * needed} values, more than {MAX_ELEMENTS}")


def _forked_map(fn, n: int) -> list:
    """``[fn(0), ..., fn(n - 1)]``, with each ``fn(k)`` for k >= 1 run in a
    child made by ``os.fork`` where the OS can fork.

    This process runs fn(0) while the children run the rest, each on its own
    interpreter lock and sharing this process's arrays copy-on-write, so no
    input is copied or pickled. A child pickles its result into its own pipe
    and leaves by ``os._exit``. Shares are deterministic, so a child only
    saves time: every share whose child did not send back a whole pickled
    result, because it raised, died, got no pipe, could not be forked or
    returned something that does not pickle, runs again here after fn(0), in
    k order, and raises here whatever it raises. Such a share runs twice.
    Every child is reaped before any share runs again.
    """
    children, received = [], {}  # (k, pid, read end); k -> bytes
    try:
        for k in range(1, n) if hasattr(os, "fork") else ():
            fds = []
            try:
                fds += os.pipe()
                pid = os.fork()
            except OSError:  # e.g. EMFILE or EAGAIN: share k runs here instead
                for fd in fds:
                    os.close(fd)
                continue
            read_fd, write_fd = fds
            if pid == 0:  # the child never returns into the caller
                try:
                    with open(write_fd, "wb") as pipe:
                        pipe.write(pickle.dumps(fn(k), pickle.HIGHEST_PROTOCOL))
                finally:
                    os._exit(0)
            os.close(write_fd)  # so a child that dies reads as EOF
            children.append((k, pid, read_fd))
        results = [fn(0)]
        for k, _, read_fd in children:
            with open(read_fd, "rb", closefd=False) as pipe:
                received[k] = pipe.read()
    finally:
        for _, pid, read_fd in children:
            os.close(read_fd)  # a child still writing fails and exits
            os.waitpid(pid, 0)
    for k in range(1, n):
        try:
            results.append(pickle.loads(received[k]))
            continue
        except Exception:  # share k came back incomplete or not at all
            pass
        results.append(fn(k))  # outside the handler, so its error has no context
    return results


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
    horizon, as it is for auto-regressive decoding and for persistence.
    Results are deterministic and row-independent, so ``threads`` only splits
    work: reports are bit-identical at any count. ``threads`` is the number of
    workers: this process decodes one share of the rows and, where the OS can
    fork, a forked child process decodes each other share on its own
    interpreter lock. A share whose child fails, dies or cannot be forked is
    decoded here afterwards, and any error it raises is raised here. So with
    ``threads > 1`` a ``forecast_fn`` also runs in those children, where side
    effects it has, such as appending to a list, are not seen by the caller,
    and it may run twice on a share's rows: once in the child and once here.
    """
    _check_eval_settings(series, split, EvalSettings(
        horizons=tuple(horizons), lookback=lookback_len, stride=stride), threads)
    if forecast_fn is not None:
        decode = _grouped_decoder(forecast_fn)
    elif ckpt is None:
        raise ConfigError("evaluate needs a checkpoint or a forecast_fn")
    else:
        params = to_params(ckpt)

        def decode(lookbacks: np.ndarray, row_horizons: np.ndarray) -> np.ndarray:
            return _decode_batch(params, lookbacks, int(row_horizons.max()),
                                 horizons=row_horizons)[0]
    lo, hi = split.test

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

    def window_rows(start: int, length: int, origins: int) -> np.ndarray:
        """(origins * channels, length) origin-major rows of ``length`` points,
        the first starting ``start`` points into the test range and each
        origin ``stride`` points after the last."""
        view = sliding_window_view(series.values[:, lo + start:hi], length, axis=-1)
        return view[:, ::stride][:, :origins].transpose(1, 0, 2).reshape(-1, length)

    lookbacks = window_rows(0, lookback_len, len(origin_horizon))

    # worker k decodes rows k, k + workers, ...: every chunk stays
    # longest-first and gets an equal share of the long rows
    workers = min(threads, len(lookbacks))
    parts = _forked_map(
        lambda k: decode(lookbacks[k::workers], row_horizons[k::workers]), workers)
    preds = np.full((len(lookbacks), max(horizons)), np.nan)
    for k, part in enumerate(parts):
        preds[k::workers, :part.shape[1]] = part

    rows: list[EvalRow] = []
    for horizon in sorted(horizons):
        truth = window_rows(lookback_len, horizon, count[horizon])
        mse_v, mae_v = metrics(preds[:len(truth), :horizon], truth)
        rows.append(EvalRow(
            dataset=series.name, horizon=horizon,
            mse=mse_v, mae=mae_v, windows=count[horizon],
        ))
    return EvalReport(rows=rows)


def run_protocol(
    ckpt: Checkpoint,
    datasets: list[tuple[MultivariateSeries, DatasetSplit]],
    settings: EvalSettings,
    train_config: TrainConfig | None = None,
    threads: int = 1,
) -> EvalReport:
    """Score ``ckpt`` on every ``(series, split)`` under ``settings.protocol``.

    Every dataset is checked before any tuning or scoring; zero-shot refuses a
    dataset the checkpoint was pretrained or fine-tuned on, and few-shot one
    whose reduced train range or validation range holds no window. Few-shot
    tunes the heads of ``ckpt`` for each dataset with ``train_config`` on the
    most recent ``settings.fraction`` of its train range. The full test range
    is scored in every protocol. Rows follow the datasets, and the fingerprint
    is that of ``ckpt`` as given (the first 16 hex digits of its
    ``checkpoint_hash``), even when few-shot scores tuned copies of it.
    """
    if not datasets:
        raise ConfigError("need at least one dataset to evaluate")
    seen = {name for key in ("train_sources", "finetuned_on")
            for name in ckpt.metadata.get(key, "").split(",") if name}
    tuning_sets = []
    for series, split in datasets:
        _check_eval_settings(series, split, settings, threads)
        if settings.protocol == "zero-shot" and series.name in seen:
            raise ProtocolError(
                f"zero-shot violation: the checkpoint was trained or tuned on {series.name}")
        if settings.protocol == "few-shot":
            a, b = split.train
            keep = int((b - a) * settings.fraction)
            reduced = [(series, replace(split, train=(b - keep, b)))]
            tuning_sets.append((build_mixed_dataset(reduced, "train"),
                                build_mixed_dataset(reduced, "validation")))
            check_windows(ckpt.config, *tuning_sets[-1])
    if settings.lookback < ckpt.config.token_len:
        raise ConfigError(f"lookback {settings.lookback} is shorter than the "
                          f"checkpoint's token_len {ckpt.config.token_len}")
    if settings.protocol == "few-shot" and train_config is None:
        raise ConfigError("few-shot protocol needs a TrainConfig to tune the heads")

    rows: list[EvalRow] = []
    for i, (series, split) in enumerate(datasets):
        scored = ckpt
        if tuning_sets:
            scored, _ = finetune_heads(ckpt, train_config, *tuning_sets[i])
        rows += evaluate(scored, series, split, list(settings.horizons),
                         settings.lookback, stride=settings.stride, threads=threads).rows
    return EvalReport(rows=rows, fingerprint=checkpoint_hash(ckpt)[:16])


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
