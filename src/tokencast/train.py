"""Auto-regressive training: mixed-dataset pretraining and heads-only tuning.

The objective is next-token MSE: position j of the model output predicts
token j+1, so the target is the input shifted one token plus one future
token (horizon = token length). Each lookback is tokenized and normalized by
``preprocess.instance_normalize``, the future token with the lookback's
stats. The loss compares values mapped back to series units; in normalized
space the minimizer is the same, but series units match the
de-normalize-then-score ordering the pipeline defines.

The function that trains picks which arrays it updates: ``pretrain`` all of
them, ``finetune_heads`` the forecast heads, or all of them with ``full_tune``.

Every epoch ends with a forward-only validation pass, which picks the best
arrays and decides early stopping. When its result cannot stop the run, and
the process has a second CPU while BLAS is pinned to one thread, that pass
runs on a second thread beside the next epoch (``_fit``). No setting turns
this on or off, ``--threads`` included, and the outputs are byte-identical
either way.
"""

from __future__ import annotations

import contextvars
import csv
import io
import math
import os
import threading
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np

from .autodiff import AdamState, Tensor, adam_step, add, backward, mse, mul, no_grad
from .checkpoint import Checkpoint, from_params, to_params
from .data import MixedDataset, sample_windows
from .errors import ConfigError, NumericAbort
from .model import ModelConfig, ModelParams, init_model, model_forward
from .preprocess import denormalize, instance_normalize


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 64
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    stride: int = 1
    patience: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        for name, low in (("epochs", 0), ("batch_size", 1), ("stride", 1),
                          ("patience", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(
                f"learning_rate must be positive and finite, got {self.learning_rate}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not (math.isfinite(self.adam_eps) and self.adam_eps > 0):
            raise ConfigError(f"adam_eps must be positive and finite, got {self.adam_eps}")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_mse: float
    val_mse: float


def ar_loss(
    y_pred: Tensor,
    input_tokens: np.ndarray,
    next_token: np.ndarray,
    mu: np.ndarray,
    scale: np.ndarray,
) -> Tensor:
    """Next-token MSE over all positions, in series units.

    input_tokens is (..., L', T) in the same (normalized) space as y_pred and
    next_token is the (..., T) future token; the target is tokens 2..L'
    followed by the future token. Both sides are mapped back to series units
    with mu and scale (broadcastable, as returned by instance_normalize).
    """
    target = np.concatenate([input_tokens[..., 1:, :], next_token[..., None, :]], axis=-2)
    y_pred = add(mul(y_pred, scale), mu)
    return mse(y_pred, denormalize(target, mu, scale))


def _batch_loss(params: ModelParams, batch: np.ndarray,
                rng: np.random.Generator | None = None) -> Tensor:
    """AR loss on (B, span) window rows: the last token_len columns are the
    future token, every column before them the lookback."""
    cfg = params.config
    lb, tg = batch[:, :-cfg.token_len], batch[:, -cfg.token_len:]
    tokens, mu, scale = instance_normalize(lb, cfg.token_len, cfg.max_tokens)
    next_token = (tg - mu) / scale
    out = model_forward(params, tokens, rng=rng)
    return ar_loss(out.prediction, tokens, next_token,
                   mu=mu[..., None], scale=scale[..., None])


def _mean_window_mse(params: ModelParams, windows: np.ndarray,
                     batch_size: int) -> float:
    """Forward-only AR loss over window rows, element-weighted."""
    if not len(windows):
        return float("nan")
    total = 0.0
    with no_grad():
        for lo in range(0, len(windows), batch_size):
            batch = windows[lo:lo + batch_size]
            loss = float(_batch_loss(params, batch).values)
            total += loss * len(batch)
    return total / len(windows)


def _sources_of(mixed: MixedDataset) -> list[str]:
    return list(dict.fromkeys(seg.source for seg in mixed.segments))


def check_windows(config: ModelConfig, train_mixed: MixedDataset,
                  val_mixed: MixedDataset) -> None:
    """Require a training and a validation window: a segment of each that
    spans ``max_tokens`` lookback tokens plus the future token. Start 0 of
    every segment is sampled at any stride, so this holds without building
    the windows."""
    span = (config.max_tokens + 1) * config.token_len
    for role, mixed in (("training", train_mixed), ("validation", val_mixed)):
        if not any(len(seg.values) >= span for seg in mixed.segments):
            raise ConfigError(f"no {role} windows: need segments of at least {span} points")


# the variables that pin BLAS to one thread (README, CLI); BLAS reads them
# once, when numpy loads
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _spare_core() -> bool:
    """Whether a second core would otherwise sit idle during training: the
    process may run on two CPUs or more, and BLAS is pinned to one thread
    (one of ``_BLAS_THREAD_VARS`` is set, and each one set reads 1)."""
    if not hasattr(os, "sched_getaffinity"):
        return False
    pins = [os.environ[name].strip() for name in _BLAS_THREAD_VARS if name in os.environ]
    return len(os.sched_getaffinity(0)) >= 2 and set(pins) == {"1"}


def _start_validation(config: ModelConfig, arrays: dict[str, np.ndarray],
                      windows: np.ndarray, batch_size: int,
                      overlap: bool) -> Callable[[], float]:
    """Start the validation MSE of ``arrays`` and return the call that waits
    for it.

    With ``overlap`` the pass runs on a thread, in a copy of the caller's
    context (so with its numpy error state), and the returned call joins that
    thread. Without it, or if no thread can be started, the returned call runs
    the pass itself. Either way that call returns the MSE or raises what the
    pass raised.
    """
    params = ModelParams(config, {name: Tensor(v) for name, v in arrays.items()})
    outcome: dict[str, Any] = {}

    def run() -> None:
        try:
            outcome["val_mse"] = _mean_window_mse(params, windows, batch_size)
        except BaseException as exc:  # raised again in the caller by wait()
            outcome["error"] = exc

    thread = threading.Thread(target=contextvars.copy_context().run, args=(run,),
                              name="tokencast-validation")
    if overlap:
        try:
            thread.start()
        except RuntimeError:  # no thread to be had
            pass

    def wait() -> float:
        if thread.ident is None:
            run()
        else:
            thread.join()
        if "error" in outcome:
            raise outcome["error"]
        return outcome["val_mse"]

    return wait


def _fit(
    params: ModelParams,
    scope: str,
    train_config: TrainConfig,
    train_mixed: MixedDataset,
    val_mixed: MixedDataset,
) -> tuple[list[EpochStats], dict[str, str]]:
    """Adam over the arrays of ``scope`` ("all" or "head") with
    validation-best early stopping.

    Leaves ``params`` at the arrays with the best validation MSE (the initial
    arrays, epoch 0, if no epoch improves on them). Returns the per-epoch
    history and the checkpoint metadata of that choice: ``epoch``,
    ``best_val_mse``, ``seed`` and ``scope``.

    Each epoch's arrays are validated as a copy, which Adam never writes and
    which becomes the best arrays if the epoch improves. When the next epoch
    runs whatever that validation reads (there is one, and it is epoch 0's
    validation or one more stall would not reach ``patience``) and
    ``_spare_core`` holds, the validation runs on a second thread while this
    one trains the next epoch; otherwise it runs first, as a serial loop
    would. The same arithmetic runs on the same values either way, so the
    history, the arrays and the metadata are byte-identical. The thread is
    joined before the bookkeeping and whenever training raises. Its error is
    raised in preference to one from the epoch it overlapped, as the serial
    loop would have hit it first.
    """
    cfg = params.config
    lookback_len = cfg.max_tokens * cfg.token_len
    horizon_len = cfg.token_len
    check_windows(cfg, train_mixed, val_mixed)
    val_windows = sample_windows(val_mixed, lookback_len, horizon_len,
                                 stride=train_config.stride, seed=0)

    trainable = params.trainable(scope)
    # frozen arrays drop out of the tape entirely, which keeps head-only
    # tuning cheap and guarantees their values and grads stay untouched
    for name, t in params.arrays.items():
        t.requires_grad = name in trainable
        t.zero_grad()
    states = {name: AdamState.for_param(t, train_config) for name, t in trainable.items()}

    def train_epoch(epoch: int) -> float:
        """One pass of Adam over the epoch's shuffled windows; their mean loss."""
        epoch_seed = train_config.seed * 1_000_003 + epoch
        windows = sample_windows(train_mixed, lookback_len, horizon_len,
                                 stride=train_config.stride, seed=epoch_seed)
        drop_rng = (np.random.default_rng(epoch_seed)
                    if cfg.dropout_rate > 0.0 else None)
        total = 0.0
        for batch_idx, lo in enumerate(range(0, len(windows), train_config.batch_size)):
            batch = windows[lo:lo + train_config.batch_size]
            # a diverging step overflows quietly: the finite-loss check below
            # reports it as the run's one NumericAbort
            with np.errstate(over="ignore", invalid="ignore"):
                loss = _batch_loss(params, batch, rng=drop_rng)
                loss_value = float(loss.values)
                if not np.isfinite(loss_value):
                    raise NumericAbort(
                        f"non-finite loss at epoch {epoch}, batch {batch_idx}, "
                        f"learning rate {train_config.learning_rate}",
                        epoch=epoch, batch=batch_idx,
                        learning_rate=train_config.learning_rate,
                    )
                for t in trainable.values():
                    t.zero_grad()
                backward(loss)
                for name, t in trainable.items():
                    adam_step(t, states[name])
            total += loss_value * len(batch)
        return total / len(windows)

    spare_core = _spare_core()
    history: list[EpochStats] = []
    stall = 0
    epoch, train_mse, next_train_mse = 0, math.nan, math.nan
    arrays = {n: t.values.copy() for n, t in params.arrays.items()}
    while True:
        overlap = (spare_core and epoch < train_config.epochs
                   and (epoch == 0 or stall + 1 < train_config.patience))
        wait = _start_validation(cfg, arrays, val_windows, train_config.batch_size,
                                 overlap)
        try:
            if overlap:
                next_train_mse = train_epoch(epoch + 1)
        finally:
            val_mse = wait()
        if epoch == 0 or val_mse < best_val:
            best_val, best_epoch, best_arrays = val_mse, epoch, arrays
            stall = 0
        else:
            stall += 1
        if epoch > 0:
            history.append(EpochStats(epoch=epoch, train_mse=train_mse, val_mse=val_mse))
        if epoch == train_config.epochs or stall >= train_config.patience:
            break
        epoch += 1
        train_mse = next_train_mse if overlap else train_epoch(epoch)
        arrays = {n: t.values.copy() for n, t in params.arrays.items()}

    for name, t in params.arrays.items():
        t.values = best_arrays[name]
    return history, {
        "epoch": str(best_epoch),
        "best_val_mse": repr(float(best_val)),
        "seed": str(train_config.seed),
        "scope": scope,
    }


def pretrain(
    model_config: ModelConfig,
    train_config: TrainConfig,
    train_mixed: MixedDataset,
    val_mixed: MixedDataset,
) -> tuple[Checkpoint, list[EpochStats]]:
    """Train all parameters from scratch on the mixed dataset.

    Returns the best-validation checkpoint plus the per-epoch loss curve.
    """
    params = init_model(model_config)
    history, metadata = _fit(params, "all", train_config, train_mixed, val_mixed)
    metadata["train_sources"] = ",".join(_sources_of(train_mixed))
    return from_params(params, metadata), history


def finetune_heads(
    ckpt: Checkpoint,
    train_config: TrainConfig,
    train_mixed: MixedDataset,
    val_mixed: MixedDataset,
    full_tune: bool = False,
) -> tuple[Checkpoint, list[EpochStats]]:
    """Continue training from a checkpoint, updating only its forecast heads,
    or every array with ``full_tune``.

    Without ``full_tune`` every non-head array of the result is bit-identical
    to the source checkpoint; zero epochs returns an exact copy. The
    ``finetuned_on`` metadata keeps the source checkpoint's names, in order,
    and appends this run's sources that it lacks.
    """
    params = to_params(ckpt)
    history, fit_metadata = _fit(params, "all" if full_tune else "head",
                                 train_config, train_mixed, val_mixed)
    earlier = [s for s in ckpt.metadata.get("finetuned_on", "").split(",") if s]
    metadata = {**ckpt.metadata, **fit_metadata,
                "finetuned_on": ",".join(dict.fromkeys(earlier + _sources_of(train_mixed)))}
    return from_params(params, metadata), history


def loss_curve_to_csv(history: list[EpochStats]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["epoch", "train_mse", "val_mse"])
    for row in history:
        writer.writerow([row.epoch, repr(row.train_mse), repr(row.val_mse)])
    return buf.getvalue()
