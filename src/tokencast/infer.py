"""Sliding-window auto-regressive decoding at arbitrary horizons.

Each channel decodes independently, entirely in normalized space: the
lookback is tokenized and standardized once by
``preprocess.instance_normalize``, the model repeatedly predicts the token
after the most recent (at most max_tokens) context tokens, and the generated
tokens are concatenated, truncated to the horizon, and mapped back to series
units by ``preprocess.denormalize`` with the lookback's stats. A forecast at
horizon H is therefore the first H points of the forecast at any longer
horizon, which lets one batch serve rows of different horizons: each row
retires once its own horizon is decoded. Forecasts are bit-invariant to
lookback content older than max_tokens * token_len points because both the
context window and the normalization statistics come from that suffix alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, no_grad
from .errors import MAX_ELEMENTS, ConfigError, DataError
from .model import ModelParams, model_forward
from .preprocess import denormalize, instance_normalize


@dataclass(frozen=True)
class ForecastRequest:
    lookback: np.ndarray  # (C, L) or (L,)
    horizon: int


@dataclass
class ForecastResult:
    predictions: np.ndarray  # (C, H) in series units
    decode_steps: int


def _decode_batch(params: ModelParams, lookbacks: np.ndarray, horizon: int,
                  *, horizons: np.ndarray | None = None,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Decode a (N, L) batch of univariate lookbacks to (N, horizon).

    Rows are independent: every kernel is row-local, and the statistics are
    taken over a contiguous copy of each row, so batched decoding is
    bit-identical to one-at-a-time decoding at any batch size and whatever
    the memory layout of ``lookbacks``. ``horizons`` gives each row its own
    horizon, non-increasing down the rows and starting at ``horizon`` (every
    row's horizon is ``horizon`` if it is omitted): a row retires from the
    batch once its own horizon is decoded, so later steps run on a shrinking
    prefix of the rows, and its output past its own horizon is NaN.
    The returned step count is the longest row's.
    """
    cfg = params.config
    t_len = cfg.token_len
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    rows = lookbacks.shape[0]
    steps = math.ceil(horizon / t_len)
    if rows * steps * t_len > MAX_ELEMENTS:
        raise ConfigError(f"decoding {rows} rows to horizon {horizon} needs "
                          f"{rows * steps * t_len} values, more than {MAX_ELEMENTS}")
    if not np.all(np.isfinite(lookbacks)):
        raise DataError("lookback contains non-finite values")
    ctx, mu, scale = instance_normalize(lookbacks, t_len, cfg.max_tokens)

    horizons = np.full(rows, horizon) if horizons is None else np.asarray(horizons)
    if (horizons.shape != (rows,) or np.any(horizons < 1)
            or np.any(horizons[:1] != horizon) or np.any(np.diff(horizons) > 0)):
        raise ConfigError(
            f"per-row horizons must be {rows} non-increasing values in "
            f"[1, {horizon}] reaching {horizon}"
        )
    row_steps = -(-horizons // t_len)
    decoded = np.full((rows, steps * t_len), np.nan)
    with no_grad():
        for s in range(steps):
            n = int(np.count_nonzero(row_steps > s))  # rows still decoding
            ctx = ctx[:n]
            out = model_forward(params, Tensor(ctx))
            next_token = out.prediction.values[..., -1:, :]
            decoded[:n, s * t_len:(s + 1) * t_len] = next_token[..., 0, :]
            ctx = np.concatenate([ctx, next_token], axis=-2)[:, -cfg.max_tokens:]
    decoded[np.arange(steps * t_len) >= horizons[:, None]] = np.nan
    return denormalize(decoded[:, :horizon], mu, scale), mu[..., 0], scale[..., 0], steps


def ar_forecast(params: ModelParams, request: ForecastRequest) -> ForecastResult:
    """Forecast every channel of the request independently."""
    lookback = np.asarray(request.lookback, dtype=np.float64)
    if lookback.ndim == 1:
        lookback = lookback[None, :]
    preds, _, _, steps = _decode_batch(params, lookback, request.horizon)
    return ForecastResult(predictions=preds, decode_steps=steps)
