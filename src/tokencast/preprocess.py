"""Reversible per-window instance normalization into tokens.

This module owns the window-to-tokens decision that training and decoding
share: each row keeps its newest full tokens (at most max_tokens of them) and
is standardized by the mean and population std of exactly those points. The
statistics travel with the tokens so predictions can be mapped back to series
units; decoding reuses the lookback's stats unchanged.

This module also owns a row's memory layout: the statistics are taken over a
C-contiguous copy of the kept points, because numpy's summation order follows
the strides of the array it reduces. Over a caller's view (a column of an
F-ordered series, or every k-th row of a batch) their last bit would depend
on how the caller sliced its rows, and so would the forecast.
"""

from __future__ import annotations

import numpy as np

from .errors import InputTooShortError

EPS = 1e-5  # keeps the constant-window case finite


def instance_normalize(
    windows: np.ndarray, token_len: int, max_tokens: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tokenize and standardize every (..., L) row by its own statistics.

    Keeps the newest min(L // token_len, max_tokens) full tokens of each row,
    so older points (including the L mod token_len remainder) are ignored.
    Returns (tokens of shape (..., n, token_len), mu, scale) with mu and scale
    of shape (..., 1) and scale = population std + EPS.
    """
    length = windows.shape[-1]
    if length < token_len:
        raise InputTooShortError(
            f"window of {length} points is shorter than one token ({token_len})"
        )
    num_tokens = min(length // token_len, max_tokens)
    effective = np.ascontiguousarray(windows[..., length - num_tokens * token_len:])
    mu = effective.mean(axis=-1, keepdims=True)
    scale = effective.std(axis=-1, keepdims=True) + EPS
    tokens = ((effective - mu) / scale).reshape(
        windows.shape[:-1] + (num_tokens, token_len))
    return tokens, mu, scale


def denormalize(pred: np.ndarray, mu: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Map normalized values back to series units with instance_normalize's stats."""
    return pred * scale + mu
