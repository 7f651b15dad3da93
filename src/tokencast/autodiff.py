"""Reverse-mode autodiff over float64 numpy arrays.

The kernel set is exactly what the forecaster needs: matmul, elementwise
arithmetic, softmax/layer-norm, within-token max pooling, linear-interpolation
upsampling, GELU, dropout and MSE. Each op records a backward closure on a
per-forward tape; ``backward`` walks the tape in reverse topological order and
accumulates gradients into ``requires_grad`` leaves. The tape is released after
the walk; leaf ``.grad`` buffers accumulate across calls until zeroed.

Gradient arrays are never written in place. A leaf's first gradient is the
array its consumer's closure produced, with no copy, so it may be shared with
another leaf (both operands of ``add``) or be a view of an upstream gradient
(``reshape``, ``swap_axes``). Accumulation is ``t.grad + g``, a new array, and
``adam_step`` only reads ``param.grad``; a kernel or optimizer that wrote into
a gradient would corrupt every array sharing it.

A tape belongs to one logical thread. ``no_grad`` disables recording (used for
validation and inference) for the calling thread only, so worker threads that
decode under ``no_grad`` never switch recording off for another thread.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy.special import erf

from .errors import ConfigError, ShapeError


# Tape-recording switch. A context variable, so each thread has its own: a
# thread starts with recording on whatever other threads do.
_RECORDING: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "tokencast_recording", default=True)


class _GradMode:
    """True while the calling thread records a tape. Read from outside the
    module as ``_GRAD_ENABLED``: perfbench counts operations that leave
    recording off."""

    def __bool__(self) -> bool:
        return _RECORDING.get()


_GRAD_ENABLED = _GradMode()

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@contextlib.contextmanager
def no_grad():
    """Disable tape recording in this thread inside the block (forward-only
    evaluation); other threads keep their own mode."""
    token = _RECORDING.set(False)
    try:
        yield
    finally:
        _RECORDING.reset(token)


class Tensor:
    """N-d float64 array optionally tracked for reverse-mode differentiation."""

    __slots__ = ("values", "requires_grad", "grad", "_parents", "_backward_fn")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        return float(self.values)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flags = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.values.shape}{flags})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(values: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    """Interior tape node; records the closure only when a parent needs grad."""
    out = Tensor(values)
    if _RECORDING.get() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward_fn
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcasted gradient back down to the operand's shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if keep:
        grad = grad.sum(axis=keep, keepdims=True)
    return grad


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every requires_grad leaf.

    Repeated calls without zeroing the leaves add up. The tape behind ``loss``
    is released afterwards; a second backward over the same graph is an error.
    """
    if loss.values.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.values.shape}")
    if not loss.requires_grad:
        return

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.values)
    interior: list[Tensor] = []
    for node in reversed(topo):
        if node._backward_fn is not None:
            node._backward_fn(node.grad)
            interior.append(node)
    for node in interior:
        node._parents = ()
        node._backward_fn = None
        node.grad = None


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def _check_matmul_shapes(sa: tuple[int, ...], sb: tuple[int, ...]) -> None:
    if len(sa) < 2 or len(sb) < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {sa} x {sb}")
    if sa[-1] != sb[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {sa} x {sb}")
    la, lb = sa[:-2], sb[:-2]
    n = min(len(la), len(lb))
    if n and la[len(la) - n:] != lb[len(lb) - n:]:
        raise ShapeError(f"matmul batch dimensions must match exactly: {sa} x {sb}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; leading batch dimensions broadcast only when equal.

    Against a shared 2-D ``b`` of shape (k, n), backward folds every leading
    dimension of ``a`` into the rows of one GEMM per operand: the weight
    gradient is ``a.reshape(-1, k).T @ g.reshape(-1, n)`` rather than one
    product per batch entry summed afterwards. The sum runs in a different
    order, so the weight gradient can differ in the last bits from the
    per-entry sum.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    _check_matmul_shapes(a.values.shape, b.values.shape)
    out = a.values @ b.values

    def bwd(g: np.ndarray) -> None:
        if b.values.ndim == 2:
            k, n = b.values.shape
            rows = g.reshape(-1, n)
            if a.requires_grad:
                _accum(a, (rows @ b.values.T).reshape(a.values.shape))
            if b.requires_grad:
                _accum(b, a.values.reshape(-1, k).T @ rows)
            return
        if a.requires_grad:
            ga = g @ np.swapaxes(b.values, -1, -2)
            _accum(a, _unbroadcast(ga, a.values.shape))
        if b.requires_grad:
            gb = np.swapaxes(a.values, -1, -2) @ g
            _accum(b, _unbroadcast(gb, b.values.shape))

    return _node(out, (a, b), bwd)


def add(a: Tensor, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.values + b.values

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.values.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.values.shape))

    return _node(out, (a, b), bwd)


def sub(a: Tensor, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.values - b.values

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.values.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g, b.values.shape))

    return _node(out, (a, b), bwd)


def mul(a: Tensor, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.values * b.values

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.values, a.values.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.values, b.values.shape))

    return _node(out, (a, b), bwd)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    a = _as_tensor(a)
    out = a.values.reshape(shape)

    def bwd(g: np.ndarray) -> None:
        _accum(a, g.reshape(a.values.shape))

    return _node(out, (a,), bwd)


def swap_axes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    a = _as_tensor(a)
    out = np.swapaxes(a.values, ax1, ax2)

    def bwd(g: np.ndarray) -> None:
        _accum(a, np.swapaxes(g, ax1, ax2))

    return _node(out, (a,), bwd)


def slice_rows(a: Tensor, n: int) -> Tensor:
    """First n rows along the leading axis; gradient scatters back."""
    a = _as_tensor(a)
    out = a.values[:n]

    def bwd(g: np.ndarray) -> None:
        full = np.zeros_like(a.values)
        full[:n] = g
        _accum(a, full)

    return _node(out, (a,), bwd)


def shift_right(a: Tensor) -> Tensor:
    """Shift one step along the second-to-last axis, zero-filling the front.

    out[..., 0, :] = 0 and out[..., j, :] = a[..., j-1, :].
    """
    a = _as_tensor(a)
    out = np.zeros_like(a.values)
    out[..., 1:, :] = a.values[..., :-1, :]

    def bwd(g: np.ndarray) -> None:
        ga = np.zeros_like(a.values)
        ga[..., :-1, :] = g[..., 1:, :]
        _accum(a, ga)

    return _node(out, (a,), bwd)


def gelu(a: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    a = _as_tensor(a)
    x = a.values
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    out = x * cdf

    def bwd(g: np.ndarray) -> None:
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
        _accum(a, g * (cdf + x * pdf))

    return _node(out, (a,), bwd)


def softmax_lastdim(a: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Row-stable softmax over the last axis.

    ``mask`` (broadcastable, boolean, True = excluded) forces exact zeros at
    masked positions: their scores are replaced by -inf before the shifted
    exp, so the output and its gradient there are exactly 0.0. Every row must
    keep at least one unmasked entry.
    """
    a = _as_tensor(a)
    x = a.values
    if x.shape[-1] < 1:
        raise ShapeError("softmax needs a nonempty last dimension")
    if mask is not None:
        x = np.where(mask, -np.inf, x)
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def bwd(g: np.ndarray) -> None:
        dot = (g * s).sum(axis=-1, keepdims=True)
        _accum(a, s * (g - dot))

    return _node(s, (a,), bwd)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Standardize each row over the last axis, then apply the affine pair."""
    a, gain, bias = _as_tensor(a), _as_tensor(gain), _as_tensor(bias)
    n = a.values.shape[-1]
    if gain.values.shape != (n,) or bias.values.shape != (n,):
        raise ShapeError(
            f"layer_norm gain/bias must have shape ({n},), got "
            f"{gain.values.shape} and {bias.values.shape}"
        )
    mean = a.values.mean(axis=-1, keepdims=True)
    centered = a.values - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    out = xhat * gain.values + bias.values

    def bwd(g: np.ndarray) -> None:
        if gain.requires_grad:
            _accum(gain, (g * xhat).reshape(-1, n).sum(axis=0))
        if bias.requires_grad:
            _accum(bias, g.reshape(-1, n).sum(axis=0))
        if a.requires_grad:
            dxhat = g * gain.values
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            _accum(a, inv_std * (dxhat - m1 - xhat * m2))

    return _node(out, (a, gain, bias), bwd)


def max_pool_within_token(a: Tensor, k: int) -> Tensor:
    """Non-overlapping max pooling inside the last axis; stride equals k.

    The gradient routes to the argmax of each window (first index on ties).
    """
    a = _as_tensor(a)
    t = a.values.shape[-1]
    if k < 1 or t % k != 0:
        raise ConfigError(f"pool kernel {k} must divide token length {t}")
    windows = a.values.reshape(a.values.shape[:-1] + (t // k, k))
    idx = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]

    def bwd(g: np.ndarray) -> None:
        ga = np.zeros_like(windows)
        np.put_along_axis(ga, idx[..., None], g[..., None], axis=-1)
        _accum(a, ga.reshape(a.values.shape))

    return _node(out, (a,), bwd)


_INTERP_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _interp_matrix(m: int, target_len: int) -> np.ndarray:
    """(m, target_len) weights: column j samples position j*(m-1)/(target-1)."""
    key = (m, target_len)
    w = _INTERP_CACHE.get(key)
    if w is None:
        w = np.zeros((m, target_len))
        if m == 1:
            w[0, :] = 1.0
        elif target_len == 1:
            w[0, 0] = 1.0
        else:
            pos = np.arange(target_len) * (m - 1) / (target_len - 1)
            lo = np.minimum(pos.astype(np.intp), m - 2)
            frac = pos - lo
            w[lo, np.arange(target_len)] += 1.0 - frac
            w[lo + 1, np.arange(target_len)] += frac
        _INTERP_CACHE[key] = w
    return w


def linear_interp_upsample(a: Tensor, target_len: int) -> Tensor:
    """Endpoint-aligned linear interpolation of the last axis up to target_len."""
    a = _as_tensor(a)
    m = a.values.shape[-1]
    if target_len < m:
        raise ConfigError(f"cannot upsample length {m} down to {target_len}")
    w = _interp_matrix(m, target_len)
    out = a.values @ w

    def bwd(g: np.ndarray) -> None:
        _accum(a, g @ w.T)

    return _node(out, (a,), bwd)


def dropout(a: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when rate is 0."""
    a = _as_tensor(a)
    if rate <= 0.0:
        return a
    if rate >= 1.0:
        raise ConfigError(f"dropout rate must lie in [0, 1), got {rate}")
    keep = (rng.random(a.values.shape) >= rate) / (1.0 - rate)
    out = a.values * keep

    def bwd(g: np.ndarray) -> None:
        _accum(a, g * keep)

    return _node(out, (a,), bwd)


def mse(pred: Tensor, target) -> Tensor:
    """Mean squared error against a plain array; gradient 2*(pred-target)/N."""
    pred = _as_tensor(pred)
    target = np.asarray(target, dtype=np.float64)
    if pred.values.shape != target.shape:
        raise ShapeError(f"mse shapes disagree: {pred.values.shape} vs {target.shape}")
    diff = pred.values - target
    out = np.asarray((diff * diff).mean())

    def bwd(g: np.ndarray) -> None:
        _accum(pred, g * (2.0 / diff.size) * diff)

    return _node(out, (pred,), bwd)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """Per-parameter Adam accumulator (bias-corrected update).

    ``settings`` supplies ``learning_rate``, ``beta1``, ``beta2`` and
    ``adam_eps``; ``train.TrainConfig`` declares them and their defaults.
    """

    settings: Any
    step: int
    first_moment: np.ndarray
    second_moment: np.ndarray

    @classmethod
    def for_param(cls, param: Tensor, settings) -> "AdamState":
        return cls(settings, 0, np.zeros_like(param.values), np.zeros_like(param.values))


def adam_step(param: Tensor, state: AdamState) -> None:
    """Apply one in-place Adam update from param.grad; increments state.step."""
    if param.grad is None:
        raise ValueError("adam_step requires param.grad; run backward first")
    g = param.grad
    cfg = state.settings
    state.step += 1
    state.first_moment *= cfg.beta1
    state.first_moment += (1.0 - cfg.beta1) * g
    state.second_moment *= cfg.beta2
    state.second_moment += (1.0 - cfg.beta2) * (g * g)
    m_hat = state.first_moment / (1.0 - cfg.beta1 ** state.step)
    v_hat = state.second_moment / (1.0 - cfg.beta2 ** state.step)
    param.values -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
