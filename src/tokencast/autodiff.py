"""Reverse-mode autodiff over float64 numpy arrays.

The kernel set is exactly what the forecaster needs: the affine map
``linear``, masked multi-head ``causal_attention``, elementwise arithmetic,
layer-norm, row slicing and shifting, within-token max pooling,
linear-interpolation upsampling, GELU, dropout and MSE. Each op records a
backward closure on a per-forward tape; ``backward`` walks the tape in reverse
topological order and accumulates gradients into ``requires_grad`` leaves. The
tape is released after the walk; leaf ``.grad`` buffers accumulate across
calls until zeroed.

A kernel writes only into arrays it allocated in the same call. Its in-place
ops and ``out=`` buffers never touch an input, a parameter or an upstream
gradient, and in particular gradient arrays are never written in place. A
leaf's first gradient is the array its consumer's closure produced, with no
copy, so it may be shared with another leaf (both operands of ``add``) or be
the upstream gradient itself (``add``, ``sub``, a unit max-pool).
Accumulation is ``t.grad + g``, a new array, and ``adam_step`` only reads
``param.grad``; a kernel or optimizer that wrote into a gradient would
corrupt every array sharing it.

An op records its backward closure exactly when one of its inputs has
``requires_grad`` set; there is no other switch. Arrays are created frozen,
and only training unfreezes the ones it updates (``train._fit``), so a
forward over frozen arrays records nothing on any thread.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy.special import erf

from .errors import ConfigError, ShapeError


# perfbench's worker reads this after every operation and resets it; the
# program never changes it
_GRAD_ENABLED = True

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


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
    """Interior tape node; records the closure only when a parent needs grad.

    ``values`` is taken as it is: every kernel computes float64 arrays.
    """
    out = object.__new__(Tensor)
    out.values = values
    out.grad = None
    # a loop, not any() over a generator: this runs once per op, and the
    # generator's setup would cost several times the check itself
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out._parents = parents
            out._backward_fn = backward_fn
            return out
    out.requires_grad = False
    out._parents = ()
    out._backward_fn = None
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
    So is a loss that records no tape, because no array it depends on
    requires grad.
    """
    if loss.values.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.values.shape}")
    if not loss.requires_grad:
        raise ValueError("backward needs a loss that records a tape, but no array "
                         "it depends on requires grad")

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


def _max_lastdim(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1)`` as a fold of ``np.maximum`` over the last axis's
    slices. numpy reduces a last axis only a few elements long far slower at
    batch sizes; a maximum is exact, so the fold gives the same values."""
    out = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(out, x[..., j], out=out)
    return out


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` of a (..., L, k) input by a shared (k, n)
    weight and an (n,) bias, as one node.

    Forward is the stacked product ``x @ w``: one GEMM of L rows per leading
    index, the same GEMM a row run alone makes, so a row's output does not
    depend on its batch whatever the BLAS. Folding the leading dimensions
    into one larger GEMM would save calls, but BLAS may compute a larger
    GEMM on another kernel with other last bits.

    Backward folds every leading dimension of ``x`` into the rows of one GEMM
    per operand: the weight gradient is ``x.reshape(-1, k).T @ g.reshape(-1, n)``
    rather than one product per batch entry summed afterwards. The sum runs in
    a different order, so the weight gradient can differ in the last bits from
    the per-entry sum.
    """
    sx, sw = x.values.shape, w.values.shape
    if len(sx) < 2 or len(sw) != 2:
        raise ShapeError(f"linear needs a >=2-d input and a 2-d weight, got {sx} x {sw}")
    if sx[-1] != sw[0]:
        raise ShapeError(f"linear inner dimensions disagree: {sx} x {sw}")
    if b.values.shape != sw[1:]:
        raise ShapeError(f"linear bias must have shape ({sw[1]},), got {b.values.shape}")
    out = x.values @ w.values
    out += b.values

    def bwd(g: np.ndarray) -> None:
        k, n = sw
        rows = g.reshape(-1, n)
        if b.requires_grad:
            _accum(b, _unbroadcast(g, sw[1:]))
        if x.requires_grad:
            _accum(x, (rows @ w.values.T).reshape(sx))
        if w.requires_grad:
            _accum(w, x.values.reshape(-1, k).T @ rows)

    return _node(out, (x, w, b), bwd)


def causal_attention(q: Tensor, k: Tensor, v: Tensor, num_heads: int,
                     mask: np.ndarray) -> Tensor:
    """Multi-head scaled dot-product attention of (..., L, d) projections, as
    one node: split heads, ``q @ k.T / sqrt(d / num_heads)``, masked softmax
    over the keys, ``@ v``, merge heads.

    ``mask`` (broadcastable to (L, L), boolean, True = excluded) forces exact
    zeros: masked scores are replaced by -inf before the shifted exp, so the
    attention weight there and its gradient are exactly 0.0. Every query must
    keep at least one unmasked key.

    The row maxima that shift the exp fold ``np.maximum`` over the key slices
    (``_max_lastdim``) when there is more than one row. One row reduces
    directly, where the fold's extra calls would only cost time.
    """
    shape = q.values.shape
    split = shape[:-1] + (num_heads, shape[-1] // num_heads)
    scale = 1.0 / math.sqrt(split[-1])
    # (..., heads, L, head_dim) views
    qh = q.values.reshape(split).swapaxes(-3, -2)
    kh = k.values.reshape(split).swapaxes(-3, -2)
    vh = v.values.reshape(split).swapaxes(-3, -2)
    attn = qh @ kh.swapaxes(-1, -2)
    attn *= scale
    np.copyto(attn, -np.inf, where=mask)
    top = _max_lastdim(attn) if math.prod(shape[:-2]) > 1 else attn.max(axis=-1)
    attn -= top[..., None]
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=-1, keepdims=True)
    out = (attn @ vh).swapaxes(-3, -2).reshape(shape)

    def merge(gh: np.ndarray) -> np.ndarray:
        return gh.swapaxes(-3, -2).reshape(shape)

    def bwd(g: np.ndarray) -> None:
        g_ctx = g.reshape(split).swapaxes(-3, -2)
        if q.requires_grad or k.requires_grad:
            g_scores = g_ctx @ vh.swapaxes(-1, -2)
            g_scores -= (g_scores * attn).sum(axis=-1, keepdims=True)
            g_scores *= attn
            g_scores *= scale
            if q.requires_grad:
                _accum(q, merge(g_scores @ kh))
            if k.requires_grad:
                _accum(k, merge((qh.swapaxes(-1, -2) @ g_scores).swapaxes(-1, -2)))
        if v.requires_grad:
            _accum(v, merge(attn.swapaxes(-1, -2) @ g_ctx))

    return _node(out, (q, k, v), bwd)


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
    cdf = x * _INV_SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    out = x * cdf

    def bwd(g: np.ndarray) -> None:
        ga = -0.5 * x
        ga *= x
        np.exp(ga, out=ga)
        ga *= _INV_SQRT_2PI
        ga *= x
        ga += cdf
        ga *= g
        _accum(a, ga)

    return _node(out, (a,), bwd)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Standardize each row over the last axis, then apply the affine pair."""
    a, gain, bias = _as_tensor(a), _as_tensor(gain), _as_tensor(bias)
    n = a.values.shape[-1]
    if gain.values.shape != (n,) or bias.values.shape != (n,):
        raise ShapeError(
            f"layer_norm gain/bias must have shape ({n},), got "
            f"{gain.values.shape} and {bias.values.shape}"
        )
    # sum / n is the reduction and divide np.mean runs, without its wrapper
    mean = a.values.sum(axis=-1, keepdims=True)
    mean /= n
    xhat = a.values - mean
    out = xhat * xhat  # the squared deviations, until the output overwrites them
    inv_std = out.sum(axis=-1, keepdims=True)
    inv_std /= n
    inv_std += eps
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    xhat *= inv_std
    np.multiply(xhat, gain.values, out=out)
    out += bias.values

    def bwd(g: np.ndarray) -> None:
        if gain.requires_grad:
            _accum(gain, (g * xhat).reshape(-1, n).sum(axis=0))
        if bias.requires_grad:
            _accum(bias, g.reshape(-1, n).sum(axis=0))
        if a.requires_grad:
            ga = g * gain.values
            m1 = ga.sum(axis=-1, keepdims=True)
            m1 /= n
            prod = ga * xhat
            m2 = prod.sum(axis=-1, keepdims=True)
            m2 /= n
            np.multiply(xhat, m2, out=prod)
            ga -= m1
            ga -= prod
            ga *= inv_std
            _accum(a, ga)

    return _node(out, (a, gain, bias), bwd)


def max_pool_within_token(a: Tensor, k: int) -> Tensor:
    """Non-overlapping max pooling inside the last axis; stride equals k.

    The gradient routes to the first maximum of each window: the first index
    wins on ties, and a window holding a NaN (whose maximum is NaN) routes to
    its first NaN, as ``argmax`` does. Forward folds ``np.maximum`` over the
    k strided slices of the windows (``_max_lastdim``), and backward routes
    the gradient with equality masks over the same slices. At k = 1 values
    and gradient pass through unchanged.
    """
    a = _as_tensor(a)
    t = a.values.shape[-1]
    if k < 1 or t % k != 0:
        raise ConfigError(f"pool kernel {k} must divide token length {t}")
    if k == 1:
        return _node(a.values, (a,), lambda g: _accum(a, g))
    windows = a.values.reshape(a.values.shape[:-1] + (t // k, k))
    out = _max_lastdim(windows)

    def bwd(g: np.ndarray) -> None:
        hit = windows == out[..., None]
        hit |= np.isnan(windows)
        routed = hit[..., 0].copy()
        for j in range(1, k):  # keep only each window's first hit
            hit[..., j] &= ~routed
            routed |= hit[..., j]
        _accum(a, np.where(hit, g[..., None], 0.0).reshape(a.values.shape))

    return _node(out, (a,), bwd)


@functools.cache
def _interp_matrix(m: int, target_len: int) -> np.ndarray:
    """(m, target_len) weights: column j samples position j*(m-1)/(target-1)."""
    w = np.zeros((m, target_len))
    if m == 1:
        w[0, :] = 1.0
    else:
        pos = np.arange(target_len) * (m - 1) / (target_len - 1)
        lo = np.minimum(pos.astype(np.intp), m - 2)
        frac = pos - lo
        w[lo, np.arange(target_len)] += 1.0 - frac
        w[lo + 1, np.arange(target_len)] += frac
    w.setflags(write=False)  # shared by every caller
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


def dropout(a: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity when rate is 0 or there is no rng."""
    a = _as_tensor(a)
    if rate <= 0.0 or rng is None:
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
