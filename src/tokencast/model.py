"""The S-stage hierarchical decoder-only forecaster.

Each stage pools its input tokens by its own kernel, embeds them, runs a
causal pre-norm transformer stack, and emits a per-position next-token
prediction that is upsampled back to full token resolution. Stages chain
through residuals: stage i+1 receives stage i's input minus stage i's
prediction shifted right by one token (zero first token), so the value
subtracted at position j is the prediction OF token j made at position j-1.
The model output is the sum of all stage predictions.

Parameters are plain named float64 arrays. ``parameter_layout`` is the one
record of each array's scope: the per-stage forecast head is "head",
everything else "non-head" and frozen during parameter-efficient tuning.
"""

from __future__ import annotations

import functools
import math
from dataclasses import Field, dataclass

import numpy as np

from .autodiff import (
    Tensor,
    add,
    causal_attention,
    dropout,
    gelu,
    layer_norm,
    linear,
    linear_interp_upsample,
    max_pool_within_token,
    shift_right,
    slice_rows,
    sub,
)
from .errors import MAX_ELEMENTS, ConfigError

SCOPE_HEAD = "head"
SCOPE_NON_HEAD = "non-head"


@dataclass(frozen=True)
class ModelConfig:
    num_stages: int = 2
    pool_kernels: tuple[int, ...] = (4, 1)
    token_len: int = 24
    max_tokens: int = 7
    model_width: int = 64
    layers_per_stage: int = 2
    attention_heads: int = 4
    feedforward_width: int = 128
    dropout_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("num_stages", "token_len", "max_tokens", "model_width",
                     "layers_per_stage", "attention_heads", "feedforward_width"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if len(self.pool_kernels) != self.num_stages:
            raise ConfigError(
                f"expected {self.num_stages} pool kernels, got {self.pool_kernels}"
            )
        for k in self.pool_kernels:
            if k < 1 or self.token_len % k != 0:
                raise ConfigError(
                    f"pool kernel {k} must divide token length {self.token_len}"
                )
        if self.model_width % self.attention_heads != 0:
            raise ConfigError(
                f"width {self.model_width} not divisible by "
                f"{self.attention_heads} attention heads"
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")
        # parameter_layout's total by arithmetic, so a huge layer count is
        # refused without walking the layout: per stage, embed, positions,
        # final norm and head, plus each layer's norms, attention and FFN
        d, f = self.model_width, self.feedforward_width
        per_layer = 4 * d * d + 2 * d * f + 9 * d + f
        size = sum((2 * d + 1) * (self.token_len // k) + (self.max_tokens + 3) * d
                   + self.layers_per_stage * per_layer for k in self.pool_kernels)
        if size > MAX_ELEMENTS:
            raise ConfigError(f"the model would hold {size} parameters, "
                              f"more than {MAX_ELEMENTS}")


def parse_field(f: Field, text: str):
    """A config field's value from its text: by the parser its metadata names
    under "parse", else by the type of its default, where a tuple default
    means comma-separated items of its items' type."""
    if "parse" in f.metadata:
        return f.metadata["parse"](text)
    if isinstance(f.default, tuple):
        return tuple(type(f.default[0])(v) for v in text.split(","))
    return type(f.default)(text)


def format_value(value) -> str:
    """The text parse_field reads back: sequences comma-joined, floats by repr."""
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


# the fields the paper preset fixes, which --preset paper forbids in [model]
PAPER_PRESET = {"num_stages": 4, "pool_kernels": (8, 4, 2, 1), "token_len": 48,
                "max_tokens": 7, "layers_per_stage": 3}


def paper_preset(**overrides) -> ModelConfig:
    """The reference configuration, ``PAPER_PRESET``. Width and head count
    stay whatever the caller sets."""
    return ModelConfig(**{**PAPER_PRESET, **overrides})


@dataclass
class ModelParams:
    config: ModelConfig
    arrays: dict[str, Tensor]

    def trainable(self, scope: str = "all") -> dict[str, Tensor]:
        """The arrays of ``scope`` ("all" or a layout scope), in layout order."""
        if scope not in ("all", SCOPE_HEAD, SCOPE_NON_HEAD):
            raise ConfigError(f"unknown scope {scope!r}")
        return {name: self.arrays[name] for name, _, s in parameter_layout(self.config)
                if scope in ("all", s)}


@dataclass
class ModelOutput:
    prediction: Tensor                 # sum of stage predictions, (..., L', T)
    stages: list[Tensor]               # each stage's prediction, (..., L', T)


def _uniform(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def parameter_layout(config: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """(name, shape, scope) of every parameter array the config implies, in
    initialization order."""
    d = config.model_width
    f = config.feedforward_width
    layout = []

    def put(name: str, shape: tuple[int, ...], scope: str = SCOPE_NON_HEAD) -> None:
        layout.append((name, shape, scope))

    for i, k in enumerate(config.pool_kernels):
        pooled_len = config.token_len // k
        pre = f"stage{i}."
        put(pre + "embed.weight", (pooled_len, d))
        put(pre + "embed.bias", (d,))
        put(pre + "pos_table", (config.max_tokens, d))
        for l in range(config.layers_per_stage):
            lp = f"{pre}layer{l}."
            put(lp + "ln1.gain", (d,))
            put(lp + "ln1.bias", (d,))
            for proj in ("wq", "wk", "wv", "wo"):
                put(lp + f"attn.{proj}", (d, d))
            for b in ("bq", "bk", "bv", "bo"):
                put(lp + f"attn.{b}", (d,))
            put(lp + "ln2.gain", (d,))
            put(lp + "ln2.bias", (d,))
            put(lp + "ff.w1", (d, f))
            put(lp + "ff.b1", (f,))
            put(lp + "ff.w2", (f, d))
            put(lp + "ff.b2", (d,))
        put(pre + "final_ln.gain", (d,))
        put(pre + "final_ln.bias", (d,))
        put(pre + "head.weight", (d, pooled_len), SCOPE_HEAD)
        put(pre + "head.bias", (pooled_len,), SCOPE_HEAD)
    return layout


def init_model(config: ModelConfig) -> ModelParams:
    """Allocate and initialize all stage parameters, deterministic from seed.

    Weight matrices use scaled-uniform init (bound 1/sqrt(fan_in), fan_in
    being the first dimension), biases start at zero, layer-norm gains at
    one, position tables at normal(0, 0.02).
    """
    rng = np.random.default_rng(config.seed)
    arrays: dict[str, Tensor] = {}
    for name, shape, _ in parameter_layout(config):
        if name.endswith("pos_table"):
            values = rng.normal(0.0, 0.02, size=shape)
        elif len(shape) == 2:
            values = _uniform(rng, shape[0], shape)
        elif name.endswith(".gain"):
            values = np.ones(shape)
        else:
            values = np.zeros(shape)
        arrays[name] = Tensor(values, requires_grad=True)
    return ModelParams(config=config, arrays=arrays)


def count_parameters(params: ModelParams, scope: str = "all") -> int:
    """Exact scalar count over arrays of the given scope."""
    return sum(t.size for t in params.trainable(scope).values())


@functools.cache
def _causal_mask(n: int) -> np.ndarray:
    mask = np.triu(np.ones((n, n), dtype=bool), k=1)
    mask.setflags(write=False)  # shared by every caller
    return mask


def causal_self_attention(h: Tensor, weights: dict[str, Tensor], num_heads: int) -> Tensor:
    """Multi-head self-attention where position p attends only to <= p.

    h is (..., L', d); masked scores are forced to exact-zero attention
    weight, which makes the no-peek guarantee bit-exact, not approximate.
    """
    q = linear(h, weights["wq"], weights["bq"])
    k = linear(h, weights["wk"], weights["bk"])
    v = linear(h, weights["wv"], weights["bv"])
    ctx = causal_attention(q, k, v, num_heads, _causal_mask(h.shape[-2]))
    return linear(ctx, weights["wo"], weights["bo"])


def _transformer_layer(
    h: Tensor,
    params: ModelParams,
    prefix: str,
    rng: np.random.Generator | None,
) -> Tensor:
    a = params.arrays
    cfg = params.config
    normed = layer_norm(h, a[prefix + "ln1.gain"], a[prefix + "ln1.bias"])
    attn_w = {k: a[prefix + "attn." + k] for k in ("wq", "wk", "wv", "wo", "bq", "bk", "bv", "bo")}
    attended = causal_self_attention(normed, attn_w, cfg.attention_heads)
    h = add(h, dropout(attended, cfg.dropout_rate, rng))
    normed = layer_norm(h, a[prefix + "ln2.gain"], a[prefix + "ln2.bias"])
    ff = linear(gelu(linear(normed, a[prefix + "ff.w1"], a[prefix + "ff.b1"])),
                a[prefix + "ff.w2"], a[prefix + "ff.b2"])
    return add(h, dropout(ff, cfg.dropout_rate, rng))


def stage_forward(
    params: ModelParams,
    stage: int,
    tokens: Tensor,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """One stage: pool -> embed + position -> causal stack -> head -> upsample.

    tokens is (..., L', T) with L' <= max_tokens (callers window first). The
    (..., L', T) prediction's position j predicts token j+1.
    """
    cfg = params.config
    tokens = tokens if isinstance(tokens, Tensor) else Tensor(tokens)
    n = tokens.shape[-2]
    if n > cfg.max_tokens:
        raise ConfigError(
            f"{n} tokens exceed the model's max context of {cfg.max_tokens}; "
            "window the input first"
        )
    a = params.arrays
    pre = f"stage{stage}."
    k = cfg.pool_kernels[stage]

    pooled = max_pool_within_token(tokens, k)
    embedded = linear(pooled, a[pre + "embed.weight"], a[pre + "embed.bias"])
    h = add(embedded, slice_rows(a[pre + "pos_table"], n))
    for l in range(cfg.layers_per_stage):
        h = _transformer_layer(h, params, f"{pre}layer{l}.", rng)
    h = layer_norm(h, a[pre + "final_ln.gain"], a[pre + "final_ln.bias"])
    small = linear(h, a[pre + "head.weight"], a[pre + "head.bias"])
    return linear_interp_upsample(small, cfg.token_len)


def model_forward(
    params: ModelParams,
    tokens,
    rng: np.random.Generator | None = None,
) -> ModelOutput:
    """Full forward pass: run every stage on its residual input and sum.

    Position j of the returned prediction is the model's forecast of token
    j+1. The residual chain keeps the first token of every stage input equal
    to the original first token (the shifted stage output is zero there).
    """
    x_in = tokens if isinstance(tokens, Tensor) else Tensor(tokens)
    total: Tensor | None = None
    stages: list[Tensor] = []
    for i in range(params.config.num_stages):
        if stages:
            x_in = sub(x_in, shift_right(stages[-1]))
        stages.append(stage_forward(params, i, x_in, rng))
        total = stages[-1] if total is None else add(total, stages[-1])
    return ModelOutput(prediction=total, stages=stages)
