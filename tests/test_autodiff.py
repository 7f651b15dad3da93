import sys
import threading

import numpy as np
import pytest
from scipy.special import erf

import tokencast.autodiff as autodiff
from tokencast.autodiff import (
    AdamState,
    Tensor,
    adam_step,
    add,
    backward,
    causal_attention,
    dropout,
    gelu,
    layer_norm,
    linear,
    linear_interp_upsample,
    max_pool_within_token,
    mse,
    mul,
    shift_right,
    slice_rows,
    sub,
)
from tokencast.errors import ConfigError, ShapeError
from tokencast.model import ModelConfig, init_model, model_forward, paper_preset
from tokencast.train import TrainConfig

from conftest import central_difference, check_gradient, relative_error


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """The product inside linear: x @ w with a zero bias."""
    return linear(a, b, Tensor(np.zeros(b.shape[-1:])))


# (L, m) scores, m <= L, reach causal_attention's softmax unchanged (key
# columns past m score 0) through a query that is 4 * scores, zero-padded to
# width 16, against identity keys, with one head of width 16 (scale 1/4):
# every product is exact. Identity values make output[:, :L] the attention
# weights themselves.
WIDTH = 16


def attention_weights(scores: Tensor, mask: np.ndarray | None = None) -> Tensor:
    n, m = scores.shape
    if mask is None:
        mask = np.zeros((n, n), dtype=bool)
    q = linear(scores, Tensor(4.0 * np.eye(m, WIDTH)), Tensor(np.zeros(WIDTH)))
    eye = Tensor(np.eye(n, WIDTH))
    return causal_attention(q, eye, eye, 1, mask)


def padded(target: np.ndarray) -> np.ndarray:
    return np.pad(target, ((0, 0), (0, WIDTH - target.shape[-1])))


class TestMatmul:
    def test_identity(self):
        m = np.arange(9.0).reshape(3, 3)
        out = matmul(Tensor(np.eye(3)), Tensor(m))
        np.testing.assert_array_equal(out.values, m)

    def test_hand_case(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.values, [[3.0], [7.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_batch_dims_must_match(self):
        # the weight is one shared matrix; a batch of weights is refused
        with pytest.raises(ShapeError, match="2-d weight"):
            matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((5, 4, 2))))

    def test_gradient_both_sides(self, rng):
        a0 = rng.uniform(-2, 2, (4, 5))
        b0 = rng.uniform(-2, 2, (5, 2))
        check_gradient(
            lambda a: mse(matmul(a, Tensor(b0)), np.zeros((4, 2))), a0, rtol=1e-6
        )
        check_gradient(
            lambda b: mse(matmul(Tensor(a0), b), np.zeros((4, 2))), b0, rtol=1e-6
        )

    def test_gradient_batched_against_shared_weight(self, rng):
        # (B, L, d) @ (d, f): weight grad sums over the batch
        x0 = rng.uniform(-2, 2, (3, 4, 5))
        w0 = rng.uniform(-2, 2, (5, 2))
        check_gradient(
            lambda w: mse(matmul(Tensor(x0), w), np.zeros((3, 4, 2))), w0, rtol=1e-6
        )


class TestMatmulSharedWeight:
    """(..., L, k) @ (k, n) inside linear: backward folds the leading
    dimensions into one GEMM per operand."""

    CASES = {
        "3d": ((3, 4, 5), (5, 2), False),
        "4d": ((2, 3, 4, 5), (5, 2), False),
        # the upstream gradient reaches linear as a non-contiguous view
        "3d_swapped_upstream": ((3, 4, 5), (5, 2), True),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("wrt", ["a", "b", "both"])
    def test_finite_differences(self, rng, case, wrt):
        shape_a, shape_b, swapped = self.CASES[case]
        a0 = rng.uniform(-2, 2, shape_a)
        b0 = rng.uniform(-2, 2, shape_b)
        out_shape = shape_a[:-1] + shape_b[-1:]
        # the loss is sum(out * upstream), so upstream is dloss/dout
        if swapped:
            upstream = np.swapaxes(rng.uniform(-1, 1, out_shape[:-2] + out_shape[:-3:-1]),
                                   -1, -2)
            assert not upstream.flags.c_contiguous
        else:
            upstream = rng.uniform(-1, 1, out_shape)

        def loss_value(a_values, b_values):
            return float((matmul(Tensor(a_values), Tensor(b_values)).values
                          * upstream).sum())

        a = Tensor(a0.copy(), requires_grad=wrt in ("a", "both"))
        b = Tensor(b0.copy(), requires_grad=wrt in ("b", "both"))
        matmul(a, b)._backward_fn(upstream)
        if wrt in ("a", "both"):
            numeric = central_difference(lambda x: loss_value(x, b0), a0.copy())
            assert relative_error(a.grad, numeric) < 1e-6
        else:
            assert a.grad is None
        if wrt in ("b", "both"):
            numeric = central_difference(lambda x: loss_value(a0, x), b0.copy())
            assert relative_error(b.grad, numeric) < 1e-6
        else:
            assert b.grad is None

    def test_folded_gradients_equal_per_window_products(self, rng):
        # the paper-preset shapes: a batch of 64 windows, 7 tokens, width 64
        x0 = rng.normal(size=(64, 7, 64))
        w0 = rng.normal(size=(64, 128))
        target = rng.normal(size=(64, 7, 128))
        x = Tensor(x0, requires_grad=True)
        w = Tensor(w0, requires_grad=True)
        backward(mse(matmul(x, w), target))
        g = (2.0 / target.size) * (x0 @ w0 - target)
        weight_ref = sum(x0[i].T @ g[i] for i in range(len(x0)))
        input_ref = np.stack([g[i] @ w0.T for i in range(len(x0))])
        # entries that cancel to near zero get an absolute floor at the
        # array's scale; float64 GEMMs agree to a few ulp of that scale
        for got, ref in ((w.grad, weight_ref), (x.grad, input_ref)):
            np.testing.assert_allclose(got, ref, rtol=1e-12,
                                       atol=1e-12 * np.abs(ref).max())


class TestSoftmax:
    """The masked softmax inside causal_attention, read off its output."""

    def test_symmetry(self):
        out = attention_weights(Tensor([[0.0, 0.0], [0.0, 0.0]]))
        np.testing.assert_allclose(out.values[:, :2], 0.5, rtol=0, atol=0)

    def test_known_values(self):
        # frozen from a 40-digit exp/sum evaluation
        expected = [0.090030573170380457998, 0.24472847105479765247, 0.66524095577482188953]
        out = attention_weights(Tensor(np.tile([1.0, 2.0, 3.0], (3, 1))))
        np.testing.assert_allclose(out.values[:, :3], [expected] * 3, rtol=1e-15)

    def test_no_overflow(self):
        out = attention_weights(Tensor([[1000.0, 0.0], [0.0, 1000.0]]))
        assert np.all(np.isfinite(out.values))
        np.testing.assert_allclose(out.values[:, :2], np.eye(2), atol=1e-300)

    def test_rows_sum_to_one(self, rng):
        x = rng.uniform(-2, 2, (9, 9))
        out = attention_weights(Tensor(x)).values[:, :9]
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
        assert np.all(out >= 0) and np.all(out <= 1)

    def test_mask_forces_exact_zero(self, rng):
        x = rng.uniform(-2, 2, (4, 4))
        mask = np.triu(np.ones((4, 4), dtype=bool), k=1)
        out = attention_weights(Tensor(x), mask).values[:, :4]
        assert np.all(out[mask] == 0.0)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)

    def test_gradient(self, rng):
        x0 = rng.uniform(-2, 2, (5, 5))
        w = padded(rng.uniform(-1, 1, (5, 5)))
        check_gradient(lambda a: mse(attention_weights(a), w), x0, rtol=1e-4)

    def test_masked_gradient(self, rng):
        x0 = rng.uniform(-2, 2, (4, 4))
        mask = np.triu(np.ones((4, 4), dtype=bool), k=1)
        w = padded(rng.uniform(-1, 1, (4, 4)))
        x = Tensor(x0, requires_grad=True)
        backward(mse(attention_weights(x, mask), w))
        # a masked score never reaches the output, so its gradient is exactly 0
        assert np.all(x.grad[mask] == 0.0)
        check_gradient(lambda a: mse(attention_weights(a, mask), w), x0, rtol=1e-4)


LEADING = {"2d": (), "3d": (3,), "4d": (2, 3)}

# every (k, n) linear shape of the paper preset at width 64: the embeds, the
# attention and feed-forward projections, and the heads
PAPER_LINEAR_SHAPES = [(6, 64), (12, 64), (24, 64), (48, 64), (64, 64), (64, 128),
                       (128, 64), (64, 6), (64, 12), (64, 24), (64, 48)]


class TestLinear:
    @pytest.mark.parametrize("lead", sorted(LEADING))
    @pytest.mark.parametrize("wrt", ["x", "w", "b"])
    def test_finite_differences(self, rng, lead, wrt):
        operands = {"x": rng.uniform(-2, 2, LEADING[lead] + (4, 5)),
                    "w": rng.uniform(-2, 2, (5, 3)),
                    "b": rng.uniform(-2, 2, 3)}
        target = rng.uniform(-1, 1, LEADING[lead] + (4, 3))

        def loss(t):
            args = {n: t if n == wrt else Tensor(v) for n, v in operands.items()}
            return mse(linear(args["x"], args["w"], args["b"]), target)

        check_gradient(loss, operands[wrt], rtol=1e-6)

    def test_only_requested_gradients(self, rng):
        x = Tensor(rng.normal(size=(2, 4, 5)))
        w = Tensor(rng.normal(size=(5, 3)))
        b = Tensor(rng.normal(size=3), requires_grad=True)
        backward(mse(linear(x, w, b), np.zeros((2, 4, 3))))
        assert x.grad is None and w.grad is None
        assert b.grad.shape == (3,)

    def test_bad_bias_shape(self):
        with pytest.raises(ShapeError, match="bias"):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4))), Tensor(np.zeros(3)))

    def test_equals_old_matmul_add_chain(self, rng):
        # the arithmetic of matmul then add, bit for bit
        x0, w0, b0 = rng.normal(size=(2, 7, 6)), rng.normal(size=(6, 4)), rng.normal(size=4)
        g = rng.normal(size=(2, 7, 4))
        x, w, b = (Tensor(v, requires_grad=True) for v in (x0, w0, b0))
        out = linear(x, w, b)
        out._backward_fn(g)
        np.testing.assert_array_equal(out.values, x0 @ w0 + b0)
        np.testing.assert_array_equal(b.grad, g.sum(axis=(0, 1)))
        np.testing.assert_array_equal(x.grad, (g.reshape(-1, 4) @ w0.T).reshape(x0.shape))
        np.testing.assert_array_equal(w.grad, x0.reshape(-1, 6).T @ g.reshape(-1, 4))

    @pytest.mark.parametrize("lead", [(), (1,), (3,), (2, 3)], ids=str)
    @pytest.mark.parametrize("tokens", [1, 2, 7])
    @pytest.mark.parametrize("k,n", [(64, 128), (128, 64)])
    def test_equals_stacked_product(self, rng, lead, tokens, k, n):
        # at the model's widths, where the GEMMs BLAS picks differ from the
        # small shapes above
        x0, w0, b0 = (rng.normal(size=lead + (tokens, k)), rng.normal(size=(k, n)),
                      rng.normal(size=n))
        g = rng.normal(size=lead + (tokens, n))
        x, w, b = (Tensor(v, requires_grad=True) for v in (x0, w0, b0))
        out = linear(x, w, b)
        out._backward_fn(g)
        rows = g.reshape(-1, n)
        np.testing.assert_array_equal(out.values, x0 @ w0 + b0)
        np.testing.assert_array_equal(b.grad, g.sum(axis=tuple(range(g.ndim - 1))))
        np.testing.assert_array_equal(x.grad, (rows @ w0.T).reshape(x0.shape))
        np.testing.assert_array_equal(w.grad, x0.reshape(-1, k).T @ rows)

    @pytest.mark.parametrize("tokens", [2, 7])
    @pytest.mark.parametrize("k,n", PAPER_LINEAR_SHAPES)
    def test_rows_of_a_large_batch_equal_their_solo_products(self, rng, k, n, tokens):
        # more than 10**6 / (N * K) GEMM rows and 200 batch rows: one GEMM of
        # that many rows would leave OpenBLAS's small-matrix path, whose other
        # kernel changes the last bits at 64 -> 12
        rows = 10**6 // (tokens * k * n) + 200
        x0, w0, b0 = (rng.normal(size=(rows, tokens, k)), rng.normal(size=(k, n)),
                      rng.normal(size=n))
        out = linear(Tensor(x0), Tensor(w0), Tensor(b0))
        for r in range(rows):
            solo = linear(Tensor(x0[r:r + 1]), Tensor(w0), Tensor(b0))
            assert out.values[r].tobytes() == solo.values[0].tobytes()


def _old_attention_chain(q, k, v, num_heads, mask, g):
    """The 13-node chain causal_attention replaced, one numpy step per old
    node (reshape, swap_axes, matmul, mul, softmax_lastdim), forward then
    backward: returns the output and the gradients of q, k and v."""
    shape = q.shape
    n, d = shape[-2:]
    head_dim = d // num_heads
    split = shape[:-2] + (n, num_heads, head_dim)
    qh, kh, vh = (np.swapaxes(t.reshape(split), -3, -2) for t in (q, k, v))
    kt = np.swapaxes(kh, -1, -2)
    prod = qh @ kt
    scores = prod * np.asarray(1.0 / np.sqrt(head_dim))
    x = np.where(mask, -np.inf, scores)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    s = e / e.sum(axis=-1, keepdims=True)
    ctx = s @ vh
    out = np.swapaxes(ctx, -3, -2).reshape(shape)

    g_ctx = np.swapaxes(g.reshape(split), -3, -2)            # reshape, swap_axes
    g_s = g_ctx @ np.swapaxes(vh, -1, -2)                    # matmul(s, vh)
    g_vh = np.swapaxes(s, -1, -2) @ g_ctx
    g_scores = s * (g_s - (g_s * s).sum(axis=-1, keepdims=True))   # softmax
    g_prod = g_scores * np.asarray(1.0 / np.sqrt(head_dim))       # mul
    g_qh = g_prod @ np.swapaxes(kt, -1, -2)                  # matmul(qh, kt)
    g_kt = np.swapaxes(qh, -1, -2) @ g_prod
    g_kh = np.swapaxes(g_kt, -1, -2)                         # swap_axes(kh)
    grads = [np.swapaxes(gh, -3, -2).reshape(shape) for gh in (g_qh, g_kh, g_vh)]
    return out, grads


class TestCausalAttention:
    HEADS = 2

    @staticmethod
    def _operands(rng, lead, n=4, d=6):
        return [rng.uniform(-1.5, 1.5, LEADING[lead] + (n, d)) for _ in range(3)]

    @pytest.mark.parametrize("lead", sorted(LEADING))
    @pytest.mark.parametrize("wrt", [0, 1, 2], ids=["q", "k", "v"])
    def test_finite_differences(self, rng, lead, wrt):
        operands = self._operands(rng, lead)
        mask = np.triu(np.ones((4, 4), dtype=bool), k=1)
        target = rng.uniform(-1, 1, operands[0].shape)

        def loss(t):
            args = [t if i == wrt else Tensor(v) for i, v in enumerate(operands)]
            return mse(causal_attention(*args, self.HEADS, mask), target)

        check_gradient(loss, operands[wrt], rtol=1e-5)

    @staticmethod
    def _assert_equals_old_chain(operands, heads, g):
        n = operands[0].shape[-2]
        mask = np.triu(np.ones((n, n), dtype=bool), k=1)
        q, k, v = (Tensor(x, requires_grad=True) for x in operands)
        out = causal_attention(q, k, v, heads, mask)
        out._backward_fn(g)
        ref_out, ref_grads = _old_attention_chain(*operands, heads, mask, g)
        np.testing.assert_array_equal(out.values, ref_out)
        for t, ref in zip((q, k, v), ref_grads):
            np.testing.assert_array_equal(t.grad, ref)

    @pytest.mark.parametrize("lead", sorted(LEADING))
    def test_equals_old_chain(self, rng, lead):
        operands = self._operands(rng, lead)
        self._assert_equals_old_chain(operands, self.HEADS,
                                      rng.normal(size=operands[0].shape))

    @pytest.mark.parametrize("width", [64, 128])
    def test_equals_old_chain_at_model_widths(self, rng, width):
        # 5 rows of a 7-token context, 4 heads, as in the paper preset
        operands = [rng.normal(size=(5, 7, width)) for _ in range(3)]
        self._assert_equals_old_chain(operands, 4, rng.normal(size=(5, 7, width)))

    @pytest.mark.parametrize("keys", [7, 9])
    @pytest.mark.parametrize("lead", [(1,), (42,)], ids=str)
    def test_bytes_equal_old_chain_around_numpy_pairwise_sum(self, rng, lead, keys):
        # numpy sums the keys in sequence below 8 and pairwise from 8; bytes,
        # so that a signed zero counts too
        operands = [rng.normal(size=lead + (keys, 64)) for _ in range(3)]
        g = rng.normal(size=lead + (keys, 64))
        for x in (operands[2], g):
            x[rng.random(x.shape) < 0.2] = -0.0
        mask = np.triu(np.ones((keys, keys), dtype=bool), k=1)
        q, k, v = (Tensor(x, requires_grad=True) for x in operands)
        out = causal_attention(q, k, v, 4, mask)
        out._backward_fn(g)
        ref_out, ref_grads = _old_attention_chain(*operands, 4, mask, g)
        assert out.values.tobytes() == ref_out.tobytes()
        for t, ref in zip((q, k, v), ref_grads):
            assert t.grad.tobytes() == ref.tobytes()

    def test_first_position_sees_only_itself(self, rng):
        q, k, v = self._operands(rng, "3d")
        mask = np.triu(np.ones((4, 4), dtype=bool), k=1)
        out = causal_attention(Tensor(q), Tensor(k), Tensor(v), self.HEADS, mask)
        np.testing.assert_array_equal(out.values[:, 0], v[:, 0])


class TestNodeBudget:
    def test_paper_preset_forward_builds_181_nodes(self, monkeypatch):
        # 43 per stage (12 per layer) plus 9 to chain 4 stages: 3 each of
        # shift_right and sub for the residuals and add for the sum
        params = init_model(paper_preset(model_width=16, feedforward_width=32,
                                         attention_heads=2))
        real = autodiff._node
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(autodiff, "_node", counting)
        model_forward(params, np.random.default_rng(0).normal(size=(1, 7, 48)))
        assert len(calls) == 181


MODEL_SHAPES = [(5, 7, 64), (5, 7, 128)]


def _old_layer_norm(x, gain, bias, g, eps=1e-5):
    """layer_norm's forward and backward formulas, one numpy expression per
    temporary: returns the output and the gradients of x, gain and bias."""
    n = x.shape[-1]
    mean = x.sum(axis=-1, keepdims=True) / n
    centered = x - mean
    var = (centered * centered).sum(axis=-1, keepdims=True) / n
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    out = xhat * gain + bias
    dxhat = g * gain
    m1 = dxhat.sum(axis=-1, keepdims=True) / n
    m2 = (dxhat * xhat).sum(axis=-1, keepdims=True) / n
    grads = [inv_std * (dxhat - m1 - xhat * m2),
             (g * xhat).reshape(-1, n).sum(axis=0), g.reshape(-1, n).sum(axis=0)]
    return out, grads


class TestLayerNorm:
    @pytest.mark.parametrize("shape", MODEL_SHAPES, ids=str)
    def test_equals_old_formulas(self, rng, shape):
        operands = [rng.normal(size=shape), rng.uniform(0.5, 1.5, shape[-1]),
                    rng.normal(size=shape[-1])]
        g = rng.normal(size=shape)
        x, gain, bias = (Tensor(v, requires_grad=True) for v in operands)
        out = layer_norm(x, gain, bias)
        out._backward_fn(g)
        ref_out, ref_grads = _old_layer_norm(*operands, g)
        np.testing.assert_array_equal(out.values, ref_out)
        for t, ref in zip((x, gain, bias), ref_grads):
            np.testing.assert_array_equal(t.grad, ref)

    def test_constant_row_is_zero(self):
        out = layer_norm(Tensor([[4.0, 4.0, 4.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.values, 0.0, atol=1e-12)

    def test_two_point_standardization(self):
        out = layer_norm(
            Tensor([1.0, 3.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-12
        )
        np.testing.assert_allclose(out.values, [-1.0, 1.0], rtol=1e-6)

    def test_bad_affine_shape(self):
        with pytest.raises(ShapeError):
            layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(4)))

    def test_gradient_input(self, rng):
        x0 = rng.uniform(-2, 2, (2, 8))
        gain = Tensor(rng.uniform(0.5, 1.5, 8))
        bias = Tensor(rng.uniform(-0.5, 0.5, 8))
        w = rng.uniform(-1, 1, (2, 8))
        check_gradient(lambda a: mse(layer_norm(a, gain, bias), w), x0, rtol=1e-4)

    def test_gradient_gain_bias(self, rng):
        x = Tensor(rng.uniform(-2, 2, (2, 8)))
        w = rng.uniform(-1, 1, (2, 8))
        check_gradient(
            lambda g: mse(layer_norm(x, g, Tensor(np.zeros(8))), w),
            rng.uniform(0.5, 1.5, 8),
            rtol=1e-4,
        )
        check_gradient(
            lambda b: mse(layer_norm(x, Tensor(np.ones(8)), b), w),
            rng.uniform(-0.5, 0.5, 8),
            rtol=1e-4,
        )


class TestMaxPool:
    def test_output_length(self, rng):
        x = rng.uniform(-2, 2, (7, 48))
        assert max_pool_within_token(Tensor(x), 8).values.shape == (7, 6)

    def test_unit_kernel_identity(self, rng):
        x = rng.uniform(-2, 2, (3, 6))
        np.testing.assert_array_equal(max_pool_within_token(Tensor(x), 1).values, x)

    def test_hand_case_and_tie_routing(self):
        x = Tensor(np.array([[1.0, 5.0, 2.0, 2.0]]), requires_grad=True)
        out = max_pool_within_token(x, 2)
        np.testing.assert_array_equal(out.values, [[5.0, 2.0]])
        backward(mse(out, np.zeros((1, 2))))
        # gradient lands on the 5 and on the FIRST 2
        nonzero = x.grad[0] != 0
        np.testing.assert_array_equal(nonzero, [False, True, True, False])

    def test_kernel_must_divide(self):
        with pytest.raises(ConfigError):
            max_pool_within_token(Tensor(np.zeros((2, 5))), 2)

    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_equals_argmax_routing(self, rng, k):
        # values from a few integers, so most windows hold ties; one window
        # holds a NaN and one holds two, so each routes to its first NaN
        x0 = rng.integers(-1, 2, size=(5, 7, 48)).astype(np.float64)
        x0[0, 0, 3] = x0[1, 2, 5] = x0[1, 2, 6] = np.nan
        g = rng.normal(size=(5, 7, 48 // k))
        x = Tensor(x0, requires_grad=True)
        out = max_pool_within_token(x, k)
        out._backward_fn(g)
        windows = x0.reshape(5, 7, 48 // k, k)
        ref_grad = np.zeros_like(windows)
        np.put_along_axis(ref_grad, windows.argmax(axis=-1)[..., None], g[..., None],
                          axis=-1)
        np.testing.assert_array_equal(out.values, windows.max(axis=-1))
        np.testing.assert_array_equal(x.grad, ref_grad.reshape(x0.shape))

    def test_gradient(self, rng):
        # distinct values keep argmax stable under the FD perturbation
        x0 = rng.permutation(24).astype(np.float64).reshape(2, 12) / 7.0
        w = rng.uniform(-1, 1, (2, 4))
        check_gradient(lambda a: mse(max_pool_within_token(a, 3), w), x0, rtol=1e-6)


class TestUpsample:
    def test_linear_ramp(self):
        out = linear_interp_upsample(Tensor([0.0, 3.0]), 4)
        np.testing.assert_allclose(out.values, [0.0, 1.0, 2.0, 3.0], atol=1e-12)

    def test_identity(self, rng):
        x = rng.uniform(-2, 2, (3, 5))
        np.testing.assert_allclose(linear_interp_upsample(Tensor(x), 5).values, x, atol=1e-12)

    def test_broadcast(self):
        out = linear_interp_upsample(Tensor([[2.0]]), 5)
        np.testing.assert_array_equal(out.values, [[2.0] * 5])

    def test_shrink_rejected(self):
        with pytest.raises(ConfigError):
            linear_interp_upsample(Tensor(np.zeros(5)), 3)

    def test_preserves_bounds(self, rng):
        x = rng.uniform(-2, 2, (4, 6))
        out = linear_interp_upsample(Tensor(x), 17).values
        assert np.all(out <= x.max(axis=-1, keepdims=True) + 1e-12)
        assert np.all(out >= x.min(axis=-1, keepdims=True) - 1e-12)

    def test_gradient(self, rng):
        x0 = rng.uniform(-2, 2, (2, 4))
        w = rng.uniform(-1, 1, (2, 9))
        check_gradient(lambda a: mse(linear_interp_upsample(a, 9), w), x0, rtol=1e-6)


class TestMse:
    def test_identity_zero(self, rng):
        x = rng.uniform(-2, 2, (3, 4))
        assert mse(Tensor(x), x).item() == 0.0

    def test_hand_case(self):
        assert mse(Tensor([1.0, 2.0]), np.zeros(2)).item() == pytest.approx(2.5)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse(Tensor(np.zeros(3)), np.zeros(4))

    def test_gradient(self, rng):
        x0 = rng.uniform(-2, 2, (4, 3))
        t = rng.uniform(-2, 2, (4, 3))
        check_gradient(lambda a: mse(a, t), x0, rtol=1e-6)


class TestBackward:
    def test_square(self):
        x = Tensor(3.0, requires_grad=True)
        backward(mul(x, x))
        assert x.grad == pytest.approx(6.0)

    def test_product(self):
        x = Tensor(2.0, requires_grad=True)
        y = Tensor(5.0, requires_grad=True)
        backward(mul(x, y))
        assert x.grad == pytest.approx(5.0)
        assert y.grad == pytest.approx(2.0)

    def test_non_scalar_rejected(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            backward(add(x, x))

    def test_accumulates_across_calls(self):
        x = Tensor(3.0, requires_grad=True)
        backward(mul(x, x))
        backward(mul(x, x))
        assert x.grad == pytest.approx(12.0)

    def test_diamond_graph(self):
        # f = (x + x) * x = 2x^2, f' = 4x
        x = Tensor(3.0, requires_grad=True)
        backward(mul(add(x, x), x))
        assert x.grad == pytest.approx(12.0)

    def test_shared_gradient_is_never_written_in_place(self, rng):
        # both operands of add receive the same upstream array, which _accum
        # stores without a copy; neither the optimizer step nor a second
        # backward may change an array handed out earlier
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        y = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        target = rng.normal(size=(3, 4))
        backward(mse(add(x, y), target))
        x_grad, y_grad = x.grad, y.grad
        snapshot = (x_grad.copy(), y_grad.copy())
        y_values = y.values.copy()
        adam_step(x, AdamState.for_param(x, TrainConfig(learning_rate=0.1)))
        np.testing.assert_array_equal(y.grad, snapshot[1])
        backward(mse(add(x, y), target))
        np.testing.assert_array_equal(x_grad, snapshot[0])
        np.testing.assert_array_equal(y_grad, snapshot[1])
        np.testing.assert_array_equal(y.values, y_values)
        second = 2.0 * (x.values + y.values - target) / target.size
        np.testing.assert_allclose(y.grad, snapshot[1] + second, rtol=1e-12)
        np.testing.assert_allclose(x.grad, snapshot[0] + second, rtol=1e-12)

    def test_records_only_over_an_array_that_requires_grad(self):
        frozen, live = Tensor(3.0), Tensor(2.0, requires_grad=True)
        out = mul(frozen, frozen)
        assert not out.requires_grad
        assert out._backward_fn is None and out._parents == ()
        out = mul(frozen, live)
        assert out.requires_grad and out._backward_fn is not None

    def test_loss_without_a_tape_is_refused(self):
        x = Tensor(3.0)
        with pytest.raises(ValueError, match="no array it depends on requires grad"):
            backward(mul(x, x))
        assert x.grad is None

    def test_forward_beside_training_matches_serial(self, rng):
        # no switch is shared between threads: a forward over frozen arrays
        # and a training loop over unfrozen ones each give what they give
        # alone, however finely the two interleave
        cfg = ModelConfig(num_stages=2, pool_kernels=(2, 1), token_len=4, max_tokens=3,
                          model_width=6, layers_per_stage=1, attention_heads=2,
                          feedforward_width=8, seed=7)
        tokens = rng.normal(size=(5, 3, 4))
        target = rng.normal(size=(5, 3, 4))
        rounds = 40

        def forward_only():
            params = init_model(cfg)
            outs = []
            for _ in range(rounds):
                pred = model_forward(params, tokens).prediction
                outs.append((pred.requires_grad, pred.values.tobytes()))
            return outs

        def training():
            params = init_model(cfg)
            for t in params.arrays.values():  # unfrozen as training would
                t.requires_grad = True
            settings = TrainConfig(learning_rate=1e-2)
            states = {n: AdamState.for_param(t, settings) for n, t in params.arrays.items()}
            losses = []
            for _ in range(rounds):
                loss = mse(model_forward(params, tokens).prediction, target)
                for t in params.arrays.values():
                    t.zero_grad()
                backward(loss)
                for n, t in params.arrays.items():
                    adam_step(t, states[n])
                losses.append(loss.values.tobytes())
            return losses, [t.values.tobytes() for t in params.arrays.values()]

        serial = [forward_only(), training()]
        results: list = [None, None]
        start = threading.Barrier(2, timeout=30)

        def run(i, fn):
            start.wait()
            try:
                results[i] = fn()
            except Exception as exc:  # compared, and so reported, below
                results[i] = exc

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i, fn))
                       for i, fn in enumerate((forward_only, training))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(old)
        assert not any(recorded for recorded, _ in serial[0])
        assert results[0] == serial[0]
        assert results[1] == serial[1]


def _read_only(values: np.ndarray) -> np.ndarray:
    values = np.array(values, dtype=np.float64)
    values.setflags(write=False)
    return values


# kernel -> (build from input tensors, input shapes)
EVERY_KERNEL = {
    "linear": (linear, [(2, 7, 8), (8, 4), (4,)]),
    "causal_attention": (lambda q, k, v: causal_attention(
        q, k, v, 2, np.triu(np.ones((7, 7), dtype=bool), k=1)), [(2, 7, 8)] * 3),
    "add": (add, [(2, 7, 8), (8,)]),
    "sub": (sub, [(2, 7, 8), (7, 8)]),
    "mul": (mul, [(2, 7, 8), (2, 7, 8)]),
    "slice_rows": (lambda a: slice_rows(a, 3), [(7, 8)]),
    "shift_right": (shift_right, [(2, 7, 8)]),
    "gelu": (gelu, [(2, 7, 8)]),
    "layer_norm": (layer_norm, [(2, 7, 8), (8,), (8,)]),
    "max_pool_k1": (lambda a: max_pool_within_token(a, 1), [(2, 7, 8)]),
    "max_pool_k4": (lambda a: max_pool_within_token(a, 4), [(2, 7, 8)]),
    "linear_interp_upsample": (lambda a: linear_interp_upsample(a, 12), [(2, 7, 4)]),
    "dropout": (lambda a: dropout(a, 0.5, np.random.default_rng(0)), [(2, 7, 8)]),
    "mse": (lambda a: mse(a, _read_only(np.ones((2, 7, 8)))), [(2, 7, 8)]),
}


class TestWritesOnlyOwnArrays:
    @pytest.mark.parametrize("name", sorted(EVERY_KERNEL))
    def test_read_only_inputs_and_upstream(self, rng, name):
        # any write into a caller's array, a parameter or the upstream
        # gradient raises, because every one of them is read-only here
        build, shapes = EVERY_KERNEL[name]
        inputs = [Tensor(_read_only(rng.normal(size=s)), requires_grad=True)
                  for s in shapes]
        out = build(*inputs)
        out._backward_fn(_read_only(rng.normal(size=out.shape)))
        assert all(t.grad is not None for t in inputs)


class TestAdam:
    def test_zero_gradient_no_move(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        state = AdamState.for_param(p, TrainConfig(learning_rate=0.1))
        adam_step(p, state)
        np.testing.assert_array_equal(p.values, [1.0, -2.0])
        assert state.step == 1

    def test_single_step_closed_form(self):
        # m_hat = g, v_hat = g^2 on the first step, so the move is
        # -lr * g / (|g| + eps) = -0.1 / (1 + 1e-8)
        p = Tensor(np.array([0.0]), requires_grad=True)
        p.grad = np.array([1.0])
        adam_step(p, AdamState.for_param(p, TrainConfig(learning_rate=0.1)))
        assert p.values[0] == pytest.approx(-0.1 / (1.0 + 1e-8), rel=1e-12)

    def test_missing_gradient_rejected(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        with pytest.raises(ValueError, match="grad"):
            adam_step(p, AdamState.for_param(p, TrainConfig()))

    def test_deterministic(self, rng):
        runs = []
        for _ in range(2):
            r = np.random.default_rng(7)
            p = Tensor(r.normal(size=5), requires_grad=True)
            state = AdamState.for_param(p, TrainConfig(learning_rate=0.01))
            for _ in range(10):
                p.grad = p.values * 2.0
                adam_step(p, state)
                p.zero_grad()
            runs.append(p.values.copy())
        np.testing.assert_array_equal(runs[0], runs[1])


class TestStructuralOps:
    def test_shift_right(self):
        x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        out = shift_right(x)
        np.testing.assert_array_equal(out.values, [[0, 0], [0, 1], [2, 3]])
        backward(mse(out, np.zeros((3, 2))))
        assert np.all(x.grad[-1] == 0)

    def test_shift_right_gradient(self, rng):
        x0 = rng.uniform(-2, 2, (4, 3))
        w = rng.uniform(-1, 1, (4, 3))
        check_gradient(lambda a: mse(shift_right(a), w), x0, rtol=1e-6)

    def test_slice_rows_gradient(self, rng):
        x0 = rng.uniform(-2, 2, (5, 3))
        w = rng.uniform(-1, 1, (2, 3))
        check_gradient(lambda a: mse(slice_rows(a, 2), w), x0, rtol=1e-6)

    @pytest.mark.parametrize("shape", MODEL_SHAPES, ids=str)
    def test_gelu_equals_old_formulas(self, rng, shape):
        x0, g = rng.normal(size=shape), rng.normal(size=shape)
        x = Tensor(x0, requires_grad=True)
        out = gelu(x)
        out._backward_fn(g)
        cdf = 0.5 * (1.0 + erf(x0 * (1.0 / np.sqrt(2.0))))
        pdf = np.exp(-0.5 * x0 * x0) * (1.0 / np.sqrt(2.0 * np.pi))
        np.testing.assert_array_equal(out.values, x0 * cdf)
        np.testing.assert_array_equal(x.grad, g * (cdf + x0 * pdf))

    def test_gelu_gradient(self, rng):
        x0 = rng.uniform(-2, 2, (3, 4))
        w = rng.uniform(-1, 1, (3, 4))
        check_gradient(lambda a: mse(gelu(a), w), x0, rtol=1e-4)

    def test_dropout_zero_rate_identity(self, rng):
        x = Tensor(rng.uniform(-1, 1, (3, 3)))
        out = dropout(x, 0.0, np.random.default_rng(0))
        assert out is x

    def test_dropout_without_rng_identity(self, rng):
        x = Tensor(rng.uniform(-1, 1, (3, 3)))
        assert dropout(x, 0.5, None) is x

    def test_dropout_scales_kept_values(self):
        x = Tensor(np.ones((100, 100)))
        out = dropout(x, 0.5, np.random.default_rng(0))
        kept = out.values != 0.0
        np.testing.assert_allclose(out.values[kept], 2.0)
        assert 0.4 < kept.mean() < 0.6


class TestGradientSweep:
    """Every differentiable primitive against central differences on randoms."""

    def test_all_primitives(self):
        rng = np.random.default_rng(99)
        w43 = Tensor(rng.uniform(-2, 2, (4, 3)))
        gain = Tensor(rng.uniform(0.5, 1.5, 4))
        t54 = rng.uniform(-1, 1, (5, 4))
        t5w = padded(rng.uniform(-1, 1, (5, 5)))
        t53 = np.zeros((5, 3))
        t511 = rng.uniform(-1, 1, (5, 11))
        bias4 = Tensor(rng.uniform(-1, 1, 4))
        other = Tensor(rng.uniform(-1, 1, (5, 4)))
        cases = [
            lambda a: mse(matmul(a, w43), t53),
            lambda a: mse(attention_weights(a), t5w),
            lambda a: mse(layer_norm(a, gain, Tensor(np.zeros(4))), t54),
            lambda a: mse(linear_interp_upsample(a, 11), t511),
            lambda a: mse(gelu(a), t54),
            lambda a: mse(add(a, bias4), t54),
            lambda a: mse(sub(other, a), t54),
            lambda a: mse(mul(a, other), t54),
        ]
        for i, case in enumerate(cases):
            x0 = rng.uniform(-2, 2, (5, 4))
            err = check_gradient(case, x0, rtol=1e-4)
            assert err < 1e-4, f"case {i}"
