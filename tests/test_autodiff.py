import sys
import threading

import numpy as np
import pytest

from tokencast.autodiff import (
    AdamState,
    Tensor,
    adam_step,
    add,
    backward,
    dropout,
    gelu,
    layer_norm,
    linear_interp_upsample,
    matmul,
    max_pool_within_token,
    mse,
    mul,
    no_grad,
    reshape,
    shift_right,
    slice_rows,
    softmax_lastdim,
    sub,
    swap_axes,
)
from tokencast.errors import ConfigError, ShapeError
from tokencast.train import TrainConfig

from conftest import central_difference, check_gradient, relative_error


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
        with pytest.raises(ShapeError):
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
    """(..., L, k) @ (k, n): backward folds the leading dimensions into one
    GEMM per operand."""

    CASES = {
        "3d": ((3, 4, 5), (5, 2), False),
        "4d": ((2, 3, 4, 5), (5, 2), False),
        # the upstream gradient reaches matmul as a non-contiguous view
        "3d_swapped_upstream": ((3, 4, 5), (5, 2), True),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("wrt", ["a", "b", "both"])
    def test_finite_differences(self, rng, case, wrt):
        shape_a, shape_b, swapped = self.CASES[case]
        a0 = rng.uniform(-2, 2, shape_a)
        b0 = rng.uniform(-2, 2, shape_b)
        out_shape = shape_a[:-1] + shape_b[-1:]
        if swapped:
            out_shape = out_shape[:-2] + out_shape[:-3:-1]
        target = rng.uniform(-1, 1, out_shape)

        def loss_of(a, b):
            out = matmul(a, b)
            if swapped:
                out = swap_axes(out, -1, -2)
            return mse(out, target)

        a = Tensor(a0.copy(), requires_grad=wrt in ("a", "both"))
        b = Tensor(b0.copy(), requires_grad=wrt in ("b", "both"))
        backward(loss_of(a, b))
        if wrt in ("a", "both"):
            numeric = central_difference(
                lambda x: float(loss_of(Tensor(x), Tensor(b0)).values), a0.copy())
            assert relative_error(a.grad, numeric) < 1e-6
        else:
            assert a.grad is None
        if wrt in ("b", "both"):
            numeric = central_difference(
                lambda x: float(loss_of(Tensor(a0), Tensor(x)).values), b0.copy())
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
    def test_symmetry(self):
        out = softmax_lastdim(Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.values, [0.5, 0.5], rtol=0, atol=0)

    def test_known_values(self):
        # frozen from a 40-digit exp/sum evaluation
        expected = [0.090030573170380457998, 0.24472847105479765247, 0.66524095577482188953]
        out = softmax_lastdim(Tensor([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out.values, expected, rtol=1e-15)

    def test_no_overflow(self):
        out = softmax_lastdim(Tensor([1000.0, 0.0]))
        assert np.all(np.isfinite(out.values))
        np.testing.assert_allclose(out.values, [1.0, 0.0], atol=1e-300)

    def test_rows_sum_to_one(self, rng):
        x = rng.uniform(-2, 2, (6, 9))
        out = softmax_lastdim(Tensor(x))
        np.testing.assert_allclose(out.values.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
        assert np.all(out.values >= 0) and np.all(out.values <= 1)

    def test_mask_forces_exact_zero(self, rng):
        x = rng.uniform(-2, 2, (4, 4))
        mask = np.triu(np.ones((4, 4), dtype=bool), k=1)
        out = softmax_lastdim(Tensor(x), mask=mask)
        assert np.all(out.values[mask] == 0.0)
        np.testing.assert_allclose(out.values.sum(axis=-1), 1.0, atol=1e-12)

    def test_gradient(self, rng):
        x0 = rng.uniform(-2, 2, (3, 5))
        w = rng.uniform(-1, 1, (3, 5))
        check_gradient(lambda a: mse(softmax_lastdim(a), w), x0, rtol=1e-4)

    def test_masked_gradient(self, rng):
        x0 = rng.uniform(-2, 2, (4, 4))
        mask = np.triu(np.ones((4, 4), dtype=bool), k=1)
        w = rng.uniform(-1, 1, (4, 4))
        check_gradient(lambda a: mse(softmax_lastdim(a, mask=mask), w), x0, rtol=1e-4)


class TestLayerNorm:
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

    def test_no_grad_suppresses_tape(self):
        x = Tensor(3.0, requires_grad=True)
        with no_grad():
            out = mul(x, x)
        assert not out.requires_grad
        assert out._backward_fn is None

    def test_no_grad_is_per_thread(self):
        # more threads than cores and a short switch interval, so threads
        # interleave inside and outside their no_grad blocks
        x = Tensor(np.ones((3, 3)), requires_grad=True)
        workers = 8
        rounds = 300
        errors: list[str] = []
        start = threading.Barrier(workers + 1, timeout=30)

        def worker():
            start.wait()
            for _ in range(rounds):
                with no_grad():
                    if mul(x, x).requires_grad:
                        errors.append("recorded inside no_grad")
                if not mul(x, x).requires_grad:
                    errors.append("worker stopped recording outside no_grad")

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(workers)]
            for t in threads:
                t.start()
            start.wait()
            while any(t.is_alive() for t in threads):
                if not mul(x, x).requires_grad:
                    errors.append("main thread stopped recording")
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(old)
        assert errors == []
        out = mul(x, x)
        assert out.requires_grad and out._backward_fn is not None


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

    def test_reshape_swap_roundtrip(self, rng):
        x0 = rng.uniform(-2, 2, (2, 3, 4))
        w = rng.uniform(-1, 1, (2, 4, 3))
        check_gradient(lambda a: mse(swap_axes(a, -1, -2), w), x0, rtol=1e-6)
        check_gradient(lambda a: mse(reshape(a, (6, 4)), w.reshape(6, 4)), x0, rtol=1e-6)

    def test_gelu_gradient(self, rng):
        x0 = rng.uniform(-2, 2, (3, 4))
        w = rng.uniform(-1, 1, (3, 4))
        check_gradient(lambda a: mse(gelu(a), w), x0, rtol=1e-4)

    def test_dropout_zero_rate_identity(self, rng):
        x = Tensor(rng.uniform(-1, 1, (3, 3)))
        out = dropout(x, 0.0, np.random.default_rng(0))
        assert out is x

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
        t53 = np.zeros((5, 3))
        t511 = rng.uniform(-1, 1, (5, 11))
        bias4 = Tensor(rng.uniform(-1, 1, 4))
        other = Tensor(rng.uniform(-1, 1, (5, 4)))
        cases = [
            lambda a: mse(matmul(a, w43), t53),
            lambda a: mse(softmax_lastdim(a), t54),
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
