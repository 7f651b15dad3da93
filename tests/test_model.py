import numpy as np
import pytest

from tokencast import autodiff, model
from tokencast.autodiff import Tensor, backward, max_pool_within_token, mse
from tokencast.errors import ConfigError
from tokencast.model import (
    ModelConfig,
    causal_self_attention,
    count_parameters,
    init_model,
    model_forward,
    paper_preset,
    parameter_layout,
    stage_forward,
)

from conftest import central_difference, relative_error, residual_chain

TINY = ModelConfig(
    num_stages=2, pool_kernels=(2, 1), token_len=4, max_tokens=3,
    model_width=6, layers_per_stage=1, attention_heads=2,
    feedforward_width=8, seed=11,
)


def tiny_params():
    return init_model(TINY)


class TestConfig:
    def test_kernel_must_divide(self):
        with pytest.raises(ConfigError):
            ModelConfig(num_stages=1, pool_kernels=(5,), token_len=12)

    def test_kernel_count_must_match_stages(self):
        with pytest.raises(ConfigError):
            ModelConfig(num_stages=3, pool_kernels=(4, 1))

    def test_width_divisible_by_heads(self):
        with pytest.raises(ConfigError):
            ModelConfig(model_width=30, attention_heads=4)

    def test_paper_preset_shape(self):
        cfg = paper_preset(model_width=256, feedforward_width=512, attention_heads=8)
        assert cfg.num_stages == 4
        assert cfg.pool_kernels == (8, 4, 2, 1)
        assert cfg.token_len == 48 and cfg.max_tokens == 7
        assert cfg.layers_per_stage == 3

    @pytest.mark.parametrize("cfg", [
        TINY, ModelConfig(), paper_preset(model_width=16, attention_heads=2),
        ModelConfig(num_stages=3, pool_kernels=(6, 3, 1), token_len=12, max_tokens=5,
                    model_width=10, attention_heads=5, feedforward_width=7,
                    layers_per_stage=3)], ids=["tiny", "default", "paper", "odd"])
    def test_parameter_bound_is_the_layout_count(self, monkeypatch, cfg):
        size = sum(int(np.prod(shape)) for _, shape, _ in parameter_layout(cfg))
        monkeypatch.setattr(model, "MAX_ELEMENTS", size)
        ModelConfig(**vars(cfg))
        monkeypatch.setattr(model, "MAX_ELEMENTS", size - 1)
        with pytest.raises(ConfigError, match=f"would hold {size} parameters"):
            ModelConfig(**vars(cfg))


class TestInit:
    def test_deterministic(self):
        a, b = tiny_params(), tiny_params()
        assert list(a.arrays) == list(b.arrays)
        for name in a.arrays:
            np.testing.assert_array_equal(a.arrays[name].values, b.arrays[name].values)

    def test_single_stage_degenerate(self):
        cfg = ModelConfig(num_stages=1, pool_kernels=(1,), token_len=8,
                          model_width=8, attention_heads=2, feedforward_width=16)
        params = init_model(cfg)
        out = model_forward(params, np.zeros((3, 8)))
        assert out.prediction.shape == (3, 8)

    def test_paper_config_head_fraction(self):
        cfg = paper_preset(model_width=256, feedforward_width=512, attention_heads=8)
        params = init_model(cfg)
        head = count_parameters(params, "head")
        total = count_parameters(params, "all")
        assert head / total < 0.005
        assert head == sum((256 * (48 // k) + 48 // k) for k in (8, 4, 2, 1))

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            init_model(ModelConfig(num_stages=0, pool_kernels=()))

    def test_layout_lists_every_initialized_array(self):
        params = tiny_params()
        layout = parameter_layout(TINY)
        assert [name for name, _, _ in layout] == list(params.arrays)
        for name, shape, _ in layout:
            assert params.arrays[name].shape == shape
        assert sorted(params.trainable("head")) == sorted(
            n for n in params.arrays if ".head." in n)


class TestCountParameters:
    def test_hand_counted_head(self):
        cfg = ModelConfig(num_stages=1, pool_kernels=(1,), token_len=4,
                          model_width=8, attention_heads=2, feedforward_width=8)
        params = init_model(cfg)
        assert count_parameters(params, "head") == 8 * 4 + 4

    def test_partition(self):
        params = tiny_params()
        total = sum(t.size for t in params.arrays.values())
        assert count_parameters(params, "all") == total
        assert (
            count_parameters(params, "head") + count_parameters(params, "non-head")
            == total
        )

    def test_unknown_scope(self):
        with pytest.raises(ConfigError, match="unknown scope 'everything'"):
            count_parameters(tiny_params(), "everything")
        with pytest.raises(ConfigError, match="unknown scope 'bogus'"):
            tiny_params().trainable("bogus")


class TestAttention:
    def weights(self, rng, d):
        names = ("wq", "wk", "wv", "wo")
        w = {n: Tensor(rng.normal(0, 0.3, (d, d))) for n in names}
        w.update({b: Tensor(np.zeros(d)) for b in ("bq", "bk", "bv", "bo")})
        return w

    def test_single_position(self, rng):
        w = self.weights(rng, 6)
        h = rng.normal(size=(1, 6))
        out = causal_self_attention(Tensor(h), w, 2)
        assert out.shape == (1, 6)

    def test_no_peeking_bit_exact(self, rng):
        w = self.weights(rng, 6)
        h = rng.normal(size=(5, 6))
        base = causal_self_attention(Tensor(h), w, 2).values
        for j in range(1, 5):
            h2 = h.copy()
            h2[j:] += rng.normal(size=h2[j:].shape)
            out = causal_self_attention(Tensor(h2), w, 2).values
            np.testing.assert_array_equal(out[:j], base[:j])

    def test_uniform_values_pass_through(self, rng):
        d = 6
        u = rng.normal(size=d)
        w = self.weights(rng, d)
        w["wv"] = Tensor(np.zeros((d, d)))
        w["bv"] = Tensor(u)
        w["wo"] = Tensor(np.eye(d))
        out = causal_self_attention(Tensor(rng.normal(size=(4, d))), w, 2).values
        np.testing.assert_allclose(out, np.tile(u, (4, 1)), atol=1e-12)


class TestSharedCaches:
    # every forward, in every evaluate worker, reads the one cached array, so
    # an in-place write would corrupt every later forward
    @pytest.mark.parametrize("cached", [lambda: autodiff._interp_matrix(3, 7),
                                        lambda: model._causal_mask(4)],
                             ids=["interp_matrix", "causal_mask"])
    def test_cached_array_is_read_only(self, cached):
        array = cached()
        assert array is cached()
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = array[0, 1]


class TestStageForward:
    def test_extreme_pooling_broadcasts(self, rng):
        cfg = ModelConfig(num_stages=1, pool_kernels=(4,), token_len=4,
                          max_tokens=3, model_width=8, attention_heads=2,
                          feedforward_width=8, seed=1)
        params = init_model(cfg)
        tokens = Tensor(rng.normal(size=(3, 4)))
        assert max_pool_within_token(tokens, cfg.pool_kernels[0]).shape == (3, 1)
        prediction = stage_forward(params, 0, tokens).values
        # one scalar per position, broadcast across the whole token
        spread = prediction.max(axis=-1) - prediction.min(axis=-1)
        np.testing.assert_allclose(spread, 0.0, atol=1e-12)

    def test_unit_kernel_identity_pool(self, rng):
        params = tiny_params()
        tokens = rng.normal(size=(3, 4))
        k = params.config.pool_kernels[1]  # stage 1 has k=1
        np.testing.assert_array_equal(max_pool_within_token(Tensor(tokens), k).values,
                                      tokens)

    def test_causality_over_suffix_perturbations(self, rng):
        params = tiny_params()
        tokens = rng.normal(size=(3, 4))
        base = stage_forward(params, 0, Tensor(tokens)).values
        for j in range(1, 3):
            t2 = tokens.copy()
            t2[j:] += rng.normal(size=t2[j:].shape)
            out = stage_forward(params, 0, Tensor(t2)).values
            np.testing.assert_array_equal(out[:j], base[:j])

    def test_context_overflow_rejected(self, rng):
        with pytest.raises(ConfigError, match="max context"):
            stage_forward(tiny_params(), 0, Tensor(rng.normal(size=(4, 4))))


def assert_stages_ran_on(params, chain, out):
    """Each stage, run alone on its rebuilt input, gives out.stages bit for bit."""
    assert len(out.stages) == params.config.num_stages == len(chain) - 1
    for i, prediction in enumerate(out.stages):
        np.testing.assert_array_equal(
            stage_forward(params, i, Tensor(chain[i])).values, prediction.values)


class TestModelForward:
    def test_single_stage_sum_degenerate(self, rng):
        cfg = ModelConfig(num_stages=1, pool_kernels=(2,), token_len=4,
                          max_tokens=3, model_width=6, attention_heads=2,
                          feedforward_width=8, seed=4)
        params = init_model(cfg)
        tokens = rng.normal(size=(3, 4))
        out = model_forward(params, tokens)
        np.testing.assert_array_equal(out.prediction.values, out.stages[0].values)
        np.testing.assert_array_equal(
            out.prediction.values, stage_forward(params, 0, Tensor(tokens)).values)

    def test_zero_heads_zero_output_same_stage_inputs(self, rng):
        params = tiny_params()
        for t in params.trainable("head").values():
            t.values[:] = 0.0
        tokens = rng.normal(size=(3, 4))
        out = model_forward(params, tokens)
        np.testing.assert_array_equal(out.prediction.values, np.zeros((3, 4)))
        chain = residual_chain(tokens, out.stages)
        assert_stages_ran_on(params, chain, out)
        for stage_input in chain:
            np.testing.assert_array_equal(stage_input, tokens)

    def test_first_token_invariant_across_stages(self, rng):
        params = tiny_params()
        tokens = rng.normal(size=(3, 4))
        out = model_forward(params, tokens)
        chain = residual_chain(tokens, out.stages)
        assert_stages_ran_on(params, chain, out)
        for stage_input in chain:  # every stage input, then the final residual
            np.testing.assert_array_equal(stage_input[0], tokens[0])

    def test_residual_telescoping(self, rng):
        params = tiny_params()
        tokens = rng.normal(size=(3, 4))
        out = model_forward(params, tokens)
        chain = residual_chain(tokens, out.stages)
        assert_stages_ran_on(params, chain, out)
        shifted = np.zeros_like(tokens)
        shifted[1:] = out.prediction.values[:-1]
        np.testing.assert_allclose(tokens - shifted, chain[-1], atol=1e-10)

    def test_full_model_causality_bit_exact(self, rng):
        params = tiny_params()
        tokens = rng.normal(size=(3, 4))
        base = model_forward(params, tokens).prediction.values
        for j in range(1, 3):
            t2 = tokens.copy()
            t2[j:] += rng.normal(size=t2[j:].shape)
            out = model_forward(params, t2).prediction.values
            np.testing.assert_array_equal(out[:j], base[:j])

    def test_deterministic_without_dropout(self, rng):
        params = tiny_params()
        tokens = rng.normal(size=(3, 4))
        a = model_forward(params, tokens).prediction.values
        b = model_forward(params, tokens).prediction.values
        np.testing.assert_array_equal(a, b)

    def test_batched_matches_single(self, rng):
        params = tiny_params()
        tokens = rng.normal(size=(5, 3, 4))
        batched = model_forward(params, tokens).prediction.values
        for b in range(5):
            single = model_forward(params, tokens[b]).prediction.values
            np.testing.assert_array_equal(batched[b], single)

    def test_dropout_is_applied_when_configured(self, rng):
        cfg = ModelConfig(num_stages=1, pool_kernels=(1,), token_len=4,
                          max_tokens=3, model_width=8, attention_heads=2,
                          feedforward_width=8, dropout_rate=0.5, seed=2)
        params = init_model(cfg)
        tokens = rng.normal(size=(3, 4))
        a = model_forward(params, tokens, rng=np.random.default_rng(0)).prediction.values
        b = model_forward(params, tokens, rng=np.random.default_rng(1)).prediction.values
        assert not np.array_equal(a, b)


class TestFullModelGradients:
    def test_every_parameter_matches_finite_differences(self, rng):
        params = tiny_params()
        for t in params.arrays.values():  # unfrozen as training would
            t.requires_grad = True
        assert count_parameters(params, "all") <= 2000
        tokens = rng.normal(size=(3, 4))
        target = rng.normal(size=(3, 4))

        loss = mse(model_forward(params, tokens).prediction, target)
        backward(loss)

        def loss_at(name):
            def f(x):
                saved = params.arrays[name].values
                params.arrays[name].values = x
                out = float(mse(model_forward(params, tokens).prediction, target).values)
                params.arrays[name].values = saved
                return out
            return f

        worst = 0.0
        for name, tensor in params.arrays.items():
            numeric = central_difference(loss_at(name), tensor.values.copy(), step=1e-5)
            err = relative_error(tensor.grad, numeric)
            worst = max(worst, err)
            assert err < 1e-3, f"{name}: rel err {err:.2e}"
        assert worst < 1e-3
