import numpy as np
import pytest

from tokencast.errors import ConfigError, DataError, InputTooShortError
import tokencast.infer as infer
from tokencast.infer import (
    ForecastRequest,
    _decode_batch,
    ar_forecast,
)
from tokencast.model import ModelConfig, init_model, paper_preset
from tokencast.preprocess import instance_normalize

T48_MODEL = ModelConfig(num_stages=1, pool_kernels=(2,), token_len=48, max_tokens=7,
                        model_width=8, layers_per_stage=1, attention_heads=2,
                        feedforward_width=8, seed=2)

TINY = ModelConfig(num_stages=2, pool_kernels=(2, 1), token_len=4, max_tokens=3,
                   model_width=6, layers_per_stage=1, attention_heads=2,
                   feedforward_width=8, seed=7)


@pytest.fixture(scope="module")
def t48_params():
    return init_model(T48_MODEL)


@pytest.fixture(scope="module")
def tiny_params():
    return init_model(TINY)


class TestDecodeSteps:
    @pytest.mark.parametrize("horizon,steps", [(96, 2), (720, 15), (100, 3)])
    def test_step_counts(self, t48_params, rng, horizon, steps):
        lookback = rng.normal(size=(1, 7 * 48))
        result = ar_forecast(t48_params, ForecastRequest(lookback, horizon))
        assert result.decode_steps == steps
        assert result.predictions.shape == (1, horizon)

    def test_step_bounds(self, tiny_params, rng):
        lookback = rng.normal(size=(1, 12))
        for horizon in (1, 4, 5, 9, 13):
            result = ar_forecast(tiny_params, ForecastRequest(lookback, horizon))
            assert result.decode_steps * 4 >= horizon
            assert (result.decode_steps - 1) * 4 < horizon


class TestDecodeBehavior:
    def test_lookback_shorter_than_token(self, tiny_params):
        with pytest.raises(InputTooShortError):
            ar_forecast(tiny_params, ForecastRequest(np.zeros((1, 3)), 4))

    def test_nonfinite_lookback(self, tiny_params):
        bad = np.zeros((1, 12))
        bad[0, 3] = np.nan
        with pytest.raises(DataError):
            ar_forecast(tiny_params, ForecastRequest(bad, 4))

    def test_bad_horizon(self, tiny_params):
        with pytest.raises(ConfigError):
            ar_forecast(tiny_params, ForecastRequest(np.zeros((1, 12)), 0))

    def test_old_lookback_content_irrelevant(self, tiny_params, rng):
        # context is 3 tokens x 4 points = 12; older points must not matter
        lookback = rng.normal(size=(2, 40))
        other = lookback.copy()
        other[:, :-12] = rng.normal(size=(2, 28)) * 50.0
        a = ar_forecast(tiny_params, ForecastRequest(lookback, 8)).predictions
        b = ar_forecast(tiny_params, ForecastRequest(other, 8)).predictions
        np.testing.assert_array_equal(a, b)

    def test_horizon_prefix_property(self, tiny_params, rng):
        lookback = rng.normal(size=(1, 12))
        short = ar_forecast(tiny_params, ForecastRequest(lookback, 8)).predictions
        long = ar_forecast(tiny_params, ForecastRequest(lookback, 16)).predictions
        np.testing.assert_array_equal(long[:, :8], short)

    def test_affine_equivariance(self, tiny_params, rng):
        lookback = rng.normal(size=(1, 12)) * 2.0 + 1.0  # sigma >> eps
        base = ar_forecast(tiny_params, ForecastRequest(lookback, 8)).predictions
        scaled = ar_forecast(
            tiny_params, ForecastRequest(3.0 * lookback + 11.0, 8)
        ).predictions
        np.testing.assert_allclose(scaled, 3.0 * base + 11.0, rtol=1e-3)

    def test_remainder_truncation(self, tiny_params, rng):
        # 14 points: the 2 oldest are dropped before tokenization
        lookback = rng.normal(size=(1, 14))
        other = lookback.copy()
        other[:, :2] = 99.0
        a = ar_forecast(tiny_params, ForecastRequest(lookback, 4)).predictions
        b = ar_forecast(tiny_params, ForecastRequest(other, 4)).predictions
        np.testing.assert_array_equal(a, b)


class TestPerRowHorizons:
    HORIZONS = np.array([13, 13, 9, 6, 4, 1])  # token_len 4: 4, 4, 3, 2, 1, 1 steps

    def test_rows_match_solo_forecasts(self, tiny_params, rng):
        lookbacks = rng.normal(size=(6, 12))
        preds, mu, scale, steps = _decode_batch(tiny_params, lookbacks, 13,
                                                horizons=self.HORIZONS)
        assert preds.shape == (6, 13) and steps == 4
        for r, h in enumerate(self.HORIZONS):
            solo = ar_forecast(tiny_params, ForecastRequest(lookbacks[r], int(h)))
            np.testing.assert_array_equal(preds[r, :h], solo.predictions[0])
            assert np.isnan(preds[r, h:]).all()
            _, solo_mu, solo_scale = instance_normalize(lookbacks[r], 4, 3)
            assert mu[r] == solo_mu[0] and scale[r] == solo_scale[0]

    def test_rows_retire_from_the_batch(self, tiny_params, rng, monkeypatch):
        batch_rows = []
        real = infer.model_forward

        def spy(params, tokens):
            batch_rows.append(tokens.shape[0])
            return real(params, tokens)

        monkeypatch.setattr(infer, "model_forward", spy)
        _decode_batch(tiny_params, rng.normal(size=(6, 12)), 13, horizons=self.HORIZONS)
        assert batch_rows == [6, 4, 3, 2]

    @pytest.mark.parametrize("horizons", [[4, 13], [0, 13, 5], [13, 14, 5], [4, 8, 12],
                                          [13, 4, 5]])
    def test_bad_row_horizons(self, tiny_params, horizons):
        # one per row, each in [1, 13], non-increasing, the longest exactly 13
        with pytest.raises(ConfigError):
            _decode_batch(tiny_params, np.zeros((3, 12)), 13, horizons=np.array(horizons))


class TestBatchEqualsSoloAtModelWidth:
    """The model's widths reach BLAS kernels that width-6 and width-8 models
    never use, and a 1-token context takes a vector path of its own."""

    @pytest.fixture(scope="class")
    def params(self):
        return init_model(paper_preset(model_width=64, attention_heads=4,
                                       feedforward_width=128))

    @pytest.mark.parametrize("lookback", [48, 96, 336])  # 1, 2 and 7 tokens
    def test_rows_match_one_row_decodes(self, params, rng, lookback):
        lookbacks = rng.normal(size=(6, lookback))
        batched, _, _, _ = _decode_batch(params, lookbacks, 96)
        for r in range(6):
            solo, _, _, _ = _decode_batch(params, lookbacks[r:r + 1], 96)
            np.testing.assert_array_equal(batched[r], solo[0])

    def test_rows_of_a_large_batch_match_one_row_decodes(self, params, rng):
        # 224 rows of 7 tokens: one GEMM of their 1568 rows would be past the
        # size where OpenBLAS switches stage 1's 64 -> 12 head to a kernel
        # with other bits
        lookbacks = rng.normal(size=(224, 336)).cumsum(axis=1)
        batched, _, _, _ = _decode_batch(params, lookbacks, 48)
        for r in range(224):
            solo, _, _, _ = _decode_batch(params, lookbacks[r:r + 1], 48)
            np.testing.assert_array_equal(batched[r], solo[0])


class TestMultivariate:
    def test_duplicate_channel_identical_rows(self, tiny_params, rng):
        row = rng.normal(size=12)
        x = np.stack([row, row, rng.normal(size=12)])
        out = ar_forecast(tiny_params, ForecastRequest(x, 8)).predictions
        np.testing.assert_array_equal(out[0], out[1])
        assert not np.array_equal(out[0], out[2])

    def test_single_channel_matches_ar_forecast(self, tiny_params, rng):
        # a 1-D lookback is one channel
        row = rng.normal(size=12)
        a = ar_forecast(tiny_params, ForecastRequest(row, 6)).predictions
        b = ar_forecast(tiny_params, ForecastRequest(row[None, :], 6)).predictions
        assert a.shape == (1, 6)
        np.testing.assert_array_equal(a, b)

    def test_channel_permutation_equivariance(self, tiny_params, rng):
        x = rng.normal(size=(3, 12))
        perm = [2, 0, 1]
        out = ar_forecast(tiny_params, ForecastRequest(x, 8)).predictions
        out_perm = ar_forecast(tiny_params, ForecastRequest(x[perm], 8)).predictions
        np.testing.assert_array_equal(out_perm, out[perm])

    def test_stats_returned_per_channel(self, tiny_params, rng):
        x = rng.normal(size=(3, 12))
        _, mu, scale, _ = _decode_batch(tiny_params, x, 4)
        assert mu.shape == scale.shape == (3,)
        for c in range(3):
            assert mu[c] == pytest.approx(x[c].mean())
            assert scale[c] == pytest.approx(x[c].std(), rel=1e-4)

    def test_f_ordered_batch_matches_one_row_decodes(self, tiny_params, rng):
        # a multi-channel CSV loads F-ordered; its rows must decode as alone
        lookback = np.asfortranarray(rng.normal(size=(3, 40)))
        batched = ar_forecast(tiny_params, ForecastRequest(lookback, 9)).predictions
        for c in range(3):
            solo = ar_forecast(tiny_params, ForecastRequest(lookback[c].copy(), 9))
            np.testing.assert_array_equal(batched[c], solo.predictions[0])
