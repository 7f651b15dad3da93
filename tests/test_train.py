import numpy as np
import pytest

from tokencast.autodiff import Tensor, adam_step, AdamState, backward
from tokencast.checkpoint import serialize
from tokencast.data import (
    DatasetSplit,
    MultivariateSeries,
    NoiseComponent,
    SineComponent,
    SynthSpec,
    build_mixed_dataset,
    sample_windows,
    synth_generate,
)
from tokencast.errors import ConfigError
from tokencast.model import ModelConfig, init_model, parameter_layout
from tokencast.train import (
    EpochStats,
    TrainConfig,
    _batch_loss,
    ar_loss,
    finetune_heads,
    loss_curve_to_csv,
    pretrain,
)

TINY_MODEL = ModelConfig(num_stages=2, pool_kernels=(2, 1), token_len=4, max_tokens=3,
                         model_width=6, layers_per_stage=1, attention_heads=2,
                         feedforward_width=8, seed=5)


def mixed_from(series_list, role, ratios=(0.7, 0.1, 0.2)):
    from tokencast.data import chronological_split
    return build_mixed_dataset(
        [(s, chronological_split(s, *ratios)) for s in series_list], role
    )


def sine_series(name, period, length=400, channels=2, sigma=0.05, seed=0):
    spec = SynthSpec(name, length=length, channels=channels,
                     components=[SineComponent(period), NoiseComponent(sigma)])
    return synth_generate(spec, seed=seed)


class TestArLoss:
    # mu = 0 and scale = 1 leave both sides in normalized space exactly
    UNIT = dict(mu=np.array(0.0), scale=np.array(1.0))

    def test_perfect_prediction_zero_loss(self, rng):
        tokens = rng.normal(size=(3, 4))
        future = rng.normal(size=4)
        pred = np.concatenate([tokens[1:], future[None, :]], axis=0)
        assert ar_loss(Tensor(pred), tokens, future, **self.UNIT).item() == 0.0

    def test_two_token_target_assembly(self):
        tokens = np.array([[1.0, 2.0], [3.0, 4.0]])
        future = np.array([5.0, 6.0])
        pred = np.zeros((2, 2))
        # target = [token 2, future token]; MSE = mean of squares
        expected = np.mean(np.array([3.0, 4.0, 5.0, 6.0]) ** 2)
        assert ar_loss(Tensor(pred), tokens, future, **self.UNIT).item() == pytest.approx(expected)

    def test_matches_hand_mse(self, rng):
        tokens = rng.normal(size=(2, 3))
        future = rng.normal(size=3)
        pred = rng.normal(size=(2, 3))
        target = np.vstack([tokens[1], future])
        expected = np.mean((pred - target) ** 2)
        got = ar_loss(Tensor(pred), tokens, future, **self.UNIT).item()
        assert got == pytest.approx(expected, rel=1e-12)

    def test_denormalized_space(self, rng):
        tokens = rng.normal(size=(2, 3))
        future = rng.normal(size=3)
        pred = rng.normal(size=(2, 3))
        mu, scale = 2.0, 3.0
        target = np.vstack([tokens[1], future])
        expected = np.mean((pred * scale + mu - (target * scale + mu)) ** 2)
        got = ar_loss(Tensor(pred), tokens, future,
                      mu=np.array(mu), scale=np.array(scale)).item()
        assert got == pytest.approx(expected, rel=1e-12)


class TestPretrain:
    def test_constant_series_learned(self):
        series = MultivariateSeries("const", np.full((1, 200), 3.5))
        train = mixed_from([series], "train")
        val = mixed_from([series], "validation", ratios=(0.5, 0.3, 0.2))
        cfg = TrainConfig(epochs=50, batch_size=16, learning_rate=3e-3,
                          stride=1, patience=50, seed=0)
        ckpt, history = pretrain(TINY_MODEL, cfg, train, val)
        assert history[-1].val_mse < 1e-3 or min(h.val_mse for h in history) < 1e-3

    def test_deterministic_checkpoints(self):
        series = sine_series("s", 24, length=300)
        train = mixed_from([series], "train")
        val = mixed_from([series], "validation", ratios=(0.5, 0.3, 0.2))
        cfg = TrainConfig(epochs=2, batch_size=16, stride=4, seed=9)
        a, _ = pretrain(TINY_MODEL, cfg, train, val)
        b, _ = pretrain(TINY_MODEL, cfg, train, val)
        assert serialize(a) == serialize(b)

    def test_empty_dataset_rejected(self):
        series = MultivariateSeries("tiny", np.zeros((1, 10)))
        split = DatasetSplit((0, 6), (6, 8), (8, 10))
        train = build_mixed_dataset([(series, split)], "train")
        val = build_mixed_dataset([(series, split)], "validation")
        with pytest.raises(ConfigError, match="window"):
            pretrain(TINY_MODEL, TrainConfig(epochs=1), train, val)

    @staticmethod
    def split_mixed(train_len, val_len):
        # TINY_MODEL windows span 3 tokens of 4 plus one future token = 16
        series = sine_series("s", 8, length=train_len + val_len + 4, channels=1)
        split = DatasetSplit((0, train_len), (train_len, train_len + val_len),
                             (train_len + val_len, series.length))
        return (build_mixed_dataset([(series, split)], "train"),
                build_mixed_dataset([(series, split)], "validation"))

    @pytest.mark.parametrize("train_len, val_len, message", [
        (15, 16, "no training windows: need segments of at least 16 points"),
        (16, 15, "no validation windows: need segments of at least 16 points"),
    ])
    def test_missing_windows_rejected(self, train_len, val_len, message):
        train, val = self.split_mixed(train_len, val_len)
        with pytest.raises(ConfigError, match=message):
            pretrain(TINY_MODEL, TrainConfig(epochs=1), train, val)

    def test_one_window_per_segment_is_enough(self):
        # start 0 is always taken, whatever the stride
        train, val = self.split_mixed(16, 16)
        _, history = pretrain(TINY_MODEL, TrainConfig(epochs=1, stride=7), train, val)
        assert len(history) == 1

    def test_head_scope_rejected_for_pretrain(self):
        series = sine_series("s", 24, length=200)
        train = mixed_from([series], "train")
        val = mixed_from([series], "validation", ratios=(0.5, 0.3, 0.2))
        with pytest.raises(ConfigError, match="scope"):
            pretrain(TINY_MODEL, TrainConfig(epochs=1, scope="head"), train, val)

    def test_sine_beats_persistence_on_validation(self):
        from tokencast.evaluate import naive_baselines

        series = sine_series("s", 24, length=500, sigma=0.05)
        train = mixed_from([series], "train")
        val = mixed_from([series], "validation", ratios=(0.6, 0.2, 0.2))
        cfg = TrainConfig(epochs=6, batch_size=16, stride=2, seed=1, patience=6)
        ckpt, history = pretrain(TINY_MODEL, cfg, train, val)
        best = min(h.val_mse for h in history)
        # persistence oracle on the same validation windows (lookback 12, next 4)
        windows = sample_windows(val, 12, 4, stride=2, seed=0)
        errs = naive_baselines(windows[:, :12], 4, 1)[0] - windows[:, 12:]
        persistence_mse = float(np.mean(np.square(errs)))
        assert best < persistence_mse

    def test_metadata_records_sources(self):
        a = sine_series("alpha", 24, length=200)
        b = sine_series("beta", 48, length=200)
        train = mixed_from([a, b], "train")
        val = mixed_from([a, b], "validation", ratios=(0.5, 0.3, 0.2))
        ckpt, _ = pretrain(TINY_MODEL, TrainConfig(epochs=1, stride=8), train, val)
        assert ckpt.metadata["train_sources"] == "alpha,beta"
        assert ckpt.metadata["scope"] == "all"


class TestLossDescent:
    def fixture_batch(self):
        series = sine_series("s", 24, length=300, sigma=0.02)
        mixed = mixed_from([series], "train")
        return sample_windows(mixed, 12, 4, stride=5, seed=0)[:16]

    def test_single_step_decreases_batch_loss(self):
        params = init_model(TINY_MODEL)
        batch = self.fixture_batch()
        states = {n: AdamState.for_param(t, TrainConfig(learning_rate=1e-4))
                  for n, t in params.arrays.items()}
        before = _batch_loss(params, batch)
        for t in params.arrays.values():
            t.zero_grad()
        backward(before)
        for n, t in params.arrays.items():
            adam_step(t, states[n])
        after = _batch_loss(params, batch)
        assert float(after.values) <= float(before.values) + 1e-12

    def test_repeated_batch_monotone_after_warmup(self):
        params = init_model(TINY_MODEL)
        batch = self.fixture_batch()
        states = {n: AdamState.for_param(t, TrainConfig(learning_rate=3e-4))
                  for n, t in params.arrays.items()}
        losses = []
        for _ in range(25):
            loss = _batch_loss(params, batch)
            losses.append(float(loss.values))
            for t in params.arrays.values():
                t.zero_grad()
            backward(loss)
            for n, t in params.arrays.items():
                adam_step(t, states[n])
        for i in range(5, len(losses) - 1):
            assert losses[i + 1] <= losses[i] + 1e-12


class TestFinetune:
    def pretrained(self):
        series = sine_series("src", 24, length=300)
        train = mixed_from([series], "train")
        val = mixed_from([series], "validation", ratios=(0.5, 0.3, 0.2))
        ckpt, _ = pretrain(TINY_MODEL, TrainConfig(epochs=2, stride=4, seed=1),
                           train, val)
        return ckpt

    def target_mixed(self):
        series = sine_series("tgt", 48, length=300, seed=4)
        return (mixed_from([series], "train"),
                mixed_from([series], "validation", ratios=(0.5, 0.3, 0.2)))

    def test_zero_epochs_identity(self):
        ckpt = self.pretrained()
        train, val = self.target_mixed()
        tuned, history = finetune_heads(
            ckpt, TrainConfig(epochs=0, scope="head"), train, val
        )
        assert history == []
        for name in ckpt.arrays:
            np.testing.assert_array_equal(tuned.arrays[name], ckpt.arrays[name])

    def test_only_heads_move(self):
        ckpt = self.pretrained()
        train, val = self.target_mixed()
        tuned, _ = finetune_heads(
            ckpt, TrainConfig(epochs=2, stride=4, scope="head", patience=10), train, val
        )
        changed = []
        for name, _, scope in parameter_layout(ckpt.config):
            same = np.array_equal(tuned.arrays[name], ckpt.arrays[name])
            if scope == "non-head":
                assert same, f"non-head array {name} was mutated"
            elif not same:
                changed.append(name)
        assert changed, "no head array changed during fine-tuning"

    def test_full_scope_may_move_everything(self):
        ckpt = self.pretrained()
        train, val = self.target_mixed()
        tuned, _ = finetune_heads(
            ckpt, TrainConfig(epochs=1, stride=4, scope="all", patience=10), train, val
        )
        moved = [n for n, _, scope in parameter_layout(ckpt.config) if scope == "non-head"
                 and not np.array_equal(tuned.arrays[n], ckpt.arrays[n])]
        assert moved

    def test_metadata_updated(self):
        ckpt = self.pretrained()
        train, val = self.target_mixed()
        tuned, _ = finetune_heads(
            ckpt, TrainConfig(epochs=1, stride=4, scope="head"), train, val
        )
        assert tuned.metadata["scope"] == "head"
        assert tuned.metadata["finetuned_on"] == "tgt"
        assert tuned.metadata["train_sources"] == ckpt.metadata["train_sources"]


class TestLossCurve:
    def test_csv_format(self):
        history = [EpochStats(1, 0.5, 0.6), EpochStats(2, 0.25, 0.3)]
        text = loss_curve_to_csv(history)
        assert text.startswith("epoch,train_mse,val_mse\r\n")
        lines = text.strip().splitlines()
        assert lines[0] == "epoch,train_mse,val_mse"
        assert lines[1].startswith("1,0.5,0.6")
