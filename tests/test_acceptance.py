"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The training-based criteria use fixed seeds and small budgets calibrated to
finish the whole suite in a few minutes on one CPU.
"""

import time

import numpy as np
import pytest

from tokencast.autodiff import Tensor, backward, causal_attention, gelu, layer_norm, linear, linear_interp_upsample, max_pool_within_token, mse
from tokencast.checkpoint import checkpoint_hash, from_params, load_checkpoint, serialize
from tokencast.cli import main
from tokencast.data import (
    NoiseComponent,
    SineComponent,
    SynthSpec,
    TrendComponent,
    build_mixed_dataset,
    chronological_split,
    synth_generate,
)
from tokencast.errors import ProtocolError
from tokencast.evaluate import EvalSettings, evaluate, run_protocol
from tokencast.infer import ForecastRequest, ar_forecast
from tokencast.model import (
    ModelConfig,
    count_parameters,
    init_model,
    model_forward,
    paper_preset,
    parameter_layout,
    stage_forward,
)
from tokencast.preprocess import denormalize, instance_normalize
from tokencast.train import TrainConfig, finetune_heads, pretrain

from conftest import central_difference, naive_baselines, relative_error, residual_chain


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def make_source(name, components, length=4000, channels=4, seed=0,
                ratios=(0.7, 0.1, 0.2)):
    series = synth_generate(SynthSpec(name, length=length, channels=channels,
                                      components=components, seed=seed))
    return series, chronological_split(series, *ratios)


NOISE = NoiseComponent(0.1)


@pytest.fixture(scope="module")
def mixture():
    """Criterion-6 dataset: 3 sine sources (periods 24/48/96), 4 channels, 4000 points."""
    return [
        make_source("p24", [SineComponent(24, 1.0), NOISE], seed=100),
        make_source("p48", [SineComponent(48, 1.0), NOISE], seed=101),
        make_source("p96", [SineComponent(96, 1.0), NOISE], seed=102),
    ]


@pytest.fixture(scope="module")
def mixture_models(mixture):
    """Lazy cache of models pretrained on the mixture, keyed by (stages, seed)."""
    train = build_mixed_dataset(mixture, "train")
    val = build_mixed_dataset(mixture, "validation")
    cache = {}

    def get(stages: int, seed: int):
        key = (stages, seed)
        if key not in cache:
            if stages == 1:
                cfg = ModelConfig(num_stages=1, pool_kernels=(1,), seed=seed)
            else:
                cfg = ModelConfig(seed=seed)
            t0 = time.time()
            ckpt, _ = pretrain(
                cfg,
                TrainConfig(epochs=8, batch_size=64, stride=8, seed=seed, patience=4),
                train, val,
            )
            cache[key] = (ckpt, time.time() - t0)
        return cache[key]

    return get


@pytest.fixture(scope="module")
def humility_ckpt():
    """Criterion-8/9 checkpoint: periodic content only at periods 24 and 96."""
    sources = [
        make_source("s24", [SineComponent(24, 1.0), NOISE], seed=200),
        make_source("s96", [SineComponent(96, 1.0), NOISE], seed=201),
        make_source("duo", [SineComponent(24, 0.7), SineComponent(96, 0.7), NOISE], seed=202),
        make_source("rw", [NoiseComponent(0.5)], seed=203),
        make_source("trend", [TrendComponent(0.003), NoiseComponent(0.2)], seed=204),
    ]
    train = build_mixed_dataset(sources, "train")
    val = build_mixed_dataset(sources, "validation")
    ckpt, _ = pretrain(
        ModelConfig(seed=0),
        TrainConfig(epochs=8, batch_size=64, stride=10, seed=0, patience=4),
        train, val,
    )
    return ckpt


def persistence_fn(lookbacks, horizon):
    return naive_baselines(lookbacks, horizon, 1)[0]


TINY = ModelConfig(num_stages=2, pool_kernels=(2, 1), token_len=4, max_tokens=3,
                   model_width=6, layers_per_stage=1, attention_heads=2,
                   feedforward_width=8, seed=11)


class TestCriterion1Gradients:
    def test_gradient_correctness(self):
        started = time.time()
        rng = np.random.default_rng(42)
        worst_primitive = 0.0

        def check(build, x0, name):
            nonlocal worst_primitive
            leaf = Tensor(x0, requires_grad=True)
            backward(build(leaf))
            numeric = central_difference(
                lambda x: float(build(Tensor(x)).values), x0.copy(), step=1e-5
            )
            err = relative_error(leaf.grad, numeric)
            worst_primitive = max(worst_primitive, err)
            assert err < 1e-3, f"{name}: rel err {err:.2e}"

        w = Tensor(rng.uniform(-2, 2, (4, 3)))
        t53 = rng.uniform(-1, 1, (5, 3))
        t54 = rng.uniform(-1, 1, (5, 4))
        t59 = rng.uniform(-1, 1, (5, 9))
        gain, bias = Tensor(rng.uniform(0.5, 1.5, 4)), Tensor(rng.uniform(-0.5, 0.5, 4))
        pool_x = rng.permutation(20).astype(np.float64).reshape(5, 4) / 3.0
        keys, values = Tensor(t54), Tensor(t54[::-1].copy())
        causal = np.triu(np.ones((5, 5), dtype=bool), k=1)
        check(lambda a: mse(linear(a, w, Tensor(np.zeros(3))), t53), rng.uniform(-2, 2, (5, 4)),
              "linear")
        check(lambda a: mse(causal_attention(a, keys, values, 2, causal), t54),
              rng.uniform(-2, 2, (5, 4)), "attention")
        check(lambda a: mse(layer_norm(a, gain, bias), t54), rng.uniform(-2, 2, (5, 4)), "layer_norm")
        check(lambda a: mse(max_pool_within_token(a, 2), t54[:, :2]), pool_x, "max_pool")
        check(lambda a: mse(linear_interp_upsample(a, 9), t59), rng.uniform(-2, 2, (5, 4)), "upsample")
        check(lambda a: mse(gelu(a), t54), rng.uniform(-2, 2, (5, 4)), "gelu")
        check(lambda a: mse(a, t54), rng.uniform(-2, 2, (5, 4)), "mse")

        # full auto-regressive loss of a sub-2k-parameter model
        params = init_model(TINY)
        for t in params.arrays.values():  # unfrozen as training would
            t.requires_grad = True
        n_params = count_parameters(params, "all")
        assert n_params <= 2000
        tokens = rng.uniform(-2, 2, (3, 4))
        target = rng.uniform(-2, 2, (3, 4))
        loss = mse(model_forward(params, tokens).prediction, target)
        backward(loss)
        worst_model = 0.0
        for name, tensor in params.arrays.items():
            def loss_at(x, _name=name):
                saved = params.arrays[_name].values
                params.arrays[_name].values = x
                out = float(mse(model_forward(params, tokens).prediction, target).values)
                params.arrays[_name].values = saved
                return out
            numeric = central_difference(loss_at, tensor.values.copy(), step=1e-5)
            err = relative_error(tensor.grad, numeric)
            worst_model = max(worst_model, err)
            assert err < 1e-3, f"{name}: rel err {err:.2e}"
        elapsed = time.time() - started
        report(1, elapsed < 60.0 and worst_model < 1e-3,
               f"primitives rel err <= {worst_primitive:.1e}, full model "
               f"({n_params} params) <= {worst_model:.1e}, {elapsed:.1f}s")


class TestCriterion2Causality:
    def test_causality_suite(self):
        rng = np.random.default_rng(7)
        variants = [
            dict(num_stages=1, pool_kernels=(1,), token_len=4),
            dict(num_stages=2, pool_kernels=(2, 1), token_len=4),
            dict(num_stages=2, pool_kernels=(4, 2), token_len=8),
            dict(num_stages=3, pool_kernels=(4, 2, 1), token_len=8),
        ]
        checked = 0
        for i in range(20):
            v = variants[i % len(variants)]
            cfg = ModelConfig(model_width=6, layers_per_stage=1, attention_heads=2,
                              feedforward_width=8, max_tokens=3, seed=50 + i, **v)
            params = init_model(cfg)
            tokens = rng.normal(size=(3, cfg.token_len))
            base = model_forward(params, tokens).prediction.values
            for j in range(1, 3):
                bumped = tokens.copy()
                bumped[j:] += rng.normal(size=bumped[j:].shape)
                out = model_forward(params, bumped).prediction.values
                assert np.array_equal(out[:j], base[:j]), f"model {i} leaked at {j}"
            # forecasts ignore lookback content older than max_tokens * token_len
            ctx = cfg.max_tokens * cfg.token_len
            lookback = rng.normal(size=(1, ctx + 2 * cfg.token_len))
            other = lookback.copy()
            other[:, :-ctx] = rng.normal(size=other[:, :-ctx].shape) * 9.0
            a = ar_forecast(params, ForecastRequest(lookback, cfg.token_len)).predictions
            b = ar_forecast(params, ForecastRequest(other, cfg.token_len)).predictions
            assert np.array_equal(a, b), f"model {i} saw beyond the context window"
            checked += 1
        report(2, checked == 20, f"{checked} random tiny models: no leaks, bit-exact")


class TestCriterion3Reversibility:
    def test_reversibility(self, tmp_path):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(50):
            w = rng.normal(rng.uniform(-5, 5), rng.uniform(0.01, 8), size=128)
            tokens, mu, scale = instance_normalize(w, 16, 8)
            worst = max(worst, float(np.abs(denormalize(tokens.reshape(-1), mu, scale) - w).max()))
        tok_ok = True
        for _ in range(20):
            # tokens are the normalized window in time order, bit for bit
            w = rng.normal(size=336)
            tokens, mu, scale = instance_normalize(w, 48, 7)
            tok_ok &= bool(np.array_equal(tokens.reshape(-1), (w - mu) / scale))
        ckpt = from_params(init_model(TINY), {"seed": "11"})
        path = tmp_path / "rt.ckpt"
        from tokencast.checkpoint import save_checkpoint
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        ckpt_ok = serialize(back) == serialize(ckpt)
        report(3, worst < 1e-10 and tok_ok and ckpt_ok,
               f"normalize round-trip max err {worst:.1e}, tokenize bit-exact, "
               f"checkpoint bit-exact")


class TestCriterion4ResidualStructure:
    def test_residual_structure(self):
        rng = np.random.default_rng(4)
        params = init_model(ModelConfig(num_stages=3, pool_kernels=(4, 2, 1),
                                        token_len=8, max_tokens=3, model_width=8,
                                        layers_per_stage=1, attention_heads=2,
                                        feedforward_width=8, seed=21))
        tokens = rng.normal(size=(3, 8))
        out = model_forward(params, tokens)
        # every stage input and the final residual, by the residual rule; each
        # stage run alone on its input gives its prediction bit for bit
        chain = residual_chain(tokens, out.stages)
        chain_ok = all(
            np.array_equal(stage_forward(params, i, Tensor(chain[i])).values,
                           prediction.values)
            for i, prediction in enumerate(out.stages)
        )
        first_ok = all(np.array_equal(x[0], tokens[0]) for x in chain)
        shifted = np.zeros_like(tokens)
        shifted[1:] = out.prediction.values[:-1]
        residual_err = float(np.abs((tokens - shifted) - chain[-1]).max())

        plain_cfg = ModelConfig(num_stages=1, pool_kernels=(1,), token_len=8,
                                max_tokens=3, model_width=8, layers_per_stage=1,
                                attention_heads=2, feedforward_width=8, seed=21)
        plain = init_model(plain_cfg)
        full = model_forward(plain, tokens)
        single = stage_forward(plain, 0, Tensor(tokens))
        pooled = max_pool_within_token(Tensor(tokens), plain_cfg.pool_kernels[0])
        plain_ok = (
            np.array_equal(full.prediction.values, single.values)
            and np.array_equal(pooled.values, tokens)
        )
        report(4, chain_ok and first_ok and residual_err < 1e-10 and plain_ok,
               f"first-token invariance, telescoping err {residual_err:.1e}, "
               f"S=1/k=1 is the plain causal patch transformer")


class TestCriterion5FinetuneScope:
    def test_finetune_scope(self):
        series, split = make_source("tune", [SineComponent(6, 1.0), NOISE],
                                    length=400, channels=2, seed=31)
        train = build_mixed_dataset([(series, split)], "train")
        val = build_mixed_dataset([(series, split)], "validation")
        base, _ = pretrain(TINY, TrainConfig(epochs=1, stride=4, seed=0), train, val)
        tuned, _ = finetune_heads(
            base, TrainConfig(epochs=2, stride=4, seed=0, patience=5),
            train, val,
        )
        layout = parameter_layout(base.config)
        frozen_ok = all(
            np.array_equal(tuned.arrays[n], base.arrays[n])
            for n, _, scope in layout if scope == "non-head"
        )
        heads_moved = any(
            not np.array_equal(tuned.arrays[n], base.arrays[n])
            for n, _, scope in layout if scope == "head"
        )
        paper = init_model(paper_preset(model_width=256, attention_heads=8,
                                        feedforward_width=512))
        fraction = count_parameters(paper, "head") / count_parameters(paper, "all")
        report(5, frozen_ok and heads_moved and fraction < 0.005,
               f"non-heads bit-identical, heads updated, paper-preset head "
               f"fraction {fraction:.4%} < 0.5%")


class TestCriterion6DeskScaleLearning:
    def test_desk_scale_learning(self, mixture, mixture_models):
        ckpt, train_seconds = mixture_models(2, 1)
        model_mse, pers_mse, seas_mse = [], [], []
        for series, split in mixture:
            r = evaluate(ckpt, series, split, [96], 168, stride=5)
            p = evaluate(None, series, split, [96], 168, stride=5,
                         forecast_fn=persistence_fn)
            s = evaluate(None, series, split, [96], 168, stride=5,
                         forecast_fn=lambda lb, h: naive_baselines(lb, h, 36)[1])
            model_mse.append(r.rows[0].mse)
            pers_mse.append(p.rows[0].mse)
            seas_mse.append(s.rows[0].mse)
        model_m = float(np.mean(model_mse))
        pers_m = float(np.mean(pers_mse))
        seas_m = float(np.mean(seas_mse))
        ok = (train_seconds < 300.0
              and model_m <= 0.8 * pers_m
              and model_m < seas_m)
        report(6, ok,
               f"pretrain {train_seconds:.0f}s (<300s), H=96 MSE {model_m:.3f} vs "
               f"persistence {pers_m:.3f} (need <= {0.8 * pers_m:.3f}) and "
               f"mismatched seasonal {seas_m:.3f}")


class TestCriterion7HierarchyAblation:
    def test_hierarchy_ablation(self, mixture, mixture_models):
        wins = 0
        details = []
        for seed in (1, 2, 3):
            two, _ = mixture_models(2, seed)
            one, _ = mixture_models(1, seed)
            mse2 = float(np.mean([
                evaluate(two, s, sp, [96], 168, stride=13).rows[0].mse
                for s, sp in mixture
            ]))
            mse1 = float(np.mean([
                evaluate(one, s, sp, [96], 168, stride=13).rows[0].mse
                for s, sp in mixture
            ]))
            win = mse2 <= mse1
            wins += win
            details.append(f"seed{seed}: {mse2:.3f} vs {mse1:.3f} {'W' if win else 'L'}")
        report(7, wins >= 2, f"2-stage <= 1-stage in {wins}/3 seeds ({'; '.join(details)})")


class TestCriterion8ZeroShot:
    def test_zero_shot_transfer(self, humility_ckpt):
        target, tsplit = make_source("p48target", [SineComponent(48, 1.0), NOISE],
                                     seed=300)
        zero_shot = EvalSettings("zero-shot", (96,), 168, stride=9)
        # the guard must reject a pretraining source
        seen, seen_split = make_source("s24", [SineComponent(24, 1.0), NOISE], seed=200)
        guard_ok = False
        try:
            run_protocol(humility_ckpt, [(seen, seen_split)], zero_shot)
        except ProtocolError:
            guard_ok = True
        before = checkpoint_hash(humility_ckpt)
        zs = run_protocol(humility_ckpt, [(target, tsplit)], zero_shot)
        after = checkpoint_hash(humility_ckpt)
        pers = evaluate(None, target, tsplit, [96], 168, stride=9,
                        forecast_fn=persistence_fn)
        zs_mse, pers_mse = zs.rows[0].mse, pers.rows[0].mse
        ok = guard_ok and (zs_mse < pers_mse) and before == after
        report(8, ok,
               f"guard raised, zero-shot MSE {zs_mse:.3f} < persistence "
               f"{pers_mse:.3f}, checkpoint hash unchanged")


class TestCriterion9PretrainingBenefit:
    def test_pretraining_benefit(self, humility_ckpt):
        small, ssplit = make_source(
            "heldout",
            [SineComponent(24, 0.8, 2.0), SineComponent(96, 0.6, 0.7), NOISE],
            length=1000, channels=2, seed=400, ratios=(0.3, 0.2, 0.5),
        )
        s_train = build_mixed_dataset([(small, ssplit)], "train")
        s_val = build_mixed_dataset([(small, ssplit)], "validation")
        wins = 0
        details = []
        for seed in (1, 2, 3):
            tuned, _ = finetune_heads(
                humility_ckpt,
                TrainConfig(epochs=3, batch_size=32, stride=2, seed=seed, patience=4),
                s_train, s_val,
            )
            ft_mae = evaluate(tuned, small, ssplit, [96], 168, stride=5).rows[0].mae
            scratch, _ = pretrain(
                ModelConfig(seed=seed),
                TrainConfig(epochs=3, batch_size=32, stride=2, seed=seed, patience=4),
                s_train, s_val,
            )
            sc_mae = evaluate(scratch, small, ssplit, [96], 168, stride=5).rows[0].mae
            win = ft_mae <= sc_mae
            wins += win
            details.append(f"seed{seed}: {ft_mae:.3f} vs {sc_mae:.3f} {'W' if win else 'L'}")
        report(9, wins >= 2,
               f"finetuned MAE <= scratch MAE in {wins}/3 seeds ({'; '.join(details)})")


class TestCriterion10Determinism:
    def test_cli_determinism_and_decode_steps(self, tmp_path, capsys):
        synth_cfg = tmp_path / "synth.cfg"
        synth_cfg.write_text(
            "[synth]\nname = s\nlength = 2400\nchannels = 2\n"
            "components = sine(period=96,amplitude=1.0) + noise(sigma=0.1)\nseed = 5\n"
        )
        csv_path = tmp_path / "s.csv"
        assert main(["synth", str(synth_cfg), str(csv_path)]) == 0
        run_cfg = tmp_path / "run.cfg"
        run_cfg.write_text(
            "[model]\nstages = 1\npool_kernels = 2\ntoken_len = 48\nmax_tokens = 3\n"
            "width = 8\nlayers_per_stage = 1\nheads = 2\nfeedforward_width = 8\nseed = 4\n"
            "[train]\nepochs = 1\nbatch_size = 32\nstride = 8\nseed = 4\n"
            f"[data]\ndatasets = s={csv_path.name}\n"
        )
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["--threads", "1", "pretrain", str(run_cfg), str(out1)]) == 0
        assert main(["--threads", "1", "pretrain", str(run_cfg), str(out2)]) == 0
        identical = (out1 / "model.ckpt").read_bytes() == (out2 / "model.ckpt").read_bytes()

        rows_ok = True
        steps_seen = []
        for horizon, steps in ((96, 2), (100, 3), (720, 15)):
            fc = tmp_path / f"fc{horizon}.csv"
            assert main(["forecast", str(out1 / "model.ckpt"), str(csv_path),
                         str(horizon), str(fc)]) == 0
            err = capsys.readouterr().err
            steps_seen.append(f"decode_steps={steps}" in err)
            n_rows = len(fc.read_text().strip().splitlines()) - 1
            rows_ok &= n_rows == horizon
        ok = identical and rows_ok and all(steps_seen)
        report(10, ok,
               "byte-identical checkpoints across reruns; forecast rows = H for "
               "H in {96, 100, 720} with T=48 (2/3/15 decode steps)")
