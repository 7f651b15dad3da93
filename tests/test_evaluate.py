import csv
import errno
import os
import sys
from dataclasses import replace

import numpy as np
import pytest

from tokencast.checkpoint import checkpoint_hash, from_params
from tokencast.data import (
    DatasetSplit,
    MultivariateSeries,
    NoiseComponent,
    SineComponent,
    SynthSpec,
    build_mixed_dataset,
    chronological_split,
    synth_generate,
)
from tokencast.errors import ConfigError, DataError, NumericAbort, ProtocolError, ShapeError
from tokencast.evaluate import (
    EvalReport,
    EvalRow,
    EvalSettings,
    _forked_map,
    evaluate,
    format_table,
    metrics,
    report_to_csv,
    run_protocol,
)
from tokencast.model import ModelConfig, init_model, paper_preset, parameter_layout
from tokencast.train import TrainConfig, finetune_heads, pretrain

from conftest import naive_baselines

TINY = ModelConfig(num_stages=2, pool_kernels=(2, 1), token_len=4, max_tokens=3,
                   model_width=6, layers_per_stage=1, attention_heads=2,
                   feedforward_width=8, seed=7)


def sine_series(name, period, length=400, channels=2, sigma=0.05, seed=0):
    spec = SynthSpec(name, length=length, channels=channels,
                     components=[SineComponent(period), NoiseComponent(sigma)], seed=seed)
    return synth_generate(spec)


@pytest.fixture(scope="module")
def tiny_ckpt():
    series = sine_series("trainsrc", 24, length=300)
    split = chronological_split(series, 0.7, 0.1, 0.2)
    train = build_mixed_dataset([(series, split)], "train")
    val = build_mixed_dataset([(series, split)], "validation")
    ckpt, _ = pretrain(TINY, TrainConfig(epochs=2, stride=4, seed=0), train, val)
    return ckpt


class TestMetrics:
    def test_identity(self, rng):
        x = rng.normal(size=(3, 5))
        assert metrics(x, x) == (0.0, 0.0)

    def test_constant_offset(self, rng):
        x = rng.normal(size=(3, 5))
        assert metrics(x + 1.0, x) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_hand_case(self):
        mse_v, mae_v = metrics(np.array([3.0, -1.0]), np.zeros(2))
        assert mse_v == pytest.approx(5.0)
        assert mae_v == pytest.approx(2.0)

    def test_symmetry(self, rng):
        a, b = rng.normal(size=(2, 7)), rng.normal(size=(2, 7))
        assert metrics(a, b) == metrics(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            metrics(np.zeros(3), np.zeros(4))


class TestBaselines:
    def test_persistence_repeats_last(self):
        p, _ = naive_baselines(np.array([1.0, 2.0, 7.0]), 4, 1)
        np.testing.assert_array_equal(p, [7.0, 7.0, 7.0, 7.0])

    def test_seasonal_matches_pure_sine(self):
        t = np.arange(96.0)
        wave = np.sin(2 * np.pi * t / 24.0)
        _, seasonal = naive_baselines(wave, 48, 24)
        truth = np.sin(2 * np.pi * np.arange(96, 144.0) / 24.0)
        mse_v, _ = metrics(seasonal, truth)
        assert mse_v < 1e-10

    def test_period_one_equals_persistence(self, rng):
        lb = rng.normal(size=20)
        p, s = naive_baselines(lb, 9, 1)
        np.testing.assert_array_equal(p, s)

    def test_period_longer_than_lookback(self):
        with pytest.raises(ConfigError):
            naive_baselines(np.zeros(5), 3, 10)

    def test_noise_floor_sanity(self, rng):
        sigma = 0.1
        t = np.arange(480.0)
        wave = np.sin(2 * np.pi * t / 24.0) + rng.normal(0, sigma, 480)
        _, seasonal = naive_baselines(wave[:400], 48, 24)
        truth = wave[400:448]
        mse_v, _ = metrics(seasonal, truth)
        # two independent noise draws: expected MSE is 2 sigma^2
        assert mse_v <= 2 * sigma**2 * 2.5 + 1e-3


class TestEvaluate:
    def test_perfect_oracle_stub(self):
        series = sine_series("s", 24, length=400, channels=2)
        split = chronological_split(series, 0.6, 0.2, 0.2)
        calls = []

        def oracle(lookbacks, horizon):
            # find each lookback's origin in the series and return the truth;
            # a window reaching past the series end is never found
            calls.append(horizon)
            outs = np.zeros((lookbacks.shape[0], horizon))
            L = lookbacks.shape[1]
            for i in range(lookbacks.shape[0]):
                for c in range(series.num_channels):
                    for t in range(L, series.length - horizon + 1):
                        if np.array_equal(series.values[c, t - L:t], lookbacks[i]):
                            outs[i] = series.values[c, t:t + horizon]
                            break
                    else:
                        continue
                    break
            return outs

        report = evaluate(None, series, split, [8, 30, 13], lookback_len=16,
                          stride=8, forecast_fn=oracle)
        assert [r.horizon for r in report.rows] == [8, 13, 30]
        for row in report.rows:
            assert row.mse == 0.0 and row.mae == 0.0
        # 8, 7 and 5 origins: one call per distinct decode length
        assert [r.windows for r in report.rows] == [8, 7, 5]
        assert sorted(calls) == [8, 13, 30]

    def test_deterministic(self, tiny_ckpt):
        series = sine_series("t", 48, length=300, seed=3)
        split = chronological_split(series, 0.6, 0.2, 0.2)
        a = evaluate(tiny_ckpt, series, split, [8], lookback_len=12, stride=2)
        b = evaluate(tiny_ckpt, series, split, [8], lookback_len=12, stride=2)
        assert a == b

    def test_threaded_matches_serial(self, tiny_ckpt):
        series = sine_series("t", 48, length=300, seed=3)
        split = chronological_split(series, 0.6, 0.2, 0.2)
        a = evaluate(tiny_ckpt, series, split, [8], lookback_len=12, stride=2)
        b = evaluate(tiny_ckpt, series, split, [8], lookback_len=12, stride=2, threads=3)
        assert a.rows == b.rows

    def test_paper_preset_report_past_the_blas_switch_equal_at_any_threads(self):
        # 448 origins at H=48 and 400 at H=96: one worker decodes 448 rows and
        # three about 150, whose 7-token rows folded into one GEMM would sit on
        # both sides of the size where OpenBLAS switches the 64 -> 12 head to
        # a kernel with other bits
        ckpt = from_params(init_model(paper_preset(model_width=64, attention_heads=4,
                                                   feedforward_width=128)))
        walk = np.random.default_rng(3).normal(size=(1, 831)).cumsum(axis=1)
        series = MultivariateSeries("walk", walk)
        split = DatasetSplit(train=(0, 0), validation=(0, 0), test=(0, 831))
        reports = [evaluate(ckpt, series, split, [48, 96], 336, threads=threads)
                   for threads in (1, 2, 3)]
        assert [r.windows for r in reports[0].rows] == [448, 400]
        assert reports[1] == reports[0] and reports[2] == reports[0]

    @pytest.mark.parametrize("threads", [1, 3])
    def test_multi_horizon_matches_single_horizon_calls(self, tiny_ckpt, threads):
        # 6 and 9 are not multiples of token_len 4
        series = sine_series("t", 48, length=300, seed=3)
        split = chronological_split(series, 0.6, 0.2, 0.2)
        horizons = [8, 6, 4, 9]
        report = evaluate(tiny_ckpt, series, split, horizons, lookback_len=12,
                          stride=3, threads=threads)
        singles = [evaluate(tiny_ckpt, series, split, [h], lookback_len=12,
                            stride=3).rows[0] for h in sorted(horizons)]
        assert report.rows == singles

    def test_training_works_after_threaded_evaluate(self, tiny_ckpt):
        series = sine_series("t", 48, length=300, seed=3)
        split = chronological_split(series, 0.6, 0.2, 0.2)
        train = build_mixed_dataset([(series, split)], "train")
        val = build_mixed_dataset([(series, split)], "validation")
        cfg = TrainConfig(epochs=1, stride=8, seed=0, patience=1)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                evaluate(tiny_ckpt, series, split, [4, 8], lookback_len=12,
                         stride=2, threads=3)
                tuned, history = finetune_heads(tiny_ckpt, cfg, train, val)
                assert len(history) == 1
                assert not np.array_equal(tuned.arrays["stage0.head.weight"],
                                          tiny_ckpt.arrays["stage0.head.weight"])
        finally:
            sys.setswitchinterval(old)

    @pytest.mark.parametrize(
        "horizons,stride,lookback,threads",
        [([0, 8], 1, 12, 1), ([8], 0, 12, 1), ([8], -2, 12, 1), ([8], 1, 0, 1),
         ([8], 1, -5, 1), ([8], 1, 12, 0), ([8], 1, 12, -3)],
        ids=["horizons0-1", "horizons1-0", "horizons2--2", "lookback0", "lookback-5",
             "threads0", "threads-3"],
    )
    def test_bad_horizon_or_stride_rejected(self, tiny_ckpt, horizons, stride, lookback,
                                            threads):
        series = sine_series("t", 48, length=300, seed=3)
        split = chronological_split(series, 0.6, 0.2, 0.2)
        with pytest.raises(ConfigError, match="horizons|stride|lookback|threads"):
            evaluate(tiny_ckpt, series, split, horizons, lookback_len=lookback, stride=stride,
                     threads=threads)

    def test_repeated_horizon_rejected(self, tiny_ckpt):
        series = sine_series("t", 48, length=300, seed=3)
        split = chronological_split(series, 0.6, 0.2, 0.2)
        with pytest.raises(ConfigError, match=r"horizons must not repeat, got \(8, 8, 4\)"):
            evaluate(tiny_ckpt, series, split, [8, 8, 4], lookback_len=12)

    def test_forecast_fn_output_shape_checked(self):
        series = sine_series("s", 24, length=400, channels=2)
        split = chronological_split(series, 0.6, 0.2, 0.2)
        with pytest.raises(ShapeError, match="forecast_fn"):
            evaluate(None, series, split, [8], lookback_len=16,
                     forecast_fn=lambda lb, h: np.zeros((lb.shape[0], 1)))

    def test_insufficient_test_data(self, tiny_ckpt):
        series = sine_series("t", 48, length=100, seed=3)
        split = chronological_split(series, 0.6, 0.2, 0.2)
        with pytest.raises(ConfigError, match="need.*have"):
            evaluate(tiny_ckpt, series, split, [50], lookback_len=12)

    def test_never_mutates_checkpoint(self, tiny_ckpt):
        before = checkpoint_hash(tiny_ckpt)
        series = sine_series("t", 48, length=300, seed=3)
        split = chronological_split(series, 0.6, 0.2, 0.2)
        evaluate(tiny_ckpt, series, split, [4, 8], lookback_len=12, stride=4)
        assert checkpoint_hash(tiny_ckpt) == before

    def test_window_counts_positive(self, tiny_ckpt):
        series = sine_series("t", 48, length=300, seed=3)
        split = chronological_split(series, 0.6, 0.2, 0.2)
        report = evaluate(tiny_ckpt, series, split, [4, 8], lookback_len=12, stride=4)
        assert all(r.windows > 0 for r in report.rows)
        assert [r.horizon for r in report.rows] == [4, 8]


class TestMemoryLayout:
    # a multi-channel CSV loads F-ordered; neither its layout nor how its
    # rows are split between workers may change a report bit
    def test_f_ordered_rows_match_c_ordered_at_any_threads(self, tiny_ckpt):
        series = sine_series("t", 48, length=300, seed=3)
        split = chronological_split(series, 0.6, 0.2, 0.2)
        fortran = replace(series, values=np.asfortranarray(series.values))
        expected = evaluate(tiny_ckpt, series, split, [4, 8, 13], lookback_len=12).rows
        for threads in (1, 2, 3):
            assert evaluate(tiny_ckpt, fortran, split, [4, 8, 13], lookback_len=12,
                            threads=threads).rows == expected

    def test_integer_series_scores_like_its_float_copy(self, tiny_ckpt):
        series = sine_series("t", 48, length=300, seed=3)
        split = chronological_split(series, 0.6, 0.2, 0.2)
        ints = replace(series, values=np.round(series.values * 100).astype(np.int64))
        floats = replace(ints, values=ints.values.astype(np.float64))
        assert (evaluate(tiny_ckpt, ints, split, [4, 8], lookback_len=12, stride=3)
                == evaluate(tiny_ckpt, floats, split, [4, 8], lookback_len=12, stride=3))


def persistence(lookbacks, horizon):
    return np.repeat(lookbacks[:, -1:], horizon, axis=1)


class TestForkedWorkers:
    # a share whose child does not send back its result runs in the caller
    def test_nan_seen_only_by_worker_1_raises_its_data_error(self, tiny_ckpt):
        series = sine_series("t", 48, length=300, seed=3)
        split = chronological_split(series, 0.6, 0.2, 0.2)
        # stride = lookback puts each point in one origin's lookback, so the
        # NaN reaches row 1 (origin 0, channel 1) alone, and row 1 is worker 1's
        series.values[1, split.test[0] + 5] = np.nan
        for threads in (1, 3):
            with pytest.raises(DataError, match="^lookback contains non-finite values$"):
                evaluate(tiny_ckpt, series, split, [4], lookback_len=12, stride=12,
                         threads=threads)

    def test_child_that_exits_has_its_rows_decoded_here(self):
        series = sine_series("s", 24, length=400, channels=2)
        split = chronological_split(series, 0.6, 0.2, 0.2)
        caller = os.getpid()

        def exits_in_child(lookbacks, horizon):
            if os.getpid() != caller:
                os._exit(3)
            return persistence(lookbacks, horizon)

        serial = evaluate(None, series, split, [8], lookback_len=16,
                          forecast_fn=persistence)
        assert evaluate(None, series, split, [8], lookback_len=16,
                        forecast_fn=exits_in_child, threads=3) == serial

    def test_first_failure_in_chunk_order_raises_as_itself(self):
        def fn(k):
            if k == 1:
                raise NumericAbort("diverged", epoch=1, batch=2, learning_rate=0.5)
            if k == 2:
                raise KeyError(k)
            return k

        assert _forked_map(lambda k: k * k, 3) == [0, 1, 4]
        with pytest.raises(NumericAbort, match="^diverged$") as info:
            _forked_map(fn, 3)
        abort = info.value
        assert (abort.epoch, abort.batch, abort.learning_rate) == (1, 2, 0.5)
        assert abort.exit_code == 4
        assert abort.__context__ is None

    def test_result_that_does_not_pickle_is_returned(self):
        parts = _forked_map(lambda k: lambda: k * k, 3)
        assert [part() for part in parts] == [0, 1, 4]

    def test_one_worker_never_forks(self, monkeypatch):
        def refuse():
            raise AssertionError("one worker must not fork")

        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setattr(os, "pipe", refuse)
        assert _forked_map(lambda k: k + 5, 1) == [5]

    def test_failed_fork_runs_every_share_here(self, tiny_ckpt, monkeypatch):
        series = sine_series("t", 48, length=300, seed=3)
        split = chronological_split(series, 0.6, 0.2, 0.2)
        serial = evaluate(tiny_ckpt, series, split, [4, 8], lookback_len=12, stride=2)
        attempts = []

        def fork():
            attempts.append(1)
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
        assert evaluate(tiny_ckpt, series, split, [4, 8], lookback_len=12, stride=2,
                        threads=3) == serial
        assert len(attempts) == 2

    def test_failed_pipe_runs_every_share_here(self, tiny_ckpt, monkeypatch):
        series = sine_series("t", 48, length=300, seed=3)
        split = chronological_split(series, 0.6, 0.2, 0.2)
        serial = evaluate(tiny_ckpt, series, split, [4, 8], lookback_len=12, stride=2)

        def pipe():
            raise OSError(errno.EMFILE, "Too many open files")

        monkeypatch.setattr(os, "pipe", pipe)
        assert evaluate(tiny_ckpt, series, split, [4, 8], lookback_len=12, stride=2,
                        threads=3) == serial

    def test_without_fork_matches_one_worker(self, tiny_ckpt, monkeypatch):
        series = sine_series("t", 48, length=300, seed=3)
        split = chronological_split(series, 0.6, 0.2, 0.2)
        serial = evaluate(tiny_ckpt, series, split, [4, 8], lookback_len=12, stride=2)
        monkeypatch.delattr(os, "fork")
        assert evaluate(tiny_ckpt, series, split, [4, 8], lookback_len=12, stride=2,
                        threads=3) == serial

    def test_forecast_fn_matches_one_worker(self):
        series = sine_series("s", 24, length=400, channels=2)
        split = chronological_split(series, 0.6, 0.2, 0.2)
        serial = evaluate(None, series, split, [8, 5], lookback_len=16, stride=3,
                          forecast_fn=persistence)
        assert evaluate(None, series, split, [8, 5], lookback_len=16, stride=3,
                        forecast_fn=persistence, threads=3).rows == serial.rows


class TestZeroShot:
    def test_guard_rejects_training_source(self, tiny_ckpt):
        series = sine_series("trainsrc", 24, length=300)
        split = chronological_split(series, 0.6, 0.2, 0.2)
        with pytest.raises(ProtocolError, match="trainsrc"):
            run_protocol(tiny_ckpt, [(series, split)], EvalSettings("zero-shot", (8,), 12))

    def test_guard_rejects_finetuned_target(self, tiny_ckpt):
        tuned = replace(tiny_ckpt, metadata={**tiny_ckpt.metadata, "finetuned_on": "tuned"})
        series = sine_series("tuned", 24, length=300)
        split = chronological_split(series, 0.6, 0.2, 0.2)
        with pytest.raises(ProtocolError, match="tuned"):
            run_protocol(tuned, [(series, split)], EvalSettings("zero-shot", (8,), 12))

    def test_guard_checks_every_dataset_before_scoring(self, tiny_ckpt, monkeypatch):
        import tokencast.evaluate as ev

        calls = []
        monkeypatch.setattr(ev, "evaluate", lambda *args, **kwargs: calls.append(args))
        datasets = [(s, chronological_split(s, 0.6, 0.2, 0.2))
                    for s in (sine_series("unseen", 48, length=300, seed=5),
                              sine_series("trainsrc", 24, length=300))]
        with pytest.raises(ProtocolError, match="trainsrc"):
            run_protocol(tiny_ckpt, datasets, EvalSettings("zero-shot", (8,), 12))
        assert calls == []

    def test_unseen_dataset_evaluated_without_mutation(self, tiny_ckpt):
        before = checkpoint_hash(tiny_ckpt)
        series = sine_series("unseen", 48, length=300, seed=5)
        split = chronological_split(series, 0.6, 0.2, 0.2)
        report = run_protocol(tiny_ckpt, [(series, split)],
                              EvalSettings("zero-shot", (8,), 12, stride=4))
        assert report.rows[0].windows > 0
        assert checkpoint_hash(tiny_ckpt) == before

    def test_zero_shot_no_better_than_finetuned(self):
        src = sine_series("zsrc", 24, length=600)
        split = chronological_split(src, 0.7, 0.1, 0.2)
        ckpt, _ = pretrain(TINY, TrainConfig(epochs=4, stride=2, seed=0, patience=4),
                           build_mixed_dataset([(src, split)], "train"),
                           build_mixed_dataset([(src, split)], "validation"))
        target = sine_series("unseen12", 12, length=600, seed=5)
        tsplit = chronological_split(target, 0.6, 0.2, 0.2)
        zs = run_protocol(ckpt, [(target, tsplit)],
                          EvalSettings("zero-shot", (8,), 12, stride=2)).rows[0].mse
        tuned = run_protocol(
            ckpt, [(target, tsplit)],
            EvalSettings("few-shot", (8,), 12, stride=2, fraction=1.0),
            TrainConfig(epochs=6, stride=1, seed=0, patience=6),
        ).rows[0].mse
        assert zs >= tuned  # ties allowed


class TestFewShot:
    def test_bad_fraction(self, tiny_ckpt):
        series = sine_series("f", 24, length=300)
        split = chronological_split(series, 0.6, 0.2, 0.2)
        for bad in (0.0, -0.5, 1.5, float("nan")):
            with pytest.raises(ConfigError):
                run_protocol(tiny_ckpt, [(series, split)],
                             EvalSettings("few-shot", (8,), 12, fraction=bad),
                             TrainConfig(epochs=0))

    @pytest.mark.parametrize("horizons,stride,lookback,threads", [
        ([0], 1, 12, 1), ([8], 0, 12, 1), ([8], 1, 0, 1), ([8], 1, 12, 0),
        ([96], 1, 12, 1), ([8], 1, 3, 1),
    ], ids=["horizons", "stride", "lookback", "threads", "test_range",
            "lookback_below_token"])
    def test_bad_settings_rejected_before_tuning(self, tiny_ckpt, monkeypatch, horizons,
                                                 stride, lookback, threads):
        import tokencast.evaluate as ev

        calls = []
        monkeypatch.setattr(ev, "finetune_heads", lambda *args: calls.append(args))
        series = sine_series("f", 24, length=300)
        split = chronological_split(series, 0.6, 0.2, 0.2)
        with pytest.raises(ConfigError, match="horizons|stride|lookback|threads|too short"):
            run_protocol(tiny_ckpt, [(series, split)],
                         EvalSettings("few-shot", tuple(horizons), lookback, stride, 0.5),
                         TrainConfig(epochs=1), threads=threads)
        assert calls == []

    def test_every_dataset_checked_before_tuning(self, tiny_ckpt, monkeypatch):
        import tokencast.evaluate as ev

        calls = []
        monkeypatch.setattr(ev, "finetune_heads", lambda *args: calls.append(args))
        datasets = [(s, chronological_split(s, 0.6, 0.2, 0.2))
                    for s in (sine_series("f", 24, length=300),
                              sine_series("short", 24, length=60))]
        with pytest.raises(ConfigError, match="test range of short too short"):
            run_protocol(tiny_ckpt, datasets,
                         EvalSettings("few-shot", (4, 8), 12, fraction=0.5),
                         TrainConfig(epochs=1))
        assert calls == []

    def test_fraction_keeps_most_recent(self, tiny_ckpt, monkeypatch):
        series = sine_series("f", 24, length=1000, channels=1)
        split = chronological_split(series, 0.6, 0.2, 0.2)
        captured = {}

        import tokencast.evaluate as ev

        real = ev.finetune_heads

        def spy(ckpt, cfg, train_mixed, val_mixed):
            captured["segment"] = train_mixed.segments[0].values
            return real(ckpt, cfg, train_mixed, val_mixed)

        monkeypatch.setattr(ev, "finetune_heads", spy)
        run_protocol(tiny_ckpt, [(series, split)],
                     EvalSettings("few-shot", (8,), 12, stride=8, fraction=0.1),
                     TrainConfig(epochs=0))
        # train range is (0, 600); 10% keeps the last 60 points
        np.testing.assert_array_equal(captured["segment"], series.values[0, 540:600])

    def test_default_train_config_tunes_only_heads(self, tiny_ckpt, monkeypatch):
        import tokencast.evaluate as ev

        real, tuned = ev.finetune_heads, []

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            tuned.append(out[0])
            return out

        monkeypatch.setattr(ev, "finetune_heads", spy)
        series = sine_series("f", 24, length=400)
        split = chronological_split(series, 0.6, 0.2, 0.2)
        run_protocol(tiny_ckpt, [(series, split)],
                     EvalSettings("few-shot", (8,), 12, stride=4, fraction=1.0),
                     TrainConfig(epochs=1, stride=4))
        (ckpt,) = tuned
        scopes = {name: scope for name, _, scope in parameter_layout(ckpt.config)}
        moved = {name for name in ckpt.arrays
                 if not np.array_equal(ckpt.arrays[name], tiny_ckpt.arrays[name])}
        assert moved and all(scopes[name] == "head" for name in moved)
        assert ckpt.metadata["scope"] == "head"

    def test_full_fraction_equals_standard_range(self, tiny_ckpt):
        series = sine_series("f", 24, length=400)
        split = chronological_split(series, 0.6, 0.2, 0.2)
        report = run_protocol(tiny_ckpt, [(series, split)],
                              EvalSettings("few-shot", (8,), 12, stride=4, fraction=1.0),
                              TrainConfig(epochs=0))
        baseline = evaluate(tiny_ckpt, series, split, [8], lookback_len=12, stride=4)
        assert report.rows == baseline.rows  # zero epochs => same model

    def test_without_train_config_rejected(self, tiny_ckpt):
        series = sine_series("f", 24, length=300)
        split = chronological_split(series, 0.6, 0.2, 0.2)
        with pytest.raises(ConfigError, match="TrainConfig"):
            run_protocol(tiny_ckpt, [(series, split)],
                         EvalSettings("few-shot", (8,), 12, fraction=0.5))


class TestEvalSettings:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigError, match="protocol 'bogus' unknown"):
            EvalSettings(protocol="bogus")

    def test_fraction_read_by_few_shot_only(self):
        EvalSettings(protocol="zero-shot", fraction=-1.0)
        with pytest.raises(ConfigError, match="fraction must lie in"):
            EvalSettings(protocol="few-shot")

    def test_repeated_horizon_rejected(self):
        with pytest.raises(ConfigError, match=r"horizons must not repeat, got \(8, 8, 4\)"):
            EvalSettings(horizons=(8, 8, 4))

    def test_no_datasets_rejected(self, tiny_ckpt):
        with pytest.raises(ConfigError, match="at least one dataset"):
            run_protocol(tiny_ckpt, [], EvalSettings())

    def test_rows_follow_datasets_in_order(self, tiny_ckpt):
        datasets = [(s, chronological_split(s, 0.6, 0.2, 0.2))
                    for s in (sine_series("b", 24, length=300),
                              sine_series("a", 12, length=300, seed=2))]
        settings = EvalSettings("standard", (4, 8), 12, 4)
        report = run_protocol(tiny_ckpt, datasets, settings)
        assert report.rows == [row for series, split in datasets for row in
                               evaluate(tiny_ckpt, series, split, [4, 8], 12, stride=4).rows]
        assert report.fingerprint == checkpoint_hash(tiny_ckpt)[:16]

    def test_standard_protocol_is_evaluate(self, tiny_ckpt):
        series = sine_series("s", 24, length=300)
        split = chronological_split(series, 0.6, 0.2, 0.2)
        report = run_protocol(tiny_ckpt, [(series, split)],
                              EvalSettings("standard", (4, 8), 12, 4),
                              threads=2)
        assert report.rows == evaluate(tiny_ckpt, series, split, [4, 8], 12, stride=4).rows
        assert report.fingerprint == checkpoint_hash(tiny_ckpt)[:16]


class TestReportSerialization:
    def test_roundtrip(self):
        report = EvalReport(
            rows=[EvalRow("a", 96, 0.123456789, 0.23456789, 42),
                  EvalRow("a", 192, 1.5, 0.75, 17)],
            fingerprint="deadbeef",
        )
        # every float is written by repr, so it parses back exactly
        lines = report_to_csv(report).splitlines()
        assert lines[0] == "# fingerprint=deadbeef"
        rows = [EvalRow(d, int(h), float(mse), float(mae), int(w))
                for d, h, mse, mae, w in csv.reader(lines[2:])]
        assert rows == report.rows

    def test_header_shape(self):
        report = EvalReport(rows=[EvalRow("x", 8, 0.5, 0.25, 3)], fingerprint="f")
        text = report_to_csv(report)
        lines = text.strip().splitlines()
        assert lines[0] == "# fingerprint=f"
        assert lines[1] == "dataset,horizon,mse,mae,windows"

    def test_table_contains_rows(self):
        report = EvalReport(rows=[EvalRow("x", 8, 0.5, 0.25, 3)], fingerprint="f")
        table = format_table(report)
        assert "x" in table and "0.5" in table
