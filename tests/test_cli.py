import numpy as np
import pytest

from tokencast import cli
from tokencast.cli import main
from tokencast.checkpoint import from_params, load_checkpoint
from tokencast.config import _ini_fields, parse_components, parse_run_config
from tokencast.data import NoiseComponent, SineComponent, TrendComponent
from tokencast.errors import ConfigError, ShapeError
from tokencast.evaluate import EvalSettings
from tokencast.model import ModelConfig, init_model, parameter_layout
from tokencast.train import TrainConfig

from conftest import serialize_with_config

TINY_MODEL_SECTION = """\
[model]
stages = 2
pool_kernels = 2,1
token_len = 4
max_tokens = 3
width = 6
layers_per_stage = 1
heads = 2
feedforward_width = 8
seed = 3
"""

TRAIN_SECTION = """\
[train]
epochs = 2
batch_size = 16
stride = 4
seed = 3
"""


@pytest.fixture
def synth_csv(tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(
        "[synth]\nname = mix\nlength = 300\nchannels = 2\n"
        "components = sine(period=24,amplitude=1.0) + noise(sigma=0.05)\nseed = 1\n"
    )
    out = tmp_path / "mix.csv"
    assert main(["synth", str(cfg), str(out)]) == 0
    return out


@pytest.fixture
def pretrained(tmp_path, synth_csv):
    cfg = write_train_cfg(tmp_path, synth_csv)
    out = tmp_path / "pre"
    assert main(["pretrain", str(cfg), str(out)]) == 0
    return out / "model.ckpt"


def write_train_cfg(tmp_path, csv_path, extra=""):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        TINY_MODEL_SECTION + TRAIN_SECTION
        + f"[data]\ndatasets = mix={csv_path.name}\nsplit = 0.7,0.1,0.2\n" + extra
    )
    return cfg


class TestSynth:
    def test_writes_csv(self, synth_csv):
        lines = synth_csv.read_text().strip().splitlines()
        assert lines[0] == "ch0,ch1"
        assert len(lines) == 301

    def test_deterministic_with_zero_sigma(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(
            "[synth]\nlength = 50\ncomponents = sine(period=10) + noise(sigma=0)\n"
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["synth", str(cfg), str(a)]) == 0
        assert main(["synth", str(cfg), str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_noise(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("[synth]\nlength = 50\ncomponents = noise(sigma=1.0)\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["--seed", "1", "synth", str(cfg), str(a)]) == 0
        assert main(["--seed", "2", "synth", str(cfg), str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("[synth]\nlength = 50\ncomponents = noise(sigma=1.0)\nseed = -2\n")
        assert main(["synth", str(cfg), str(tmp_path / "a.csv")]) == 2
        cfg.write_text("[synth]\nlength = 50\ncomponents = noise(sigma=1.0)\n")
        assert main(["--seed", "-1", "synth", str(cfg), str(tmp_path / "b.csv")]) == 2
        assert capsys.readouterr().err.count("seed must be >= 0") == 2


class TestComponentParsing:
    def test_named_and_positional(self):
        comps = parse_components("sine(period=24, amp=2) + trend(0.5) + noise(sigma=0.1)")
        assert comps == [SineComponent(24.0, 2.0), TrendComponent(0.5), NoiseComponent(0.1)]

    def test_unknown_component(self):
        with pytest.raises(ConfigError, match="sawtooth"):
            parse_components("sawtooth(period=3)")

    def test_unknown_parameter(self):
        with pytest.raises(ConfigError, match="frequency"):
            parse_components("sine(frequency=3)")


class TestConfigValidation:
    def test_unknown_section(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[galaxy]\nbrain = 1\n")
        with pytest.raises(ConfigError, match="galaxy"):
            parse_run_config(cfg)

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[model]\nwarp = 9\n")
        with pytest.raises(ConfigError, match="warp"):
            parse_run_config(cfg)

    def test_preset_conflict_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[model]\ntoken_len = 8\n")
        run = parse_run_config(cfg)
        with pytest.raises(ConfigError, match="preset"):
            run.model_config(preset="paper")

    def test_paper_preset_resolves(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[model]\nwidth = 64\nheads = 4\nfeedforward_width = 128\n")
        model = parse_run_config(cfg).model_config(preset="paper")
        assert model.num_stages == 4
        assert model.pool_kernels == (8, 4, 2, 1)
        assert model.token_len == 48
        assert model.model_width == 64


class TestPretrainCommand:
    def test_run_produces_artifacts(self, tmp_path, synth_csv):
        cfg = write_train_cfg(tmp_path, synth_csv)
        out = tmp_path / "run1"
        assert main(["pretrain", str(cfg), str(out)]) == 0
        assert (out / "model.ckpt").exists()
        assert (out / "loss.csv").exists()
        assert (out / "resolved.cfg").exists()
        assert (out / "loss.csv").read_text().splitlines()[0] == "epoch,train_mse,val_mse"

    def test_byte_identical_reruns(self, tmp_path, synth_csv):
        cfg = write_train_cfg(tmp_path, synth_csv)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["--threads", "1", "pretrain", str(cfg), str(out1)]) == 0
        assert main(["--threads", "1", "pretrain", str(cfg), str(out2)]) == 0
        assert (out1 / "model.ckpt").read_bytes() == (out2 / "model.ckpt").read_bytes()

    @pytest.mark.parametrize("key", ["split", "split.mix"])
    def test_non_numeric_split_exits_2(self, tmp_path, synth_csv, capsys, key):
        cfg = write_train_cfg(tmp_path, synth_csv)
        cfg.write_text(cfg.read_text().replace("split = 0.7,0.1,0.2", f"{key} = 0.7,abc,0.2"))
        assert main(["pretrain", str(cfg), str(tmp_path / "out")]) == 2
        assert f"[data] {key}='abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", [
        "beta1 = 1.0", "beta1 = -0.1", "beta2 = 1.5", "adam_eps = 0",
        "adam_eps = -1e-8", "adam_eps = inf", "learning_rate = nan", "learning_rate = inf",
    ])
    def test_bad_adam_setting_exits_2(self, tmp_path, synth_csv, capsys, setting):
        cfg = write_train_cfg(tmp_path, synth_csv)
        cfg.write_text(cfg.read_text().replace("[train]\n", f"[train]\n{setting}\n"))
        assert main(["pretrain", str(cfg), str(tmp_path / "out")]) == 2
        assert setting.split(" =")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("section,key", [
        (section, key) for section, cls in (("model", ModelConfig), ("train", TrainConfig),
                                            ("eval", EvalSettings))
        for key in _ini_fields(cls)
    ])
    def test_every_field_value_exits_0_or_2(self, tmp_path, synth_csv, capsys, request,
                                            section, key):
        # every [model]/[train]/[eval] field, including fields added later, must
        # either run or be rejected as a config error, never a traceback; [eval]
        # fields run a few-shot evaluate, the protocol that reads them all
        bodies = {"model": TINY_MODEL_SECTION,
                  "train": TRAIN_SECTION.replace("epochs = 2", "epochs = 1"),
                  "eval": FEW_SHOT_EVAL}
        head = (["evaluate", str(request.getfixturevalue("pretrained"))]
                if section == "eval" else ["pretrain"])
        for value in ("0", "-1", "abc"):
            lines = [line for line in bodies[section].splitlines()
                     if not line.startswith(f"{key} =")]
            lines.insert(1, f"{key} = {value}")
            text = "\n".join(lines) + "\n" + "".join(
                body for name, body in bodies.items() if name != section)
            cfg = tmp_path / "sweep.cfg"
            cfg.write_text(text + f"[data]\ndatasets = mix={synth_csv.name}\n")
            code = main(head + [str(cfg), str(tmp_path / f"out{value}")])
            err = capsys.readouterr().err
            assert code in (0, 2), f"[{section}] {key} = {value}: exit {code}"
            assert code == 0 or err.startswith("config error:"), err

    def test_negative_seed_flag_exits_2(self, tmp_path, synth_csv, capsys):
        cfg = write_train_cfg(tmp_path, synth_csv)
        assert main(["--seed", "-1", "pretrain", str(cfg), str(tmp_path / "out")]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_bad_threads_exits_2(self, tmp_path, synth_csv, capsys, threads):
        cfg = write_train_cfg(tmp_path, synth_csv)
        out = tmp_path / "out"
        assert main(["--threads", threads, "pretrain", str(cfg), str(out)]) == 2
        assert f"threads must be >= 1, got {threads}" in capsys.readouterr().err
        assert not out.exists()

    def test_split_for_unlisted_dataset_exits_2(self, tmp_path, synth_csv, capsys):
        cfg = write_train_cfg(tmp_path, synth_csv, extra="split.mx = 0.6,0.2,0.2\n")
        assert main(["pretrain", str(cfg), str(tmp_path / "out")]) == 2
        assert "[data] split.mx names no dataset" in capsys.readouterr().err

    def test_missing_dataset_exits_3(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            TINY_MODEL_SECTION + TRAIN_SECTION + "[data]\ndatasets = gone=missing.csv\n"
        )
        assert main(["pretrain", str(cfg), str(tmp_path / "out")]) == 3

    def test_refuses_nonempty_out_dir(self, tmp_path, synth_csv):
        cfg = write_train_cfg(tmp_path, synth_csv)
        out = tmp_path / "busy"
        out.mkdir()
        (out / "junk.txt").write_text("x")
        assert main(["pretrain", str(cfg), str(out)]) == 2
        assert main(["--force", "pretrain", str(cfg), str(out)]) == 0


FEW_SHOT_EVAL = "[eval]\nprotocol = few-shot\nfraction = 0.5\nhorizons = 4,8\nlookback = 12\n"


def command_run(command, tmp_path, synth_csv, pretrained, scope=None):
    """(arguments before the config, config path) of ``command`` on synth_csv;
    "full-tune" is finetune --full-tune and "few-shot" is evaluate under the
    few-shot protocol. A ``scope`` is written as the [train] scope key."""
    head = {"pretrain": ["pretrain"], "finetune": ["finetune", str(pretrained)],
            "full-tune": ["finetune", "--full-tune", str(pretrained)],
            "few-shot": ["evaluate", str(pretrained)]}[command]
    cfg = write_train_cfg(tmp_path, synth_csv,
                          extra=FEW_SHOT_EVAL if command == "few-shot" else "")
    if scope is not None:
        cfg.write_text(cfg.read_text().replace("[train]\n", f"[train]\nscope = {scope}\n"))
    return head, cfg


class TestResolvedConfig:
    @pytest.mark.parametrize("command,artifact", [
        ("pretrain", "model.ckpt"), ("finetune", "model.ckpt"),
        ("full-tune", "model.ckpt"), ("few-shot", "report.csv"),
    ], ids=["pretrain", "finetune", "full-tune", "few-shot"])
    def test_resolved_config_reruns_identically(self, tmp_path, synth_csv, pretrained,
                                                command, artifact):
        head, cfg = command_run(command, tmp_path, synth_csv, pretrained)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(head + [str(cfg), str(out1)]) == 0
        assert main(head + [str(out1 / "resolved.cfg"), str(out2)]) == 0
        assert (out1 / artifact).read_bytes() == (out2 / artifact).read_bytes()
        assert (out1 / "resolved.cfg").read_text() == (out2 / "resolved.cfg").read_text()


class TestTrainedScope:
    # the command picks the trained scope; a [train] scope key must agree
    @pytest.mark.parametrize("command,scope", [
        ("pretrain", "head"), ("finetune", "bogus"), ("full-tune", "head"),
        ("few-shot", "all"),
    ])
    def test_disagreeing_scope_key_exits_2(self, tmp_path, synth_csv, pretrained, capsys,
                                           command, scope):
        head, cfg = command_run(command, tmp_path, synth_csv, pretrained, scope)
        capsys.readouterr()
        assert main(head + [str(cfg), str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: [train] scope = {scope}, but this "
                              "command trains scope ")
        assert err.count("\n") == 1


class TestRejectedRun:
    # a run that exits 2 on its settings, or in its work, leaves no output
    # directory behind
    @pytest.mark.parametrize("command,old,new", [
        ("pretrain", "[train]\n", "[train]\nscope = head\n"),
        ("finetune", "[train]\n", "[train]\nscope = all\n"),
        ("few-shot", "horizons = 4,8", "horizons = 0"),
        ("few-shot", "lookback = 12", "lookback = 200"),
        ("pretrain", "split = 0.7,0.1,0.2", "split = 0.02,0.49,0.49"),
    ], ids=["pretrain", "finetune", "evaluate", "evaluate-short-test-range",
            "pretrain-no-windows"])
    def test_config_error_leaves_no_out_dir(self, tmp_path, synth_csv, pretrained,
                                            command, old, new):
        head, cfg = command_run(command, tmp_path, synth_csv, pretrained)
        cfg.write_text(cfg.read_text().replace(old, new))
        out = tmp_path / "out"
        assert main(head + [str(cfg), str(out)]) == 2
        assert not out.exists()

    # a run directory must be absent or a directory, an output CSV must not be
    # a directory, and the nearest existing ancestor must be a directory
    @pytest.mark.parametrize("command,out_path", [
        ("pretrain", "afile"), ("finetune", "afile"), ("few-shot", "afile"),
        ("pretrain", "afile/sub"), ("finetune", "afile/sub"), ("few-shot", "afile/sub"),
        ("forecast", "afile/sub"), ("synth", "afile/sub"),
        ("forecast", "adir"), ("synth", "adir"),
    ])
    def test_bad_output_path_exits_2(self, tmp_path, synth_csv, pretrained, capsys,
                                     command, out_path):
        (tmp_path / "afile").touch()
        (tmp_path / "adir").mkdir()
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main(output_head(command, tmp_path, synth_csv, pretrained)
                    + [str(tmp_path / out_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: output ") and err.count("\n") == 1
        assert sorted(tmp_path.rglob("*")) == before

    # the output path is checked before the work, and may change during it
    @pytest.mark.parametrize("command,work,obstacle", [
        ("pretrain", "pretrain", "touch"), ("forecast", "ar_forecast", "mkdir"),
    ])
    def test_failed_write_exits_3(self, tmp_path, synth_csv, pretrained, capsys,
                                  monkeypatch, command, work, obstacle):
        out = tmp_path / "out"
        real = getattr(cli, work)

        def work_then_block(*args):
            result = real(*args)
            getattr(out, obstacle)()
            return result

        monkeypatch.setattr(cli, work, work_then_block)
        capsys.readouterr()
        assert main(output_head(command, tmp_path, synth_csv, pretrained)
                    + [str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert not list(tmp_path.rglob("*.tmp"))


def output_head(command, tmp_path, synth_csv, pretrained):
    """The arguments of ``command`` that come before its output path."""
    if command == "forecast":
        return ["forecast", str(pretrained), str(synth_csv), "4"]
    if command == "synth":
        return ["synth", str(tmp_path / "synth.cfg")]
    head, cfg = command_run(command, tmp_path, synth_csv, pretrained)
    return head + [str(cfg)]


def non_head_names(config):
    return [name for name, _, scope in parameter_layout(config) if scope == "non-head"]


class TestFinetuneCommand:
    def test_default_scope_preserves_non_heads(self, tmp_path, synth_csv, pretrained):
        cfg = write_train_cfg(tmp_path, synth_csv)
        out = tmp_path / "ft"
        assert main(["finetune", str(pretrained), str(cfg), str(out)]) == 0
        src = load_checkpoint(pretrained)
        tuned = load_checkpoint(out / "model.ckpt")
        for name in non_head_names(src.config):
            np.testing.assert_array_equal(tuned.arrays[name], src.arrays[name])

    def test_full_tune_flag(self, tmp_path, synth_csv, pretrained):
        cfg = write_train_cfg(tmp_path, synth_csv)
        out = tmp_path / "ft_full"
        assert main(["finetune", str(pretrained), str(cfg), str(out), "--full-tune"]) == 0
        src = load_checkpoint(pretrained)
        tuned = load_checkpoint(out / "model.ckpt")
        assert any(not np.array_equal(tuned.arrays[n], src.arrays[n])
                   for n in non_head_names(src.config))

    def test_scope_all_without_flag_rejected(self, tmp_path, synth_csv, pretrained):
        cfg = write_train_cfg(tmp_path, synth_csv)
        text = cfg.read_text().replace("[train]\n", "[train]\nscope = all\n")
        cfg.write_text(text)
        assert main(["finetune", str(pretrained), str(cfg), str(tmp_path / "x")]) == 2

    def test_missing_checkpoint_exits_3(self, tmp_path, synth_csv):
        cfg = write_train_cfg(tmp_path, synth_csv)
        assert main(["finetune", str(tmp_path / "no.ckpt"), str(cfg),
                     str(tmp_path / "out")]) == 3

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_bad_threads_exits_2(self, tmp_path, synth_csv, capsys, threads):
        # rejected before the (missing) checkpoint is read
        cfg = write_train_cfg(tmp_path, synth_csv)
        assert main(["--threads", threads, "finetune", str(tmp_path / "no.ckpt"),
                     str(cfg), str(tmp_path / "out")]) == 2
        assert f"threads must be >= 1, got {threads}" in capsys.readouterr().err


class TestForecastCommand:
    @pytest.mark.parametrize("horizon", [4, 6, 11])
    def test_row_count_matches_horizon(self, tmp_path, synth_csv, pretrained, horizon, capsys):
        out_csv = tmp_path / f"fc{horizon}.csv"
        assert main(["forecast", str(pretrained), str(synth_csv),
                     str(horizon), str(out_csv)]) == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "ch0,ch1"
        assert len(lines) == horizon + 1

    def test_decode_steps_reported(self, tmp_path, synth_csv, pretrained, capsys):
        out_csv = tmp_path / "fc.csv"
        assert main(["forecast", str(pretrained), str(synth_csv), "6", str(out_csv)]) == 0
        assert "decode_steps=2" in capsys.readouterr().err

    def test_malformed_input_exits_3(self, tmp_path, pretrained):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,oops\n")
        assert main(["forecast", str(pretrained), str(bad), "4",
                     str(tmp_path / "out.csv")]) == 3


class TestEvaluateCommand:
    def eval_cfg(self, tmp_path, synth_csv, extra_eval=""):
        cfg = tmp_path / "eval.cfg"
        cfg.write_text(
            f"[data]\ndatasets = mix={synth_csv.name}\nsplit = 0.7,0.1,0.2\n"
            f"[eval]\nhorizons = 4,8\nlookback = 12\nstride = 4\n" + extra_eval
        )
        return cfg

    def test_standard_protocol(self, tmp_path, synth_csv, pretrained, capsys):
        cfg = self.eval_cfg(tmp_path, synth_csv)
        out = tmp_path / "ev"
        assert main(["evaluate", str(pretrained), str(cfg), str(out)]) == 0
        report = (out / "report.csv").read_text()
        assert "dataset,horizon,mse,mae,windows" in report
        assert "mix,4," in report and "mix,8," in report
        assert "mix" in capsys.readouterr().out

    def test_zero_shot_on_source_exits_5(self, tmp_path, synth_csv, pretrained):
        cfg = self.eval_cfg(tmp_path, synth_csv, "protocol = zero-shot\n")
        assert main(["evaluate", str(pretrained), str(cfg), str(tmp_path / "z")]) == 5

    def test_zero_shot_on_unseen_dataset(self, tmp_path, synth_csv, pretrained):
        other_cfg = tmp_path / "other.cfg"
        other_cfg.write_text(
            "[synth]\nname = other\nlength = 200\nchannels = 1\n"
            "components = sine(period=12) + noise(sigma=0.05)\nseed = 9\n"
        )
        other_csv = tmp_path / "other.csv"
        assert main(["synth", str(other_cfg), str(other_csv)]) == 0
        cfg = tmp_path / "eval.cfg"
        cfg.write_text(
            f"[data]\ndatasets = other={other_csv.name}\n"
            "[eval]\nprotocol = zero-shot\nhorizons = 4\nlookback = 12\nstride = 4\n"
        )
        assert main(["evaluate", str(pretrained), str(cfg), str(tmp_path / "z2")]) == 0

    def test_few_shot_without_fraction_exits_2(self, tmp_path, synth_csv, pretrained):
        cfg = self.eval_cfg(tmp_path, synth_csv, "protocol = few-shot\n")
        assert main(["evaluate", str(pretrained), str(cfg), str(tmp_path / "f")]) == 2

    def test_few_shot_with_fraction(self, tmp_path, synth_csv, pretrained):
        cfg = self.eval_cfg(
            tmp_path, synth_csv,
            "protocol = few-shot\nfraction = 0.5\n",
        )
        cfg_text = cfg.read_text() + TRAIN_SECTION.replace("epochs = 2", "epochs = 1")
        cfg.write_text(cfg_text)
        assert main(["evaluate", str(pretrained), str(cfg), str(tmp_path / "fs")]) == 0

    def test_non_integer_horizon_exits_2(self, tmp_path, synth_csv, pretrained, capsys):
        cfg = tmp_path / "eval.cfg"
        cfg.write_text(
            f"[data]\ndatasets = mix={synth_csv.name}\n"
            "[eval]\nhorizons = 4,abc\nlookback = 12\n"
        )
        assert main(["evaluate", str(pretrained), str(cfg), str(tmp_path / "h")]) == 2
        assert "[eval] horizons='4,abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_bad_threads_exits_2(self, tmp_path, synth_csv, pretrained, capsys, threads):
        cfg = self.eval_cfg(tmp_path, synth_csv)
        assert main(["--threads", threads, "evaluate", str(pretrained), str(cfg),
                     str(tmp_path / "t")]) == 2
        assert f"threads must be >= 1, got {threads}" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,extra_eval", [
        (["--threads", "0"], ""),
        ([], "stride = 0\n"),
    ], ids=["threads0", "stride0"])
    def test_few_shot_bad_settings_exit_2_before_tuning(
            self, tmp_path, synth_csv, pretrained, monkeypatch, flags, extra_eval):
        import tokencast.evaluate as ev

        calls = []
        real = ev.finetune_heads

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(ev, "finetune_heads", counted)
        cfg = self.eval_cfg(tmp_path, synth_csv, "protocol = few-shot\nfraction = 0.5\n")
        text = cfg.read_text().replace("stride = 4\n", extra_eval or "stride = 4\n")
        cfg.write_text(text + TRAIN_SECTION.replace("epochs = 2", "epochs = 1"))
        assert main(flags + ["evaluate", str(pretrained), str(cfg),
                             str(tmp_path / "fs")]) == 2
        assert calls == []

    def test_shape_error_exits_3(self, tmp_path, synth_csv, pretrained, monkeypatch,
                                 capsys):
        def mismatched(*args, **kwargs):
            raise ShapeError("metrics shapes disagree: (2, 4) vs (2, 8)")

        monkeypatch.setattr("tokencast.evaluate.evaluate", mismatched)
        cfg = self.eval_cfg(tmp_path, synth_csv)
        assert main(["evaluate", str(pretrained), str(cfg), str(tmp_path / "s")]) == 3
        assert "data error: metrics shapes disagree" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()


class TestInspectCommand:
    def test_prints_counts(self, tmp_path, synth_csv, capsys):
        cfg = write_train_cfg(tmp_path, synth_csv)
        out = tmp_path / "pre"
        assert main(["pretrain", str(cfg), str(out)]) == 0
        assert main(["inspect", str(out / "model.ckpt")]) == 0
        text = capsys.readouterr().out
        assert "params.total" in text
        assert "params.head" in text
        assert "meta.train_sources = mix" in text


class TestCheckpointValidation:
    CONFIG = ModelConfig(num_stages=2, pool_kernels=(2, 1), token_len=4, max_tokens=3,
                         model_width=8, layers_per_stage=1, attention_heads=2,
                         feedforward_width=8, seed=3)

    def write_checkpoint(self, tmp_path, **config_changes):
        path = tmp_path / "m.ckpt"
        path.write_bytes(serialize_with_config(from_params(init_model(self.CONFIG)),
                                               **config_changes))
        return path

    def test_width_disagreeing_with_arrays_exits_3(self, tmp_path, synth_csv, capsys):
        path = self.write_checkpoint(tmp_path, model_width=16)
        assert main(["forecast", str(path), str(synth_csv), "4",
                     str(tmp_path / "fc.csv")]) == 3
        assert "shape" in capsys.readouterr().err
        assert main(["inspect", str(path)]) == 3

    def test_bad_pool_kernels_exits_3(self, tmp_path):
        path = self.write_checkpoint(tmp_path, pool_kernels=(3, 1))
        assert main(["inspect", str(path)]) == 3

    @pytest.mark.parametrize("field,value", [
        ("attention_heads", 0), ("token_len", 0), ("model_width", 0), ("seed", -1),
    ])
    def test_unbuildable_config_block_exits_3(self, tmp_path, capsys, field, value):
        path = self.write_checkpoint(tmp_path, **{field: value})
        assert main(["inspect", str(path)]) == 3
        assert "invalid config block" in capsys.readouterr().err

    def test_directory_as_checkpoint_exits_3(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path)]) == 3
        assert "cannot read checkpoint" in capsys.readouterr().err
