import hashlib
import os
import re
import resource
import subprocess
import sys
import threading
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import tokencast
from tokencast import cli, errors
from tokencast.cli import main
from tokencast.checkpoint import from_params, load_checkpoint
from tokencast.config import _SECTIONS, _ini_fields, parse_run_config
from tokencast.data import (
    DataSettings,
    NoiseComponent,
    SineComponent,
    SynthSpec,
    TrendComponent,
    parse_components,
)
from tokencast.errors import ConfigError, ShapeError
from tokencast.evaluate import EvalSettings
from tokencast.model import ModelConfig, init_model, parameter_layout
from tokencast.train import TrainConfig

from conftest import serialize_with_config, serialize_with_record

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


def run_cli_process(*args, **kwargs):
    """``python *args`` in a fresh interpreter that imports this package."""
    src = str(Path(tokencast.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, **kwargs)


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

    @pytest.mark.parametrize("body,key", [
        ("length = 50\ncomponents = sine(period=nan) + trend(slope=inf)", "components"),
        ("length = 50\ncomponents = sine(period=inf)", "components"),
        ("length = 50\ncomponents = sine(period=10, phase=-inf)", "components"),
        ("length = 50\ncomponents = noise(sigma=nan)", "components"),
        ("length = 50\ncomponents = trend(slope=-inf)", "components"),
        ("length = 50\ncomponents = sine(period=0)", "components"),
        ("length = 50\ncomponents = noise(sigma=-1)", "components"),
        ("length = 50\ncomponents = trend(slope=1e308)", "components"),
        ("length = 50\ncomponents = sine(period=1e-320)", "components"),
        ("length = 50\ncomponents = sine(period=1, period=2)", "components"),
        ("length = 50\ncomponents = ", "components"),
        ("length = 50", "components"),
        ("components = noise(sigma=1.0)", "length"),
    ])
    def test_bad_or_missing_synth_setting_exits_2(self, tmp_path, capsys, body, key):
        # a non-finite parameter or series is rejected, not written out
        cfg = tmp_path / "s.cfg"
        cfg.write_text(f"[synth]\n{body}\n")
        out = tmp_path / "a.csv"
        assert main(["synth", str(cfg), str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert key in err
        assert not out.exists()


class TestComponentParsing:
    def test_keyword_form(self):
        comps = parse_components("sine(period=24, amplitude=2) + trend(slope=0.5)"
                                 " + noise(sigma=0.1)")
        assert comps == (SineComponent(24.0, 2.0), TrendComponent(0.5), NoiseComponent(0.1))

    @pytest.mark.parametrize("components", ["trend(0.5)", "sine(period=24, amp=2)"])
    def test_positional_form_and_alias_exit_2(self, tmp_path, capsys, components):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(f"[synth]\nlength = 50\ncomponents = {components}\n")
        assert main(["synth", str(cfg), str(tmp_path / "a.csv")]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: [synth] components={components!r}: ")

    def test_unknown_component(self):
        with pytest.raises(ConfigError, match="sawtooth"):
            parse_components("sawtooth(period=3)")

    def test_unknown_parameter(self):
        with pytest.raises(ConfigError, match="frequency"):
            parse_components("sine(frequency=3)")


# per section, a valid instance of its dataclass and field values it refuses
REFUSED = {
    "model": (ModelConfig(), {"token_len": 0, "pool_kernels": (5, 1), "dropout_rate": 1.0,
                              "attention_heads": 3, "seed": -1}),
    "train": (TrainConfig(), {"batch_size": 0, "learning_rate": float("nan"),
                              "beta2": 1.0}),
    "data": (DataSettings(), {"split": (0.5, 0.5)}),
    "synth": (SynthSpec(length=8, components=(NoiseComponent(1.0),)),
              {"length": 0, "components": (), "channels": -1}),
    "eval": (EvalSettings(), {"horizons": (96, 96), "lookback": 0, "protocol": "bogus"}),
}


class TestConfigValidation:
    @pytest.mark.parametrize("section", list(_SECTIONS))
    def test_bad_value_refused_when_built(self, section):
        cls = _SECTIONS[section]
        valid, refused = REFUSED[section]
        assert type(valid) is cls
        given = {f.name: getattr(valid, f.name) for f in fields(cls)}
        for name, value in refused.items():
            with pytest.raises(ConfigError):
                cls(**{**given, name: value})
            with pytest.raises(ConfigError):
                replace(valid, **{name: value})

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

    def test_readme_example_builds_every_section(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = tmp_path / "c.cfg"
        cfg.write_text(example)
        run = parse_run_config(cfg)
        assert run.model_config().pool_kernels == (4, 1)
        assert run.train_config().patience == 3
        assert run.eval_settings().horizons == (96, 192, 336, 720)
        assert run.synth_spec().components == (
            SineComponent(24.0), TrendComponent(0.001), NoiseComponent(0.1))
        base = tmp_path.resolve()
        assert run.resolved_data() == {"datasets": f"ett={base / 'ett.csv'};"
                                                   f"weather={base / 'weather.csv'}",
                                       "split": "0.7,0.1,0.2", "split.ett": "0.6,0.2,0.2"}

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
        assert f"[data] {key}='0.7,abc,0.2'" in capsys.readouterr().err

    def test_repeated_dataset_name_exits_2(self, tmp_path, synth_csv, capsys):
        cfg = write_train_cfg(tmp_path, synth_csv)
        cfg.write_text(cfg.read_text().replace(
            f"datasets = mix={synth_csv.name}", f"datasets = mix={synth_csv.name};mix=b.csv"))
        assert main(["pretrain", str(cfg), str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "config error: [data] datasets lists 'mix' twice\n"

    # checkpoint metadata joins dataset names with ',' and keeps one per line
    @pytest.mark.parametrize("names,name", [
        ("x,y", "x,y"), ("x\n  y", "x\ny"),
    ], ids=["comma", "line-break"])
    def test_dataset_name_breaking_metadata_exits_2(self, tmp_path, synth_csv, capsys,
                                                     monkeypatch, names, name):
        cfg = write_train_cfg(tmp_path, synth_csv)
        cfg.write_text(cfg.read_text().replace("datasets = mix=", f"datasets = {names}="))
        monkeypatch.setattr("tokencast.config.load_csv_dataset", None)  # no CSV loads
        out = tmp_path / "out"
        assert main(["pretrain", str(cfg), str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: [data] datasets name {name!r} holds ',' or a line break\n")
        assert not out.exists()

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
                                            ("eval", EvalSettings), ("data", DataSettings),
                                            ("synth", SynthSpec))
        for key in _ini_fields(cls)
    ])
    def test_every_field_value_exits_0_or_2(self, tmp_path, synth_csv, capsys, request,
                                            section, key):
        # every field of every section, including fields added later, must
        # either run or be rejected as a config error, never a traceback;
        # [eval] fields run a few-shot evaluate, the protocol that reads them
        # all, and [synth] fields run the synth command
        bodies = {"model": TINY_MODEL_SECTION,
                  "train": TRAIN_SECTION.replace("epochs = 2", "epochs = 1"),
                  "eval": FEW_SHOT_EVAL,
                  "data": f"[data]\ndatasets = mix={synth_csv.name}\nsplit = 0.7,0.1,0.2\n",
                  "synth": SWEEP_SYNTH}
        head = {"eval": ["evaluate", str(request.getfixturevalue("pretrained"))],
                "synth": ["synth"]}.get(section, ["pretrain"])
        for value in ("0", "-1", "abc"):
            lines = [line for line in bodies[section].splitlines()
                     if not line.startswith(f"{key} =")]
            lines.insert(1, f"{key} = {value}")
            text = "\n".join(lines) + "\n" + "".join(
                body for name, body in bodies.items() if name != section)
            cfg = tmp_path / "sweep.cfg"
            cfg.write_text(text)
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

    def test_non_finite_loss_exits_4(self, tmp_path, synth_csv, capsys):
        cfg = write_train_cfg(tmp_path, synth_csv)
        cfg.write_text(cfg.read_text().replace(
            "batch_size = 16", "batch_size = 1\nlearning_rate = 1e200"))
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["pretrain", str(cfg), str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numeric abort: non-finite loss at epoch 1, batch 1, ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_non_finite_loss_prints_only_its_line(self, tmp_path, synth_csv):
        # pytest captures numpy's warnings, so only a fresh process shows them
        cfg = write_train_cfg(tmp_path, synth_csv)
        cfg.write_text(cfg.read_text().replace(
            "batch_size = 16", "batch_size = 1\nlearning_rate = 1e200"))
        proc = run_cli_process("-W", "default", "-m", "tokencast.cli", "pretrain",
                               str(cfg), str(tmp_path / "out"), timeout=120)
        assert proc.returncode == 4
        assert proc.stderr == ("numeric abort: non-finite loss at epoch 1, batch 1, "
                               "learning rate 1e+200\n")

    def test_memory_error_exits_2_with_one_line(self, tmp_path, synth_csv, capsys,
                                                 monkeypatch):
        def too_big(*args, **kwargs):
            raise MemoryError("Unable to allocate 727. MiB for an array with shape "
                              "(248031, 384) and data type float64")

        monkeypatch.setattr("tokencast.train.sample_windows", too_big)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["pretrain", str(write_train_cfg(tmp_path, synth_csv)), str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: out of memory: Unable to allocate 727. MiB for an array "
            "with shape (248031, 384) and data type float64\n")
        assert not out.exists()

    def test_memory_error_on_the_validation_thread_exits_2(self, tmp_path, synth_csv,
                                                           capsys, monkeypatch):
        threads = []

        def too_big(*args):
            threads.append(threading.current_thread())
            raise MemoryError()

        monkeypatch.setattr("tokencast.train._spare_core", lambda: True)
        monkeypatch.setattr("tokencast.train._mean_window_mse", too_big)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["pretrain", str(write_train_cfg(tmp_path, synth_csv)), str(out)]) == 2
        assert capsys.readouterr().err == "config error: out of memory\n"
        assert threads and threads[0] is not threading.current_thread()
        assert not out.exists()

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
SWEEP_SYNTH = ("[synth]\nname = s\nlength = 50\nchannels = 2\n"
               "components = sine(period=10) + noise(sigma=0.1)\nseed = 1\n")


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
    # the command picks the trained scope, so [train] has no scope key, and a
    # resolved.cfg that still carries one is refused before any work
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
        assert err == "config error: unknown key 'scope' in section [train]\n"


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
    # a directory, and an absent output's parent must be an existing directory,
    # which is never created
    @pytest.mark.parametrize("command,out_path", [
        ("pretrain", "afile"), ("finetune", "afile"), ("few-shot", "afile"),
        ("pretrain", "afile/sub"), ("finetune", "afile/sub"), ("few-shot", "afile/sub"),
        ("forecast", "afile/sub"), ("synth", "afile/sub"),
        ("forecast", "adir"), ("synth", "adir"),
        ("pretrain", "x/.."), ("synth", "nested/deep/x.csv"),
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


    # a write stages through a fresh temporary name, so a file of the user's
    # that happens to be named like one survives byte for byte
    @pytest.mark.parametrize("command,out_name,user_file", [
        ("forecast", "fc.csv", "fc.csv.tmp"), ("pretrain", "busy", "busy/model.ckpt.tmp"),
    ])
    def test_write_keeps_users_tmp_file(self, tmp_path, synth_csv, pretrained,
                                        command, out_name, user_file):
        user = tmp_path / user_file
        user.parent.mkdir(exist_ok=True)
        user.write_bytes(b"mine\n")
        assert main(["--force"] + output_head(command, tmp_path, synth_csv, pretrained)
                    + [str(tmp_path / out_name)]) == 0
        assert user.read_bytes() == b"mine\n"
        assert sorted(p.name for p in user.parent.glob("*.tmp")) == [user.name]
        # and the output gets the mode a plain write gives
        (tmp_path / "plain").write_bytes(b"")
        assert (user.parent / user.stem).stat().st_mode == (tmp_path / "plain").stat().st_mode

    # a run directory that fills during the work is refused before any file
    # of the run is moved in, so no checkpoint appears without its loss curve
    def test_run_dir_filled_during_work_exits_3(self, tmp_path, synth_csv, capsys,
                                                monkeypatch):
        out = tmp_path / "partial"
        real = cli.loss_curve_to_csv

        def plant_then_render(history):
            (out / "loss.csv").mkdir(parents=True)
            return real(history)

        monkeypatch.setattr(cli, "loss_curve_to_csv", plant_then_render)
        cfg = write_train_cfg(tmp_path, synth_csv)
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main(["pretrain", str(cfg), str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert str(out) in err
        assert sorted(tmp_path.rglob("*")) == sorted(before + [out, out / "loss.csv"])

    # with --force, an existing directory gets each file by its own rename once
    # all are written; a rename that fails keeps the files moved before it
    def test_forced_publish_stops_at_failed_rename(self, tmp_path, synth_csv, capsys):
        out = tmp_path / "busy"
        (out / "loss.csv").mkdir(parents=True)
        cfg = write_train_cfg(tmp_path, synth_csv)
        capsys.readouterr()
        assert main(["--force", "pretrain", str(cfg), str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert sorted(p.name for p in out.iterdir()) == ["loss.csv", "model.ckpt"]
        assert not list(tmp_path.rglob("*.tmp"))

    # an existing directory is never replaced, since it may be the caller's
    # working directory; it keeps its inode and receives the run's files
    @pytest.mark.parametrize("inside", [True, False], ids=["dot-inside", "path-outside"])
    def test_existing_empty_dir_keeps_inode(self, tmp_path, synth_csv, monkeypatch, inside):
        cfg = write_train_cfg(tmp_path, synth_csv)
        out = tmp_path / "here"
        out.mkdir()
        inode = out.stat().st_ino
        if inside:
            monkeypatch.chdir(out)
        assert main(["pretrain", str(cfg), "." if inside else str(out)]) == 0
        assert out.stat().st_ino == inode
        assert sorted(p.name for p in out.iterdir()) == ["loss.csv", "model.ckpt",
                                                        "resolved.cfg"]

    # a new run directory and its files get the modes a plain mkdir and write
    # give, not the 0700 of a private staging directory
    def test_new_run_dir_has_mkdir_mode(self, tmp_path, synth_csv):
        cfg = write_train_cfg(tmp_path, synth_csv)
        umask = os.umask(0o027)
        try:
            assert main(["pretrain", str(cfg), str(tmp_path / "out")]) == 0
            (tmp_path / "plain").mkdir()
            (tmp_path / "plain.txt").write_bytes(b"")
        finally:
            os.umask(umask)
        mode = (tmp_path / "plain").stat().st_mode
        assert mode & 0o777 == 0o750
        assert (tmp_path / "out").stat().st_mode == mode
        for file in (tmp_path / "out").iterdir():
            assert file.stat().st_mode == (tmp_path / "plain.txt").stat().st_mode


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


BIG = 10**20


class TestSizeBounds:
    # a size beyond errors.MAX_ELEMENTS float64 values exits 2 with one line
    # before anything of that size is allocated
    @pytest.mark.parametrize("case", [
        "synth channels", "synth length", "model token_len", "model max_tokens",
        "model width", "model feedforward_width", "forecast horizon", "evaluate rows"])
    def test_oversized_exits_2(self, tmp_path, synth_csv, request, capsys, case):
        kind, key = case.split()
        out = tmp_path / "out"
        if kind == "synth":
            sizes = {"length": 50, "channels": 1, key: BIG}
            cfg = tmp_path / "s.cfg"
            cfg.write_text(f"[synth]\nlength = {sizes['length']}\n"
                           f"channels = {sizes['channels']}\ncomponents = sine(period=10)\n")
            argv = ["synth", str(cfg), str(out)]
        elif kind == "model":
            cfg = write_train_cfg(tmp_path, synth_csv)
            cfg.write_text(re.sub(f"^{key} = .*$", f"{key} = {BIG}", cfg.read_text(),
                                  flags=re.M))
            argv = ["pretrain", str(cfg), str(out)]
        elif kind == "forecast":  # 2 channels x 25e12 steps x 4 points
            argv = ["forecast", str(request.getfixturevalue("pretrained")),
                    str(synth_csv), "99999999999999", str(out)]
        else:  # 35997 rows x (4 + 36000) points
            (tmp_path / "big.csv").write_text(
                "ch0\n" + "\n".join(str(i % 7) for i in range(90000)) + "\n")
            cfg = tmp_path / "eval.cfg"
            cfg.write_text("[data]\ndatasets = big=big.csv\nsplit = 0.1,0.1,0.8\n"
                           "[eval]\nhorizons = 36000\nlookback = 4\n")
            argv = ["evaluate", str(request.getfixturevalue("pretrained")), str(cfg),
                    str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert str(errors.MAX_ELEMENTS) in err
        assert not out.exists()

    def test_oversized_layer_count_exits_2(self, tmp_path, synth_csv):
        # code that walks parameter_layout to count parameters loops here
        # while its memory grows, so only a limited child process runs it
        cfg = write_train_cfg(tmp_path, synth_csv)
        cfg.write_text(cfg.read_text().replace("layers_per_stage = 1",
                                               f"layers_per_stage = {10**14}"))
        limit = 2**30

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        proc = run_cli_process("-m", "tokencast.cli", "pretrain", str(cfg),
                               str(tmp_path / "out"), timeout=60,
                               preexec_fn=limit_memory)
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: the model would hold ")
        assert proc.stderr.count("\n") == 1


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

    def test_multi_channel_csv_report_identical_at_any_threads(self, tmp_path, synth_csv,
                                                                pretrained):
        # a 2-channel CSV loads F-ordered; stride 1 gives every worker
        # differently strided rows
        cfg = tmp_path / "eval.cfg"
        cfg.write_text(f"[data]\ndatasets = mix={synth_csv.name}\nsplit = 0.7,0.1,0.2\n"
                       "[eval]\nhorizons = 4,8,13\nlookback = 12\nstride = 1\n")
        reports = set()
        for threads in (1, 2, 3):
            out = tmp_path / f"ev{threads}"
            assert main(["--threads", str(threads), "evaluate", str(pretrained), str(cfg),
                         str(out)]) == 0
            reports.add((out / "report.csv").read_bytes())
        assert len(reports) == 1

    def test_failed_fork_decodes_every_share_here(self, tmp_path, synth_csv, pretrained,
                                                  monkeypatch):
        cfg = self.eval_cfg(tmp_path, synth_csv)
        assert main(["evaluate", str(pretrained), str(cfg), str(tmp_path / "one")]) == 0

        def fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
        assert main(["--threads", "3", "evaluate", str(pretrained), str(cfg),
                     str(tmp_path / "three")]) == 0
        assert ((tmp_path / "three" / "report.csv").read_bytes()
                == (tmp_path / "one" / "report.csv").read_bytes())

    def test_zero_shot_on_source_exits_5(self, tmp_path, synth_csv, pretrained):
        cfg = self.eval_cfg(tmp_path, synth_csv, "protocol = zero-shot\n")
        assert main(["evaluate", str(pretrained), str(cfg), str(tmp_path / "z")]) == 5

    def synth(self, tmp_path, name, length):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(
            f"[synth]\nname = {name}\nlength = {length}\nchannels = 1\n"
            "components = sine(period=12) + noise(sigma=0.05)\nseed = 9\n"
        )
        out = tmp_path / f"{name}.csv"
        assert main(["synth", str(cfg), str(out)]) == 0
        return out

    def test_zero_shot_on_unseen_dataset(self, tmp_path, synth_csv, pretrained):
        other_csv = self.synth(tmp_path, "other", 200)
        cfg = tmp_path / "eval.cfg"
        cfg.write_text(
            f"[data]\ndatasets = other={other_csv.name}\n"
            "[eval]\nprotocol = zero-shot\nhorizons = 4\nlookback = 12\nstride = 4\n"
        )
        assert main(["evaluate", str(pretrained), str(cfg), str(tmp_path / "z2")]) == 0

    def test_zero_shot_on_finetuned_dataset_exits_5(self, tmp_path, synth_csv, pretrained,
                                                     capsys):
        other_csv = self.synth(tmp_path, "other", 200)
        ft_cfg = write_train_cfg(tmp_path, other_csv).read_text()
        ft_cfg = ft_cfg.replace(f"mix={other_csv.name}", f"other={other_csv.name}")
        (tmp_path / "ft.cfg").write_text(ft_cfg)
        assert main(["finetune", str(pretrained), str(tmp_path / "ft.cfg"),
                     str(tmp_path / "ft")]) == 0
        cfg = tmp_path / "eval.cfg"
        cfg.write_text(
            f"[data]\ndatasets = other={other_csv.name}\n"
            "[eval]\nprotocol = zero-shot\nhorizons = 4\nlookback = 12\nstride = 4\n"
        )
        capsys.readouterr()
        out = tmp_path / "z"
        assert main(["evaluate", str(tmp_path / "ft" / "model.ckpt"), str(cfg),
                     str(out)]) == 5
        assert "trained or tuned on other" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_shot_checks_every_dataset_before_scoring(
            self, tmp_path, synth_csv, pretrained, monkeypatch):
        import tokencast.evaluate as ev

        calls = []
        monkeypatch.setattr(ev, "evaluate", lambda *args, **kwargs: calls.append(args))
        other_csv = self.synth(tmp_path, "other", 200)
        cfg = tmp_path / "eval.cfg"
        cfg.write_text(
            f"[data]\ndatasets = other={other_csv.name};mix={synth_csv.name}\n"
            "[eval]\nprotocol = zero-shot\nhorizons = 4\nlookback = 12\nstride = 4\n"
        )
        out = tmp_path / "z"
        assert main(["evaluate", str(pretrained), str(cfg), str(out)]) == 5
        assert calls == []
        assert not out.exists()

    def test_few_shot_checks_every_dataset_before_tuning(
            self, tmp_path, synth_csv, pretrained, monkeypatch, capsys):
        import tokencast.evaluate as ev

        calls = []
        monkeypatch.setattr(ev, "finetune_heads", lambda *args: calls.append(args))
        short_csv = self.synth(tmp_path, "short", 60)
        cfg = tmp_path / "eval.cfg"
        cfg.write_text(
            f"[data]\ndatasets = mix={synth_csv.name};short={short_csv.name}\n"
            + FEW_SHOT_EVAL + TRAIN_SECTION
        )
        capsys.readouterr()
        out = tmp_path / "fs"
        assert main(["evaluate", str(pretrained), str(cfg), str(out)]) == 2
        assert "test range of short too short" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_few_shot_window_check_before_tuning(self, tmp_path, synth_csv, pretrained,
                                                 monkeypatch, capsys):
        # other's reduced train range (half of 10 points) holds no 16-point
        # window; that is found before mix is tuned or scored
        import tokencast.evaluate as ev

        calls = []
        monkeypatch.setattr(ev, "finetune_heads", lambda *args: calls.append(args))
        monkeypatch.setattr(ev, "evaluate", lambda *args, **kwargs: calls.append(args))
        other_csv = self.synth(tmp_path, "other", 200)
        cfg = tmp_path / "eval.cfg"
        cfg.write_text(
            f"[data]\ndatasets = mix={synth_csv.name};other={other_csv.name}\n"
            "split.other = 0.05,0.1,0.85\n" + FEW_SHOT_EVAL + TRAIN_SECTION
        )
        capsys.readouterr()
        out = tmp_path / "fs"
        assert main(["evaluate", str(pretrained), str(cfg), str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: no training windows: need segments of at least 16 points\n")
        assert calls == []
        assert not out.exists()

    def test_repeated_horizon_exits_2(self, tmp_path, synth_csv, pretrained, capsys):
        cfg = self.eval_cfg(tmp_path, synth_csv)
        cfg.write_text(cfg.read_text().replace("horizons = 4,8", "horizons = 8,8,4"))
        out = tmp_path / "ev"
        assert main(["evaluate", str(pretrained), str(cfg), str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: horizons must not repeat, got (8, 8, 4)\n")
        assert not out.exists()

    @pytest.mark.parametrize("protocol", ["standard", "few-shot"])
    def test_lookback_below_token_exits_2_before_work(
            self, tmp_path, synth_csv, pretrained, monkeypatch, capsys, protocol):
        import tokencast.evaluate as ev

        calls = []
        monkeypatch.setattr(ev, "finetune_heads", lambda *args: calls.append(args))
        cfg = self.eval_cfg(tmp_path, synth_csv,
                            f"protocol = {protocol}\nfraction = 0.5\n")
        cfg.write_text(cfg.read_text().replace("lookback = 12", "lookback = 3")
                       + TRAIN_SECTION)
        capsys.readouterr()
        out = tmp_path / "lb"
        assert main(["evaluate", str(pretrained), str(cfg), str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: lookback 3 is shorter than the checkpoint's token_len 4\n"
        assert calls == []
        assert not out.exists()

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

    # a report's fingerprint names the checkpoint file given, also under
    # few-shot, whose tuned checkpoints are never written
    @pytest.mark.parametrize("protocol", ["standard", "few-shot"])
    def test_fingerprint_is_given_checkpoints_hash(self, tmp_path, synth_csv, pretrained,
                                                   protocol):
        cfg = (self.eval_cfg(tmp_path, synth_csv) if protocol == "standard"
               else command_run("few-shot", tmp_path, synth_csv, pretrained)[1])
        out = tmp_path / "ev"
        assert main(["evaluate", str(pretrained), str(cfg), str(out)]) == 0
        digest = hashlib.sha256(pretrained.read_bytes()).hexdigest()[:16]
        assert (out / "report.csv").read_text().splitlines()[0] == f"# fingerprint={digest}"

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


class TestNonUtf8Input:
    # an input that is not UTF-8 exits with its reader's code, naming the
    # input, and writes nothing
    @pytest.mark.parametrize("target,marker,code,message", [
        ("csv", b"ch1", 3, "data error: {csv}: not UTF-8 text: "),
        ("cfg", b"[train]", 2, "config error: config {cfg} is not UTF-8 text: "),
        ("ckpt", b"train_sources=mix", 3,
         "data error: config block at byte offset 16 is not UTF-8: "),
        ("ckpt", b"stage0.head.weight", 3, "data error: array name at byte offset "),
    ], ids=["csv", "config", "config-block", "array-name"])
    def test_exits_with_documented_code(self, tmp_path, synth_csv, pretrained, capsys,
                                        target, marker, code, message):
        paths = {"cfg": write_train_cfg(tmp_path, synth_csv),
                 "ckpt": tmp_path / "bad.ckpt", "csv": tmp_path / "bad.csv"}
        paths["ckpt"].write_bytes(pretrained.read_bytes())
        paths["csv"].write_bytes(synth_csv.read_bytes())
        data = paths[target].read_bytes()
        assert data.count(marker) == 1
        paths[target].write_bytes(data.replace(marker, b"\xff" + marker[1:]))
        out = tmp_path / "out"
        argv = (["pretrain", str(paths["cfg"]), str(out)] if target == "cfg" else
                ["forecast", str(paths["ckpt"]), str(paths["csv"]), "4", str(out)])
        capsys.readouterr()
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith(message.format(**paths))
        assert err.count("\n") == 1
        assert not out.exists()


class TestCliSurface:
    # main reads each output path by its argparse dest, so the positional names
    # are part of the interface
    @pytest.mark.parametrize("command,usage,required", [
        ("pretrain", "[-h] config out_dir", "config, out_dir"),
        ("finetune", "[-h] [--full-tune] checkpoint config out_dir",
         "checkpoint, config, out_dir"),
        ("forecast", "[-h] checkpoint input_csv horizon out_csv",
         "checkpoint, input_csv, horizon, out_csv"),
        ("evaluate", "[-h] checkpoint config out_dir", "checkpoint, config, out_dir"),
        ("synth", "[-h] config out_csv", "config, out_csv"),
        ("inspect", "[-h] checkpoint", "checkpoint"),
    ])
    def test_usage_and_missing_arguments(self, capsys, monkeypatch, command, usage,
                                         required):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.splitlines()[0] == f"usage: tokencast {command} {usage}"
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"tokencast {command}: error: the following arguments are required: {required}")

    # argparse refuses an unknown preset before any command runs
    @pytest.mark.parametrize("command", ["pretrain", "finetune", "few-shot", "forecast",
                                         "synth"])
    def test_unknown_preset_exits_2(self, tmp_path, synth_csv, pretrained, capsys,
                                    command):
        argv = output_head(command, tmp_path, synth_csv, pretrained) + [str(tmp_path / "out")]
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["--preset", "bogus"] + argv)
        assert exc.value.code == 2
        assert "--preset: invalid choice: 'bogus'" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    # only pretrain builds a model from a preset; every other command refuses
    # one before any work
    @pytest.mark.parametrize("command", ["finetune", "forecast", "evaluate", "synth",
                                         "inspect"])
    def test_preset_off_pretrain_exits_2(self, tmp_path, synth_csv, pretrained, capsys,
                                         command):
        if command == "inspect":
            argv = ["inspect", str(pretrained)]
        else:
            argv = output_head("few-shot" if command == "evaluate" else command,
                               tmp_path, synth_csv, pretrained) + [str(tmp_path / "out")]
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main(["--preset", "paper"] + argv) == 2
        assert capsys.readouterr() == (
            "", f"config error: --preset applies only to pretrain, not {command}\n")
        assert sorted(tmp_path.rglob("*")) == before


ERRORS = sorted((cls for cls in vars(errors).values() if isinstance(cls, type)
                 and issubclass(cls, errors.TokencastError)
                 and cls is not errors.TokencastError), key=lambda cls: cls.__name__)


class TestExitCodes:
    # each error family carries its exit code and label; main prints one
    # "<label>: <message>" line for it, and reports an OSError as a data error
    EXPECTED = {
        "ConfigError": (2, "config error"),
        "DataError": (3, "data error"),
        "ShapeError": (3, "data error"),
        "InputTooShortError": (3, "data error"),
        "CheckpointFormatError": (3, "data error"),
        "CheckpointVersionError": (3, "data error"),
        "NumericAbort": (4, "numeric abort"),
        "ProtocolError": (5, "protocol violation"),
        "PermissionError": (3, "data error"),
    }

    @pytest.mark.parametrize("cls", ERRORS + [PermissionError], ids=lambda cls: cls.__name__)
    def test_error_exits_with_its_code(self, capsys, monkeypatch, cls):
        code, label = self.EXPECTED[cls.__name__]
        extra = (1, 2, 0.5) if cls is errors.NumericAbort else ()

        def fail(args):
            raise cls("it went wrong", *extra)

        monkeypatch.setattr(cli, "cmd_inspect", fail)
        assert main(["inspect", "model.ckpt"]) == code
        assert capsys.readouterr() == ("", f"{label}: it went wrong\n")


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

    @pytest.mark.parametrize("record", [
        dict(dims=(2**32 - 1, 2**32 - 1)), dict(dims=(2**31, 2**31, 4)), dict(scope=2),
    ], ids=["dims-past-int64", "dims-wrapping-to-0", "scope-code-2"])
    def test_malformed_array_record_exits_3_with_one_line(self, tmp_path, capsys, record):
        path = tmp_path / "m.ckpt"
        path.write_bytes(serialize_with_record(from_params(init_model(self.CONFIG)),
                                               "stage0.embed.bias", **record))
        capsys.readouterr()
        assert main(["inspect", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "stage0.embed.bias" in err

    def test_directory_as_checkpoint_exits_3(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path)]) == 3
        assert "cannot read checkpoint" in capsys.readouterr().err
