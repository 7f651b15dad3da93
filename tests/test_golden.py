"""Golden values of one tiny CLI chain: synth -> pretrain -> finetune ->
evaluate (standard and few-shot) -> forecast.

The other tests check properties (determinism, scope, shapes); this one pins
what the program computes, so a refactor that changes a single number fails
here. The values were taken from a run of this chain and may change only with
a change meant to alter outputs. rtol 1e-9 leaves room for BLAS rounding
across machines, as ``perfbench/reference.json`` does.
"""

import csv

import numpy as np

from tokencast.checkpoint import load_checkpoint
from tokencast.cli import main

CONFIG = """\
[synth]
name = mix
length = 300
channels = 2
components = sine(period=24) + trend(slope=0.002) + noise(sigma=0.1)
seed = 1

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

[train]
epochs = 2
batch_size = 16
stride = 4
seed = 3

[data]
datasets = mix=mix.csv
split = 0.7,0.1,0.2

[eval]
protocol = {protocol}
horizons = 4,8
lookback = 12
stride = 4
fraction = 0.5
"""

GOLDEN = {
    "pretrain.best_val_mse": 0.5207195914443051,
    "finetune.best_val_mse": 0.47152029496376785,
    "standard": [[4, 0.9379120623571101, 0.892367210612348],
                 [8, 1.2948335510578899, 1.00376204968019]],
    "few-shot": [[4, 0.9862610205399088, 0.917291730976014],
                 [8, 1.3199550937540339, 1.0157215949832268]],
    "forecast": [[1.144677588823807, 0.8577822191548157, 0.5337687706910369,
                  0.9554678038139502, 1.0207238318654717, 1.1448001296675232],
                 [1.0063110404386684, 0.8787202836404567, 0.5052927158316155,
                  0.9910818128263323, 1.108529962549364, 1.2332104328848983]],
}


def run_chain(tmp_path) -> dict:
    """The chain's numbers: each run's best validation MSE, each report's
    (horizon, mse, mae) rows and the forecast's values, channel-major."""
    for protocol in ("standard", "few-shot"):
        (tmp_path / f"{protocol}.cfg").write_text(CONFIG.format(protocol=protocol))
    cfg = str(tmp_path / "standard.cfg")
    steps = [
        ["synth", cfg, str(tmp_path / "mix.csv")],
        ["pretrain", cfg, str(tmp_path / "pre")],
        ["finetune", str(tmp_path / "pre" / "model.ckpt"), cfg, str(tmp_path / "ft")],
        ["evaluate", str(tmp_path / "ft" / "model.ckpt"), cfg, str(tmp_path / "standard")],
        ["evaluate", str(tmp_path / "pre" / "model.ckpt"), str(tmp_path / "few-shot.cfg"),
         str(tmp_path / "few-shot")],
        ["forecast", str(tmp_path / "ft" / "model.ckpt"), str(tmp_path / "mix.csv"), "6",
         str(tmp_path / "fc.csv")],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    out = {f"{run}.best_val_mse": float(load_checkpoint(
        tmp_path / name / "model.ckpt").metadata["best_val_mse"])
        for run, name in (("pretrain", "pre"), ("finetune", "ft"))}
    for protocol in ("standard", "few-shot"):
        lines = (tmp_path / protocol / "report.csv").read_text().splitlines()[2:]
        out[protocol] = [[int(h), float(mse), float(mae)]
                         for _, h, mse, mae, _ in csv.reader(lines)]
    with open(tmp_path / "fc.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    out["forecast"] = np.asarray(rows, dtype=np.float64).T.tolist()
    return out


def test_cli_chain_matches_golden_values(tmp_path):
    got = run_chain(tmp_path)
    assert list(got) == list(GOLDEN)
    for key, expected in GOLDEN.items():
        np.testing.assert_allclose(got[key], expected, rtol=1e-9, atol=0, err_msg=key)
