"""Command-line entry point.

Commands: pretrain, finetune, forecast, evaluate, synth, inspect.
Exit codes: 0 on success. A ``TokencastError`` exits with the code its family
carries, after one ``<label>: <message>`` line on stderr (the ``errors``
module owns the mapping). An ``OSError`` is reported as a data error (3), and
a ``MemoryError`` as a config error (2), since a setting implies the size.
Runs are reproducible: identical config, seed and inputs give identical output
bytes at any --threads count.

Each ``cmd_*`` only computes: it returns its outputs (a run directory's files
by name, one CSV's text, or None) and the line to print. ``main`` checks the
output path before the command runs (a bad path exits 2) and hands the outputs
to ``_publish`` after it returns, so a failed run leaves nothing behind and a
new run directory appears whole; a failed publish exits 3.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

from . import checkpoint as ckpt_io
from .config import parse_run_config, render_resolved
from .data import (
    MultivariateSeries,
    build_mixed_dataset,
    load_csv_dataset,
    series_to_csv,
    synth_generate,
)
from .errors import ConfigError, DataError, TokencastError
from .evaluate import format_table, report_to_csv, run_protocol
from .infer import ForecastRequest, ar_forecast
from .model import count_parameters
from .train import finetune_heads, loss_curve_to_csv, pretrain


def _check_output(path: Path, run_dir: bool, force: bool) -> None:
    """Checked before any work. A run directory must be absent, or a directory
    that is empty unless --force is given; an output file must not be a
    directory; and the parent of an absent output must be a directory."""
    if path.is_dir():
        if not run_dir:
            raise ConfigError(f"output file {path} is a directory")
        if not force and any(path.iterdir()):
            raise ConfigError(f"output directory {path} is not empty (use --force)")
    elif path.exists():
        if run_dir:
            raise ConfigError(f"output directory {path} is not a directory")
    elif not path.parent.is_dir():
        raise ConfigError(f"output path {path}: {path.parent} is not a directory")


def _publish(path: Path, outputs: dict[str, str | bytes] | str, force: bool) -> None:
    """Stage ``outputs`` in a fresh directory, then rename them to ``path``;
    a file or a new run directory arrives whole. An existing run directory,
    maybe the caller's working directory, is never replaced: it is refused if
    it filled during the work (unless --force), else each file is renamed in
    once all are written. The staging directory is always removed."""
    into = isinstance(outputs, dict) and path.is_dir()
    if into and not force and any(path.iterdir()):
        raise DataError(f"output directory {path} filled during the run; nothing written")
    stage = Path(tempfile.mkdtemp(dir=path if into else path.parent,
                                  prefix=".tokencast-", suffix=".tmp"))
    try:
        staged = stage / "out"
        files = {staged: outputs}
        if isinstance(outputs, dict):
            staged.mkdir()  # mkdir's mode, not mkdtemp's 0700
            files = {staged / name: body for name, body in outputs.items()}
        for file, body in files.items():
            file.write_bytes(body.encode("utf-8") if isinstance(body, str) else body)
        if into:
            for name in outputs:
                (staged / name).replace(path / name)
        else:
            staged.replace(path)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _mixed_pair(datasets):
    return (build_mixed_dataset(datasets, "train"),
            build_mixed_dataset(datasets, "validation"))


def cmd_pretrain(args):
    run = parse_run_config(args.config)
    model_cfg = run.model_config(preset=args.preset, seed=args.seed)
    train_cfg = run.train_config(seed=args.seed)
    train_mixed, val_mixed = _mixed_pair(run.load_datasets())
    ckpt, history = pretrain(model_cfg, train_cfg, train_mixed, val_mixed)
    best = ckpt.metadata.get("best_val_mse", "nan")
    return {"model.ckpt": ckpt_io.serialize(ckpt),
            "loss.csv": loss_curve_to_csv(history),
            "resolved.cfg": render_resolved(model=model_cfg, train=train_cfg,
                                            data=run.resolved_data()),
            }, f"pretrained {len(history)} epochs, best val mse {best}"


def cmd_finetune(args):
    run = parse_run_config(args.config)
    train_cfg = run.train_config(seed=args.seed)
    source = ckpt_io.load_checkpoint(args.checkpoint)
    train_mixed, val_mixed = _mixed_pair(run.load_datasets())
    tuned, history = finetune_heads(source, train_cfg, train_mixed, val_mixed,
                                    full_tune=args.full_tune)
    return {"model.ckpt": ckpt_io.serialize(tuned),
            "loss.csv": loss_curve_to_csv(history),
            "resolved.cfg": render_resolved(model=tuned.config, train=train_cfg,
                                            data=run.resolved_data()),
            }, f"finetuned ({tuned.metadata['scope']} scope), {len(history)} epochs"


def cmd_forecast(args):
    if args.horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {args.horizon}")
    ckpt = ckpt_io.load_checkpoint(args.checkpoint)
    series = load_csv_dataset(args.input_csv, Path(args.input_csv).stem)
    params = ckpt_io.to_params(ckpt)
    result = ar_forecast(params, ForecastRequest(series.values, args.horizon))
    return (series_to_csv(MultivariateSeries(series.name, result.predictions)),
            f"decode_steps={result.decode_steps}")


def cmd_evaluate(args):
    run = parse_run_config(args.config)
    settings = run.eval_settings()
    train_cfg = (run.train_config(seed=args.seed)
                 if settings.protocol == "few-shot" else None)
    ckpt = ckpt_io.load_checkpoint(args.checkpoint)
    report = run_protocol(ckpt, run.load_datasets(), settings, train_cfg, args.threads)
    return {"report.csv": report_to_csv(report),
            "resolved.cfg": render_resolved(train=train_cfg, data=run.resolved_data(),
                                            evaluation=settings),
            }, format_table(report)


def cmd_synth(args):
    series = synth_generate(parse_run_config(args.config).synth_spec(seed=args.seed))
    return (series_to_csv(series),
            f"wrote {series.num_channels}x{series.length} series to {args.out_csv}")


def cmd_inspect(args):
    ckpt = ckpt_io.load_checkpoint(args.checkpoint)
    params = ckpt_io.to_params(ckpt)
    total = count_parameters(params, "all")
    head = count_parameters(params, "head")
    lines = [f"version = {ckpt_io.VERSION}"]
    lines += [f"{f.name} = {getattr(ckpt.config, f.name)}" for f in fields(ckpt.config)]
    lines += [f"meta.{key} = {value}" for key, value in sorted(ckpt.metadata.items())]
    return None, "\n".join(lines + [
        f"params.total = {total}", f"params.head = {head}",
        f"params.non_head = {total - head}", f"params.head_fraction = {head / total:.6f}"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tokencast",
        description="Hierarchical auto-regressive time series forecaster",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="override every configured seed")
    parser.add_argument("--threads", type=int, default=1,
                        help="workers for window evaluation: this process and "
                             "forked children, where the OS can fork; each keeps "
                             "its BLAS's own thread pool, so above 1 set "
                             "OPENBLAS_NUM_THREADS=1 (or OMP_NUM_THREADS or "
                             "MKL_NUM_THREADS) or it may run slower than 1")
    parser.add_argument("--force", action="store_true",
                        help="allow writing into a non-empty output directory")
    parser.add_argument("--preset", default=None, choices=("paper",),
                        help="named model preset for pretrain (currently: paper)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="train all parameters on the mixed dataset")
    p.add_argument("config")
    p.add_argument("out_dir")
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("finetune", help="update forecast heads on a target dataset")
    p.add_argument("checkpoint")
    p.add_argument("config")
    p.add_argument("out_dir")
    p.add_argument("--full-tune", action="store_true",
                   help="update every parameter, not only the heads")
    p.set_defaults(fn=cmd_finetune)

    p = sub.add_parser("forecast", help="forecast a CSV lookback at some horizon")
    p.add_argument("checkpoint")
    p.add_argument("input_csv")
    p.add_argument("horizon", type=int)
    p.add_argument("out_csv")
    p.set_defaults(fn=cmd_forecast)

    p = sub.add_parser("evaluate", help="run an evaluation protocol")
    p.add_argument("checkpoint")
    p.add_argument("config")
    p.add_argument("out_dir")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    p.add_argument("config")
    p.add_argument("out_csv")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("inspect", help="print checkpoint config and parameter counts")
    p.add_argument("checkpoint")
    p.set_defaults(fn=cmd_inspect)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = getattr(args, "out_dir", getattr(args, "out_csv", None))
    try:
        if args.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {args.threads}")
        if args.preset is not None and args.command != "pretrain":
            raise ConfigError(f"--preset applies only to pretrain, not {args.command}")
        if out is not None:
            _check_output(Path(out), hasattr(args, "out_dir"), args.force)
        outputs, line = args.fn(args)
        if out is not None:
            _publish(Path(out), outputs, args.force)
        print(line, file=sys.stderr if args.command == "forecast" else sys.stdout)
        return 0
    except TokencastError as exc:
        error = exc
    except OSError as exc:
        error = DataError(exc)
    except MemoryError as exc:
        # a size that a setting implies outgrew the memory, as with MAX_ELEMENTS
        error = ConfigError(f"out of memory: {exc}" if str(exc) else "out of memory")
    print(f"{error.label}: {error}", file=sys.stderr)
    return error.exit_code


if __name__ == "__main__":
    sys.exit(main())
