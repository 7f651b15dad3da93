"""Command-line entry point.

Commands: pretrain, finetune, forecast, evaluate, synth, inspect.
Exit codes: 0 success, 2 config error, 3 data error (including operands
whose shapes disagree, ShapeError), 4 numeric abort, 5 protocol violation.
Runs are reproducible: identical config, seed and inputs give identical
output bytes at any --threads count.

Each command checks its output path before any work (a bad path exits 2) and
writes every file through ``_write`` once the work has succeeded, so a rejected
or failed run leaves nothing behind; a failed write exits 3 with no partial file.
"""

from __future__ import annotations

import argparse
import sys
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
from .errors import (
    CheckpointFormatError,
    ConfigError,
    DataError,
    InputTooShortError,
    NumericAbort,
    ProtocolError,
    ShapeError,
)
from .evaluate import EvalReport, format_table, report_to_csv, run_protocol
from .infer import ForecastRequest, ar_forecast
from .model import count_parameters
from .train import finetune_heads, loss_curve_to_csv, pretrain

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_PROTOCOL = 5


def _check_output(path: Path, run_dir: bool, force: bool = False) -> None:
    """Checked before any work. A run directory must be absent, or a directory
    that is empty unless --force is given; an output file must not be a
    directory; and the nearest existing ancestor must be a directory."""
    if path.is_dir():
        if not run_dir:
            raise ConfigError(f"output file {path} is a directory")
        if not force and any(path.iterdir()):
            raise ConfigError(f"output directory {path} is not empty (use --force)")
    elif path.exists():
        if run_dir:
            raise ConfigError(f"output directory {path} is not a directory")
    else:
        ancestor = next(p for p in path.parents if p.exists())
        if not ancestor.is_dir():
            raise ConfigError(f"output path {path}: {ancestor} is not a directory")


def _write(path: Path, body: str | bytes) -> None:
    """Write ``body`` through a temporary file in the same directory and
    rename it into place, so ``path`` never holds part of ``body``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(body.encode("utf-8") if isinstance(body, str) else body)
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)


def _mixed_pair(datasets):
    return (build_mixed_dataset(datasets, "train"),
            build_mixed_dataset(datasets, "validation"))


def cmd_pretrain(args) -> int:
    out_dir = Path(args.out_dir)
    _check_output(out_dir, run_dir=True, force=args.force)
    run = parse_run_config(args.config)
    model_cfg = run.model_config(preset=args.preset, seed=args.seed)
    train_cfg = run.train_config("all", seed=args.seed)
    train_mixed, val_mixed = _mixed_pair(run.load_datasets())
    ckpt, history = pretrain(model_cfg, train_cfg, train_mixed, val_mixed)
    _write(out_dir / "model.ckpt", ckpt_io.serialize(ckpt))
    _write(out_dir / "loss.csv", loss_curve_to_csv(history))
    _write(out_dir / "resolved.cfg", render_resolved(
        model=model_cfg, train=train_cfg, data=run.resolved_data()))
    best = ckpt.metadata.get("best_val_mse", "nan")
    print(f"pretrained {len(history)} epochs, best val mse {best}")
    return EXIT_OK


def cmd_finetune(args) -> int:
    out_dir = Path(args.out_dir)
    _check_output(out_dir, run_dir=True, force=args.force)
    run = parse_run_config(args.config)
    train_cfg = run.train_config("all" if args.full_tune else "head", seed=args.seed)
    source = ckpt_io.load_checkpoint(args.checkpoint)
    train_mixed, val_mixed = _mixed_pair(run.load_datasets())
    tuned, history = finetune_heads(source, train_cfg, train_mixed, val_mixed)
    _write(out_dir / "model.ckpt", ckpt_io.serialize(tuned))
    _write(out_dir / "loss.csv", loss_curve_to_csv(history))
    _write(out_dir / "resolved.cfg", render_resolved(
        model=tuned.config, train=train_cfg, data=run.resolved_data()))
    print(f"finetuned ({train_cfg.scope} scope), {len(history)} epochs")
    return EXIT_OK


def cmd_forecast(args) -> int:
    out_csv = Path(args.out_csv)
    _check_output(out_csv, run_dir=False)
    if args.horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {args.horizon}")
    ckpt = ckpt_io.load_checkpoint(args.checkpoint)
    series = load_csv_dataset(args.input_csv, Path(args.input_csv).stem)
    params = ckpt_io.to_params(ckpt)
    result = ar_forecast(params, ForecastRequest(series.values, args.horizon))
    _write(out_csv, series_to_csv(MultivariateSeries(series.name, result.predictions)))
    print(f"decode_steps={result.decode_steps}", file=sys.stderr)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    out_dir = Path(args.out_dir)
    _check_output(out_dir, run_dir=True, force=args.force)
    run = parse_run_config(args.config)
    settings = run.eval_settings()
    train_cfg = (run.train_config("head", seed=args.seed)
                 if settings.protocol == "few-shot" else None)
    ckpt = ckpt_io.load_checkpoint(args.checkpoint)
    reports = [run_protocol(ckpt, series, split, settings, train_cfg, args.threads)
               for series, split in run.load_datasets()]
    combined = EvalReport(rows=[row for report in reports for row in report.rows],
                          fingerprint=reports[-1].fingerprint)
    _write(out_dir / "report.csv", report_to_csv(combined))
    _write(out_dir / "resolved.cfg", render_resolved(
        train=train_cfg, data=run.resolved_data(), evaluation=settings))
    print(format_table(combined))
    return EXIT_OK


def cmd_synth(args) -> int:
    out_csv = Path(args.out_csv)
    _check_output(out_csv, run_dir=False)
    run = parse_run_config(args.config)
    spec, seed = run.synth_spec(seed=args.seed)
    series = synth_generate(spec, seed=seed)
    _write(out_csv, series_to_csv(series))
    print(f"wrote {series.num_channels}x{series.length} series to {args.out_csv}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    ckpt = ckpt_io.load_checkpoint(args.checkpoint)
    params = ckpt_io.to_params(ckpt)
    total = count_parameters(params, "all")
    head = count_parameters(params, "head")
    print(f"version = {ckpt_io.VERSION}")
    for f in fields(ckpt.config):
        print(f"{f.name} = {getattr(ckpt.config, f.name)}")
    for key, value in sorted(ckpt.metadata.items()):
        print(f"meta.{key} = {value}")
    print(f"params.total = {total}")
    print(f"params.head = {head}")
    print(f"params.non_head = {total - head}")
    print(f"params.head_fraction = {head / total:.6f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tokencast",
        description="Hierarchical auto-regressive time series forecaster",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="override every configured seed")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for window evaluation "
                             "(reports are bit-identical at any count)")
    parser.add_argument("--force", action="store_true",
                        help="allow writing into a non-empty output directory")
    parser.add_argument("--preset", default=None,
                        help="named model preset (currently: paper)")
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
    try:
        if args.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {args.threads}")
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, InputTooShortError, CheckpointFormatError, ShapeError,
            OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericAbort as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ProtocolError as exc:
        print(f"protocol violation: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL


if __name__ == "__main__":
    sys.exit(main())
