"""Flat INI-style run configuration: typed key=value pairs under [model],
[train], [data], [synth] and [eval] sections.

Unknown sections or keys are rejected. Every command echoes the fully
resolved configuration (defaults included) into its output directory so a
run can be reproduced from that file alone.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import asdict
from pathlib import Path

from .data import (
    MultivariateSeries,
    NoiseComponent,
    SineComponent,
    SynthSpec,
    TrendComponent,
    chronological_split,
    load_csv_dataset,
)
from .errors import ConfigError
from .model import ModelConfig, paper_preset
from .train import TrainConfig

_MODEL_KEYS = {
    "stages", "pool_kernels", "token_len", "max_tokens", "width",
    "layers_per_stage", "heads", "feedforward_width", "dropout", "seed",
}
_PRESET_STRUCTURAL_KEYS = {"stages", "pool_kernels", "token_len", "max_tokens",
                           "layers_per_stage"}
_TRAIN_KEYS = {
    "epochs", "batch_size", "learning_rate", "beta1", "beta2", "adam_eps",
    "stride", "patience", "seed", "scope",
}
_DATA_KEYS = {"datasets", "split"}
_SYNTH_KEYS = {"name", "length", "channels", "components", "seed"}
_EVAL_KEYS = {"protocol", "horizons", "lookback", "stride", "fraction"}

_SECTIONS = {
    "model": _MODEL_KEYS,
    "train": _TRAIN_KEYS,
    "data": _DATA_KEYS,
    "synth": _SYNTH_KEYS,
    "eval": _EVAL_KEYS,
}


class RunConfig:
    def __init__(self, sections: dict[str, dict[str, str]], base_dir: Path):
        self.sections = sections
        self.base_dir = base_dir

    def get(self, section: str, key: str, default: str | None = None) -> str | None:
        return self.sections.get(section, {}).get(key, default)

    # -- typed section views -------------------------------------------------

    def model_config(self, preset: str | None = None, seed: int | None = None) -> ModelConfig:
        raw = self.sections.get("model", {})
        if preset == "paper":
            clash = _PRESET_STRUCTURAL_KEYS & set(raw)
            if clash:
                raise ConfigError(
                    f"--preset paper fixes {sorted(clash)}; remove them from [model]"
                )
            cfg = paper_preset()
        elif preset is not None:
            raise ConfigError(f"unknown preset {preset!r}")
        else:
            cfg = ModelConfig()
        values = asdict(cfg)
        mapping = {
            "stages": ("num_stages", int),
            "pool_kernels": ("pool_kernels", _int_tuple),
            "token_len": ("token_len", int),
            "max_tokens": ("max_tokens", int),
            "width": ("model_width", int),
            "layers_per_stage": ("layers_per_stage", int),
            "heads": ("attention_heads", int),
            "feedforward_width": ("feedforward_width", int),
            "dropout": ("dropout_rate", float),
            "seed": ("seed", int),
        }
        for key, (field_name, cast) in mapping.items():
            if key in raw:
                values[field_name] = _cast(cast, raw[key], "model", key)
        if seed is not None:
            values["seed"] = seed
        cfg = ModelConfig(**values)
        cfg.validate()
        return cfg

    def train_config(self, seed: int | None = None,
                     scope: str | None = None) -> TrainConfig:
        raw = self.sections.get("train", {})
        values = asdict(TrainConfig())
        casts = {
            "epochs": int, "batch_size": int, "learning_rate": float,
            "beta1": float, "beta2": float, "adam_eps": float,
            "stride": int, "patience": int, "seed": int, "scope": str,
        }
        for key, cast in casts.items():
            if key in raw:
                values[key] = _cast(cast, raw[key], "train", key)
        if seed is not None:
            values["seed"] = seed
        if scope is not None:
            values["scope"] = scope
        cfg = TrainConfig(**values)
        cfg.validate()
        return cfg

    def load_datasets(self) -> list[tuple[MultivariateSeries, object]]:
        """Load and split every entry of [data] datasets, in listed order.

        Entries are ``name=path`` separated by ``;``; relative paths resolve
        against the config file's directory. ``split`` gives the default
        ratios; ``split.<name>`` overrides one dataset.
        """
        raw = self.sections.get("data", {})
        spec = raw.get("datasets")
        if not spec:
            raise ConfigError("[data] datasets is required (name=path;name=path)")
        default_ratios = _ratio_triple(raw.get("split", "0.7,0.1,0.2"), "split")
        out = []
        for entry in spec.split(";"):
            entry = entry.strip()
            if not entry:
                continue
            name, sep, path = entry.partition("=")
            if not sep or not name.strip() or not path.strip():
                raise ConfigError(f"[data] datasets entry {entry!r} is not name=path")
            name = name.strip()
            resolved = Path(path.strip())
            if not resolved.is_absolute():
                resolved = self.base_dir / resolved
            series = load_csv_dataset(resolved, name)
            ratios = default_ratios
            override = raw.get(f"split.{name}")
            if override is not None:
                ratios = _ratio_triple(override, f"split.{name}")
            out.append((series, chronological_split(series, *ratios)))
        if not out:
            raise ConfigError("[data] datasets lists no entries")
        return out

    def synth_spec(self, seed: int | None = None) -> tuple[SynthSpec, int]:
        raw = self.sections.get("synth", {})
        if "length" not in raw:
            raise ConfigError("[synth] length is required")
        if "components" not in raw:
            raise ConfigError("[synth] components is required")
        spec = SynthSpec(
            name=raw.get("name", "synth"),
            length=_cast(int, raw["length"], "synth", "length"),
            channels=_cast(int, raw.get("channels", "1"), "synth", "channels"),
            components=parse_components(raw["components"]),
        )
        gen_seed = _cast(int, raw.get("seed", "0"), "synth", "seed")
        if seed is not None:
            gen_seed = seed
        return spec, gen_seed

    def eval_settings(self) -> dict:
        raw = self.sections.get("eval", {})
        horizons = [_cast(int, h, "eval", "horizons")
                    for h in raw.get("horizons", "96").split(",") if h.strip()]
        if not horizons or any(h < 1 for h in horizons):
            raise ConfigError(f"[eval] horizons invalid: {raw.get('horizons')!r}")
        settings = {
            "protocol": raw.get("protocol", "standard"),
            "horizons": horizons,
            "lookback": _cast(int, raw.get("lookback", "336"), "eval", "lookback"),
            "stride": _cast(int, raw.get("stride", "1"), "eval", "stride"),
            "fraction": (
                _cast(float, raw["fraction"], "eval", "fraction")
                if "fraction" in raw else None
            ),
        }
        if settings["protocol"] not in ("standard", "zero-shot", "few-shot"):
            raise ConfigError(f"[eval] protocol {settings['protocol']!r} unknown")
        if settings["protocol"] == "few-shot" and settings["fraction"] is None:
            raise ConfigError("[eval] few-shot protocol requires fraction")
        return settings


def _cast(cast, value: str, section: str, key: str):
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[{section}] {key}={value!r}: {exc}") from exc


def _int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _ratio_triple(text: str, key: str) -> tuple[float, float, float]:
    parts = [_cast(float, v, "data", key) for v in text.split(",")]
    if len(parts) != 3:
        raise ConfigError(f"split needs three ratios, got {text!r}")
    return parts[0], parts[1], parts[2]


_COMPONENT_RE = re.compile(r"\s*(\w+)\s*\(([^)]*)\)\s*$")

_COMPONENT_FORMS = {
    "sine": (SineComponent, ("period", "amplitude", "phase")),
    "trend": (TrendComponent, ("slope",)),
    "noise": (NoiseComponent, ("sigma",)),
}


def parse_components(text: str) -> list:
    """Parse 'sine(period=24,amplitude=1) + noise(sigma=0.1)' expressions."""
    components = []
    for term in text.split("+"):
        term = term.strip()
        if not term:
            continue
        m = _COMPONENT_RE.match(term)
        if not m:
            raise ConfigError(f"cannot parse synth component {term!r}")
        kind, argtext = m.group(1).lower(), m.group(2)
        if kind not in _COMPONENT_FORMS:
            raise ConfigError(f"unknown synth component {kind!r} in {term!r}")
        cls, names = _COMPONENT_FORMS[kind]
        args: dict[str, float] = {}
        positional = 0
        for piece in argtext.split(","):
            piece = piece.strip()
            if not piece:
                continue
            if "=" in piece:
                k, v = piece.split("=", 1)
                k = k.strip()
                if k == "amp":
                    k = "amplitude"
                if k not in names:
                    raise ConfigError(f"{kind} has no parameter {k!r}")
                args[k] = _cast(float, v.strip(), "synth", k)
            else:
                if positional >= len(names):
                    raise ConfigError(f"too many arguments in {term!r}")
                args[names[positional]] = _cast(float, piece, "synth", "components")
                positional += 1
        try:
            components.append(cls(**args))
        except TypeError as exc:
            raise ConfigError(f"bad arguments in {term!r}: {exc}") from exc
    if not components:
        raise ConfigError("synth components expression is empty")
    return components


def parse_run_config(path) -> RunConfig:
    path = Path(path)
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    sections: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        allowed = _SECTIONS[section]
        body = {}
        for key, value in parser.items(section):
            base = key.split(".", 1)[0]
            if key not in allowed and not (section == "data" and base == "split"):
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            body[key] = value
        sections[section] = body
    return RunConfig(sections, base_dir=path.parent.resolve())


def render_resolved(
    model: ModelConfig | None = None,
    train: TrainConfig | None = None,
    data: dict[str, str] | None = None,
    synth: dict[str, str] | None = None,
    eval_settings: dict | None = None,
) -> str:
    """Render the fully resolved configuration for the run directory."""
    lines: list[str] = []
    if model is not None:
        lines.append("[model]")
        lines.append(f"stages = {model.num_stages}")
        lines.append(f"pool_kernels = {','.join(str(k) for k in model.pool_kernels)}")
        lines.append(f"token_len = {model.token_len}")
        lines.append(f"max_tokens = {model.max_tokens}")
        lines.append(f"width = {model.model_width}")
        lines.append(f"layers_per_stage = {model.layers_per_stage}")
        lines.append(f"heads = {model.attention_heads}")
        lines.append(f"feedforward_width = {model.feedforward_width}")
        lines.append(f"dropout = {model.dropout_rate!r}")
        lines.append(f"seed = {model.seed}")
        lines.append("")
    if train is not None:
        lines.append("[train]")
        for key, value in asdict(train).items():
            lines.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
        lines.append("")
    for name, body in (("data", data), ("synth", synth)):
        if body:
            lines.append(f"[{name}]")
            for key, value in body.items():
                lines.append(f"{key} = {value}")
            lines.append("")
    if eval_settings is not None:
        lines.append("[eval]")
        lines.append(f"protocol = {eval_settings['protocol']}")
        lines.append(f"horizons = {','.join(str(h) for h in eval_settings['horizons'])}")
        lines.append(f"lookback = {eval_settings['lookback']}")
        lines.append(f"stride = {eval_settings['stride']}")
        if eval_settings.get("fraction") is not None:
            lines.append(f"fraction = {eval_settings['fraction']!r}")
        lines.append("")
    return "\n".join(lines)
