"""Flat INI-style run configuration: typed key=value pairs under [model],
[train], [data], [synth] and [eval] sections.

The [model] and [train] keys are the fields of ``ModelConfig`` and
``TrainConfig``, in field order, each parsed and formatted by the type of its
default (``model.parse_field`` and ``format_value``). The one table here,
``_MODEL_INI_KEYS``, names the four [model] keys that differ from their field
(``stages``, ``width``, ``heads``, ``dropout``); every other key is its field
name, so a field added to either dataclass is read, validated and written
back without another edit.

Unknown sections or keys are rejected. Every command echoes the fully
resolved configuration (defaults included, dataset paths absolute) into its
output directory so a run can be reproduced from that file alone.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import Field, fields, replace
from functools import partial
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
from .model import ModelConfig, format_value, paper_preset, parse_field
from .train import TrainConfig

# config field -> INI key, for the fields whose key is not the field name
_MODEL_INI_KEYS = {
    "num_stages": "stages",
    "model_width": "width",
    "attention_heads": "heads",
    "dropout_rate": "dropout",
}
_PRESET_STRUCTURAL_KEYS = {"stages", "pool_kernels", "token_len", "max_tokens",
                           "layers_per_stage"}


def _ini_fields(cls) -> dict[str, Field]:
    """INI key -> dataclass field, in field order."""
    return {_MODEL_INI_KEYS.get(f.name, f.name): f for f in fields(cls)}


_SECTIONS = {
    "model": _ini_fields(ModelConfig).keys(),
    "train": _ini_fields(TrainConfig).keys(),
    "data": {"datasets", "split"},
    "synth": {"name", "length", "channels", "components", "seed"},
    "eval": {"protocol", "horizons", "lookback", "stride", "fraction"},
}


class RunConfig:
    def __init__(self, sections: dict[str, dict[str, str]], base_dir: Path):
        self.sections = sections
        self.base_dir = base_dir

    def get(self, section: str, key: str, default: str | None = None) -> str | None:
        return self.sections.get(section, {}).get(key, default)

    # -- typed section views -------------------------------------------------

    def model_config(self, preset: str | None = None, seed: int | None = None) -> ModelConfig:
        if preset == "paper":
            clash = _PRESET_STRUCTURAL_KEYS & set(self.sections.get("model", {}))
            if clash:
                raise ConfigError(
                    f"--preset paper fixes {sorted(clash)}; remove them from [model]"
                )
            base = paper_preset()
        elif preset is not None:
            raise ConfigError(f"unknown preset {preset!r}")
        else:
            base = ModelConfig()
        return self._build("model", base, seed=seed)

    def train_config(self, seed: int | None = None,
                     scope: str | None = None) -> TrainConfig:
        return self._build("train", TrainConfig(), seed=seed, scope=scope)

    def _build(self, section: str, base, **overrides):
        """``base`` with the section's keys, then the non-None overrides,
        applied; validated."""
        raw = self.sections.get(section, {})
        values = {f.name: _cast(partial(parse_field, f), raw[key], section, key)
                  for key, f in _ini_fields(type(base)).items() if key in raw}
        values.update((k, v) for k, v in overrides.items() if v is not None)
        cfg = replace(base, **values)
        cfg.validate()
        return cfg

    def _dataset_paths(self) -> list[tuple[str, Path]]:
        """(name, path) for every entry of [data] datasets, in listed order.

        Entries are ``name=path`` separated by ``;``; relative paths resolve
        against the config file's directory.
        """
        spec = self.get("data", "datasets")
        if not spec:
            raise ConfigError("[data] datasets is required (name=path;name=path)")
        out = []
        for entry in spec.split(";"):
            entry = entry.strip()
            if not entry:
                continue
            name, sep, path = entry.partition("=")
            if not sep or not name.strip() or not path.strip():
                raise ConfigError(f"[data] datasets entry {entry!r} is not name=path")
            resolved = Path(path.strip())
            out.append((name.strip(), resolved if resolved.is_absolute()
                        else self.base_dir / resolved))
        if not out:
            raise ConfigError("[data] datasets lists no entries")
        return out

    def resolved_data(self) -> dict[str, str]:
        """The [data] section with every dataset path as load_datasets opens it."""
        body = dict(self.sections.get("data", {}))
        body["datasets"] = ";".join(f"{name}={path}" for name, path in self._dataset_paths())
        return body

    def load_datasets(self) -> list[tuple[MultivariateSeries, object]]:
        """Load and split every entry of [data] datasets, in listed order.

        ``split`` gives the default ratios; ``split.<name>`` overrides one
        dataset, and must name a listed one.
        """
        raw = self.sections.get("data", {})
        entries = self._dataset_paths()
        names = {name for name, _ in entries}
        for key in raw:
            if key.startswith("split.") and key[len("split."):] not in names:
                raise ConfigError(f"[data] {key} names no dataset in [data] datasets")
        default_ratios = _ratio_triple(raw.get("split", "0.7,0.1,0.2"), "split")
        out = []
        for name, path in entries:
            series = load_csv_dataset(path, name)
            ratios = default_ratios
            override = raw.get(f"split.{name}")
            if override is not None:
                ratios = _ratio_triple(override, f"split.{name}")
            out.append((series, chronological_split(series, *ratios)))
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
    sections = {
        "model": _ini_values(model),
        "train": _ini_values(train),
        "data": data,
        "synth": synth,
        "eval": eval_settings,
    }
    lines: list[str] = []
    for name, body in sections.items():
        if body:
            lines.append(f"[{name}]")
            lines.extend(f"{key} = {format_value(value)}"
                         for key, value in body.items() if value is not None)
            lines.append("")
    return "\n".join(lines)


def _ini_values(cfg) -> dict | None:
    if cfg is None:
        return None
    return {key: getattr(cfg, f.name) for key, f in _ini_fields(type(cfg)).items()}
