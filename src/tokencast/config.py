"""Flat INI-style run configuration: typed key=value pairs under [model],
[train], [data], [synth] and [eval] sections.

Each section's keys are the fields of one frozen dataclass (``_SECTIONS``),
in field order, each parsed by ``model.parse_field`` (by the parser its
metadata names, else by the type of its default) and formatted back by
``format_value``. The one table here, ``_MODEL_INI_KEYS``, names the four
[model] keys that differ from their field (``stages``, ``width``, ``heads``,
``dropout``); every other key is its field name, so a field added to any of
the dataclasses is read and written back without another edit. Each
dataclass checks its values in ``__post_init__``, so a settings object with a
bad value cannot be built, here or anywhere else. The only other key is
[data]'s ``split.<name>``, one dataset's ratios. [train] has no scope key: the
command that trains picks which arrays it updates.

Unknown sections or keys are rejected. Every command echoes the fully
resolved configuration (defaults included, dataset paths absolute) into its
output directory so a run can be reproduced from that file alone.
"""

from __future__ import annotations

import configparser
from dataclasses import Field, fields
from pathlib import Path

from .data import (
    DataSettings,
    MultivariateSeries,
    SynthSpec,
    check_ratios,
    chronological_split,
    load_csv_dataset,
)
from .errors import ConfigError
from .evaluate import EvalSettings
from .model import PAPER_PRESET, ModelConfig, format_value, parse_field
from .train import TrainConfig

# config field -> INI key, for the fields whose key is not the field name
_MODEL_INI_KEYS = {
    "num_stages": "stages",
    "model_width": "width",
    "attention_heads": "heads",
    "dropout_rate": "dropout",
}


def _ini_fields(cls) -> dict[str, Field]:
    """INI key -> dataclass field, in field order."""
    return {_MODEL_INI_KEYS.get(f.name, f.name): f for f in fields(cls)}


_SECTIONS = {"model": ModelConfig, "train": TrainConfig, "data": DataSettings,
             "synth": SynthSpec, "eval": EvalSettings}


class RunConfig:
    def __init__(self, sections: dict[str, dict[str, str]], base_dir: Path):
        self.sections = sections
        self.base_dir = base_dir

    # -- typed section views -------------------------------------------------

    def model_config(self, preset: str | None = None, seed: int | None = None) -> ModelConfig:
        """[model], over the paper preset when ``preset`` is "paper", the one
        name the command line accepts."""
        if preset == "paper":
            fixed = {_MODEL_INI_KEYS.get(name, name) for name in PAPER_PRESET}
            clash = fixed & set(self.sections.get("model", {}))
            if clash:
                raise ConfigError(
                    f"--preset paper fixes {sorted(clash)}; remove them from [model]"
                )
            return self._build("model", PAPER_PRESET, seed=seed)
        return self._build("model", seed=seed)

    def train_config(self, seed: int | None = None) -> TrainConfig:
        return self._build("train", seed=seed)

    def _build(self, section: str, base: dict | None = None, **overrides):
        """The section's dataclass built from ``base``, then the section's
        keys, then the non-None overrides, each over the one before; the
        dataclass refuses a bad value as it is built."""
        cls = _SECTIONS[section]
        raw = self.sections.get(section, {})
        parsed = {f.name: _parse(f, raw[key], section, key)
                  for key, f in _ini_fields(cls).items() if key in raw}
        given = {k: v for k, v in overrides.items() if v is not None}
        return cls(**{**(base or {}), **parsed, **given})

    def _dataset_paths(self) -> dict[str, Path]:
        """name -> path for every entry of [data] datasets, in listed order.

        Entries are ``name=path`` separated by ``;``, each name once and free of
        ``,`` and line breaks, which checkpoint metadata uses to join names;
        relative paths resolve against the config file's directory.
        """
        out: dict[str, Path] = {}
        for entry in self._build("data").datasets.split(";"):
            name, sep, path = (part.strip() for part in entry.partition("="))
            if not (name or sep or path):
                continue
            if not sep or not name or not path:
                raise ConfigError(f"[data] datasets entry {entry.strip()!r} is not name=path")
            if name in out:
                raise ConfigError(f"[data] datasets lists {name!r} twice")
            if "," in name or name.splitlines() != [name]:
                raise ConfigError(f"[data] datasets name {name!r} holds ',' or a line break")
            out[name] = self.base_dir / path
        if not out:
            raise ConfigError("[data] datasets is required (name=path;name=path)")
        return out

    def resolved_data(self) -> dict[str, str]:
        """The [data] section with every dataset path as load_datasets opens it."""
        body = dict(self.sections.get("data", {}))
        body["datasets"] = ";".join(f"{name}={path}"
                                    for name, path in self._dataset_paths().items())
        return body

    def load_datasets(self) -> list[tuple[MultivariateSeries, object]]:
        """Load and split every entry of [data] datasets, in listed order.

        ``split`` gives the default ratios; ``split.<name>`` overrides one
        dataset, and must name a listed one.
        """
        settings = self._build("data")
        paths = self._dataset_paths()
        ratios = dict.fromkeys(paths, settings.split)
        for key, text in self.sections.get("data", {}).items():
            if key.startswith("split."):
                name = key[len("split."):]
                if name not in paths:
                    raise ConfigError(f"[data] {key} names no dataset in [data] datasets")
                ratios[name] = _parse(_ini_fields(DataSettings)["split"], text, "data", key)
                check_ratios(ratios[name], key)
        out = []
        for name, path in paths.items():
            series = load_csv_dataset(path, name)
            out.append((series, chronological_split(series, *ratios[name])))
        return out

    def synth_spec(self, seed: int | None = None) -> SynthSpec:
        return self._build("synth", seed=seed)

    def eval_settings(self) -> EvalSettings:
        return self._build("eval")


def _parse(f: Field, text: str, section: str, key: str):
    try:
        return parse_field(f, text)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[{section}] {key}={text!r}: {exc}") from exc


def parse_run_config(path) -> RunConfig:
    path = Path(path)
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    sections: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        allowed = _ini_fields(_SECTIONS[section])
        body = {}
        for key, value in parser.items(section):
            if key not in allowed and not (section == "data" and key.startswith("split.")):
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            body[key] = value
        sections[section] = body
    return RunConfig(sections, base_dir=path.parent.resolve())


def render_resolved(
    model: ModelConfig | None = None,
    train: TrainConfig | None = None,
    data: dict[str, str] | None = None,
    evaluation: EvalSettings | None = None,
) -> str:
    """Render the fully resolved configuration for the run directory."""
    sections = {
        "model": _ini_values(model),
        "train": _ini_values(train),
        "data": data,
        "eval": _ini_values(evaluation),
    }
    lines: list[str] = []
    for name, body in sections.items():
        if body:
            lines.append(f"[{name}]")
            lines.extend(f"{key} = {format_value(value)}" for key, value in body.items())
            lines.append("")
    return "\n".join(lines)


def _ini_values(cfg) -> dict | None:
    if cfg is None:
        return None
    return {key: getattr(cfg, f.name) for key, f in _ini_fields(type(cfg)).items()}
