"""Sectioned key=value run configuration with strict schema validation.

The keys of [model], [trainer] and [data] are the fields of ModelConfig,
TrainSettings and RunConfig's paths. Unknown sections or keys are rejected,
every value is type-checked, and semantic validation (model/trainer
invariants) runs before anything heavy is allocated.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

from .errors import ConfigError
from .loss import StftConfig, default_resolutions
from .model import ModelConfig
from .trainer import TrainSettings


def _to_bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}")


def _to_resolutions(raw: str) -> tuple[StftConfig, ...]:
    out = []
    for part in raw.split(","):
        nums = part.strip().split(":")
        if len(nums) != 3:
            raise ValueError(f"resolution must be fft:hop:win, got {part.strip()!r}")
        fft, hop, win = (int(x) for x in nums)
        out.append(StftConfig(fft_size=fft, hop=hop, win_length=win).validate())
    if not out:
        raise ValueError("at least one resolution required")
    return tuple(out)


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    trainer: TrainSettings = field(default_factory=TrainSettings)
    noisy_dir: str | None = None
    clean_dir: str | None = None
    val_noisy_dir: str | None = None
    val_clean_dir: str | None = None
    resolutions: tuple[StftConfig, ...] = field(default_factory=default_resolutions)


# A field's declared type picks the converter for its key.
_CONVERTERS = {int: int, float: float, str: str, str | None: str, bool: _to_bool}


def _keys(cls) -> dict:
    """key -> converter for every field of `cls` with a plain declared type."""
    hints = get_type_hints(cls)
    return {f.name: _CONVERTERS[hints[f.name]] for f in fields(cls) if hints[f.name] in _CONVERTERS}


def parse_run_config(path) -> RunConfig:
    """Parse and fully validate a config file; raises ConfigError."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"{path}: no such config file")
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path) as f:
            parser.read_file(f)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    cfg = RunConfig()
    # section -> (object its keys are set on, key -> converter)
    sections = {
        "model": (cfg.model, _keys(ModelConfig)),
        "trainer": (cfg.trainer, _keys(TrainSettings)),
        "data": (cfg, _keys(RunConfig)),
        "loss": (cfg, {"resolutions": _to_resolutions}),
    }
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"{path}: unknown section [{section}]")
        target, schema = sections[section]
        for key, raw in parser.items(section):
            if key not in schema:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            try:
                value = schema[key](raw)
            except ValueError as exc:
                raise ConfigError(f"{path}: bad value for [{section}] {key}: {exc}") from exc
            setattr(target, key, value)

    try:
        cfg.model.validate()
        cfg.trainer.validate()
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return cfg
