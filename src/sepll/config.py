"""Plain-text run configuration with sections: data, lfs, encoder, model, train.

Unknown sections or keys are errors. The [lfs] section holds one entry per
labeling function ("<kind> <class> <payload>"); everything else is key=value
with types enforced per field.
"""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass
from pathlib import Path

from .data import SynthSpec
from .encoder import EncoderConfig
from .errors import ConfigError
from .model import ModelConfig
from .trainer import TrainConfig

_BOOLS = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


def _parse_bool(section: str, key: str, raw: str) -> bool:
    try:
        return _BOOLS[raw.strip().lower()]
    except KeyError:
        raise ConfigError(f"[{section}] {key}: expected a boolean, got {raw!r}") from None


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw.strip())
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected an integer, got {raw!r}") from None


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw.strip())
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected a number, got {raw!r}") from None


def _parse_int_tuple(section: str, key: str, raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in raw.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected comma-separated integers, got {raw!r}") from None


@dataclass(frozen=True)
class DataConfig:
    format: str = "wrench-json"
    path: str | None = None
    synth: SynthSpec | None = None

    def __post_init__(self):
        if self.format not in ("wrench-json", "jsonl", "synth"):
            raise ConfigError(f"unknown data format {self.format!r}")
        if self.format == "synth":
            if self.synth is None:
                object.__setattr__(self, "synth", SynthSpec())
        elif not self.path:
            raise ConfigError("[data] path is required unless format = synth")


@dataclass(frozen=True)
class RunConfig:
    data: DataConfig | None
    lf_entries: tuple[tuple[str, str], ...]
    encoder: EncoderConfig
    model: ModelConfig
    train: TrainConfig

    def to_echo_dict(self) -> dict:
        echo: dict = {
            "encoder": dataclasses.asdict(self.encoder),
            "model": dataclasses.asdict(self.model),
            "train": dataclasses.asdict(self.train),
            "lfs": [list(entry) for entry in self.lf_entries],
        }
        echo["encoder"]["hidden"] = list(self.encoder.hidden)
        if self.data is not None:
            echo["data"] = {"format": self.data.format, "path": self.data.path}
            if self.data.synth is not None:
                echo["data"]["synth"] = dataclasses.asdict(self.data.synth)
        return echo


_PARSERS = {
    bool: _parse_bool,
    int: _parse_int,
    float: _parse_float,
    tuple: _parse_int_tuple,
    str: lambda section, key, raw: raw.strip(),
}


def _schema(cls) -> dict[str, type]:
    """Config key -> value type, read off the exact type of each field's default."""
    return {f.name: type(f.default) for f in dataclasses.fields(cls)}


def _collect(parser: configparser.ConfigParser, section: str, schema: dict[str, type]) -> dict:
    out = {}
    for key, raw in parser.items(section) if parser.has_section(section) else ():
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} in section [{section}]")
        out[key] = _PARSERS[schema[key]](section, key, raw)
    return out


def parse_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    parser.optionxform = str  # keep key case
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    known = {"data", "lfs", "encoder", "model", "train"}
    for section in parser.sections():
        if section not in known:
            raise ConfigError(f"{path}: unknown section [{section}]")

    data_cfg = None
    if parser.has_section("data"):
        fields = _collect(parser, "data", {"path": str, "format": str, **_schema(SynthSpec)})
        fmt = fields.pop("format", "wrench-json")
        path_value = fields.pop("path", None)
        if fmt == "synth":
            data_cfg = DataConfig(format=fmt, path=path_value, synth=SynthSpec(**fields))
        else:
            if fields:
                raise ConfigError(
                    f"[data] keys {sorted(fields)} are only valid with format = synth"
                )
            data_cfg = DataConfig(format=fmt, path=path_value)

    lf_entries: tuple[tuple[str, str], ...] = ()
    if parser.has_section("lfs"):
        lf_entries = tuple((key, value) for key, value in parser.items("lfs"))

    encoder_cfg = EncoderConfig(**_collect(parser, "encoder", _schema(EncoderConfig)))
    model_cfg = ModelConfig(**_collect(parser, "model", _schema(ModelConfig)))
    train_cfg = TrainConfig(**_collect(parser, "train", _schema(TrainConfig)))
    return RunConfig(
        data=data_cfg,
        lf_entries=lf_entries,
        encoder=encoder_cfg,
        model=model_cfg,
        train=train_cfg,
    )
