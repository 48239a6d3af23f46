"""Plain-text run configuration with sections: data, lfs, encoder, model, train.

Unknown sections or keys are errors. The [lfs] section holds one entry per
labeling function ("<kind> <class> <payload>"); everything else is key=value
with types enforced per field.
"""

from __future__ import annotations

import configparser
import dataclasses
import re
from dataclasses import dataclass
from pathlib import Path

from .data import DATASET_FORMATS, SynthSpec
from .encoder import EncoderConfig
from .errors import ConfigError, DataError
from .model import ModelConfig
from .serialize import read_text
from .trainer import TrainConfig

_BOOLS = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


def _int(text: str) -> int:
    """ASCII digits with an optional sign; Python's ``int`` also takes ``1_0``
    and non-ASCII digits."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise ValueError(text)
    return int(text)


def _float(text: str) -> float:
    """``float`` of ASCII text without ``_``."""
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    return float(text)


# value type -> (what an error says was expected, parser of the stripped text)
_VALUE_TYPES = {
    bool: ("a boolean", lambda text: _BOOLS[text.lower()]),
    int: ("an integer", _int),
    float: ("a number", _float),
    # no text is (); every item between commas is an integer
    tuple: (
        "comma-separated integers",
        lambda text: tuple(_int(part.strip()) for part in text.split(",")) if text else (),
    ),
    str: ("a string", str),
}


def _parse_value(section: str, key: str, raw: str, kind: type):
    expected, parse = _VALUE_TYPES[kind]
    try:
        return parse(raw.strip())
    except (KeyError, ValueError):
        raise ConfigError(f"[{section}] {key}: expected {expected}, got {raw!r}") from None


@dataclass(frozen=True)
class DataConfig:
    format: str = "wrench-json"
    path: str | None = None
    synth: SynthSpec | None = None

    def __post_init__(self):
        if self.format not in (*DATASET_FORMATS, "synth"):
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


def _schema(cls) -> dict[str, type]:
    """Config key -> value type, read off the exact type of each field's default."""
    return {f.name: type(f.default) for f in dataclasses.fields(cls)}


def _collect(parser: configparser.ConfigParser, section: str, schema: dict[str, type]) -> dict:
    out = {}
    for key, raw in parser.items(section) if parser.has_section(section) else ():
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} in section [{section}]")
        out[key] = _parse_value(section, key, raw, schema[key])
    return out


def parse_config(path: str | Path) -> RunConfig:
    """The run configuration in the file ``path``; every error names the file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    parser.optionxform = str  # keep key case
    try:
        parser.read_string(read_text(path), source=str(path))
    except DataError as exc:  # not UTF-8, or unreadable
        raise ConfigError(str(exc)) from None
    except configparser.MissingSectionHeaderError as exc:  # a ParsingError with no list of errors
        raise ConfigError(f"{path}:{exc.lineno}: a line before the first [section]: {exc.line!r}") from None
    except configparser.ParsingError as exc:
        lineno, line = exc.errors[0]  # the line comes as its repr
        raise ConfigError(f"{path}:{lineno}: neither a [section] nor a key = value line: {line}") from None
    except configparser.DuplicateSectionError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: section [{exc.section}] appears twice") from None
    except configparser.DuplicateOptionError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: key {exc.option!r} appears twice in [{exc.section}]") from None
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        return _from_sections(parser)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _from_sections(parser: configparser.ConfigParser) -> RunConfig:
    known = {"data", "lfs", "encoder", "model", "train"}
    for section in parser.sections():
        if section not in known:
            raise ConfigError(f"unknown section [{section}]")

    data_cfg = None
    if parser.has_section("data"):
        fields = _collect(parser, "data", {"path": str, "format": str, **_schema(SynthSpec)})
        fmt = fields.pop("format", "wrench-json")
        path_value = fields.pop("path", None)
        if fields and fmt != "synth":
            raise ConfigError(f"[data] keys {sorted(fields)} are only valid with format = synth")
        try:
            synth = SynthSpec(**fields) if fmt == "synth" else None
        except DataError as exc:
            raise ConfigError(f"[data] {exc}") from None
        data_cfg = DataConfig(format=fmt, path=path_value, synth=synth)

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
