from __future__ import annotations

import configparser
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import match_from_dense
from hypothesis import given, settings, strategies as st

import sepll.serialize
from sepll import config
from sepll.config import parse_config
from sepll.data import SynthSpec, write_triplets
from sepll.encoder import EncoderConfig
from sepll.errors import ConfigError, DataError, WriteError
from sepll.model import ModelConfig
from sepll.lf_engine import PerLfStats
from sepll.manifest import build_manifest, file_digest, verify_manifest
from sepll.serialize import atomic_open, read_container, read_json, to_json, write_container, write_json
from sepll.trainer import EpochRecord, TrainConfig, TrainHistory

FULL_CONFIG = """\
[data]
format = synth
c = 3
m_per_class = 2
n_train = 50
n_dev = 10
n_test = 10
lf_accuracy = 0.9
lf_coverage = 0.6

[encoder]
max_features = 500
min_df = 2
lowercase = false
hidden = 32, 16
dim = 8
nonlinearity = relu

[model]
head_depth = 2
head_hidden = 12
nonlinearity = tanh

[train]
learning_rate = 0.002
batch_size = 8
warmup_steps = 5
weight_decay = 0.02
l2_lf = 0.05
noise_lambda = 0.15
use_unlabeled = no
max_epochs = 7
patience = 3
seed = 11
metric = macro_f1
positive_class = 0
l2_lf_target = activations
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# config parsing


def test_parse_full_config(tmp_path):
    cfg = parse_config(write_config(tmp_path, FULL_CONFIG))
    assert cfg.data.format == "synth"
    assert cfg.data.synth.c == 3
    assert cfg.data.synth.lf_coverage == 0.6
    assert cfg.encoder.max_features == 500
    assert cfg.encoder.lowercase is False
    assert cfg.encoder.hidden == (32, 16)
    assert cfg.encoder.nonlinearity == "relu"
    assert cfg.model.head_depth == 2
    assert cfg.model.head_hidden == 12
    assert cfg.train.learning_rate == 0.002
    assert cfg.train.use_unlabeled is False
    assert cfg.train.metric == "macro_f1"
    assert cfg.train.l2_lf_target == "activations"
    assert cfg.lf_entries == ()


def test_defaults_when_sections_missing(tmp_path):
    cfg = parse_config(write_config(tmp_path, "[data]\nformat = synth\n"))
    assert cfg.train == TrainConfig()
    assert cfg.encoder.dim == 64
    assert cfg.model.head_depth == 1
    assert cfg.data.synth is not None  # defaults injected


# a valid non-default value for every field of every configurable dataclass
NON_DEFAULTS = {
    "data": (
        SynthSpec,
        dict(c=4, m_per_class=2, n_train=30, n_dev=7, n_test=9, lf_accuracy=0.7, lf_coverage=0.25),
    ),
    "encoder": (
        EncoderConfig,
        dict(max_features=321, min_df=3, lowercase=False, hidden=(9, 5), dim=11, nonlinearity="relu"),
    ),
    "model": (ModelConfig, dict(head_depth=2, head_hidden=17, nonlinearity="identity")),
    "train": (
        TrainConfig,
        dict(
            learning_rate=0.125, batch_size=3, warmup_steps=4, weight_decay=0.5, l2_lf=0.25,
            noise_lambda=0.75, use_unlabeled=False, max_epochs=6, patience=2, seed=99,
            metric="binary_f1", positive_class=0, l2_lf_target="activations",
        ),
    ),
}  # fmt: skip


def test_every_train_field_is_configurable(tmp_path):
    def ini_value(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, tuple):
            return ", ".join(map(str, value))
        return str(value)

    lines = []
    for section, (cls, values) in NON_DEFAULTS.items():
        defaults = cls()
        assert set(values) == {f.name for f in dataclasses.fields(cls)}, cls.__name__
        for key, value in values.items():
            assert value != getattr(defaults, key), (cls.__name__, key)
        lines.append(f"[{section}]")
        if section == "data":
            lines.append("format = synth")
        lines += [f"{key} = {ini_value(value)}" for key, value in values.items()]
    cfg = parse_config(write_config(tmp_path, "\n".join(lines) + "\n"))
    parsed = {"data": cfg.data.synth, "encoder": cfg.encoder, "model": cfg.model, "train": cfg.train}
    for section, (cls, values) in NON_DEFAULTS.items():
        assert parsed[section] == cls(**values)
        for key, value in values.items():
            assert type(getattr(parsed[section], key)) is type(value), (section, key)


def test_lf_entries_preserved_in_order(tmp_path):
    text = "[lfs]\nlf_a = keyword spam free\nlf_b = regex ham \\bhi\\b\n"
    cfg = parse_config(write_config(tmp_path, text))
    assert cfg.lf_entries == (
        ("lf_a", "keyword spam free"),
        ("lf_b", "regex ham \\bhi\\b"),
    )


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match=r"unknown section \[extras\]"):
        parse_config(write_config(tmp_path, "[extras]\nx = 1\n"))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown key 'momentum'"):
        parse_config(write_config(tmp_path, "[train]\nmomentum = 0.9\n"))


def test_bad_bool_rejected(tmp_path):
    with pytest.raises(ConfigError, match=r"\[train\] use_unlabeled: expected a boolean"):
        parse_config(write_config(tmp_path, "[train]\nuse_unlabeled = maybe\n"))


def test_bad_int_and_float_rejected(tmp_path):
    with pytest.raises(ConfigError, match="expected an integer"):
        parse_config(write_config(tmp_path, "[train]\nbatch_size = many\n"))
    with pytest.raises(ConfigError, match="expected a number"):
        parse_config(write_config(tmp_path, "[train]\nlearning_rate = fast\n"))


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "nope.cfg")


def test_path_required_for_file_formats(tmp_path):
    with pytest.raises(ConfigError, match="path is required"):
        parse_config(write_config(tmp_path, "[data]\nformat = jsonl\n"))


def test_synth_keys_rejected_for_file_formats(tmp_path):
    text = "[data]\nformat = jsonl\npath = /tmp/x\nn_train = 10\n"
    with pytest.raises(ConfigError, match="only valid with format = synth"):
        parse_config(write_config(tmp_path, text))


def test_config_echo_dict_is_json_safe(tmp_path):
    cfg = parse_config(write_config(tmp_path, FULL_CONFIG))
    echo = cfg.to_echo_dict()
    blob = json.loads(json.dumps(echo, sort_keys=True))
    assert blob["encoder"]["hidden"] == [32, 16]
    assert blob["train"]["seed"] == 11
    assert blob["data"]["synth"]["n_train"] == 50


def test_readme_config_reference_matches_the_schema():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Configuration\n.*?^```ini\n(.*?)^```", readme, re.S | re.M).group(1)
    parser = configparser.ConfigParser(
        interpolation=None, delimiters=("=",), comment_prefixes=(";",), inline_comment_prefixes=(";",)
    )
    parser.optionxform = str
    parser.read_string(block)
    for section, cls in (("encoder", EncoderConfig), ("model", ModelConfig), ("train", TrainConfig)):
        schema = config._schema(cls)
        assert set(parser[section]) == set(schema), section
        # the values shown are the defaults
        defaults = cls()
        for key, raw in parser[section].items():
            assert config._parse_value(section, key, raw, schema[key]) == getattr(defaults, key), (section, key)


# ---------------------------------------------------------------------------
# binary container


def test_container_round_trip(tmp_path):
    path = tmp_path / "x.bin"
    vector = np.array([0.0, -0.0, 1.5, -2.25, np.inf, 1e-310])
    write_container(path, {"kind": "demo", "note": "hi"}, vector)
    header, loaded = read_container(path)
    assert header == {"kind": "demo", "note": "hi"}
    assert loaded.dtype == np.float64 and loaded.shape == (6,)
    assert np.array_equal(loaded.view(np.int64), vector.view(np.int64))
    assert path.read_bytes().endswith(vector.astype("<f8").tobytes())
    write_container(path, {}, np.empty(0))
    assert read_container(path)[1].shape == (0,)


def test_container_unreadable_path_is_data_error(tmp_path):
    with pytest.raises(DataError, match=f"{tmp_path}: cannot read: Is a directory"):
        read_container(tmp_path)
    with pytest.raises(DataError, match="missing.bin: cannot read: No such file"):
        read_container(tmp_path / "missing.bin")


def test_container_rejects_bad_magic(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"NOT-A-CONTAINER\n{}\n")
    with pytest.raises(DataError, match="not a sepll binary container"):
        read_container(path)


def test_container_rejects_truncation(tmp_path):
    # a cut at a value boundary leaves a shorter vector, which the checkpoint's
    # size check rejects; a cut inside a value is the container's to reject
    path = tmp_path / "x.bin"
    write_container(path, {"kind": "demo"}, np.arange(100, dtype=np.float64))
    blob = path.read_bytes()
    path.write_bytes(blob[:-13])
    with pytest.raises(DataError, match="payload is not whole float64 values"):
        read_container(path)
    path.write_bytes(blob[: blob.index(b"\n", len(sepll.serialize.MAGIC))])
    with pytest.raises(DataError, match="corrupt container header"):
        read_container(path)


def test_container_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "x.bin"
    write_container(path, {"kind": "demo"}, np.arange(4, dtype=np.float64))
    path.write_bytes(path.read_bytes() + b"extra")
    with pytest.raises(DataError, match="payload is not whole float64 values"):
        read_container(path)


class FailsOnWrite:
    """Array stand-in whose payload cannot be produced: the write fails after the
    magic line and the header are already written."""

    def __array__(self, dtype=None, copy=None):
        raise OSError("No space left on device")


class DiskFull:
    """Stand-in for ``open`` on a full disk: each write stores half its bytes,
    then fails."""

    def __init__(self, path, mode):
        self.fh = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError("No space left on device")


def test_failed_container_write_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "x.bin"
    write_container(path, {"kind": "demo"}, np.arange(4, dtype=np.float64))
    before = path.read_bytes()
    with pytest.raises(WriteError, match="No space left"):
        write_container(path, {"kind": "demo"}, FailsOnWrite())
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.bin"]

    # text artifacts: the second write of each hits a full disk half way
    def history(n_epochs):
        return TrainHistory(epochs=[EpochRecord(k, 0.5, 0.75, 1e-3) for k in range(n_epochs)])

    def triplets(n_rows):
        return match_from_dense(np.eye(n_rows, 3, dtype=np.int64))

    writers = {
        "history.csv": lambda size: history(size).to_csv(tmp_path / "history.csv"),
        "L_train.triplets": lambda size: write_triplets(triplets(size), tmp_path / "L_train.triplets"),
    }
    for name, write in writers.items():
        write(2)
        before = (tmp_path / name).read_bytes()
        with monkeypatch.context() as patch:
            patch.setattr(sepll.serialize, "open", DiskFull, raising=False)
            with pytest.raises(WriteError, match="No space left"):
                write(40)
        assert (tmp_path / name).read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["L_train.triplets", "history.csv", "x.bin"]


def test_atomic_open_replaces_the_file_only_on_success(tmp_path):
    path = tmp_path / "report.json"
    path.write_bytes(b"old\n")
    with pytest.raises(RuntimeError):
        with atomic_open(path) as fh:
            fh.write(b"half of the new")
            raise RuntimeError("interrupted")
    assert path.read_bytes() == b"old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
    with atomic_open(path) as fh:
        fh.write(b"new\n")
    assert path.read_bytes() == b"new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


def test_container_header_is_one_sorted_json_line(tmp_path):
    path = tmp_path / "x.bin"
    write_container(path, {"zeta": 1, "alpha": 2}, np.zeros(1))
    blob = path.read_bytes()
    magic_end = blob.index(b"\n") + 1
    header_end = blob.index(b"\n", magic_end)
    header_line = blob[magic_end:header_end]
    assert json.loads(header_line) == {"zeta": 1, "alpha": 2}
    assert header_line.index(b'"alpha"') < header_line.index(b'"zeta"')
    assert len(blob) - header_end - 1 == 8  # no index of the payload: its one value follows


# ---------------------------------------------------------------------------
# JSON artifacts


@pytest.mark.parametrize(
    "obj", [object(), {1, 2}, PerLfStats, {"x": b"bytes"}], ids=["object", "set", "class", "bytes"]
)
def test_to_json_rejects_other_objects(obj):
    with pytest.raises(TypeError, match="not JSON serializable"):
        to_json(obj)


@pytest.mark.parametrize(
    "raw, message",
    [
        (b'{"a": "\xff"}', "file is not UTF-8"),
        (b'{\n  "a": 1,\n}\n', "3: Expecting property name"),
        (b"[" * 100000 + b"]" * 100000, "JSON nested too deeply"),
    ],
    ids=["not_utf8", "bad_json", "nested_too_deeply"],
)
def test_read_json_errors_name_the_file(tmp_path, raw, message):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    with pytest.raises(DataError, match=re.escape(f"{path}:") + ".*" + re.escape(message)):
        read_json(path)


# ---------------------------------------------------------------------------
# manifest


def test_manifest_build_and_verify(tmp_path):
    src = tmp_path / "input.txt"
    src.write_text("hello")
    out = tmp_path / "output.bin"
    out.write_bytes(b"\x00\x01")
    manifest = build_manifest(
        seed=7,
        config_echo={"train": {"seed": 7}},
        inputs={"input.txt": src},
        artifacts={"output.bin": out},
    )
    assert manifest["seed"] == 7
    assert "timestamp" not in json.dumps(manifest).lower()
    assert manifest["inputs"]["input.txt"]["sha256"] == file_digest(src)
    path = tmp_path / "manifest.json"
    write_json(path, manifest)
    assert read_json(path) == manifest
    assert verify_manifest(path) == []


def test_manifest_detects_tampering(tmp_path):
    src = tmp_path / "input.txt"
    src.write_text("hello")
    manifest = build_manifest(seed=0, config_echo={}, inputs={"input.txt": src}, artifacts={})
    path = tmp_path / "manifest.json"
    write_json(path, manifest)
    src.write_text("tampered")
    problems = verify_manifest(path)
    assert len(problems) == 1
    assert "input.txt" in problems[0]


def test_manifest_detects_missing_artifact(tmp_path):
    art = tmp_path / "gone.bin"
    art.write_bytes(b"x")
    manifest = build_manifest(seed=0, config_echo={}, inputs={}, artifacts={"gone.bin": art})
    path = tmp_path / "manifest.json"
    write_json(path, manifest)
    art.unlink()
    problems = verify_manifest(path)
    assert problems and "gone.bin" in problems[0]


def test_manifest_digest_known_value(tmp_path):
    f = tmp_path / "empty"
    f.write_bytes(b"")
    # sha256 of the empty string
    assert file_digest(f) == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def test_manifest_records_seed_streams(tmp_path):
    manifest = build_manifest(seed=3, config_echo={}, inputs={}, artifacts={})
    from sepll.seeds import STREAM_IDS

    assert manifest["seed_streams"] == dict(STREAM_IDS)


def test_verify_manifest_not_json_object_is_data_error(tmp_path):
    path = tmp_path / "manifest.json"
    for raw in (b"[" * 100000, b"[]", b'"inputs"'):
        path.write_bytes(raw)
        with pytest.raises(DataError, match=re.escape(str(path))):
            verify_manifest(path)


def test_verify_manifest_reports_malformed_entries(tmp_path):
    path = tmp_path / "manifest.json"
    write_json(path, {"inputs": {"a": 3, "b": {"path": 5, "sha256": "0"}}, "artifacts": [1]})
    assert verify_manifest(path) == [
        'inputs/a: not {"path": str, "sha256": str}',
        'inputs/b: not {"path": str, "sha256": str}',
        "artifacts: not a JSON object",
    ]
    write_json(path, {"inputs": {"dir": {"path": str(tmp_path), "sha256": "0"}}})
    assert verify_manifest(path) == [f"inputs/dir: missing file {tmp_path}"]


# a JSON string, number or literal: the unit a "swap" mutation replaces
JSON_VALUE = re.compile(rb'"(?:[^"\\]|\\.)*"|-?\d+|true|false|null')

# a mutation: (kind, position as a fraction of the bytes or of the JSON values, bytes);
# a swap puts a JSON value in place of another, so its result is often still JSON
MUTATIONS = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["replace", "delete", "insert"]),
            st.floats(0, 1, exclude_max=True),
            st.one_of(
                st.binary(min_size=1, max_size=4),
                st.sampled_from([b"[", b"]", b"{", b"}", b'"', b":", b",", b"\xff"]),
            ),
        ),
        st.tuples(
            st.just("swap"),
            st.floats(0, 1, exclude_max=True),
            st.sampled_from([b"3", b"null", b"true", b"[]", b"{}", b'"x"', b'{"x": 1}']),
        ),
    ),
    min_size=1,
    max_size=3,
)


def mutate(raw: bytes, mutations) -> bytes:
    for kind, frac, chunk in mutations:
        if kind == "swap":
            values = list(JSON_VALUE.finditer(raw))
            if values:
                value = values[int(frac * len(values))]
                raw = raw[: value.start()] + chunk + raw[value.end() :]
            continue
        pos = int(frac * len(raw))
        if kind == "replace":
            raw = raw[:pos] + chunk + raw[pos + len(chunk) :]
        elif kind == "delete":
            raw = raw[:pos] + raw[pos + len(chunk) :]
        else:
            raw = raw[:pos] + chunk + raw[pos:]
    return raw


def test_verify_manifest_on_mutated_bytes_gives_problems_or_data_error(tmp_path):
    src = tmp_path / "input.txt"
    src.write_text("hello")
    out = tmp_path / "output.bin"
    out.write_bytes(b"\x00\x01")
    inputs = {f"input{k}.txt": src for k in range(3)}
    artifacts = {f"output{k}.bin": out for k in range(3)}
    path = tmp_path / "manifest.json"
    write_json(path, build_manifest(3, {"train": {"seed": 3}}, inputs, artifacts))
    raw = path.read_bytes()

    @settings(max_examples=400)
    @given(MUTATIONS)
    def check(mutations):
        path.write_bytes(mutate(raw, mutations))
        try:
            problems = verify_manifest(path)
        except DataError as exc:
            assert str(path) in str(exc)
        else:
            assert isinstance(problems, list) and all(isinstance(p, str) for p in problems)

    check()
