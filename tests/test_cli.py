from __future__ import annotations

import copy
import csv
import ctypes
import dataclasses
import hashlib
import json
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import click
import numpy as np
import pytest
from conftest import child_env
from hypothesis import example, given, settings, strategies as st
from test_config_manifest import DiskFull

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    import tomli as tomllib

from sepll import native
from sepll.cli import cli, main
from sepll.config import parse_config
from sepll.data import SynthSpec, save_dataset, synth_dataset
from sepll.encoder import EncoderConfig
from sepll.errors import ConfigError, DataError
from sepll.manifest import verify_manifest
from sepll.model import ModelConfig, load_checkpoint
from sepll.serialize import MAGIC, read_json
from sepll.trainer import VARIANT_ORDER, TrainConfig

SYNTH_CONFIG = """\
[data]
format = synth
n_train = 120
n_dev = 30
n_test = 30

[encoder]
max_features = 300
hidden = 16
dim = 8

[train]
max_epochs = 3
patience = 2
seed = 0
"""


def write_config(tmp_path, text=SYNTH_CONFIG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def trained(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    return cfg, out


# ---------------------------------------------------------------------------
# synth + convert


def test_synth_writes_loadable_dataset(tmp_path):
    out = tmp_path / "data"
    code = main(
        ["synth", "--out", str(out), "--seed", "3", "--n-train", "40",
         "--n-dev", "10", "--n-test", "10"]
    )
    assert code == 0
    for name in ("train.json", "valid.json", "test.json", "label.json", "manifest.json"):
        assert (out / name).exists()
    assert verify_manifest(out / "manifest.json") == []


def test_synth_has_one_flag_per_spec_field_with_its_type_and_default(tmp_path):
    params = {param.name: param for param in cli.commands["synth"].params}
    fields = dataclasses.fields(SynthSpec)
    assert set(params) == {f.name for f in fields} | {"out", "seed", "fmt"}
    for f in fields:
        assert len(params[f.name].opts) == 1, f.name
        assert params[f.name].type.name == {"int": "integer", "float": "float"}[f.type], f.name
        assert params[f.name].default == f.default, f.name
    out, lib = tmp_path / "cli", tmp_path / "lib"
    assert main(["synth", "--out", str(out), "--seed", "5"]) == 0
    lib.mkdir()
    for written in save_dataset(synth_dataset(SynthSpec(), 5), lib):
        assert (out / written.name).read_bytes() == written.read_bytes(), written.name


def test_convert_writes_matrices_and_provenance(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--seed", "0", "--n-train", "60",
          "--n-dev", "20", "--n-test", "20"])
    out = tmp_path / "conv"
    assert main(["convert", str(data), "--out", str(out)]) == 0
    for name in ("L_train.triplets", "L_dev.triplets", "L_test.triplets",
                 "T.classof", "provenance.csv", "manifest.json"):
        assert (out / name).exists()
    header = (out / "L_train.triplets").read_text().splitlines()[0]
    n, m = header.split()
    assert int(n) == 60
    first = (out / "T.classof").read_text().splitlines()[0]
    assert first.split()[0] == m
    with open(out / "provenance.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    kept = [r for r in rows if r["status"] == "kept"]
    assert len(kept) == int(m)
    assert kept[0]["class_name"].startswith("class_")
    assert "converted" in capsys.readouterr().out


def test_convert_is_idempotent(tmp_path):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--seed", "1", "--n-train", "50",
          "--n-dev", "10", "--n-test", "10"])
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    main(["convert", str(data), "--out", str(out1)])
    main(["convert", str(data), "--out", str(out2)])
    for name in ("L_train.triplets", "L_dev.triplets", "L_test.triplets", "T.classof", "provenance.csv"):
        assert digest(out1 / name) == digest(out2 / name)


def test_convert_malformed_entry_exits_2_naming_file(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--seed", "0", "--n-train", "20",
          "--n-dev", "5", "--n-test", "5"])
    train = json.loads((data / "train.json").read_text(encoding="utf-8"))
    train["3"]["weak_labels"][0] = "x"
    (data / "train.json").write_text(json.dumps(train), encoding="utf-8")
    assert main(["convert", str(data), "--out", str(tmp_path / "conv")]) == 2
    err = capsys.readouterr().err
    assert f"{data / 'train.json'}: sample 3: weak label" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("fmt", ["wrench-json", "jsonl"])
def test_convert_deeply_nested_json_exits_2_naming_file(tmp_path, capsys, fmt):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--seed", "0", "--n-train", "5",
          "--n-dev", "5", "--n-test", "5", "--format", fmt])
    nested = "[" * 100_000 + "]" * 100_000
    if fmt == "wrench-json":
        split_file, where = data / "train.json", f"{data / 'train.json'}: "
        split_file.write_text(nested, encoding="utf-8")
    else:
        split_file, where = data / "train.jsonl", f"{data / 'train.jsonl'}:2: "
        lines = split_file.read_text(encoding="utf-8").splitlines()
        lines[1] = nested
        split_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["convert", str(data), "--format", fmt, "--out", str(tmp_path / "conv")])
    err = capsys.readouterr().err
    assert code == 2
    assert where + "JSON nested too deeply" in err
    assert "Traceback" not in err


def test_convert_missing_dir_is_usage_error(tmp_path, capsys):
    assert main(["convert", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]) == 1
    assert "error" in capsys.readouterr().err.lower()


# ---------------------------------------------------------------------------
# train


def test_train_synth_config_with_one_class_exits_1_naming_config(tmp_path, capsys):
    cfg = write_config(tmp_path, SYNTH_CONFIG.replace("format = synth", "format = synth\nc = 1"))
    code = main(["train", "--config", cfg, "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 1
    assert f"{cfg}: [data] synth needs at least two classes" in err
    assert "Traceback" not in err


def test_train_writes_artifacts(trained, capsys):
    _, out = trained
    assert (out / "checkpoint.sepll").exists()
    assert (out / "history.csv").exists()
    assert (out / "manifest.json").exists()
    history = (out / "history.csv").read_text().splitlines()
    assert history[0] == "epoch,train_loss,dev_metric,lr"
    assert len(history) > 1
    manifest = read_json(out / "manifest.json")
    assert manifest["config"]["train"]["seed"] == 0
    assert verify_manifest(out / "manifest.json") == []


def test_train_seed_override_is_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", cfg, "--out", str(a), "--seed", "7"]) == 0
    assert main(["train", "--config", cfg, "--out", str(b), "--seed", "7"]) == 0
    assert digest(a / "checkpoint.sepll") == digest(b / "checkpoint.sepll")
    assert digest(a / "history.csv") == digest(b / "history.csv")
    manifest = read_json(a / "manifest.json")
    assert manifest["seed"] == 7
    assert manifest["config"]["train"]["seed"] == 7


def test_train_missing_dev_split_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, SYNTH_CONFIG.replace("n_dev = 30", "n_dev = 0"))
    code = main(["train", "--config", cfg, "--out", str(tmp_path / "x")])
    assert code == 2
    assert "dev split required for early stopping" in capsys.readouterr().err


def test_config_not_utf8_exits_1_naming_file(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"[train]\nseed = \xff\xfe\n")
    assert main(["stats", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f"{cfg}: file is not UTF-8" in err
    assert "Traceback" not in err


def test_train_bad_config_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, "[train]\nlearning_rate = -1\n")
    code = main(["train", "--config", cfg, "--out", str(tmp_path / "x")])
    assert code == 1


def _train_with(old, new, *extra):
    """A case that trains on SYNTH_CONFIG with ``old`` replaced by ``new``."""

    def case(tmp_path, request):
        assert old in SYNTH_CONFIG
        cfg = write_config(tmp_path, SYNTH_CONFIG.replace(old, new))
        return ["train", "--config", cfg, "--out", str(tmp_path / "x"), *extra]

    return case


def _command(*argv):
    """A case that runs ``argv`` with ``{cfg}`` and ``{tmp}`` filled in."""

    def case(tmp_path, request):
        cfg = write_config(tmp_path)
        return [arg.format(cfg=cfg, tmp=tmp_path) for arg in argv]

    return case


def _eval_with_echo(echo):
    """A case that evaluates a trained checkpoint whose config echo is ``echo``."""

    def case(tmp_path, request):
        from sepll.serialize import read_container, write_container

        cfg, run_dir = request.getfixturevalue("trained")
        ckpt = run_dir / "checkpoint.sepll"
        header, theta = read_container(ckpt)
        header["config"] = echo
        write_container(ckpt, header, theta)
        return ["eval", "--checkpoint", str(ckpt), "--config", cfg, "--out", str(tmp_path / "e")]

    return case


def _convert_with_labels(label_json: str):
    """A case that converts a small synth dataset whose label.json is ``label_json``."""

    def case(tmp_path, request):
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--n-train", "20", "--n-dev", "5", "--n-test", "5"]) == 0
        (data / "label.json").write_text(label_json, encoding="utf-8")
        return ["convert", str(data), "--out", str(tmp_path / "c")]

    return case


def _with_directory_for(fmt: str, name: str):
    """A case that converts a small synth dataset whose file ``name`` is a directory."""

    def case(tmp_path, request):
        data = tmp_path / "data"
        argv = ["synth", "--out", str(data), "--n-train", "20", "--n-dev", "5", "--n-test", "5", "--format", fmt]
        assert main(argv) == 0
        (data / name).unlink()
        (data / name).mkdir()
        return ["convert", str(data), "--format", fmt, "--out", str(tmp_path / "c")]

    return case


def _out_below_a_file(*argv):
    """A case that runs ``argv`` (``{cfg}`` and ``{tmp}`` filled in) after making
    ``{tmp}/afile`` a regular file, so that ``{tmp}/afile/x`` cannot be a directory."""

    def case(tmp_path, request):
        (tmp_path / "afile").write_text("", encoding="utf-8")
        return _command(*argv)(tmp_path, request)

    return case


def _never_calling(name: str, build):
    """``build``, with ``sepll.cli.<name>`` patched to fail the test if it is called."""

    def case(tmp_path, request):
        def fail(*args, **kwargs):
            pytest.fail(f"{name} ran before --out was checked")

        request.getfixturevalue("monkeypatch").setattr(f"sepll.cli.{name}", fail)
        return build(tmp_path, request)

    return case


def _full_disk_for(name: str, build):
    """``build``, with ``sepll.serialize.open`` giving the temporary file of an
    artifact called ``name`` a full disk."""

    def opener(path, mode="r", *args, **kwargs):
        if Path(path).name.startswith(f".{name}."):
            return DiskFull(path, mode)
        return open(path, mode, *args, **kwargs)

    def case(tmp_path, request):
        request.getfixturevalue("monkeypatch").setattr("sepll.serialize.open", opener, raising=False)
        return build(tmp_path, request)

    return case


def _eval_version_1(tmp_path, request):
    """A case that evaluates a trained checkpoint whose header says version 1."""
    cfg, run_dir = request.getfixturevalue("trained")
    ckpt = run_dir / "checkpoint.sepll"
    rewrite_header(ckpt, lambda header: {**header, "version": 1})
    return ["eval", "--checkpoint", str(ckpt), "--config", cfg]


def _convert_files(fmt: str, files: dict[str, str]):
    """A case that converts a dataset directory holding ``files`` (name -> text)."""

    def case(tmp_path, request):
        data = tmp_path / "data"
        data.mkdir()
        for name, text in files.items():
            (data / name).write_text(text, encoding="utf-8")
        return ["convert", str(data), "--format", fmt, "--out", str(tmp_path / "c")]

    return case


# One row per malformed input that used to end in a traceback, a wrong exit
# code or a silent success: case -> (argv builder, exit code, text that stderr
# must hold, with {tmp} for the test's directory). Exit 1 is a config or usage
# error, a failed write or no memory left, exit 2 a data error. No case leaves
# a file behind, so a train that fails leaves no checkpoint.
MALFORMED_INPUTS = {
    "learning_rate is nan": (_train_with("max_epochs", "learning_rate = nan\nmax_epochs"), 1, "{tmp}/run.cfg: learning_rate"),
    "learning_rate is inf": (_train_with("max_epochs", "learning_rate = inf\nmax_epochs"), 1, "{tmp}/run.cfg: learning_rate"),
    "learning_rate is -1": (
        _train_with("max_epochs", "learning_rate = -1\nmax_epochs"),
        1,
        "{tmp}/run.cfg: learning_rate must be positive",
    ),
    "weight_decay is inf": (_train_with("max_epochs", "weight_decay = inf\nmax_epochs"), 1, "{tmp}/run.cfg: weight_decay"),
    "l2_lf is nan": (_train_with("max_epochs", "l2_lf = nan\nmax_epochs"), 1, "{tmp}/run.cfg: l2_lf"),
    "batch_size is not an integer": (
        _train_with("max_epochs", "batch_size = 1.5\nmax_epochs"),
        1,
        "{tmp}/run.cfg: [train] batch_size: expected an integer, got '1.5'",
    ),
    "dim has an underscore": (
        _train_with("dim = 8", "dim = 1_0"),
        1,
        "{tmp}/run.cfg: [encoder] dim: expected an integer, got '1_0'",
    ),
    "batch_size is a non-ASCII digit": (
        _train_with("max_epochs", "batch_size = \u0663\nmax_epochs"),
        1,
        "{tmp}/run.cfg: [train] batch_size: expected an integer, got '\u0663'",
    ),
    "hidden has an empty item": (
        _train_with("hidden = 16", "hidden = 16,,32"),
        1,
        "{tmp}/run.cfg: [encoder] hidden: expected comma-separated integers, got '16,,32'",
    ),
    "learning_rate has an underscore": (
        _train_with("max_epochs", "learning_rate = 1_0.0\nmax_epochs"),
        1,
        "{tmp}/run.cfg: [train] learning_rate: expected a number, got '1_0.0'",
    ),
    "learning_rate is a non-ASCII digit": (
        _train_with("max_epochs", "learning_rate = 0.\u0661\nmax_epochs"),
        1,
        "{tmp}/run.cfg: [train] learning_rate: expected a number, got '0.\u0661'",
    ),
    "encoder nonlinearity is unknown": (
        _train_with("dim = 8", "dim = 8\nnonlinearity = cube"),
        1,
        "{tmp}/run.cfg: unknown nonlinearity 'cube'",
    ),
    "config has no [data] section": (
        _train_with(SYNTH_CONFIG, SYNTH_CONFIG[SYNTH_CONFIG.index("[encoder]") :]),
        1,
        "{tmp}/run.cfg: config needs a [data] section for this command",
    ),
    "lfs entry names an unknown class": (
        _train_with("seed = 0\n", "seed = 0\n\n[lfs]\nodd = keyword class_9 x\n"),
        1,
        "{tmp}/run.cfg: [lfs] LF entry 'odd': unknown class 'class_9'",
    ),
    "config seed is negative": (_train_with("seed = 0", "seed = -1"), 1, "{tmp}/run.cfg: seed must be non-negative"),
    "train --seed is negative": (_train_with("seed = 0", "seed = 0", "--seed", "-3"), 1, "--seed"),
    "synth --seed is negative": (_command("synth", "--out", "{tmp}/s", "--seed", "-3"), 1, "--seed"),
    "synth --classes is 1": (
        _command("synth", "--out", "{tmp}/s", "--classes", "1"),
        1,
        "error: Invalid value for '--classes': synth needs at least two classes",
    ),
    "synth --lfs-per-class is 0": (
        _command("synth", "--out", "{tmp}/s", "--lfs-per-class", "0"),
        1,
        "error: Invalid value for '--lfs-per-class': synth needs at least one LF per class",
    ),
    "synth --lf-coverage is 0": (
        _command("synth", "--out", "{tmp}/s", "--lf-coverage", "0"),
        1,
        "error: Invalid value for '--lf-coverage': lf_coverage must be in (0, 1]",
    ),
    "synth --n-train is -1": (
        _command("synth", "--out", "{tmp}/s", "--n-train", "-1"),
        1,
        "error: Invalid value for '--n-train': split sizes must be non-negative",
    ),
    "config has a line before its first section": (
        _train_with(SYNTH_CONFIG, "junk\n" + SYNTH_CONFIG),
        1,
        "error: {tmp}/run.cfg:1: a line before the first [section]: 'junk\\n'\n",
    ),
    "config has a line that is no key = value": (
        _train_with("n_dev = 30\n", "n_dev = 30\nn_dev\n"),
        1,
        "error: {tmp}/run.cfg:5: neither a [section] nor a key = value line: 'n_dev\\n'\n",
    ),
    "config repeats a section": (
        _train_with(SYNTH_CONFIG, SYNTH_CONFIG + "[data]\n"),
        1,
        "error: {tmp}/run.cfg:16: section [data] appears twice\n",
    ),
    "config repeats a key": (
        _train_with("n_dev = 30\n", "n_dev = 30\nn_dev = 31\n"),
        1,
        "error: {tmp}/run.cfg:5: key 'n_dev' appears twice in [data]\n",
    ),
    "lfs keyword term has no letters or digits": (
        _train_with("seed = 0\n", "seed = 0\n\n[lfs]\nbang = keyword class_0 !!!\n"),
        1,
        "error: {tmp}/run.cfg: [lfs] LF 0: keyword term '!!!' has no letters or digits\n",
    ),
    "stats --seed is negative": (_command("stats", "--config", "{cfg}", "--seed", "-3", "--out", "{tmp}/d"), 1, "--seed"),
    "checkpoint echo is a number": (_eval_with_echo(5), 2, "{tmp}/run/checkpoint.sepll: "),
    "checkpoint echo section is a number": (_eval_with_echo({"train": 5}), 2, "{tmp}/run/checkpoint.sepll: "),
    "checkpoint echo is a list": (_eval_with_echo(["x"]), 2, "{tmp}/run/checkpoint.sepll: "),
    "checkpoint echo has an unknown section": (_eval_with_echo({"x": {}}), 2, "{tmp}/run/checkpoint.sepll: "),
    "checkpoint class names are not strings": (_eval_with_echo({"class_names": [0]}), 2, "{tmp}/run/checkpoint.sepll: "),
    "checkpoint is version 1": (
        _eval_version_1,
        2,
        "{tmp}/run/checkpoint.sepll: checkpoint format version 1 is not 2; train again",
    ),
    "jsonl train.jsonl is a directory": (
        _with_directory_for("jsonl", "train.jsonl"),
        2,
        "{tmp}/data/train.jsonl: cannot read: Is a directory",
    ),
    "wrench-json label.json is a directory": (
        _with_directory_for("wrench-json", "label.json"),
        2,
        "{tmp}/data/label.json: cannot read: Is a directory",
    ),
    "synth --out below a file": (
        _out_below_a_file("synth", "--out", "{tmp}/afile/x", "--n-train", "20", "--n-dev", "5", "--n-test", "5"),
        1,
        "--out {tmp}/afile/x: cannot make the directory: Not a directory",
    ),
    "stats --out below a file": (
        _out_below_a_file("stats", "--config", "{cfg}", "--out", "{tmp}/afile/x"),
        1,
        "--out {tmp}/afile/x: cannot make the directory: Not a directory",
    ),
    "train --out below a file": (
        _never_calling("train", _out_below_a_file("train", "--config", "{cfg}", "--out", "{tmp}/afile/x")),
        1,
        "--out {tmp}/afile/x: cannot make the directory: Not a directory",
    ),
    # the config file stands in for the checkpoint, which is never loaded
    "eval --out below a file": (
        _never_calling(
            "load_checkpoint",
            _out_below_a_file("eval", "--checkpoint", "{cfg}", "--config", "{cfg}", "--out", "{tmp}/afile/x"),
        ),
        1,
        "--out {tmp}/afile/x: cannot make the directory: Not a directory",
    ),
    "analyze --out below a file": (
        _never_calling(
            "load_checkpoint",
            _out_below_a_file(
                "analyze", "--checkpoint", "{cfg}", "--config", "{cfg}", "--which", "gap", "--out", "{tmp}/afile/x"
            ),
        ),
        1,
        "--out {tmp}/afile/x: cannot make the directory: Not a directory",
    ),
    "positive_class is 5": (
        _train_with("max_epochs", "positive_class = 5\nmax_epochs"),
        1,
        "{tmp}/run.cfg: positive_class must be 0 or 1",
    ),
    "binary_f1 on three classes": (
        _train_with(
            SYNTH_CONFIG,
            SYNTH_CONFIG.replace("format = synth", "format = synth\nc = 3").replace("seed = 0", "seed = 0\nmetric = binary_f1"),
        ),
        2,
        "binary_f1 requires exactly 2 classes, got 3",
    ),
    "jsonl gold label is -5": (
        _convert_files("jsonl", {"train.jsonl": '{"text": "a b", "label": -5, "weak_labels": [0, 1]}\n'}),
        2,
        "{tmp}/data: train: sample 0: class index out of range: -5",
    ),
    "wrench-json weak label is -7": (
        _convert_files(
            "wrench-json",
            {"train.json": '{"0": {"data": {"text": "a b"}, "weak_labels": [0, -7]}}', "label.json": '{"0": "a"}'},
        ),
        2,
        "{tmp}/data: train: sample row 0, LF 1: class index out of range: -7; {tmp}/data/label.json names classes 0..0",
    ),
    "label.json is an empty object": (_convert_with_labels("{}"), 2, "{tmp}/data/label.json: "),
    "label.json names fewer classes than the data uses": (
        _convert_with_labels('{"0": "a"}'),
        2,
        "{tmp}/data/label.json names classes 0..0",
    ),
    "label.json class name is not a string": (_convert_with_labels('{"0": "a", "1": 7}'), 2, "{tmp}/data/label.json: "),
    "label.json class name is null": (_convert_with_labels('{"0": null, "1": "b"}'), 2, "{tmp}/data/label.json: "),
    "label.json index has a leading zero": (
        _convert_with_labels('{"0": "a", "01": "b"}'),
        2,
        "{tmp}/data/label.json: ",
    ),
    "label.json repeats a class name": (
        _convert_with_labels('{"0": "spam", "1": "spam"}'),
        2,
        '{tmp}/data/label.json: class name "spam" appears twice',
    ),
    "dataset has no samples in any split": (
        _convert_files("wrench-json", {"train.json": "{}", "valid.json": "{}", "test.json": "{}", "label.json": '{"0": "a"}'}),
        2,
        "error: {tmp}/data: no samples in any split file\n",
    ),
    "label.json index has a sign": (_convert_with_labels('{"+0": "a", "1": "b"}'), 2, "{tmp}/data/label.json: "),
    "label.json index is a non-ASCII digit": (
        _convert_with_labels('{"0": "a", "\u0661": "b"}'),
        2,
        "{tmp}/data/label.json: ",
    ),
    "train checkpoint write hits a full disk": (
        _full_disk_for("checkpoint.sepll", _command("train", "--config", "{cfg}", "--out", "{tmp}/run")),
        1,
        "{tmp}/run/checkpoint.sepll: cannot write: No space left on device",
    ),
    "train history write hits a full disk": (
        _full_disk_for("history.csv", _command("train", "--config", "{cfg}", "--out", "{tmp}/run")),
        1,
        "{tmp}/run/history.csv: cannot write: No space left on device",
    ),
    "train manifest write hits a full disk": (
        _full_disk_for("manifest.json", _command("train", "--config", "{cfg}", "--out", "{tmp}/run")),
        1,
        "{tmp}/run/manifest.json: cannot write: No space left on device",
    ),
    # theta would take about 212 TB, more than a 47-bit address space holds, so
    # its allocation fails under any overcommit setting
    "encoder dim is 10**11": (
        _train_with("hidden = 16\ndim = 8", "hidden = 256\ndim = 100000000000"),
        1,
        "error: out of memory: Unable to allocate",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_with_its_code_naming_it(tmp_path, capsys, request, case):
    build, code, named = MALFORMED_INPUTS[case]
    argv = build(tmp_path, request)
    before = {f for f in tmp_path.rglob("*") if f.is_file()}
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert named.format(tmp=tmp_path) in err
    assert "Traceback" not in err
    assert {f for f in tmp_path.rglob("*") if f.is_file()} == before  # no file left behind, temporary or not


def _path_of_shape(tmp_path: Path, shape: str) -> str:
    """A path under ``tmp_path`` that is missing, a directory, a regular file, or below a regular file."""
    if shape == "directory":
        (tmp_path / "adir").mkdir()
        return str(tmp_path / "adir")
    if shape != "missing":
        (tmp_path / "afile").write_text("", encoding="utf-8")
    return str(tmp_path / {"missing": "missing", "file": "afile", "below a file": "afile/x"}[shape])


def _data_path_config(path: str, tmp_path: Path) -> str:
    return write_config(tmp_path, f"[data]\nformat = wrench-json\npath = {path}\n", name="data.cfg")


# path option -> (the shapes it must reject, argv around the path); the --out
# cases below a file for synth, stats and train are in MALFORMED_INPUTS
PATH_OPTIONS = {
    "--config": (("missing", "directory", "below a file"), lambda p, tmp: ["train", "--config", p, "--out", f"{tmp}/o"]),
    "--out": (("file", "below a file"), lambda p, tmp: ["ablate", "--config", write_config(tmp), "--out", p]),
    "--checkpoint": (
        ("missing", "directory", "below a file"),
        lambda p, tmp: ["eval", "--checkpoint", p, "--config", write_config(tmp)],
    ),
    "IN_PATH": (("missing", "file", "below a file"), lambda p, tmp: ["convert", p, "--out", f"{tmp}/o"]),
    "[data] path": (("missing", "file", "below a file"), lambda p, tmp: ["stats", "--config", _data_path_config(p, tmp)]),
    "--datasets": (
        ("missing", "file", "below a file"),
        lambda p, tmp: ["ablate", "--config", write_config(tmp), "--datasets", p, "--out", f"{tmp}/o"],
    ),
}


@pytest.mark.parametrize(
    "option, shape", [(option, shape) for option, (shapes, _) in PATH_OPTIONS.items() for shape in shapes]
)
def test_path_option_of_the_wrong_shape_exits_naming_it(tmp_path, capsys, monkeypatch, option, shape):
    def run_ablation(*args, **kwargs):
        pytest.fail("ablate trained before it checked its paths")

    monkeypatch.setattr("sepll.cli.run_ablation", run_ablation)
    path = _path_of_shape(tmp_path, shape)
    code = main(PATH_OPTIONS[option][1](path, tmp_path))
    err = capsys.readouterr().err
    assert code in (1, 2), err
    assert path in err
    assert "Traceback" not in err


def test_exit_code_of_a_command_that_exits_is_returned(monkeypatch):
    @click.command("exit-three")
    @click.pass_context
    def exit_three(ctx):
        ctx.exit(3)

    monkeypatch.setitem(cli.commands, "exit-three", exit_three)
    assert main(["exit-three"]) == 3
    assert main(["--version"]) == 0


# ---------------------------------------------------------------------------
# eval


@pytest.mark.parametrize(
    "interrupt",
    [KeyboardInterrupt(), ctypes.ArgumentError("argument 1: KeyboardInterrupt: ")],
    ids=["KeyboardInterrupt", "ArgumentError"],
)
def test_interrupted_train_exits_130_with_one_line(tmp_path, capsys, monkeypatch, interrupt):
    # the ArgumentError is how ctypes reports a signal during a kernel's argument conversion
    def adamw(*args):
        raise interrupt

    monkeypatch.setattr(native, "adamw", adamw)
    out = tmp_path / "run"
    assert main(["train", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 130
    assert capsys.readouterr().err == "interrupted\n"
    assert list(out.iterdir()) == []  # made before training, and no temporary file left


def test_eval_writes_report(trained, tmp_path, capsys):
    cfg, run_dir = trained
    out = tmp_path / "eval"
    code = main(
        ["eval", "--checkpoint", str(run_dir / "checkpoint.sepll"),
         "--config", cfg, "--split", "test", "--out", str(out)]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["split"] == "test"
    assert report["metric"] == "accuracy"
    assert 0.0 <= report["value"] <= 1.0
    assert len(report["confusion"]) == 2
    csv_text = (out / "report.csv").read_text().splitlines()
    assert csv_text[0] == "cell,value"
    assert verify_manifest(out / "manifest.json") == []


def test_eval_stdout_when_no_out(trained, capsys):
    cfg, run_dir = trained
    code = main(
        ["eval", "--checkpoint", str(run_dir / "checkpoint.sepll"),
         "--config", cfg, "--metric", "macro_f1"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["metric"] == "macro_f1"


def test_eval_dimension_mismatch_exits_2(trained, tmp_path, capsys):
    cfg, run_dir = trained
    other = write_config(
        tmp_path, SYNTH_CONFIG.replace("n_train = 120", "n_train = 120\nm_per_class = 1"),
        name="other.cfg",
    )
    code = main(
        ["eval", "--checkpoint", str(run_dir / "checkpoint.sepll"), "--config", other]
    )
    assert code == 2
    assert "LF dimension mismatch" in capsys.readouterr().err


def test_eval_malformed_checkpoint_exits_2_naming_file(trained, capsys):
    from sepll.serialize import read_container, write_container

    cfg, run_dir = trained
    ckpt = run_dir / "checkpoint.sepll"
    header, theta = read_container(ckpt)
    header["dims"][2] = header["dims"][2][:1]  # an LF path of no layers
    write_container(ckpt, header, theta)
    assert main(["eval", "--checkpoint", str(ckpt), "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "checkpoint.sepll" in err
    assert "Traceback" not in err


# What a header mutation may put in place of a value: every JSON type, ints
# at and past the int64 range, and (by "copy") another value of the same header.
HEADER_VALUES = [-1, 0, 1, 7, 2**63, -(2**70), 0.5, 1e308, True, False, None, "", "x", [], [0], [-1], {}, {"x": 1}]
FRACTION = st.floats(0, 1, exclude_max=True)
CHECKPOINT_MUTATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("header"), FRACTION, st.sampled_from(HEADER_VALUES)),
        st.tuples(st.just("copy"), FRACTION, FRACTION),
        # the second pair puts an exponent of all ones into a float64's top bytes
        st.tuples(
            st.just("payload"), FRACTION, st.one_of(st.binary(min_size=1, max_size=2), st.sampled_from([b"\xf8\x7f", b"\xf0\xff"]))
        ),
    ),
    min_size=1,
    max_size=3,
)


def json_slots(node):
    """Every ``(container, key)`` inside a JSON value, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in list(items):
        yield node, key
        yield from json_slots(child)


def mutate_checkpoint(raw: bytes, mutations) -> bytes:
    """``raw`` with each mutation applied to its header's values or its payload bytes."""
    end = raw.index(b"\n", len(MAGIC))
    header, payload = json.loads(raw[len(MAGIC) : end]), bytearray(raw[end + 1 :])
    for kind, frac, arg in mutations:
        if kind == "payload":
            pos = int(frac * len(payload))
            payload[pos : pos + len(arg)] = arg
            continue
        slots = list(json_slots(header))
        node, key = slots[int(frac * len(slots))]
        if kind == "copy":
            source, source_key = slots[int(arg * len(slots))]
            arg = source[source_key]
        node[key] = copy.deepcopy(arg)
    return MAGIC + json.dumps(header, sort_keys=True).encode() + b"\n" + bytes(payload)


def test_mutated_checkpoint_loads_or_is_data_error_and_eval_exits_cleanly(trained, tmp_path, capsys):
    cfg, run_dir = trained
    raw = (run_dir / "checkpoint.sepll").read_bytes()
    assert mutate_checkpoint(raw, []) == raw
    path = tmp_path / "mutated.sepll"

    @settings(max_examples=300)
    @given(CHECKPOINT_MUTATIONS)
    def check(mutations):
        path.write_bytes(mutate_checkpoint(raw, mutations))
        try:
            params, vocab, echo = load_checkpoint(path)
        except DataError as exc:
            assert str(path) in str(exc)
            rejected = True
        else:
            rejected = False
            # valid data: what training could have written
            assert np.isfinite(params.theta).all()
            assert len(set(vocab.tokens)) == len(vocab) == vocab.df.size
            assert vocab.n_docs >= 0 and np.all((vocab.df >= 0) & (vocab.df <= vocab.n_docs))
            assert type(echo) is dict and set(echo) <= {"encoder", "model", "train", "data", "lfs", "class_names"}
            assert all(type(echo[key]) is dict for key in ("encoder", "model", "train", "data") if key in echo)
            assert type(echo.get("lfs", [])) is list
            assert type(echo.get("class_names", [])) is list and all(type(v) is str for v in echo.get("class_names", []))
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(path), "--config", cfg])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        # a checkpoint that loads may still disagree with the data (exit 2) or
        # overflow the logits with finite weights (exit 3)
        assert code == 2 if rejected else code in (0, 2, 3)
        if code == 2:
            assert str(path) in err

    check()


def test_eval_checkpoint_shapes_that_do_not_chain_exit_2(trained, capsys):
    from sepll.serialize import read_container, write_container

    cfg, run_dir = trained
    ckpt = run_dir / "checkpoint.sepll"
    header, theta = read_container(ckpt)
    header["dims"][1][0] += 1  # the class path reads one more input than the encoder gives
    write_container(ckpt, header, theta)
    assert main(["eval", "--checkpoint", str(ckpt), "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "checkpoint.sepll" in err and "the task path's input" in err
    assert "Traceback" not in err



def rewrite_header(ckpt: Path, edit) -> None:
    """Replace the JSON header line of a container with ``edit(header)``
    (serialized unless it is already bytes), keeping the payload."""
    raw = ckpt.read_bytes()
    start = raw.index(b"\n") + 1
    end = raw.index(b"\n", start)
    blob = edit(json.loads(raw[start:end]))
    if not isinstance(blob, bytes):
        blob = json.dumps(blob).encode("utf-8")
    ckpt.write_bytes(raw[:start] + blob + raw[end:])


def _set_width(path: int, index: int, value):
    """A header edit that sets width ``index`` of path ``path`` in ``dims`` to ``value``."""

    def edit(header):
        header["dims"][path][index] = value
        return header

    return edit


NOT_DIMS = "malformed checkpoint header: 'dims' must be 3 lists of int"
MALFORMED_HEADERS = {  # case -> (header edit, message)
    "dims is a string": (lambda header: {**header, "dims": "ab"}, NOT_DIMS),
    "dims is a number": (lambda header: {**header, "dims": 5}, NOT_DIMS),
    "dims has a negative width": (
        _set_width(0, 1, -1),
        "dims: the encoder path needs at least two widths, each at least 1",
    ),
    "dims has a boolean width": (_set_width(1, 1, True), NOT_DIMS),
    "dims has a float width": (_set_width(1, 1, 2.5), NOT_DIMS),
    "header without dims": (
        lambda header: {k: v for k, v in header.items() if k != "dims"},
        "checkpoint header is missing key 'dims'",
    ),
    "header is a list": (lambda header: [header], "container header is not a JSON object"),
    "header nested too deeply": (
        lambda header: b"[" * 100000 + b"]" * 100000,
        "corrupt container header",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
def test_eval_malformed_container_header_exits_2_naming_file(trained, capsys, case):
    cfg, run_dir = trained
    ckpt = run_dir / "checkpoint.sepll"
    edit, message = MALFORMED_HEADERS[case]
    rewrite_header(ckpt, edit)
    assert main(["eval", "--checkpoint", str(ckpt), "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"{ckpt}: " in err and message in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# analyze


def test_analyze_memorization_json(trained, tmp_path):
    cfg, run_dir = trained
    out = tmp_path / "mem"
    code = main(
        ["analyze", "--checkpoint", str(run_dir / "checkpoint.sepll"), "--config", cfg,
         "--which", "memorization", "--split", "train", "--out", str(out), "--plot"]
    )
    assert code == 0
    blob = json.loads((out / "memorization.json").read_text())
    assert set(blob["paths"]) == {"lf_latent", "full", "task_mapped"}
    for path in blob["paths"].values():
        assert set(path) == {"accuracy", "macro_f1", "cross_entropy"}
    assert blob["threshold_k"] == 4
    assert blob["uniform_ce"] > 0
    assert (out / "memorization_scores.svg").exists()
    assert (out / "memorization_ce.svg").exists()
    assert verify_manifest(out / "manifest.json") == []


def test_analyze_threshold_k_choice(trained, tmp_path):
    cfg, run_dir = trained
    out = tmp_path / "mem2"
    code = main(
        ["analyze", "--checkpoint", str(run_dir / "checkpoint.sepll"), "--config", cfg,
         "--which", "memorization", "--threshold-k", "2", "--out", str(out)]
    )
    assert code == 0
    assert json.loads((out / "memorization.json").read_text())["threshold_k"] == 2


def test_analyze_matches_csv_and_plot(trained, tmp_path):
    cfg, run_dir = trained
    out = tmp_path / "matches"
    code = main(
        ["analyze", "--checkpoint", str(run_dir / "checkpoint.sepll"), "--config", cfg,
         "--which", "matches", "--out", str(out), "--plot"]
    )
    assert code == 0
    lines = (out / "matches.csv").read_text().splitlines()
    assert lines[0] == "match_count,accuracy,support"
    assert len(lines) > 1
    assert (out / "matches.svg").exists()


def test_analyze_gap_json(trained, tmp_path):
    cfg, run_dir = trained
    out = tmp_path / "gap"
    code = main(
        ["analyze", "--checkpoint", str(run_dir / "checkpoint.sepll"), "--config", cfg,
         "--which", "gap", "--out", str(out)]
    )
    assert code == 0
    blob = json.loads((out / "gap.json").read_text())
    assert set(blob) == {"cells", "train", "test"}
    assert "full.cross_entropy" in blob["cells"]
    assert all(v >= 0 for v in blob["cells"].values())


# what ``analyze --which matches`` prints, byte for byte: count keys sort as text
MATCHES_JSON = """{
  "0": {
    "support": 8,
    "value": 0.25
  },
  "10": {
    "support": 1,
    "value": 1.0
  },
  "2": {
    "support": 4,
    "value": 0.5
  }
}
"""


def test_analyze_matches_stdout_golden(trained, capsys, monkeypatch):
    import sepll.cli
    from sepll.evaluation import MatchGroup

    table = {2: MatchGroup(0.5, 4), 10: MatchGroup(1.0, 1), 0: MatchGroup(0.25, 8)}
    monkeypatch.setattr(sepll.cli, "match_count_breakdown", lambda *args, **kwargs: table)
    cfg, run_dir = trained
    code = main(
        ["analyze", "--checkpoint", str(run_dir / "checkpoint.sepll"), "--config", cfg,
         "--which", "matches"]
    )
    assert code == 0
    assert capsys.readouterr().out == MATCHES_JSON


@pytest.mark.parametrize(
    "argv, name",
    [
        (["stats"], "stats.json"),
        (["eval", "--metric", "macro_f1"], "report.json"),
        (["analyze", "--which", "memorization"], "memorization.json"),
        (["analyze", "--which", "gap"], "gap.json"),
    ],
    ids=["stats", "eval", "analyze-memorization", "analyze-gap"],
)
def test_stdout_without_out_is_the_written_json(trained, tmp_path, capsys, argv, name):
    cfg, run_dir = trained
    argv = [*argv, "--config", cfg]
    if argv[0] != "stats":
        argv += ["--checkpoint", str(run_dir / "checkpoint.sepll")]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert printed == (tmp_path / "out" / name).read_text(encoding="utf-8")


def test_analyze_stdout_without_out(trained, capsys):
    cfg, run_dir = trained
    code = main(
        ["analyze", "--checkpoint", str(run_dir / "checkpoint.sepll"), "--config", cfg,
         "--which", "memorization"]
    )
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert "paths" in blob


# ---------------------------------------------------------------------------
# ablate


def test_ablate_runs_all_variants(tmp_path):
    cfg = write_config(
        tmp_path,
        SYNTH_CONFIG.replace("n_train = 120", "n_train = 60")
        .replace("n_dev = 30", "n_dev = 16")
        .replace("n_test = 30", "n_test = 16")
        .replace("max_epochs = 3", "max_epochs = 2"),
    )
    out = tmp_path / "abl"
    assert main(["ablate", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "ablation.csv").read_text().splitlines()
    assert rows[0] == "variant,synth,avg"
    assert [r.split(",")[0] for r in rows[1:]] == list(VARIANT_ORDER)
    blob = json.loads((out / "ablation.json").read_text())
    assert set(blob["synth"]) == set(VARIANT_ORDER)
    for cell in blob["synth"].values():
        assert set(cell) == {"dev", "test"}


def test_ablate_multiple_datasets(tmp_path):
    d1, d2 = tmp_path / "d1", tmp_path / "d2"
    for i, d in enumerate((d1, d2)):
        main(["synth", "--out", str(d), "--seed", str(i), "--n-train", "60",
              "--n-dev", "16", "--n-test", "16"])
    cfg = write_config(
        tmp_path,
        "[data]\nformat = wrench-json\npath = " + str(d1) + "\n\n"
        "[encoder]\nmax_features = 300\nhidden = 16\ndim = 8\n\n"
        "[train]\nmax_epochs = 2\npatience = 2\nseed = 0\n",
    )
    out = tmp_path / "abl"
    code = main(["ablate", "--config", cfg, "--datasets", f"{d1},{d2}", "--out", str(out)])
    assert code == 0
    rows = (out / "ablation.csv").read_text().splitlines()
    assert rows[0] == "variant,d1,d2,avg"
    body = [r.split(",") for r in rows[1:]]
    assert len(body) == len(VARIANT_ORDER)
    for cells in body:
        vals = [float(v) for v in cells[1:]]
        assert vals[2] == pytest.approx((vals[0] + vals[1]) / 2)


def test_ablate_datasets_sharing_a_name_exit_1(tmp_path, capsys):
    # results are keyed by the directory's base name, so the second would
    # silently replace the first in ablation.json, ablation.csv and the manifest
    d1, d2 = tmp_path / "a" / "data", tmp_path / "b" / "data"
    for d in (d1, d2):
        main(["synth", "--out", str(d), "--n-train", "20", "--n-dev", "8", "--n-test", "8"])
    cfg = write_config(tmp_path)
    out = tmp_path / "abl"
    code = main(["ablate", "--config", cfg, "--datasets", f"{d1},{d2}", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert str(d1) in err and str(d2) in err and "'data'" in err
    assert not out.exists()


def test_ablate_empty_datasets_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = main(["ablate", "--config", cfg, "--datasets", " , ", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "empty dataset list" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# apply-lfs + stats


LF_CONFIG = SYNTH_CONFIG + """
[lfs]
rule_a = keyword class_0 topic0word0, topic0word1
rule_b = keyword class_1 topic1word0
rule_c = regex class_1 topic1word[23]
"""


def test_eval_lf_class_mismatch_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, LF_CONFIG)
    run_dir = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(run_dir)]) == 0
    # same m and c, but the first two LFs (classes 0 and 1) swap columns
    swapped = LF_CONFIG.replace(
        "rule_a = keyword class_0 topic0word0, topic0word1\nrule_b = keyword class_1 topic1word0",
        "rule_b = keyword class_1 topic1word0\nrule_a = keyword class_0 topic0word0, topic0word1",
    )
    assert swapped != LF_CONFIG
    other = write_config(tmp_path, swapped, name="swapped.cfg")
    code = main(["eval", "--checkpoint", str(run_dir / "checkpoint.sepll"), "--config", other])
    assert code == 2
    assert "LF class mismatch: checkpoint maps LF 0 to class 0, data yields class 1" in (
        capsys.readouterr().err
    )


def test_commands_label_only_the_splits_they_read(tmp_path, monkeypatch):
    """Each command labels only the splits it reads, and tokenizes each of them
    once per case setting: the vocabulary, the features and keyword LFs share it."""
    import sepll.cli
    import sepll.data

    cfg = write_config(tmp_path, LF_CONFIG)
    run_dir = tmp_path / "run"
    labeled = []
    apply = sepll.cli.apply_lfs
    monkeypatch.setattr(
        sepll.cli,
        "apply_lfs",
        lambda lfs, samples, tokens: labeled.append(len(samples)) or apply(lfs, samples, tokens),
    )
    run_cfg = parse_config(cfg)
    splits = synth_dataset(run_cfg.data.synth, run_cfg.train.seed)
    split_of = {tuple(s.text for s in splits.split(name)): name for name in ("train", "dev", "test")}
    tokenized = []
    tokenize_split = sepll.data.tokenize_split
    monkeypatch.setattr(
        sepll.data,
        "tokenize_split",
        lambda texts, lowercase: tokenized.append((split_of[tuple(texts)], lowercase))
        or tokenize_split(texts, lowercase),
    )
    assert main(["train", "--config", cfg, "--out", str(run_dir)]) == 0
    assert labeled == [120]
    assert tokenized == [("train", True), ("dev", True)]
    ckpt = ["--checkpoint", str(run_dir / "checkpoint.sepll"), "--config", cfg]
    for argv, sizes, splits_read in [
        (["eval", *ckpt], [], ["test"]),
        (["analyze", *ckpt, "--which", "memorization", "--split", "dev"], [30], ["dev"]),
        (["analyze", *ckpt, "--which", "matches", "--split", "train"], [120], ["train"]),
        (["analyze", *ckpt, "--which", "gap"], [120, 30], ["train", "test"]),
    ]:
        labeled.clear()
        tokenized.clear()
        assert main(argv) == 0
        assert labeled == sizes, argv
        assert tokenized == [(name, True) for name in splits_read], argv
    # an encoder that keeps case tokenizes apart from the LF engine, which lowercases
    cased = write_config(tmp_path, LF_CONFIG.replace("dim = 8\n", "dim = 8\nlowercase = false\n"), "cased.cfg")
    labeled.clear()
    tokenized.clear()
    assert main(["train", "--config", cased, "--out", str(tmp_path / "cased")]) == 0
    assert labeled == [120]
    assert tokenized == [("train", True), ("train", False), ("dev", False)]


def test_apply_lfs_writes_match_matrices(tmp_path):
    cfg = write_config(tmp_path, LF_CONFIG)
    out = tmp_path / "lfs"
    assert main(["apply-lfs", "--config", cfg, "--out", str(out)]) == 0
    header = (out / "L_train.triplets").read_text().splitlines()[0]
    assert header == "120 3"
    assert (out / "T.classof").read_text().splitlines()[0] == "3 2"
    assert verify_manifest(out / "manifest.json") == []


# What a text mutation may put into a triplet or mapping file: digits, signs,
# separators, integers at and past the int64 range, a header-sized column
# count, and bytes that are not UTF-8 or not ASCII.
TEXT_TOKENS = [
    b"0", b"1", b"7", b"-", b"+", b"_", b" ", b"\n", b"\r", b"\t", b"x", b"\x00", b"\xff", b"\xc2\x85", b"1e3",
    b"9223372036854775807", b"9223372036854775808", b"-9223372036854775809", b"99999999999999999999999",
    b"1000000000",
]
TEXT_MUTATIONS = st.lists(
    st.tuples(st.sampled_from(["replace", "insert", "delete"]), FRACTION, st.sampled_from(TEXT_TOKENS)),
    min_size=1,
    max_size=3,
)


def mutate_text(raw: bytes, mutations) -> bytes:
    out = bytearray(raw)
    for kind, frac, token in mutations:
        pos = int(frac * len(out))
        if kind == "insert":
            out[pos:pos] = token
        else:
            out[pos : pos + len(token)] = token if kind == "replace" else b""
    return bytes(out)


def test_mutated_triplets_and_mapping_load_or_are_data_error(tmp_path):
    from sepll.data import read_mapping, read_triplets

    cfg = write_config(tmp_path, LF_CONFIG)
    out = tmp_path / "lfs"
    assert main(["apply-lfs", "--config", cfg, "--out", str(out)]) == 0
    files = {name: (out / name).read_bytes() for name in ("L_train.triplets", "T.classof")}
    path = tmp_path / "mutated"

    @settings(max_examples=400)
    @given(st.sampled_from(sorted(files)), TEXT_MUTATIONS)
    def check(name, mutations):
        path.write_bytes(mutate_text(files[name], mutations))
        try:
            loaded = read_triplets(path) if name.endswith(".triplets") else read_mapping(path)
        except DataError as exc:
            assert str(path) in str(exc)
            return
        # valid data: what apply-lfs could have written
        if name.endswith(".triplets"):
            pairs = loaded.pairs
            assert loaded.n >= 0 and loaded.m >= 0 and pairs.dtype == np.int64
            assert np.all((pairs >= 0) & (pairs < [loaded.n, loaded.m]))
            rows, cols = np.diff(pairs[:, 0]), np.diff(pairs[:, 1])
            assert np.all((rows > 0) | ((rows == 0) & (cols > 0)))  # sorted, no repeats
        else:
            assert loaded.c >= 1 and loaded.class_of.dtype == np.int64
            assert np.all((loaded.class_of >= 0) & (loaded.class_of < loaded.c))

    check()


# What a byte edit may put into label.json: JSON punctuation, keys and names,
# literals that are not strings, and bytes that are not UTF-8.
LABEL_TOKENS = [
    b"{", b"}", b"[", b"]", b'"', b":", b",", b" ", b"\\", b"0", b"1", b"2", b"-", b"+", b"x", b"null", b"true",
    b"1.5", b"NaN", b"\xff", b"\xef\xbb\xbf", b'"2": "c", ', b'"01": ', b"\\u0000",
]
# keys that are not the decimal form of a class index, beside ones that are
LABEL_KEYS = st.sampled_from(
    ["0", "1", "2", "3", "-1", "-0", "01", "+1", " 1", "1 ", "1.0", "1e0", "1_0", "0x1", "\u0663", "x", "", "9" * 30]
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)
LABEL_FILES = st.one_of(
    st.lists(
        st.tuples(st.sampled_from(["replace", "insert", "delete"]), FRACTION, st.sampled_from(LABEL_TOKENS)),
        min_size=1,
        max_size=3,
    ).map(lambda edits: ("bytes", edits)),
    JSON_VALUES.map(lambda value: ("json", value)),
    st.dictionaries(LABEL_KEYS, st.one_of(st.text(max_size=3), JSON_VALUES), max_size=4).map(lambda obj: ("json", obj)),
)


def label_file_is_valid(raw: bytes, n_used: int) -> bool:
    """Whether ``raw`` names the classes of a dataset whose labels use classes
    0..n_used-1: a UTF-8 JSON object whose keys are the decimal indices 0..c-1,
    c >= n_used, each naming its class with a string no other class uses."""
    try:
        obj = json.loads(raw.decode("utf-8"))
    except ValueError:  # UnicodeDecodeError and JSONDecodeError
        return False
    return (
        isinstance(obj, dict)
        and sorted(obj) == sorted(str(k) for k in range(len(obj)))
        and len(obj) >= n_used
        and all(type(name) is str for name in obj.values())
        and len(set(obj.values())) == len(obj)
    )


def test_mutated_label_file_converts_and_trains_or_exits_naming_it(tmp_path, capsys):
    data = tmp_path / "data"
    argv = ["synth", "--out", str(data), "--n-train", "40", "--n-dev", "10", "--n-test", "10", "--seed", "0"]
    assert main(argv) == 0
    label = data / "label.json"
    raw = label.read_bytes()
    assert label_file_is_valid(raw, 2)
    cfg = write_config(
        tmp_path,
        f"[data]\nformat = wrench-json\npath = {data}\n\n[encoder]\nmax_features = 50\nhidden = 4\ndim = 2\n\n"
        "[train]\nmax_epochs = 1\npatience = 1\n",
    )
    commands = (
        ["convert", str(data), "--out", str(tmp_path / "c")],
        ["train", "--config", cfg, "--out", str(tmp_path / "t")],
    )

    @settings(max_examples=150)
    @given(LABEL_FILES)
    def check(mutation):
        kind, arg = mutation
        label.write_bytes(mutate_text(raw, arg) if kind == "bytes" else json.dumps(arg).encode())
        valid = label_file_is_valid(label.read_bytes(), 2)
        for argv in commands:
            capsys.readouterr()
            code = main(argv)
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert code == (0 if valid else 2), (argv[0], err)
            if not valid:
                assert str(label) in err, (argv[0], err)

    check()


# What a config edit may put in: INI punctuation, comment and line breaks,
# a letter and bytes that are not UTF-8; any known key, and an unknown one,
# set in its section, or put on a new line anywhere after the first, to a value
# of any type; and sections known and unknown.
CONFIG_TOKENS = [b"=", b"[", b"]", b"\n", b" ", b";", b"#", b"-", b".", b",", b"x", b"%", b"\t", b"\xff"]
CONFIG_CLASSES = {"data": SynthSpec, "encoder": EncoderConfig, "model": ModelConfig, "train": TrainConfig}
KEY_SECTIONS = {  # key -> the section it is set in; "bogus" is unknown everywhere
    "format": "data",
    "path": "data",
    "bogus": "train",
    **{f.name: section for section, cls in CONFIG_CLASSES.items() for f in dataclasses.fields(cls)},
}
CONFIG_VALUES = [
    "", "x", "-1", "0", "1", "2", "0.5", "1e308", "1e999", "nan", "true", "2,3", "tanh", "relu", "synth", "jsonl",
    "macro_f1", "activations", "keyword class_0 topic0word0", "regex class_1 (",
]
# half of the values are small numbers, which most keys take
CONFIG_VALUE = st.one_of(st.sampled_from(CONFIG_VALUES), st.sampled_from(["1", "2", "3", "0.5"]))
CONFIG_SECTIONS = ["data", "lfs", "encoder", "model", "train", "bogus", "Train", " data"]
# up to three keys set, so that many edited configs still train, and in three cases of five one other edit
CONFIG_EDITS = st.builds(
    lambda sets, other: sets + other,
    st.lists(st.tuples(st.just("set"), st.sampled_from(sorted(KEY_SECTIONS)), CONFIG_VALUE), max_size=3),
    st.one_of(
        st.just([]),
        st.just([]),
        st.tuples(st.sampled_from(["replace", "insert", "delete"]), FRACTION, st.sampled_from(CONFIG_TOKENS)).map(lambda e: [e]),
        st.tuples(st.just("line"), FRACTION, st.sampled_from(sorted(KEY_SECTIONS)), CONFIG_VALUE).map(lambda e: [e]),
        st.tuples(st.just("section"), FRACTION, st.sampled_from(CONFIG_SECTIONS)).map(lambda e: [e]),
    ),
).filter(bool)


def edit_config(raw: bytes, edits) -> bytes:
    """``raw`` with each edit applied: a byte edit as :func:`mutate_text` makes
    one, a key set in its section, or a ``key = value`` or ``[section]`` line put
    before a line other than the first."""
    for edit in edits:
        if edit[0] not in ("set", "line", "section"):
            raw = mutate_text(raw, [edit])
            continue
        lines = raw.decode("utf-8", "surrogateescape").split("\n")
        if edit[0] == "set":
            _, key, value = edit
            lines = [line for line in lines if line.split("=")[0].strip() != key]
            header = f"[{KEY_SECTIONS[key]}]"
            at = lines.index(header) + 1 if header in lines else len(lines)
            new = f"{key} = {value}" if header in lines else f"{header}\n{key} = {value}"
        else:
            at = 1 + int(edit[1] * (len(lines) - 1))
            new = f"{edit[2]} = {edit[3]}" if edit[0] == "line" else f"[{edit[2]}]"
        raw = "\n".join([*lines[:at], new, *lines[at:]]).encode("utf-8", "surrogateescape")
    return raw


def test_edited_config_trains_or_exits_with_one_error_line(tmp_path, capsys):
    raw = (
        b"[data]\nformat = synth\nn_train = 20\nn_dev = 10\nn_test = 10\n\n"
        b"[encoder]\nmax_features = 50\nhidden = 4\ndim = 2\n\n[train]\nmax_epochs = 1\npatience = 1\n"
    )
    cfg = tmp_path / "run.cfg"
    argv = ["train", "--config", str(cfg), "--out", str(tmp_path / "t")]

    @settings(max_examples=150)
    @given(CONFIG_EDITS)
    @example([("section", 0.5, "data")])  # [data] again, before "hidden = 4"
    @example([("line", 0.0, "n_train", "1")])  # n_train twice in [data]
    def check(edits):
        cfg.write_bytes(edit_config(raw, edits))
        try:
            parse_config(cfg)
            parsed = None
        except ConfigError as exc:
            parsed = exc
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code != 0:  # one line
            assert err.endswith("\n") and err.count("\n") == 1, err
        if parsed is not None:  # every parse error names the file, once, first
            assert code == 1
            assert err == f"error: {parsed}\n"
            assert err.startswith(f"error: {cfg}:") and err.count(str(cfg)) == 1, err
        elif code != 0:
            assert code in (1, 2, 3), err
            assert err.startswith("error: ") and err.count("\nerror: ") == 0, err

    check()


@pytest.mark.parametrize("key", ["learning_rate", "weight_decay", "l2_lf"])
def test_numeric_failure_prints_its_error_line_alone(tmp_path, key):
    # in a child process: pytest would catch the warnings numpy prints in this one
    cfg = write_config(tmp_path, SYNTH_CONFIG.replace("seed = 0", f"seed = 0\n{key} = 1e308"))
    proc = subprocess.run(
        [sys.executable, "-m", "sepll.cli", "train", "--config", cfg, "--out", str(tmp_path / "t")],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: non-finite ") and proc.stderr.count("\n") == 1, proc.stderr


def test_apply_lfs_without_section_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["apply-lfs", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
    assert "no [lfs] section" in capsys.readouterr().err


def test_stats_stdout(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["stats", "--config", cfg]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert set(blob) == {"train", "dev", "test"}
    assert 0.0 <= blob["train"]["coverage"] <= 1.0
    assert blob["train"]["per_lf"]


def test_stats_out_dir(tmp_path):
    cfg = write_config(tmp_path, LF_CONFIG)
    out = tmp_path / "stats"
    assert main(["stats", "--config", cfg, "--out", str(out)]) == 0
    blob = json.loads((out / "stats.json").read_text())
    assert len(blob["train"]["per_lf"]) == 3


def test_every_out_command_manifest_lists_exactly_its_files(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--seed", "0", "--n-train", "60",
                 "--n-dev", "20", "--n-test", "20"]) == 0  # fmt: skip
    text = f"[data]\npath = {data}\n\n" + LF_CONFIG[LF_CONFIG.index("[encoder]"):]
    cfg = write_config(tmp_path, text)
    quick = write_config(tmp_path, text.replace("max_epochs = 3", "max_epochs = 1"), name="quick.cfg")
    ckpt = ["--checkpoint", str(tmp_path / "train" / "checkpoint.sepll"), "--config", cfg]
    commands = {
        "synth": None,
        "convert": ["convert", str(data)],
        "apply-lfs": ["apply-lfs", "--config", cfg],
        "stats": ["stats", "--config", cfg],
        "train": ["train", "--config", cfg],
        "eval": ["eval", *ckpt],
        **{
            f"analyze-{which}": ["analyze", *ckpt, "--which", which, "--plot"]
            for which in ("memorization", "matches", "gap")
        },
        "ablate": ["ablate", "--config", quick],
    }
    for name, argv in commands.items():
        out = data if argv is None else tmp_path / name
        if argv is not None:
            assert main([*argv, "--out", str(out)]) == 0, name
        manifest = out / "manifest.json"
        assert verify_manifest(manifest) == [], name
        listed = [Path(entry["path"]).resolve() for entry in read_json(manifest)["artifacts"].values()]
        written = [f.resolve() for f in out.iterdir() if f.name != "manifest.json"]
        assert sorted(listed) == sorted(written), name


# ---------------------------------------------------------------------------
# plumbing


def test_usage_error_exits_1(capsys):
    assert main(["train", "--no-such-flag"]) == 1
    assert "error" in capsys.readouterr().err.lower()


def test_unknown_command_exits_1(capsys):
    assert main(["frobnicate"]) == 1


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for cmd in ("convert", "apply-lfs", "stats", "synth", "train", "eval", "analyze", "ablate"):
        assert cmd in out


def test_console_script_entry_point():
    # Resolve the console script declared in pyproject.toml and run it in a
    # fresh interpreter the way pip's generated `sepll` wrapper does, so the
    # check needs no installed script on PATH.
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert "sepll" in scripts
    ep = EntryPoint(name="sepll", value=scripts["sepll"], group="console_scripts")
    assert callable(ep.load())
    runner = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"ep = EntryPoint(name={ep.name!r}, value={ep.value!r}, group={ep.group!r})\n"
        "sys.argv[0] = ep.name\n"
        "sys.exit(ep.load()())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", runner, "--help"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0
    assert "Weak-supervision" in proc.stdout


def test_convert_and_train_leave_numpy_ma_unloaded(tmp_path):
    # numpy's unique() without return_counts imports numpy.ma, about 1 MB and 10 ms per command
    from sepll.data import SynthSpec, save_dataset, synth_dataset

    splits = synth_dataset(SynthSpec(n_train=40, n_dev=10, n_test=10), seed=0)
    for fmt in ("jsonl", "wrench-json"):
        (tmp_path / fmt).mkdir()
        save_dataset(splits, tmp_path / fmt, fmt=fmt)
    (tmp_path / "jsonl" / "label.json").unlink()  # so that loading infers the classes
    cfg = write_config(tmp_path, SYNTH_CONFIG.replace("max_epochs = 3", "max_epochs = 1"))
    # every command on rule LFs, which run the tokenization, df and keyword code
    lf_cfg = write_config(tmp_path, LF_CONFIG.replace("max_epochs = 3", "max_epochs = 1"), "lf.cfg")
    ckpt = ["--checkpoint", str(tmp_path / "lt" / "checkpoint.sepll"), "--config", lf_cfg]
    for argv in (
        ["convert", str(tmp_path / "jsonl"), "--format", "jsonl", "--out", str(tmp_path / "c1")],
        ["convert", str(tmp_path / "wrench-json"), "--out", str(tmp_path / "c2")],
        ["train", "--config", cfg, "--out", str(tmp_path / "t")],
        ["apply-lfs", "--config", lf_cfg, "--out", str(tmp_path / "l")],
        ["stats", "--config", lf_cfg],
        ["train", "--config", lf_cfg, "--out", str(tmp_path / "lt")],
        ["eval", *ckpt],
        *(["analyze", *ckpt, "--which", which] for which in ("memorization", "gap", "matches")),
    ):
        code = f"import sys; from sepll.cli import main; code = main({argv!r}); print(code, 'numpy.ma' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), check=True)
        assert proc.stdout.splitlines()[-1] == "0 False", (argv[0], proc.stdout, proc.stderr)


def test_cli_import_loads_no_scipy():
    # Every command starts a fresh interpreter, so import time is paid per command.
    code = "import sys, sepll.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), check=True
    )
    assert proc.stdout.strip() == "[]"
