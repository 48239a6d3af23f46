"""The compiled AdamW kernel: where it is cached, that it is built where a
compiler exists, that every failure falls back to the numpy step with the same
artifacts, and that commands which never train never build it."""

from __future__ import annotations

import hashlib
import shutil
import subprocess
import sys

import pytest
from conftest import child_env

from sepll import native
from sepll.cli import main

CONFIG = """\
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


@pytest.fixture
def fresh(monkeypatch, tmp_path):
    """An undecided kernel and an empty cache directory; returns the directory
    the library would be built in."""
    monkeypatch.setattr(native, "_adamw", native._UNSET)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path / "cache" / "sepll"


def train_bytes(tmp_path, name: str, config: str = CONFIG) -> dict[str, str]:
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config, encoding="utf-8")
    out = tmp_path / name
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in ("checkpoint.sepll", "history.csv")}


def test_library_path_is_keyed_by_source_under_the_cache_home(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    path = native.library_path()
    assert path.parent == tmp_path / "xdg" / "sepll"
    monkeypatch.delenv("XDG_CACHE_HOME")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    assert native.library_path() == tmp_path / "home" / ".cache" / "sepll" / path.name
    monkeypatch.setattr(native, "SOURCE", native.SOURCE + "\n")
    assert native.library_path().name != path.name


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_kernel_is_built_and_loaded_where_a_compiler_exists(fresh):
    # a silent fallback here would hide the lost speed
    assert native.adamw() is not None
    assert [p.name for p in fresh.iterdir()] == [native.library_path().name]
    assert native.adamw() is native.adamw()  # decided once per process


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_kernel_source_compiles_without_warnings():
    # -Wextra names a parameter the kernel no longer reads, among others
    proc = subprocess.run(
        ["cc", "-Wall", "-Wextra", "-Werror", "-fsyntax-only", "-x", "c", "-"],
        input=native.SOURCE, capture_output=True, text=True, timeout=native.COMPILE_TIMEOUT_S,
    )
    assert proc.returncode == 0, proc.stderr


def break_build(case: str, monkeypatch, tmp_path) -> None:
    if case == "no compiler":
        monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
    elif case == "compile error":
        monkeypatch.setattr(native, "SOURCE", "#error broken\n")
    elif case == "cache is a file":
        (tmp_path / "cache-file").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache-file"))
    elif case == "not a library":
        native.library_path().parent.mkdir(parents=True)
        native.library_path().write_text("not a shared object")


@pytest.mark.parametrize("case", ["no compiler", "compile error", "cache is a file", "not a library"])
def test_a_failed_build_falls_back_to_identical_numpy_training(fresh, monkeypatch, tmp_path, case):
    # weight decay 0 too: the kernel still adds theta * 0.0, which numpy skips
    configs = {"decay": CONFIG, "no decay": CONFIG + "weight_decay = 0.0\n"}
    reference = {k: train_bytes(tmp_path, f"reference {k}", c) for k, c in configs.items()}
    assert (native._adamw is None) == (shutil.which("cc") is None)
    monkeypatch.setattr(native, "_adamw", native._UNSET)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "broken"))
    break_build(case, monkeypatch, tmp_path)
    assert {k: train_bytes(tmp_path, f"fallback {k}", c) for k, c in configs.items()} == reference
    assert native._adamw is None
    assert not list(native.library_path().parent.glob(".adamw-*"))  # no temp file left


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_two_commands_building_at_once_both_load_the_kernel(fresh):
    code = "from sepll import native; print(native.adamw() is not None)"
    procs = [
        subprocess.Popen([sys.executable, "-c", code], env=child_env(), stdout=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    outs = [proc.communicate(timeout=120)[0] for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    assert [out.strip() for out in outs] == ["True", "True"]
    assert [p.name for p in fresh.iterdir()] == [native.library_path().name]


def test_importing_the_cli_builds_nothing(fresh):
    # nor imports subprocess, which only a build needs
    code = "import sys, sepll.cli, sepll.native as n; print(n._adamw is n._UNSET, 'subprocess' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, timeout=120, check=True
    )
    assert proc.stdout.strip() == "True False"
    assert not fresh.parent.exists()


def test_commands_that_do_not_train_build_nothing(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG, encoding="utf-8")
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
    monkeypatch.setattr(native, "_adamw", native._UNSET)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    checkpoint = ["--checkpoint", str(run / "checkpoint.sepll"), "--config", str(cfg)]
    assert main(["eval", *checkpoint, "--split", "test", "--out", str(tmp_path / "eval")]) == 0
    assert main(["analyze", *checkpoint, "--which", "memorization", "--out", str(tmp_path / "an")]) == 0
    assert main(["stats", "--config", str(cfg), "--out", str(tmp_path / "stats")]) == 0
    assert native._adamw is native._UNSET
    assert not (tmp_path / "cache").exists()
