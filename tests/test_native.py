"""The compiled kernels: where they are cached, that they are built where a
compiler exists, that every clone target gives numpy's bits, that every failure
falls back to the numpy paths with the same artifacts, and that commands which
never multiply never build them."""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import as_gradient, child_env

from sepll import native
from sepll.cli import main
from sepll.data import MappingMatrix
from sepll.encoder import EncoderConfig
from sepll.model import init_params
from sepll.nnet import CSRMatrix
from sepll.trainer import TrainConfig, adamw_step, init_optimizer

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")

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
    """An empty cache directory; returns the directory the library would be
    built in."""
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


@needs_cc
def test_kernel_is_built_and_loaded_where_a_compiler_exists(fresh):
    # a silent fallback here would hide the lost speed
    assert native._kernels is native._UNSET
    assert native.load() is not None
    assert [p.name for p in fresh.iterdir()] == [native.library_path().name]
    assert native.load() is native.load() is native._kernels  # decided once per process


@needs_cc
def test_kernel_source_compiles_without_warnings():
    # -Wextra names a parameter the kernel no longer reads, among others; a
    # real compile under the build's flags lets -Wstack-usage bound the AdamW
    # kernel's stack scratch (one chunk of doubles) in every clone
    proc = subprocess.run(
        ["cc", *native.FLAGS, "-Wall", "-Wextra", "-Werror", "-Wstack-usage=65536", "-x", "c", "-",
         "-c", "-o", "/dev/null"],
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
    elif case == "library without the kernels":
        # loads, but sepll_adamw and sepll_row_sums are undefined symbols
        native.library_path().parent.mkdir(parents=True)
        subprocess.run(
            ["cc", *native.FLAGS, "-x", "c", "-", "-o", str(native.library_path())],
            input="int sepll_other(void) { return 0; }\n", text=True, check=True, timeout=native.COMPILE_TIMEOUT_S,
        )


@pytest.mark.parametrize(
    "case", ["no compiler", "compile error", "cache is a file", "not a library", "library without the kernels"]
)
def test_a_failed_build_falls_back_to_identical_numpy_training(fresh, monkeypatch, tmp_path, case):
    if case == "library without the kernels" and shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    configs = {"decay": CONFIG, "no decay": CONFIG + "weight_decay = 0.0\n"}
    reference = {k: train_bytes(tmp_path, f"reference {k}", c) for k, c in configs.items()}
    assert (native._kernels is None) == (shutil.which("cc") is None)
    monkeypatch.setattr(native, "_kernels", native._UNSET)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "broken"))
    break_build(case, monkeypatch, tmp_path)
    assert {k: train_bytes(tmp_path, f"fallback {k}", c) for k, c in configs.items()} == reference
    assert native._kernels is None  # both kernels off
    assert not list(native.library_path().parent.glob(".kernels-*"))  # no temp file left


@needs_cc
def test_two_commands_building_at_once_both_load_the_kernel(fresh):
    code = "from sepll import native; print(native.load() is not None)"
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
    code = "import sys, sepll.cli, sepll.native as n; print(n._kernels is n._UNSET, 'subprocess' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, timeout=120, check=True
    )
    assert proc.stdout.strip() == "True False"
    assert not fresh.parent.exists()


def test_commands_that_never_multiply_build_nothing(fresh, tmp_path):
    cfg = tmp_path / "run.cfg"
    lfs = "\n[lfs]\nrule_a = keyword class_0 topic0word0\nrule_b = keyword class_1 topic1word0\n"
    cfg.write_text(CONFIG + lfs, encoding="utf-8")
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--n-train", "20", "--n-dev", "5", "--n-test", "5"]) == 0
    assert main(["convert", str(data), "--out", str(tmp_path / "converted")]) == 0
    assert main(["apply-lfs", "--config", str(cfg), "--out", str(tmp_path / "label")]) == 0
    assert main(["stats", "--config", str(cfg), "--out", str(tmp_path / "stats")]) == 0
    assert native._kernels is native._UNSET
    assert not fresh.parent.exists()


def test_eval_and_analyze_write_the_same_bytes_on_either_path(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG, encoding="utf-8")
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
    checkpoint = ["--checkpoint", str(run / "checkpoint.sepll"), "--config", str(cfg)]
    out = tmp_path / "out"
    commands = {
        "eval": ["eval", *checkpoint, "--split", "test"],
        "memorization": ["analyze", *checkpoint, "--which", "memorization", "--plot"],
        "gap": ["analyze", *checkpoint, "--which", "gap"],
        "matches": ["analyze", *checkpoint, "--which", "matches", "--plot"],
    }

    def outputs() -> dict[str, bytes]:
        """Each command's files, all written to the one --out path, so that the
        manifests name the same paths."""
        files = {}
        for name, argv in commands.items():
            assert main([*argv, "--out", str(out)]) == 0
            files.update((f"{name}/{p.name}", p.read_bytes()) for p in out.iterdir())
            shutil.rmtree(out)
        return files

    monkeypatch.setattr(native, "_kernels", native._UNSET)
    kernel = outputs()
    assert (native._kernels is None) == (shutil.which("cc") is None)
    monkeypatch.setattr(native, "_kernels", native._UNSET)
    (tmp_path / "cache-file").write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache-file"))
    assert outputs() == kernel
    assert native._kernels is None
    assert len(kernel) == 12


def cpu_runs(target: str) -> bool:
    """Whether this CPU runs the clone ``target`` of ``native.DISPATCH``."""
    if target == "default":
        return True
    try:
        return target in Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return False


def build_for(target: str, tmp_path) -> native.Kernels:
    """``native.SOURCE`` compiled for ``target`` alone, without the dispatch."""
    assert native.SOURCE.count(native.DISPATCH) == 1
    path = tmp_path / f"{target}.so"
    subprocess.run(
        ["cc", *native.FLAGS, *([] if target == "default" else [f"-m{target}"]), "-x", "c", "-", "-o", str(path)],
        input=native.SOURCE.replace(native.DISPATCH, ""), text=True, check=True, timeout=native.COMPILE_TIMEOUT_S,
    )
    return native.bind(ctypes.CDLL(str(path)))


def awkward(rng, shape) -> np.ndarray:
    """Normal values of every magnitude with +0.0, -0.0 and subnormals of both
    signs mixed in."""
    out = rng.normal(size=shape) * 10.0 ** rng.integers(-30, 30, size=shape)
    pick = rng.random(shape)
    out[pick < 0.1] = 0.0
    out[(0.1 <= pick) & (pick < 0.2)] = -0.0
    subnormal = (0.2 <= pick) & (pick < 0.3)
    out[subnormal] = np.nextafter(0.0, 1.0) * rng.integers(-1000, 1000, size=int(subnormal.sum()))
    return out


def on_each_path(kernels, monkeypatch, run) -> list:
    """``run()``'s arrays as int64 bit patterns on ``kernels``, then on numpy."""
    bits = []
    for path in (kernels, None):
        monkeypatch.setattr(native, "_kernels", path)
        bits.append([np.ascontiguousarray(a).view(np.int64) for a in run()])
    return bits


@needs_cc
@pytest.mark.parametrize("target", ["avx512f", "avx2", "default"])
def test_each_clone_target_is_bitwise_numpy(target, tmp_path, monkeypatch):
    # The loader picks the widest target this CPU runs, so every target must
    # give numpy's bits: vector width must not let a fused multiply-add or a
    # reordered sum in.
    if not cpu_runs(target):
        pytest.skip(f"this CPU does not run {target}")
    kernels = build_for(target, tmp_path)
    rng = np.random.default_rng(21)

    def adamw_run(weight_decay):
        mapping = MappingMatrix(c=2, class_of=np.array([0, 1, 1]))
        params = init_params(700, mapping, EncoderConfig(hidden=(), dim=16), rng=np.random.default_rng(2))
        state = init_optimizer(params)
        steps = np.random.default_rng(3)
        for lr, every in ((0.05, 1), (0.01, 3), (0.002, 2)):  # every row, then some of them
            flat = awkward(steps, params.theta.shape)
            first = flat[: params.first_size].reshape(params.dims[0][:2])
            first[np.arange(first.shape[0]) % every != 0] = 0.0
            grad = as_gradient(params, flat, np.arange(0, first.shape[0], every))
            adamw_step(params, grad, state, TrainConfig(weight_decay=weight_decay), lr)
        return params.theta, state.m, state.v

    for weight_decay in (0.0, 0.01):
        kernel, numpy = on_each_path(kernels, monkeypatch, lambda: adamw_run(weight_decay))
        assert all(np.array_equal(a, b) for a, b in zip(kernel, numpy)), ("adamw", weight_decay)

    for n, f, width in [(40, 30, 64), (25, 300, 5), (7, 3, 1), (12, 9, 0), (0, 12, 8), (3, 0, 4)]:
        dense = awkward(rng, (n, f)) * (rng.random((n, f)) < 0.4)
        dense[: n // 3] = 0.0  # empty rows
        rows, cols = np.nonzero(dense)
        data = dense[rows, cols]
        data[::5] = -0.0  # stored -0.0 entries
        X = CSRMatrix(data, cols, np.searchsorted(rows, np.arange(n + 1)), (n, f))
        W, D = awkward(rng, (f, width)), awkward(rng, (n, width))
        kernel, numpy = on_each_path(kernels, monkeypatch, lambda: (X @ W, *X.transpose_product(D)[1:]))
        assert all(np.array_equal(a, b) for a, b in zip(kernel, numpy)), ("row sums", n, f, width)


def thread_count() -> int:
    return len(os.listdir("/proc/self/task"))


needs_proc_tasks = pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="no /proc/self/task")


@needs_cc
@needs_proc_tasks
def test_no_thread_outlives_a_split_step(monkeypatch):
    # more parts than this machine likely has CPUs, each long enough that a
    # thread left running at return would still be there to count
    monkeypatch.setattr(native, "MIN_PART", 1)
    monkeypatch.setattr(native, "usable_cpus", lambda: 7)
    assert native.load() is not None
    theta, m, v = np.ones(700_000), np.zeros(700_000), np.zeros(700_000)
    before = thread_count()
    bad = native.adamw(theta, m, v, np.arange(0, 1000, 7), np.ones((143, 700)), np.ones(0), 1, 0.01, 0.001)
    assert (bad, thread_count()) == (-1, before)
    assert np.all(theta < 1.0)  # every row of every part stepped


@needs_proc_tasks
def test_importing_the_cli_and_stats_start_no_thread(tmp_path):
    # numpy's BLAS may start its own threads when numpy is imported, so the
    # count starts after that import
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG + "\n[lfs]\nrule_a = keyword class_0 topic0word0\n", encoding="utf-8")
    code = (
        "import os, numpy\n"
        "count = lambda: len(os.listdir('/proc/self/task'))\n"
        "before = count()\n"
        "import sepll.cli\n"
        "imported = count()\n"
        f"code = sepll.cli.main(['stats', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'stats')!r}])\n"
        "print(code, imported - before, count() - before)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, timeout=120, check=True
    )
    assert proc.stdout.splitlines()[-1] == "0 0 0"


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no os.sched_getaffinity")
def test_the_affinity_of_the_process_does_not_change_the_bytes(tmp_path):
    # Each child lowers the kernel's minimum part size, so that the unpinned
    # one splits this small model's first layer over its CPUs; the pinned one
    # runs one part.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG, encoding="utf-8")
    cpu = min(os.sched_getaffinity(0))
    artifacts = {}
    for name, pin in (("pinned", f"os.sched_setaffinity(0, {{{cpu}}})"), ("unpinned", "")):
        out = tmp_path / name
        code = (
            f"import os\n{pin}\n"
            "from sepll import cli, native\n"
            "native.MIN_PART = 1\n"
            f"code = cli.main(['train', '--config', {str(cfg)!r}, '--out', {str(out)!r}])\n"
            "print(code, native.usable_cpus())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, timeout=120, check=True
        )
        code, cpus = proc.stdout.splitlines()[-1].split()
        assert code == "0" and (cpus == "1") == (name == "pinned" or len(os.sched_getaffinity(0)) == 1)
        artifacts[name] = {f: (out / f).read_bytes() for f in ("checkpoint.sepll", "history.csv")}
    assert artifacts["pinned"] == artifacts["unpinned"]
