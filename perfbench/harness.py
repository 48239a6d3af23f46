"""Shared pieces of the benchmark: the pinned environment, running one CLI
command, and the correctness checks."""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import input_files

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# BLAS/OpenMP threads for the commands and for the in-process traced run.
BLAS_THREADS = "1"
COMMAND_TIMEOUT_S = 150


def pin_environment() -> dict[str, str]:
    """Fix thread counts for this process and return the environment for commands."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ.pop("SEPLL_THREADS", None)  # switches apply_lfs to a thread pool
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def train_digests(train_dir: Path) -> dict[str, str]:
    return {f: sha256(train_dir / f) for f in ("checkpoint.sepll", "history.csv")}


def _src_digest() -> str:
    h = hashlib.sha256()
    for f in sorted((SRC / "sepll").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _blas_threads_in_use() -> int | None:
    """Ask the OpenBLAS library loaded into this process for its thread count."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment_record(workload: str, seed: int, size: str) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "size": size,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": BLAS_THREADS,
        "blas_threads_in_use": _blas_threads_in_use(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
    }


class Ledger:
    """Operations attempted and failed, plus every failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def command(self, argv: list[str], code: int, log: str) -> None:
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.problems.append(f"exit {code}: sepll {' '.join(argv)}: {log[-400:]}".rstrip())

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


def run_command(argv: list[str], cwd: Path, env: dict[str, str]) -> tuple[int, float, float, str]:
    """Run one CLI command to completion; returns (exit code, wall s, peak RSS MB, output)."""
    log = cwd / ".command.log"
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "sepll.cli", *argv], cwd=cwd, env=env, stdout=fh, stderr=fh)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, log.read_text(errors="replace")


def import_seconds(env: dict[str, str]) -> float:
    """Time of a bare ``import sepll.cli`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import sepll.cli; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def check_manifests(root: Path, out_dirs: list[str], ledger: Ledger) -> None:
    """``manifest.verify_manifest`` must report no problem for any output directory."""
    from sepll.manifest import verify_manifest

    with contextlib.chdir(root):  # manifests record paths relative to the command's cwd
        for d in out_dirs:
            problems = verify_manifest(Path(d) / "manifest.json")
            ledger.check(not problems, f"manifest {d}: {problems}")


def check_setups(roots: list[Path], ledger: Ledger) -> None:
    """Every set-up from one seed must write byte-identical inputs."""

    def snapshot(root: Path) -> dict[str, str]:
        return {str(p.relative_to(root)): sha256(p) for p in input_files(root) if p.name != ".command.log"}

    first = snapshot(roots[0])
    for other in roots[1:]:
        ledger.check(snapshot(other) == first, f"set-up {other.name} differs from {roots[0].name}")


def check_accuracy(root: Path, out: str, seed: int, ledger: Ledger) -> tuple[float, float]:
    """Test accuracy from the eval report must reach the majority-vote accuracy,
    computed with ``lf_engine.majority_vote`` on the test matches the label
    command wrote. Returns both accuracies."""
    import numpy as np

    from sepll import lf_engine
    from sepll.config import parse_config
    from sepll.data import load_dataset, read_mapping, read_triplets

    with contextlib.chdir(root):
        accuracy = json.loads(Path(out, "eval", "report.json").read_text())["value"]
        data = parse_config("run.cfg").data
        gold = np.array([s.gold_label for s in load_dataset(data.path, data.format).test], dtype=np.int64)
        match = read_triplets(Path(out, "label", "L_test.triplets"))
        mapping = read_mapping(Path(out, "label", "T.classof"))
    mv = float((lf_engine.majority_vote(match, mapping, seed) == gold).mean())
    ledger.check(accuracy >= mv, f"test accuracy {accuracy} below majority vote {mv}")
    return accuracy, mv
