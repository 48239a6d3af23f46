from __future__ import annotations

import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import sepll
from sepll import native
from sepll.data import MatchMatrix
from sepll.model import Gradient
from sepll.nnet import CSRMatrix

settings.register_profile(
    "sepll",
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("sepll")

# verdict lines recorded by test_acceptance; replayed after the run so they
# stay visible even when capture eats per-test stdout
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)


def match_from_dense(dense) -> MatchMatrix:
    """The MatchMatrix with a match wherever the 2-d ``dense`` is nonzero."""
    dense = np.asarray(dense)
    return MatchMatrix(n=dense.shape[0], m=dense.shape[1], pairs=np.argwhere(dense != 0))


def match_to_dense(match: MatchMatrix) -> np.ndarray:
    """The (n, m) float64 0/1 array of ``match``."""
    out = np.zeros((match.n, match.m))
    out[match.pairs[:, 0], match.pairs[:, 1]] = 1.0
    return out


def densify(params, grad: Gradient) -> np.ndarray:
    """``grad`` as one vector with theta's layout, so that ``param_items(params,
    densify(params, grad))`` names its parts: +0.0 on the first layer's rows
    outside ``grad.rows``."""
    flat = np.zeros(params.theta.size)
    flat[: params.first_size].reshape(params.dims[0][:2])[grad.rows] = grad.first
    flat[params.first_size :] = grad.rest
    return flat


def as_gradient(params, flat: np.ndarray, rows=None) -> Gradient:
    """The :class:`Gradient` of ``flat``, a vector with theta's layout, that holds
    the first layer's ascending ``rows`` (every row when None); the rows it leaves
    out must be +0.0 in ``flat``, so that ``densify`` gives ``flat`` back."""
    W = flat[: params.first_size].reshape(params.dims[0][:2])
    rows = np.arange(W.shape[0]) if rows is None else np.asarray(rows, dtype=np.int64)
    assert not np.delete(W, rows, axis=0).view(np.int64).any(), "a left-out row is not +0.0"
    return Gradient(rows, W[rows], flat[params.first_size :])


def traced_peak(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), peak)``: ``peak`` is the most memory, in bytes, that
    tracemalloc saw allocated at once while ``fn`` ran, over what was allocated
    when it started. numpy reports its array buffers to tracemalloc, so they count."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def child_env() -> dict[str, str]:
    """Environment for a child interpreter that imports the same sepll as this
    process, from any cwd."""
    pkg_root = str(Path(sepll.__file__).resolve().parents[1])
    inherited = [
        os.path.abspath(entry)
        for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep)
        if entry
    ]
    return {**os.environ, "PYTHONPATH": os.pathsep.join([pkg_root, *inherited])}


@pytest.fixture(autouse=True, scope="session")
def kernel_cache(tmp_path_factory):
    """Point the compiled-kernel cache at a temporary directory, for this process
    and the commands it starts, so that the suite writes nothing under ~/.cache."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield


@pytest.fixture(autouse=True)
def undecided_kernels(monkeypatch):
    """Start every test with the native kernels undecided, and put that back
    after it, so that no test runs on kernels another test loaded."""
    monkeypatch.setattr(native, "_kernels", native._UNSET)


@pytest.fixture
def native_paths(monkeypatch):
    """Iterate over the paths of the AdamW step and the sparse products by name,
    each switched on while the loop body runs: the compiled kernels, where they
    could be built, then numpy for both."""

    def paths():
        if native.load() is not None:
            yield "kernel"
        monkeypatch.setattr(native, "_kernels", None)
        yield "numpy"

    return paths


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def to_csr():
    """Converter from a dense 2-d array to a CSRMatrix with the same nonzeros."""

    def convert(dense: np.ndarray) -> CSRMatrix:
        rows, cols = np.nonzero(dense)
        indptr = np.searchsorted(rows, np.arange(dense.shape[0] + 1))
        return CSRMatrix(dense[rows, cols], cols, indptr, dense.shape)

    return convert
