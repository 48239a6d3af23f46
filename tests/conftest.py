from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

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
