"""CSRMatrix checked bit for bit against scipy.sparse.csr_array, on the compiled
kernel where it could be built and on numpy."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

import sepll.native
from sepll.nnet import CSRMatrix


def bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def random_pair(rng, n: int, f: int, density: float = 0.3, empty_rows=()):
    """The same random matrix as a CSRMatrix and as a scipy csr_array."""
    dense = rng.normal(size=(n, f)) * (rng.random((n, f)) < density)
    dense[list(empty_rows)] = 0.0
    ref = sp.csr_array(dense)
    return CSRMatrix(ref.data, ref.indices, ref.indptr, ref.shape), ref


def signed_zeros(rng, shape) -> np.ndarray:
    """Random values with exact +0.0 and -0.0 mixed in, which expose summation order."""
    out = rng.normal(size=shape)
    pick = rng.random(shape)
    out[pick < 0.15] = 0.0
    out[pick > 0.85] = -0.0
    return out


# (rows, columns, rows forced empty); a zero-row split and a 1-column vocabulary included
SHAPES = [(40, 30, (0, 7, 8, 39)), (25, 1, (3,)), (0, 12, ()), (6, 9, (0, 1, 2, 3, 4, 5))]


def transpose_product_dense(X: CSRMatrix, D: np.ndarray) -> np.ndarray:
    """``X.T @ D`` from the row form: the returned rows scattered into zeros."""
    cols, sums = X.transpose_product(D)
    assert np.array_equal(cols, np.unique(X.indices))  # the used columns, ascending
    assert sums.shape == (cols.size, D.shape[1])
    out = np.zeros((X.shape[1], D.shape[1]))
    out[cols] = sums
    return out


@pytest.fixture(params=[None, 7], ids=["default-block", "7-element-block"])
def row_block(request, monkeypatch):
    """Run each product with the default row blocks and with blocks of a few rows."""
    if request.param is not None:
        monkeypatch.setattr(sepll.native, "ROW_BLOCK", request.param)


@pytest.mark.parametrize("n, f, empty", SHAPES)
def test_row_selection_matches_scipy(rng, n, f, empty):
    X, ref = random_pair(rng, n, f, empty_rows=empty)
    selections = [rng.integers(0, n, size=2 * n) if n else np.empty(0, dtype=np.int64), np.arange(n)[::-1]]
    if empty:
        selections.append(np.array(list(empty)))  # an all-empty batch
    for rows in selections:
        got, want = X[rows], ref[rows]
        assert got.shape == want.shape
        assert got.indptr.tolist() == want.indptr.tolist()
        assert got.indices.tolist() == want.indices.tolist()
        assert np.array_equal(bits(got.data), bits(want.data))


@pytest.mark.parametrize("width", [1, 5, 64])
@pytest.mark.parametrize("n, f, empty", SHAPES)
def test_products_match_scipy_bitwise(rng, row_block, native_paths, n, f, empty, width):
    X, ref = random_pair(rng, n, f, empty_rows=empty)
    W = signed_zeros(rng, (f, width))
    D = signed_zeros(rng, (n, width))
    for path in native_paths():
        assert np.array_equal(bits(X @ W), bits(ref @ W)), path
        assert np.array_equal(bits(transpose_product_dense(X, D)), bits(ref.T @ D)), path
        if empty:
            rows = np.array(list(empty))  # an all-empty batch: no used columns
            D_rows = signed_zeros(rng, (rows.size, width))
            assert np.array_equal(bits(X[rows] @ W), bits(ref[rows] @ W)), path
            assert X[rows].transpose_product(D_rows)[0].size == 0
            assert np.array_equal(bits(transpose_product_dense(X[rows], D_rows)), bits(ref[rows].T @ D_rows)), path


def test_products_match_scipy_on_long_and_skewed_rows(rng, row_block, native_paths):
    # rows of very different lengths, with near-cancelling terms: any change of
    # summation order shows up in the low bits
    n, f = 50, 400
    dense = np.zeros((n, f))
    for i in range(n):
        cols = rng.choice(f, size=int(rng.integers(0, 120 if i % 10 == 0 else 6)), replace=False)
        dense[i, cols] = rng.normal(size=cols.size) * 10.0 ** rng.integers(-8, 8, size=cols.size)
    ref = sp.csr_array(dense)
    X = CSRMatrix(ref.data, ref.indices, ref.indptr, ref.shape)
    W = rng.normal(size=(f, 17)) * 10.0 ** rng.integers(-8, 8, size=(f, 17))
    D = rng.normal(size=(n, 17))
    for path in native_paths():
        assert np.array_equal(bits(X @ W), bits(ref @ W)), path
        assert np.array_equal(bits(transpose_product_dense(X, D)), bits(ref.T @ D)), path


def test_products_reject_mismatched_shapes(rng, native_paths):
    X, _ = random_pair(rng, 4, 3)
    for _ in native_paths():
        with pytest.raises(ValueError):
            X @ np.zeros((4, 2))
        with pytest.raises(ValueError):
            X.transpose_product(np.zeros((3, 2)))


@pytest.mark.parametrize(
    "case", ["column past the end", "negative column", "decreasing row pointers", "row pointers past the data"]
)
def test_constructor_rejects_indices_outside_the_arrays(rng, case):
    # the kernel reads wherever an index points, so no matrix that would index
    # outside its arrays is ever made
    X, _ = random_pair(rng, 6, 5, density=0.6)
    indices, indptr = X.indices.copy(), X.indptr.copy()
    if case == "column past the end":
        indices[-1] = X.shape[1]
    elif case == "negative column":
        indices[0] = -1  # numpy indexing would wrap it round silently
    elif case == "decreasing row pointers":
        indptr[2] = indptr[3] + 1
    elif case == "row pointers past the data":
        indptr[3:] += 1000
    with pytest.raises(ValueError):
        CSRMatrix(X.data, indices, indptr, X.shape)


def test_row_selection_is_bounds_checked(rng):
    X, _ = random_pair(rng, 4, 3)
    with pytest.raises(IndexError):
        X[np.array([0, 4])]
