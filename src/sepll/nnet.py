"""Feed-forward building blocks: affine layers, activations, forward/backward.

The first layer of a stack may receive a :class:`CSRMatrix`; everything after
it is dense float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import native
from .errors import NumericalError


class CSRMatrix:
    """Row-compressed sparse float64 matrix, the first-layer input of a stack.

    Row ``i`` holds ``data[indptr[i]:indptr[i + 1]]`` at the columns
    ``indices[indptr[i]:indptr[i + 1]]``, which are distinct within a row.
    Supports row selection (``X[rows]``), ``X @ W`` and the used rows of
    ``X.T @ D`` (:meth:`transpose_product`). Each product element adds its
    terms left to right, starting from 0.0: ``X @ W`` over a row's nonzeros in
    storage order, ``X.T @ D`` over a column's nonzeros in row order. That is
    the summation order of scipy's CSR products, so results are bitwise equal
    to ``scipy.sparse.csr_array``'s. The constructor raises ``ValueError``
    where the structure would index outside the arrays, so the products can
    read every index unchecked.
    """

    def __init__(self, data, indices, indptr, shape: tuple[int, int]):
        self.data = np.asarray(data, dtype=np.float64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.shape = (int(shape[0]), int(shape[1]))
        n, f = self.shape
        ptr, nnz = self.indptr, self.data.size
        if (
            ptr.shape != (n + 1,)
            or ptr[0] != 0
            or ptr[-1] != nnz
            or self.data.shape != self.indices.shape
            or np.any(ptr[1:] < ptr[:-1])
        ):
            raise ValueError(f"malformed row pointers for a {self.shape} matrix with {nnz} nonzeros")
        if nnz and not (self.indices.min() >= 0 and self.indices.max() < f):
            raise ValueError(f"column index outside [0, {f})")

    def __getitem__(self, rows) -> CSRMatrix:
        rows = np.arange(self.shape[0])[rows]  # bounds-checked; accepts slices and masks
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        indptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        pos = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        return CSRMatrix(self.data[pos], self.indices[pos], indptr, (rows.size, self.shape[1]))

    def __matmul__(self, W: np.ndarray) -> np.ndarray:
        if W.ndim != 2 or W.shape[0] != self.shape[1]:
            raise ValueError(f"cannot multiply a {self.shape} matrix by one of shape {W.shape}")
        return native.row_sums(self.data, self.indices, self.indptr, W)

    def used_columns(self) -> np.ndarray:
        """The columns that hold a nonzero in some row, ascending."""
        return np.flatnonzero(np.bincount(self.indices, minlength=self.shape[1]))

    def transpose_product(self, D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows of ``X.T @ D`` that can be nonzero: returns ``(cols, sums)``,
        where ``cols`` is :meth:`used_columns` and ``sums`` is ``(X.T @ D)[cols]``.
        Every other row of ``X.T @ D`` is +0.0."""
        if D.ndim != 2 or D.shape[0] != self.shape[0]:
            raise ValueError(f"cannot multiply a {self.shape[::-1]} matrix by one of shape {D.shape}")
        # Regroup the nonzeros by column, keeping row order within a column: the
        # used columns become the rows of a CSR matrix over this matrix's rows.
        order = np.argsort(self.indices, kind="stable")
        cols = self.indices[order]
        row_of = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))[order]
        new_col = np.ones(cols.size, dtype=bool)
        new_col[1:] = cols[1:] != cols[:-1]
        indptr = np.append(np.flatnonzero(new_col), cols.size)
        return cols[new_col], native.row_sums(self.data[order], row_of, indptr, D)


@dataclass
class Layer:
    """Affine map ``x @ W + b``. Also reused as a same-shaped gradient holder."""

    W: np.ndarray
    b: np.ndarray


def _dtanh(a: np.ndarray) -> np.ndarray:
    return 1.0 - a * a


def _drelu(a: np.ndarray) -> np.ndarray:
    return (a > 0).astype(a.dtype)


def _didentity(a: np.ndarray) -> np.ndarray:
    return np.ones_like(a)


# name -> (activation, derivative expressed in terms of the activation output)
ACTIVATIONS = {
    "tanh": (np.tanh, _dtanh),
    "relu": (lambda z: np.maximum(z, 0.0), _drelu),
    "identity": (lambda z: z, _didentity),
}


def init_layer(n_in: int, n_out: int, rng: np.random.Generator) -> Layer:
    # uniform +-sqrt(6 / (fan_in + fan_out)), zero bias
    bound = math.sqrt(6.0 / (n_in + n_out))
    return Layer(W=rng.uniform(-bound, bound, size=(n_in, n_out)), b=np.zeros(n_out))


def init_mlp(dims: Sequence[int], rng: np.random.Generator) -> list[Layer]:
    if len(dims) < 2:
        raise ValueError("an MLP needs at least input and output dimensions")
    return [init_layer(dims[i], dims[i + 1], rng) for i in range(len(dims) - 1)]


@dataclass
class ForwardCache:
    inputs: list
    activations: list[np.ndarray]


def mlp_forward(layers: Sequence[Layer], x, nonlinearity: str = "tanh"):
    """Hidden layers apply the nonlinearity, the last layer is linear.

    Returns ``(output, cache)``; the cache feeds :func:`mlp_backward`.
    """
    act, _ = ACTIVATIONS[nonlinearity]
    inputs, hidden = [], []
    a = x
    last = len(layers) - 1
    for i, layer in enumerate(layers):
        inputs.append(a)
        z = a @ layer.W + layer.b
        if i < last:
            a = act(z)
            hidden.append(a)
        else:
            a = z
    return a, ForwardCache(inputs=inputs, activations=hidden)


def mlp_backward(
    layers: Sequence[Layer],
    cache: ForwardCache,
    d_out: np.ndarray,
    grads: Sequence[Layer],
    nonlinearity: str = "tanh",
    need_input_grad: bool = True,
):
    """Backpropagate ``d_out``, writing each layer's gradient into the same-shaped
    arrays of ``grads``; returns the gradient w.r.t. the input.

    For a :class:`CSRMatrix` input only the rows of ``grads[0].W`` at the
    columns the input uses are written; the caller passes that array zeroed.
    The input gradient is skipped (None) when ``need_input_grad`` is false, which
    avoids densifying sparse first-layer inputs.
    """
    _, dact = ACTIVATIONS[nonlinearity]
    delta = d_out
    for i in range(len(layers) - 1, -1, -1):
        x = cache.inputs[i]
        if isinstance(x, CSRMatrix):
            cols, sums = x.transpose_product(delta)
            grads[i].W[cols] = sums
        else:
            np.matmul(x.T, delta, out=grads[i].W)
        np.sum(delta, axis=0, out=grads[i].b)
        if i > 0:
            delta = (delta @ layers[i].W.T) * dact(cache.activations[i - 1])
    return delta @ layers[0].W.T if need_input_grad else None


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    out = logits - np.max(logits, axis=axis, keepdims=True)  # the one array made here
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def check_finite(name: str, *arrays: np.ndarray) -> None:
    for arr in arrays:
        if not np.all(np.isfinite(arr)):
            raise NumericalError(f"non-finite values in {name}")
