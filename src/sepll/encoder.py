"""TF-IDF featurization of texts and the encoder's configuration.

The vocabulary is fitted on the training split only. Feature weights are
raw term counts times idf = ln((1 + N) / (1 + df)) + 1, L2-normalized per
sample; samples with no in-vocabulary token become zero vectors. The
encoder's parameters live in :mod:`sepll.model` with the rest of the model's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DataError
from .nnet import ACTIVATIONS, CSRMatrix
from .text import Tokens
# perfbench/test_perfbench.py::test_tracer_wraps_every_by_name_import reads these two names here
from .nnet import mlp_forward  # noqa: F401
from .text import tokenize  # noqa: F401


@dataclass(frozen=True)
class EncoderConfig:
    max_features: int = 4000
    min_df: int = 1
    lowercase: bool = True
    hidden: tuple[int, ...] = (256,)
    dim: int = 64
    nonlinearity: str = "tanh"

    def __post_init__(self):
        if self.max_features < 1:
            raise ConfigError("max_features must be positive")
        if self.min_df < 1:
            raise ConfigError("min_df must be positive")
        if self.dim < 1:
            raise ConfigError("encoder output dimension must be positive")
        if any(h < 1 for h in self.hidden):
            raise ConfigError("hidden widths must be positive")
        if self.nonlinearity not in ACTIVATIONS:
            raise ConfigError(f"unknown nonlinearity {self.nonlinearity!r}")


@dataclass(frozen=True, eq=False)
class Vocabulary:
    """Token inventory in rank order (df desc, then token lexicographic)."""

    tokens: tuple[str, ...]
    df: np.ndarray  # document frequency per token
    n_docs: int
    lowercase: bool = True

    def __len__(self) -> int:
        return len(self.tokens)

    @cached_property
    def index(self) -> dict[str, int]:
        return {tok: i for i, tok in enumerate(self.tokens)}

    @cached_property
    def idf(self) -> np.ndarray:
        return np.log((1.0 + self.n_docs) / (1.0 + np.asarray(self.df, dtype=np.float64))) + 1.0

    def __eq__(self, other):
        return (
            isinstance(other, Vocabulary)
            and self.tokens == other.tokens
            and self.n_docs == other.n_docs
            and self.lowercase == other.lowercase
            and bool(np.all(np.asarray(self.df) == np.asarray(other.df)))
        )


def fit_vocabulary(tokens: Tokens, config: EncoderConfig | None = None) -> Vocabulary:
    """The vocabulary of a split tokenized with ``config.lowercase``."""
    config = config or EncoderConfig()
    n = tokens.starts.size - 1
    if n == 0:
        raise DataError("cannot fit a vocabulary on an empty corpus")
    # df: distinct (row, id) keys per token, by hand (np.unique without counts imports numpy.ma)
    size = len(tokens.index)
    keys = np.sort(tokens.rows() * size + tokens.ids)
    df = np.bincount(keys[np.diff(keys, prepend=-1) != 0] % size, minlength=size)
    names, counts = list(tokens.index), df.tolist()
    kept = sorted(np.flatnonzero(df >= config.min_df).tolist(), key=lambda t: (-counts[t], names[t]))
    if not kept:
        raise DataError("vocabulary is empty after min_df filtering")
    kept = kept[: config.max_features]
    return Vocabulary(
        tokens=tuple(names[t] for t in kept), df=df[kept], n_docs=n, lowercase=config.lowercase
    )


def featurize_split(tokens: Tokens, vocab: Vocabulary) -> CSRMatrix:
    """CSR feature matrix of a split tokenized with ``vocab.lowercase``, one row per
    text; each row's column indices ascend."""
    n, dim = tokens.starts.size - 1, len(vocab)
    column = np.array([vocab.index.get(token, -1) for token in tokens.index], dtype=np.int64)[tokens.ids]
    inside = column >= 0
    # one key per (row, column); unique sorts by row, then by column, and counts repeats
    keys, counts = np.unique(tokens.rows()[inside] * dim + column[inside], return_counts=True)
    rows, cols = np.divmod(keys, dim)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    weights = counts * vocab.idf[cols]
    for lo, hi in zip(indptr[:-1].tolist(), indptr[1:].tolist()):
        if hi > lo:
            # one row at a time: a vectorized norm sums in another order
            w = weights[lo:hi]
            w /= np.linalg.norm(w)
    return CSRMatrix(weights, cols, indptr, shape=(n, dim))
