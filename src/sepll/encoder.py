"""TF-IDF featurization of texts and the encoder's configuration.

The vocabulary is fitted on the training split only. Feature weights are
raw term counts times idf = ln((1 + N) / (1 + df)) + 1, L2-normalized per
sample; samples with no in-vocabulary token become zero vectors. The
encoder's parameters live in :mod:`sepll.model` with the rest of the model's.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError
from .nnet import ACTIVATIONS, CSRMatrix
# perfbench/test_perfbench.py::test_tracer_wraps_every_by_name_import reads sepll.encoder.mlp_forward
from .nnet import mlp_forward  # noqa: F401
from .text import tokenize


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


def fit_vocabulary(texts: Sequence[str], config: EncoderConfig | None = None) -> Vocabulary:
    config = config or EncoderConfig()
    if not texts:
        raise DataError("cannot fit a vocabulary on an empty corpus")
    df: Counter[str] = Counter()
    for text in texts:
        df.update(set(tokenize(text, lowercase=config.lowercase)))
    kept = [(tok, n) for tok, n in df.items() if n >= config.min_df]
    if not kept:
        raise DataError("vocabulary is empty after min_df filtering")
    kept.sort(key=lambda item: (-item[1], item[0]))
    kept = kept[: config.max_features]
    return Vocabulary(
        tokens=tuple(tok for tok, _ in kept),
        df=np.array([n for _, n in kept], dtype=np.int64),
        n_docs=len(texts),
        lowercase=config.lowercase,
    )


@dataclass(frozen=True)
class FeatureVector:
    """Sparse L2-normalized TF-IDF vector (indices ascending)."""

    dim: int
    indices: np.ndarray
    weights: np.ndarray


def _counts(text: str, vocab: Vocabulary) -> Counter:
    counts: Counter[int] = Counter()
    for tok in tokenize(text, lowercase=vocab.lowercase):
        idx = vocab.index.get(tok)
        if idx is not None:
            counts[idx] += 1
    return counts


def featurize(text: str, vocab: Vocabulary) -> FeatureVector:
    counts = _counts(text, vocab)
    if not counts:
        return FeatureVector(
            dim=len(vocab),
            indices=np.empty(0, dtype=np.int64),
            weights=np.empty(0, dtype=np.float64),
        )
    indices = np.array(sorted(counts), dtype=np.int64)
    weights = np.array([counts[i] for i in indices], dtype=np.float64) * vocab.idf[indices]
    weights /= np.linalg.norm(weights)
    return FeatureVector(dim=len(vocab), indices=indices, weights=weights)


def featurize_split(texts: Sequence[str], vocab: Vocabulary) -> CSRMatrix:
    """CSR feature matrix for a whole split, one row per text."""
    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    for text in texts:
        fv = featurize(text, vocab)
        indices.extend(int(i) for i in fv.indices)
        data.extend(float(w) for w in fv.weights)
        indptr.append(len(indices))
    return CSRMatrix(data, indices, indptr, shape=(len(texts), len(vocab)))
