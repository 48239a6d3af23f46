"""Whitespace/punctuation tokenization shared by the LF engine and the featurizer."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# runs of letters/digits; underscores and everything else act as separators
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str, lowercase: bool = True) -> list[str]:
    if lowercase:
        text = text.lower()
    return _TOKEN_RE.findall(text)


@dataclass(frozen=True, eq=False)
class Tokens:
    """A split's tokens as ids: text i holds ``ids[starts[i]:starts[i + 1]]``, and
    ``index`` numbers the split's distinct tokens in order of first occurrence."""

    index: dict[str, int]
    ids: np.ndarray  # int64
    starts: np.ndarray  # int64, one more than there are texts

    def rows(self) -> np.ndarray:
        """The text of every position of ``ids``."""
        return np.repeat(np.arange(self.starts.size - 1, dtype=np.int64), np.diff(self.starts))


def tokenize_split(texts: Sequence[str], lowercase: bool = True) -> Tokens:
    """``texts`` as :class:`Tokens`, each text split by :func:`tokenize`."""
    index: dict[str, int] = {}
    flat: list[int] = []
    starts = [0]
    for text in texts:
        flat += [index.setdefault(token, len(index)) for token in tokenize(text, lowercase)]
        starts.append(len(flat))
    return Tokens(index, np.array(flat, dtype=np.int64), np.array(starts, dtype=np.int64))
