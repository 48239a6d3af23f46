"""Labeling functions: rule matching over text, per-LF statistics, majority vote.

Rules are one-class by construction here: a keyword rule matches whole tokens
(case-insensitive, after whitespace/punctuation tokenization), a regex rule is
an any-position search with the raw pattern.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import MatchMatrix, MappingMatrix, Sample
from .errors import ConfigError, DataError
from .seeds import stream
from .text import tokenize


@dataclass(frozen=True)
class LabelingFunction:
    """One rule assigning a single class when it matches."""

    id: int
    kind: str  # "keyword" | "regex"
    label: int
    terms: tuple[str, ...] = ()
    pattern: str = ""

    def __post_init__(self):
        if self.kind not in ("keyword", "regex"):
            raise ConfigError(f"LF {self.id}: unknown kind {self.kind!r}")
        if self.label < 0:
            raise ConfigError(f"LF {self.id}: negative class index")
        if self.kind == "keyword":
            if not self.terms:
                raise ConfigError(f"LF {self.id}: keyword rule needs non-empty terms")
            for term in self.terms:
                if not tokenize(term):
                    raise ConfigError(f"LF {self.id}: keyword term {term!r} has no letters or digits")
        else:
            if not self.pattern:
                raise ConfigError(f"LF {self.id}: regex rule needs a pattern")
            try:
                re.compile(self.pattern)
            except re.error as exc:
                raise ConfigError(f"LF {self.id}: bad regex: {exc}") from exc


def parse_lf_entries(
    entries: Sequence[tuple[str, str]], class_names: Sequence[str]
) -> tuple[LabelingFunction, ...]:
    """Parse config entries of the form ``<kind> <class-name> <terms-or-pattern>``.

    Keyword payloads are comma-separated terms; regex payloads are the raw
    remainder of the line. Class names resolve against ``class_names``.
    """
    index = {name: i for i, name in enumerate(class_names)}
    lfs = []
    for lf_id, (name, value) in enumerate(entries):
        parts = value.strip().split(None, 2)
        if len(parts) != 3:
            raise ConfigError(
                f"LF entry {name!r}: expected '<keyword|regex> <class> <payload>', got {value!r}"
            )
        kind, cls_name, payload = parts
        if cls_name not in index:
            raise ConfigError(f"LF entry {name!r}: unknown class {cls_name!r}")
        if kind == "keyword":
            terms = tuple(t.strip() for t in payload.split(",") if t.strip())
            lfs.append(LabelingFunction(id=lf_id, kind="keyword", label=index[cls_name], terms=terms))
        else:
            lfs.append(
                LabelingFunction(id=lf_id, kind=kind, label=index[cls_name], pattern=payload.strip())
            )
    return tuple(lfs)


def apply_lfs(lfs: Sequence[LabelingFunction], samples: Sequence[Sample]) -> MatchMatrix:
    """Evaluate every rule against every sample.

    Keyword terms are tokenized once per call into runs, indexed by their first
    token. Each sample is tokenized once; every token position looks up the
    runs starting with that token, and a run of length > 1 must also equal the
    tokens that follow. Regexes then search the raw text in LF order. A sample's
    hits are emitted in ascending LF order, so ``pairs`` is sorted by (i, j).
    """
    regexes = [(j, re.compile(lf.pattern)) for j, lf in enumerate(lfs) if lf.kind == "regex"]
    by_first: dict[str, list[tuple[int, list[str]]]] = {}
    for j, lf in enumerate(lfs):
        if lf.kind == "keyword":
            for term in lf.terms:
                run = tokenize(term)
                by_first.setdefault(run[0], []).append((j, run))

    pairs = []
    for i, sample in enumerate(samples):
        hits = set()
        if by_first:
            tokens = tokenize(sample.text)
            for pos, token in enumerate(tokens):
                for j, run in by_first.get(token, ()):
                    if len(run) == 1 or tokens[pos : pos + len(run)] == run:
                        hits.add(j)
        for j, pattern in regexes:
            try:
                found = pattern.search(sample.text)
            except Exception as exc:
                raise DataError(
                    f"labeling function {lfs[j].id} failed on sample {sample.id}: {exc}"
                ) from exc
            if found:
                hits.add(j)
        pairs.extend((i, j) for j in sorted(hits))
    arr = np.asarray(pairs, dtype=np.int64)
    return MatchMatrix(n=len(samples), m=len(lfs), pairs=arr)


def mapping_from_lfs(lfs: Sequence[LabelingFunction], c: int) -> MappingMatrix:
    return MappingMatrix(c=c, class_of=np.array([lf.label for lf in lfs], dtype=np.int64))


def majority_vote(match: MatchMatrix, mapping: MappingMatrix, seed: int) -> np.ndarray:
    """Argmax of per-class vote counts.

    Unmatched samples get a uniform random class; ties break uniformly among
    the tied classes. Both draws come from the dedicated "mv-ties" stream and
    are consumed in row order, only on ambiguous rows.
    """
    votes = match.class_votes(mapping)
    preds = votes.argmax(axis=1)
    tied = votes == votes.max(axis=1, keepdims=True)
    ks = tied.sum(axis=1)
    ambiguous = np.flatnonzero(ks > 1)
    # one integers() call over the tie counts draws what per-row
    # rng.choice(tied classes) calls would, and leaves the same stream state
    picks = stream(seed, "mv-ties").integers(0, ks[ambiguous])
    # the picks-th tied class of each ambiguous row
    preds[ambiguous] = (tied[ambiguous].cumsum(axis=1) > picks[:, None]).argmax(axis=1)
    return preds


@dataclass(frozen=True)
class PerLfStats:
    coverage: float
    hits: int
    precision: float | None


@dataclass(frozen=True)
class LfStats:
    per_lf: tuple[PerLfStats, ...]
    coverage: float
    mean_matches_per_matched: float
    conflict_rate: float


def compute_stats(
    match: MatchMatrix, mapping: MappingMatrix, gold: Sequence[int] | None = None
) -> LfStats:
    """Per-LF coverage/precision and dataset-level coverage, density, conflict rate."""
    votes = match.class_votes(mapping)
    n = match.n
    rows, cols = match.pairs.T
    hits = np.bincount(cols, minlength=match.m)
    correct = None
    if gold is not None:
        gold_arr = np.asarray(list(gold), dtype=np.int64)
        if gold_arr.shape[0] != n:
            raise DataError("gold label count does not match sample count")
        right = gold_arr[rows] == mapping.class_of[cols]
        correct = np.bincount(cols[right], minlength=match.m)
    per_lf = []
    for j in range(match.m):
        cov = float(hits[j]) / n if n else 0.0
        precision = None
        if correct is not None and hits[j] > 0:
            precision = int(correct[j]) / int(hits[j])
        per_lf.append(PerLfStats(coverage=cov, hits=int(hits[j]), precision=precision))
    row_counts = match.row_counts()
    matched = row_counts > 0
    coverage = float(matched.mean()) if n else 0.0
    mean_matches = float(row_counts[matched].mean()) if matched.any() else 0.0
    conflicts = (votes > 0).sum(axis=1) >= 2
    conflict_rate = float(conflicts[matched].mean()) if matched.any() else 0.0
    return LfStats(
        per_lf=tuple(per_lf),
        coverage=coverage,
        mean_matches_per_matched=mean_matches,
        conflict_rate=conflict_rate,
    )
