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
from .text import Tokens, tokenize

try:  # the regex parser is re._parser from Python 3.11 on, sre_parse before
    from re import _parser as _sre_parse
except ImportError:
    import sre_parse as _sre_parse


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


def required_literal(pattern: str) -> str:
    """The longest run of top-level literal characters in ``pattern``: every match
    contains it, so a text without it cannot match. "" when the pattern ignores
    case or has no literal at its top level (a top-level ``|``, say)."""
    parsed = _sre_parse.parse(pattern)
    if parsed.state.flags & _sre_parse.SRE_FLAG_IGNORECASE:
        return ""
    best = run = ""
    for op, arg in parsed:
        run = run + chr(arg) if op == _sre_parse.LITERAL else ""
        best = max(best, run, key=len)
    return best


def _keyword_keys(lfs: Sequence[LabelingFunction], tokens: Tokens) -> list[np.ndarray]:
    """The ``i * m + j`` keys of every keyword hit, in whole-split array passes."""
    m = len(lfs)
    runs = [(j, tokenize(term)) for j, lf in enumerate(lfs) if lf.kind == "keyword" for term in lf.terms]
    if not runs:
        return []
    ids, rows, get = tokens.ids, tokens.rows(), tokens.index.get
    # the positions of each id, grouped: id t is at by_id[bounds[t]:bounds[t + 1]]
    by_id = np.argsort(ids)
    bounds = np.searchsorted(ids[by_id], np.arange(len(tokens.index) + 1))
    keys = []
    for j, run in runs:
        run = [get(token, -1) for token in run]
        if -1 in run:  # a token of the term is nowhere in the split
            continue
        pos = by_id[bounds[run[0]] : bounds[run[0] + 1]]
        if len(run) > 1:
            # the run's last token must exist and sit in the same row as its first
            pos = pos[pos + len(run) - 1 < ids.size]
            hit = rows[pos] == rows[pos + len(run) - 1]
            for shift, token in enumerate(run[1:], start=1):
                hit &= ids[pos + shift] == token
            pos = pos[hit]
        keys.append(rows[pos] * m + j)
    return keys


def _regex_keys(lfs: Sequence[LabelingFunction], samples: Sequence[Sample]) -> list[np.ndarray]:
    """The ``i * m + j`` keys of every regex hit, searching only the texts that
    hold the pattern's required literal."""
    m = len(lfs)
    keys = []
    for j, lf in enumerate(lfs):
        if lf.kind != "regex":
            continue
        search = re.compile(lf.pattern).search
        literal = required_literal(lf.pattern)
        hits = []
        for i, sample in enumerate(samples):
            if literal not in sample.text:
                continue
            try:
                found = search(sample.text)
            except Exception as exc:
                raise DataError(f"labeling function {lf.id} failed on sample {sample.id}: {exc}") from exc
            if found:
                hits.append(i)
        keys.append(np.asarray(hits, dtype=np.int64) * m + j)
    return keys


def apply_lfs(lfs: Sequence[LabelingFunction], samples: Sequence[Sample], tokens: Tokens) -> MatchMatrix:
    """Evaluate every rule against every sample, in whole-split passes.

    ``tokens`` is the split of ``samples``, tokenized in lowercase. Keywords:
    each term token is looked up in the split's own ``index`` (a token that is
    not there means the term matches nowhere). The positions of each id, grouped
    once, give every term the places its first token occurs; a longer term
    also needs the ids that follow to equal its run, with its last token in
    the same row as its first. Regexes: each pattern is searched only in the
    texts that contain its :func:`required_literal` ("" is in every text),
    which finds exactly the matches a search of every text finds. All hits
    become ``i * m + j`` keys; sorted and free of repeats, they give the pairs in
    the order :class:`MatchMatrix` keeps without sorting.
    """
    m = len(lfs)
    keys = [np.empty(0, dtype=np.int64), *_keyword_keys(lfs, tokens), *_regex_keys(lfs, samples)]
    # sort and drop repeats by hand: np.unique imports numpy.ma on its first call
    keys = np.sort(np.concatenate(keys))
    keys = keys[np.diff(keys, prepend=-1) != 0]  # keys are >= 0, so the first is kept
    pairs = np.stack(np.divmod(keys, m), axis=1)
    return MatchMatrix(n=len(samples), m=m, pairs=pairs)


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
