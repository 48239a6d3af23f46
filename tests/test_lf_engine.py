from __future__ import annotations

import json
import re

import numpy as np
import pytest
from conftest import match_from_dense, match_to_dense
from hypothesis import given, strategies as st

import sepll.lf_engine as lf_engine
from sepll.data import MappingMatrix, MatchMatrix, Sample
from sepll.errors import ConfigError, DataError
from sepll.lf_engine import (
    LabelingFunction,
    apply_lfs,
    compute_stats,
    majority_vote,
    mapping_from_lfs,
    parse_lf_entries,
)
from sepll.serialize import to_json
from sepll.text import tokenize


def samples(*texts):
    return tuple(Sample(id=i, text=t) for i, t in enumerate(texts))


def entries(*values):
    return [(f"lf{i}", v) for i, v in enumerate(values)]


# ---------------------------------------------------------------------------
# parsing


def test_parse_keyword_and_regex_entries():
    lfs = parse_lf_entries(
        entries("keyword spam free, win money", "regex ham \\bsubscribe\\b"),
        class_names=("ham", "spam"),
    )
    assert lfs[0].kind == "keyword"
    assert lfs[0].label == 1
    assert lfs[0].terms == ("free", "win money")
    assert lfs[1].kind == "regex"
    assert lfs[1].label == 0
    assert lfs[1].pattern == "\\bsubscribe\\b"


def test_parse_rejects_unknown_class():
    with pytest.raises(ConfigError, match="unknown class"):
        parse_lf_entries(entries("keyword nope free"), class_names=("ham", "spam"))


def test_parse_rejects_unknown_kind():
    with pytest.raises(ConfigError, match="kind"):
        parse_lf_entries(entries("fuzzy spam free"), class_names=("ham", "spam"))


def test_parse_rejects_bad_regex():
    with pytest.raises(ConfigError, match="regex"):
        parse_lf_entries(entries("regex spam ["), class_names=("ham", "spam"))


def test_parse_rejects_short_entry():
    with pytest.raises(ConfigError, match="expected"):
        parse_lf_entries(entries("keyword spam"), class_names=("ham", "spam"))


def test_lf_requires_payload():
    with pytest.raises(ConfigError):
        LabelingFunction(id=0, kind="keyword", label=0, terms=(), pattern=None)


# ---------------------------------------------------------------------------
# matching semantics


def test_keyword_matches_whole_tokens_only():
    lfs = parse_lf_entries(entries("keyword spam free"), class_names=("ham", "spam"))
    match = apply_lfs(lfs, samples("get it free now", "freedom of speech", "FREE stuff"))
    assert match_to_dense(match)[:, 0].tolist() == [1, 0, 1]


def test_keyword_multiword_term_requires_contiguous_run():
    lfs = parse_lf_entries(entries("keyword spam win money"), class_names=("ham", "spam"))
    match = apply_lfs(lfs, samples("you win money now", "win lots of money", "money win"))
    assert match_to_dense(match)[:, 0].tolist() == [1, 0, 0]


def test_regex_runs_on_raw_text():
    lfs = parse_lf_entries(entries("regex ham \\b(subscribe|sub)\\b"), class_names=("ham", "spam"))
    match = apply_lfs(lfs, samples("please subscribe", "my sub count", "subscriber"))
    assert match_to_dense(match)[:, 0].tolist() == [1, 1, 0]


def test_lfs_sharing_a_first_token_both_fire_and_pairs_are_sorted():
    lfs = parse_lf_entries(
        entries("keyword ham win big", "regex spam money", "keyword spam win money, cash"),
        class_names=("ham", "spam"),
    )
    # "win" starts a term of LF 0 and of LF 2; in row 3 LF 2 is found first, at "cash"
    match = apply_lfs(
        lfs, samples("win money now", "win big money", "nothing", "cash, win big", "win big win money")
    )
    assert match.pairs.tolist() == [
        [0, 1], [0, 2], [1, 0], [1, 1], [3, 0], [3, 2], [4, 0], [4, 1], [4, 2]
    ]  # fmt: skip


def reference_apply_lfs(lfs, sams):
    """Per-LF scan: every keyword term is searched for as a contiguous token run."""

    def contains_run(tokens, run):
        if len(run) == 1:
            return run[0] in tokens
        span = len(run)
        return any(tokens[i : i + span] == run for i in range(len(tokens) - span + 1))

    pairs = []
    for i, sample in enumerate(sams):
        tokens = tokenize(sample.text)
        for j, lf in enumerate(lfs):
            if lf.kind == "keyword":
                runs = [tokenize(t) for t in lf.terms]
                hit = any(run and contains_run(tokens, run) for run in runs)
            else:
                hit = re.search(lf.pattern, sample.text) is not None
            if hit:
                pairs.append((i, j))
    return MatchMatrix(
        n=len(sams), m=len(lfs), pairs=np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    )


WORDS = st.sampled_from(["a", "A", "b", "B", "ab", "c"])
SEPARATORS = st.sampled_from([" ", ", ", "-", "! ", "_", " -- "])
TERMS = st.one_of(
    st.lists(WORDS, min_size=1, max_size=3).map(" ".join),
    st.sampled_from(["a a", "a b", "b a", "--", "a -- b"]),
)
REGEXES = st.sampled_from([r"\bab\b", r"^a", r"b!", r"[A-Z]{2}", r"-"])


@st.composite
def labeling_functions(draw):
    lfs = []
    for lf_id in range(draw(st.integers(1, 6))):
        label = draw(st.integers(0, 1))
        if draw(st.booleans()):
            lfs.append(LabelingFunction(id=lf_id, kind="regex", label=label, pattern=draw(REGEXES)))
        else:
            # a term made only of separators ("--") passes validation but tokenizes to []
            terms = tuple(draw(st.lists(TERMS, min_size=1, max_size=3)))
            lfs.append(LabelingFunction(id=lf_id, kind="keyword", label=label, terms=terms))
    return tuple(lfs)


@st.composite
def texts(draw):
    words = draw(st.lists(WORDS, max_size=8))
    seps = draw(st.lists(SEPARATORS, min_size=len(words), max_size=len(words)))
    return "".join(w + s for w, s in zip(words, seps))


@given(labeling_functions(), st.lists(texts(), max_size=6))
def test_apply_lfs_matches_per_lf_reference(lfs, text_list):
    sams = samples(*text_list)
    assert apply_lfs(lfs, sams) == reference_apply_lfs(lfs, sams)


def test_regex_runtime_failure_names_lf_and_sample(monkeypatch):
    lfs = parse_lf_entries(entries("regex spam ok"), class_names=("ham", "spam"))

    class Boom:
        def search(self, text):
            if text == "bad":
                raise RuntimeError("boom")
            return None

    class FakeRe:
        error = re.error

        @staticmethod
        def compile(pattern):
            return Boom()

    monkeypatch.setattr(lf_engine, "re", FakeRe)
    with pytest.raises(DataError, match=r"labeling function 0 failed on sample 1"):
        apply_lfs(lfs, samples("fine", "bad"))


def test_mapping_from_lfs():
    lfs = parse_lf_entries(
        entries("keyword spam free", "keyword ham hi", "keyword spam win"),
        class_names=("ham", "spam"),
    )
    mapping = mapping_from_lfs(lfs, 2)
    assert mapping.c == 2
    assert mapping.class_of.tolist() == [1, 0, 1]


# ---------------------------------------------------------------------------
# majority vote


def test_majority_vote_strict_majority_ignores_rng():
    match = match_from_dense(np.array([[1, 1, 0], [0, 0, 1], [1, 0, 1]]))
    mapping = MappingMatrix(c=2, class_of=np.array([0, 0, 1]))
    a = majority_vote(match, mapping, seed=0)
    b = majority_vote(match, mapping, seed=999)
    # rows 0 and 1 are unambiguous; row 2 is a 1-1 tie
    assert a[0] == b[0] == 0
    assert a[1] == b[1] == 1
    assert a[2] in (0, 1) and b[2] in (0, 1)


def test_majority_vote_no_match_uniform_and_reproducible():
    match = MatchMatrix(n=5, m=2, pairs=np.empty((0, 2), dtype=np.int64))
    mapping = MappingMatrix(c=3, class_of=np.array([0, 1]))
    a = majority_vote(match, mapping, seed=4)
    b = majority_vote(match, mapping, seed=4)
    assert np.array_equal(a, b)
    assert set(np.unique(a)) <= {0, 1, 2}


def test_majority_vote_tie_varies_with_seed():
    match = match_from_dense(np.array([[1, 1]]))
    mapping = MappingMatrix(c=2, class_of=np.array([0, 1]))
    outcomes = {majority_vote(match, mapping, seed=s)[0] for s in range(40)}
    assert outcomes == {0, 1}


def test_majority_vote_dimension_mismatch():
    match = match_from_dense(np.array([[1, 0]]))
    mapping = MappingMatrix(c=2, class_of=np.array([0, 1, 1]))
    with pytest.raises(DataError, match="LF dimension mismatch"):
        majority_vote(match, mapping, seed=0)


@given(st.integers(0, 2 ** 31 - 1), st.data())
def test_majority_vote_untied_rows_permutation_equivariant(seed, data):
    n, m = 6, 4
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, m)) < 0.6).astype(np.int64)
    class_of = rng.integers(0, 2, size=m)
    mapping = MappingMatrix(c=2, class_of=class_of)
    preds = majority_vote(match_from_dense(dense), mapping, seed=7)
    perm = np.asarray(data.draw(st.permutations(range(m))))
    mapped = majority_vote(
        match_from_dense(dense[:, perm]),
        MappingMatrix(c=2, class_of=class_of[perm]),
        seed=7,
    )
    votes = dense @ mapping.to_dense()
    untied = (votes == votes.max(axis=1, keepdims=True)).sum(axis=1) == 1
    assert np.array_equal(preds[untied], mapped[untied])


def test_majority_vote_matches_exhaustive_count(rng):
    n, m, c = 50, 6, 3
    dense = (rng.random((n, m)) < 0.5).astype(np.int64)
    class_of = rng.integers(0, c, size=m)
    mapping = MappingMatrix(c=c, class_of=class_of)
    preds = majority_vote(match_from_dense(dense), mapping, seed=11)
    for i in range(n):
        counts = [0] * c
        for j in range(m):
            if dense[i, j]:
                counts[class_of[j]] += 1
        best = max(counts)
        tied = [k for k in range(c) if counts[k] == best]
        assert preds[i] in tied
        if len(tied) == 1:
            assert preds[i] == tied[0]


# ---------------------------------------------------------------------------
# stats


def test_compute_stats_hand_example():
    match = match_from_dense(
        np.array(
            [
                [1, 0],  # gold 0, LF0 right
                [1, 1],  # gold 0, LF0 right, LF1 wrong -> conflict row
                [0, 0],  # gold 1, uncovered
                [1, 0],  # gold 1, LF0 wrong
            ]
        )
    )
    mapping = MappingMatrix(c=2, class_of=np.array([0, 1]))
    stats = compute_stats(match, mapping, gold=[0, 0, 1, 1])
    assert stats.coverage == pytest.approx(3 / 4)
    lf0, lf1 = stats.per_lf
    assert lf0.hits == 3
    assert lf0.coverage == pytest.approx(3 / 4)
    assert lf0.precision == pytest.approx(2 / 3)
    assert lf1.hits == 1
    assert lf1.precision == pytest.approx(0.0)
    assert stats.conflict_rate == pytest.approx(1 / 3)
    assert stats.mean_matches_per_matched == pytest.approx(4 / 3)


def test_compute_stats_without_gold_precision_none():
    match = match_from_dense(np.array([[1], [0]]))
    mapping = MappingMatrix(c=2, class_of=np.array([0]))
    stats = compute_stats(match, mapping)
    assert stats.per_lf[0].precision is None
    assert stats.coverage == pytest.approx(0.5)


def test_compute_stats_zero_hit_lf_precision_none():
    match = match_from_dense(np.array([[1, 0]]))
    mapping = MappingMatrix(c=2, class_of=np.array([0, 1]))
    stats = compute_stats(match, mapping, gold=[0])
    assert stats.per_lf[1].hits == 0
    assert stats.per_lf[1].precision is None


def test_stats_json_dict():
    match = match_from_dense(np.array([[1, 1]]))
    mapping = MappingMatrix(c=2, class_of=np.array([0, 1]))
    stats = compute_stats(match, mapping, gold=[0])
    blob = json.loads(to_json(stats))
    assert blob["coverage"] == 1.0
    assert len(blob["per_lf"]) == 2
    assert blob["per_lf"][0]["precision"] == 1.0
    assert blob["per_lf"][1]["precision"] == 0.0


# the stats.json entry of one split, byte for byte
LF_STATS_JSON = """{
  "conflict_rate": 0.5,
  "coverage": 0.6666666666666666,
  "mean_matches_per_matched": 1.5,
  "per_lf": [
    {
      "coverage": 0.6666666666666666,
      "hits": 2,
      "precision": 0.5
    },
    {
      "coverage": 0.3333333333333333,
      "hits": 1,
      "precision": 0.0
    },
    {
      "coverage": 0.0,
      "hits": 0,
      "precision": null
    }
  ]
}"""


def test_stats_json_golden():
    match = match_from_dense(np.array([[1, 1, 0], [1, 0, 0], [0, 0, 0]]))
    mapping = MappingMatrix(c=2, class_of=np.array([0, 1, 1]))
    assert to_json(compute_stats(match, mapping, gold=[0, 1, 1])) == LF_STATS_JSON
