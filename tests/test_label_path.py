"""The label path read off the match pairs, checked against dense references.

``majority_vote``, ``compute_stats``, ``inject_noise`` and ``build_targets``
count class votes straight from ``MatchMatrix.pairs``. The ``dense_*``
functions below are their earlier n x m float implementations, kept here as
oracles: every output must be bitwise equal, and every random stream must be
consumed exactly as before.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from conftest import match_from_dense
from hypothesis import given, strategies as st

from sepll.data import MappingMatrix, MatchMatrix, build_targets
from sepll.errors import ConfigError, DataError
from sepll.lf_engine import LfStats, PerLfStats, compute_stats, majority_vote
from sepll.seeds import stream
from sepll.serialize import to_json
from sepll.trainer import inject_noise


def _check_dims(match: MatchMatrix, mapping: MappingMatrix) -> None:
    if match.m != mapping.m:
        raise DataError(f"LF dimension mismatch: matches have m={match.m}, mapping m={mapping.m}")


def dense_majority_vote(match: MatchMatrix, mapping: MappingMatrix, seed: int):
    """Predictions and the final tie-stream state of the per-row tie loop."""
    _check_dims(match, mapping)
    votes = match.to_dense() @ mapping.to_dense()
    rng = stream(seed, "mv-ties")
    preds = np.empty(match.n, dtype=np.int64)
    for i in range(match.n):
        row = votes[i]
        tied = np.flatnonzero(row == row.max())
        preds[i] = tied[0] if tied.size == 1 else rng.choice(tied)
    return preds, rng.bit_generator.state


def majority_vote_and_state(match: MatchMatrix, mapping: MappingMatrix, seed: int):
    """``majority_vote``'s predictions and the state its tie stream ends in."""
    made = []

    def recording_stream(*args):
        made.append(stream(*args))
        return made[-1]

    with mock.patch("sepll.lf_engine.stream", recording_stream):
        preds = majority_vote(match, mapping, seed)
    (rng,) = made
    return preds, rng.bit_generator.state


def dense_compute_stats(match: MatchMatrix, mapping: MappingMatrix, gold=None) -> LfStats:
    _check_dims(match, mapping)
    dense = match.to_dense()
    n = match.n
    hits = dense.sum(axis=0).astype(np.int64)
    gold_arr = None
    if gold is not None:
        gold_arr = np.asarray(list(gold), dtype=np.int64)
        if gold_arr.shape[0] != n:
            raise DataError("gold label count does not match sample count")
    per_lf = []
    for j in range(match.m):
        cov = float(hits[j]) / n if n else 0.0
        precision = None
        if gold_arr is not None:
            if hits[j] > 0:
                correct = int(((dense[:, j] > 0) & (gold_arr == mapping.class_of[j])).sum())
                precision = correct / int(hits[j])
        per_lf.append(PerLfStats(coverage=cov, hits=int(hits[j]), precision=precision))
    row_counts = dense.sum(axis=1)
    matched = row_counts > 0
    coverage = float(matched.mean()) if n else 0.0
    mean_matches = float(row_counts[matched].mean()) if matched.any() else 0.0
    class_presence = (dense @ mapping.to_dense()) > 0
    conflicts = class_presence.sum(axis=1) >= 2
    conflict_rate = float(conflicts[matched].mean()) if matched.any() else 0.0
    return LfStats(
        per_lf=tuple(per_lf),
        coverage=coverage,
        mean_matches_per_matched=mean_matches,
        conflict_rate=conflict_rate,
    )


def dense_inject_noise(match, mapping, noise_lambda, rng) -> MatchMatrix:
    _check_dims(match, mapping)
    if not (0.0 <= noise_lambda <= 1.0):
        raise ConfigError("noise_lambda must be in [0, 1]")
    dense = match.to_dense() > 0
    if noise_lambda == 0.0 or match.m == 0 or match.n == 0:
        return match
    class_hit = np.zeros((match.n, mapping.c), dtype=bool)
    for k in range(mapping.c):
        cols = mapping.class_of == k
        if cols.any():
            class_hit[:, k] = dense[:, cols].any(axis=1)
    eligible = class_hit[:, mapping.class_of] & ~dense
    draws = rng.random(dense.shape) < noise_lambda
    return match_from_dense(dense | (eligible & draws))


def dense_build_targets(match: MatchMatrix) -> np.ndarray:
    if match.m < 1:
        raise DataError("cannot build targets with zero LF columns")
    dense = match.to_dense()
    counts = dense.sum(axis=1)
    unlabeled = counts == 0
    rows = np.empty_like(dense)
    rows[unlabeled] = 1.0 / match.m
    matched = ~unlabeled
    rows[matched] = dense[matched] / counts[matched, None]
    return rows


def assert_same_arrays(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_label_path_matches_reference(match, mapping, gold, seed, lam):
    preds, state = majority_vote_and_state(match, mapping, seed)
    ref_preds, ref_state = dense_majority_vote(match, mapping, seed)
    assert_same_arrays(preds, ref_preds)
    assert state == ref_state
    for labels in (None, gold):
        got = to_json(compute_stats(match, mapping, labels))
        want = to_json(dense_compute_stats(match, mapping, labels))
        assert got == want

    rng, ref_rng = stream(seed, "noise"), stream(seed, "noise")
    noised = inject_noise(match, mapping, lam, rng)
    ref_noised = dense_inject_noise(match, mapping, lam, ref_rng)
    assert (noised.n, noised.m) == (ref_noised.n, ref_noised.m)
    assert_same_arrays(noised.pairs, ref_noised.pairs)
    assert rng.bit_generator.state == ref_rng.bit_generator.state

    if match.m:
        for source in (match, noised):
            assert_same_arrays(build_targets(source), dense_build_targets(source))


@st.composite
def label_cases(draw):
    c = draw(st.integers(1, 4))
    m = draw(st.integers(0, 7))
    n = draw(st.integers(0, 14))
    class_of = draw(st.lists(st.integers(0, c - 1), min_size=m, max_size=m))
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
    cells = draw(
        st.lists(
            st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m), min_size=n, max_size=n
        )
    )
    dense = (np.asarray(cells, dtype=np.float64).reshape(n, m) < density).astype(np.int64)
    gold = draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n))
    match = match_from_dense(dense)
    mapping = MappingMatrix(c=c, class_of=np.asarray(class_of, dtype=np.int64))
    return match, mapping, gold


@given(
    label_cases(),
    st.integers(0, 2**32 - 1),
    st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
)
def test_label_path_bitwise_equals_dense_reference(case, seed, lam):
    match, mapping, gold = case
    assert_label_path_matches_reference(match, mapping, gold, seed, lam)


def _case(dense, class_of, c):
    dense = np.asarray(dense, dtype=np.int64).reshape(len(dense), len(class_of))
    match = match_from_dense(dense)
    return match, MappingMatrix(c=c, class_of=np.asarray(class_of, dtype=np.int64))


CORNER_CASES = {
    "no rows": _case(np.zeros((0, 3)), [0, 1, 1], 2),
    "no pairs": _case(np.zeros((5, 3)), [0, 1, 2], 3),
    "all tied": _case(np.ones((6, 3)), [0, 1, 2], 3),
    "tied and unmatched rows": _case(
        [[1, 1, 0, 0], [0, 0, 0, 0], [1, 0, 1, 1], [0, 0, 0, 0], [0, 1, 1, 0]],
        [0, 1, 2, 2],
        3,
    ),
    "one class": _case([[1, 0], [0, 0], [1, 1]], [0, 0], 1),
    "classes owning no LF": _case([[1, 0], [0, 1], [0, 0], [1, 1]], [1, 3], 5),
}


@pytest.mark.parametrize("name", sorted(CORNER_CASES))
@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_label_path_corner_cases_equal_dense_reference(name, seed):
    match, mapping = CORNER_CASES[name]
    gold = [k % mapping.c for k in range(match.n)]
    for lam in (0.0, 0.3, 1.0):
        assert_label_path_matches_reference(match, mapping, gold, seed, lam)


@pytest.mark.parametrize("c", [2, 3, 8])
def test_majority_vote_equals_tie_loop_on_many_rows(c):
    # 850-1200 ambiguous rows per seed, with every tie count from 2 to c
    rng = np.random.default_rng(c)
    class_of = np.arange(2 * c) % c
    for seed in range(4):
        dense = (rng.random((2000, 2 * c)) < 0.3).astype(np.int64)
        match = match_from_dense(dense)
        mapping = MappingMatrix(c=c, class_of=class_of)
        preds, state = majority_vote_and_state(match, mapping, seed)
        ref_preds, ref_state = dense_majority_vote(match, mapping, seed)
        assert_same_arrays(preds, ref_preds)
        assert state == ref_state


def test_all_tied_rows_consume_one_draw_each_in_row_order():
    match, mapping = CORNER_CASES["all tied"]
    rng = stream(5, "mv-ties")
    expected = [rng.choice(np.arange(3)) for _ in range(match.n)]
    assert majority_vote(match, mapping, seed=5).tolist() == expected


def test_label_path_never_densifies_matches(monkeypatch):
    match, mapping = CORNER_CASES["tied and unmatched rows"]

    def refuse(self):
        raise AssertionError("MatchMatrix.to_dense called on the label path")

    monkeypatch.setattr(MatchMatrix, "to_dense", refuse)
    majority_vote(match, mapping, seed=3)
    compute_stats(match, mapping, gold=[0, 1, 2, 0, 1])
    noised = inject_noise(match, mapping, 0.5, np.random.default_rng(3))
    build_targets(noised)


@pytest.mark.parametrize(
    "call",
    [
        lambda match, mapping: majority_vote(match, mapping, seed=0),
        lambda match, mapping: compute_stats(match, mapping),
        lambda match, mapping: inject_noise(match, mapping, 0.1, np.random.default_rng(0)),
    ],
    ids=["majority_vote", "compute_stats", "inject_noise"],
)
def test_label_path_dimension_mismatch_message(call):
    match, _ = CORNER_CASES["no pairs"]
    mapping = MappingMatrix(c=2, class_of=np.array([0, 1]))
    with pytest.raises(DataError, match=r"^LF dimension mismatch: matches have m=3, mapping m=2$"):
        call(match, mapping)
