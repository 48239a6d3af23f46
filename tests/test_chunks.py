"""Passes over a whole split in row chunks, checked against one-pass references.

``memorization_report`` and ``predict_batch`` run the model through
``sepll.model.forward_chunks``, ``inject_noise`` draws its noise in
``row_chunks``, and each training batch builds the targets of its own rows.
The references below do the same work in one pass, as the code did before it
was chunked. With ``ROW_CHUNK`` patched small they must agree bitwise at and
around chunk multiples; the forward pass itself is compared at the real
``ROW_CHUNK``, where the assumption documented beside it holds.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from conftest import match_to_dense
from hypothesis import given, settings, strategies as st
from test_label_path import assert_same_arrays, dense_inject_noise

import sepll.trainer
from sepll import model
from sepll.data import MappingMatrix, MatchMatrix, build_targets
from sepll.encoder import EncoderConfig
from sepll.evaluation import lf_match_predict, memorization_report
from sepll.model import ce_loss, forward_batch, forward_chunks, init_params, predict_batch
from sepll.nnet import CSRMatrix, softmax
from sepll.seeds import stream
from sepll.trainer import TrainConfig, _fit, inject_noise

SMALL_CHUNK = 3
SMALL_ENC = EncoderConfig(hidden=(6,), dim=4)


def binary_cells_macro_f1(pred: np.ndarray, true: np.ndarray) -> float:
    """Macro F1 over the two cell classes (no-match, match), flattened."""
    pred = pred.reshape(-1)
    true = true.reshape(-1)
    f1s = []
    for cls in (0, 1):
        tp = float(((pred == cls) & (true == cls)).sum())
        fp = float(((pred == cls) & (true != cls)).sum())
        fn = float(((pred != cls) & (true == cls)).sum())
        denom = 2 * tp + fp + fn
        f1s.append(2 * tp / denom if denom > 0 else 0.0)
    return float(np.mean(f1s))


def one_pass_memorization_cells(traces, match: MatchMatrix, class_of: np.ndarray, k: int) -> dict:
    """The report's cells from the whole split's forward outputs at once, with a
    dense truth array."""
    lf_logits, task_logits, q = (np.concatenate([getattr(t, f) for t in traces]) for f in ("lf_logits", "task_logits", "q"))
    probs = {"lf_latent": softmax(lf_logits), "full": q, "task_mapped": softmax(task_logits[:, class_of])}
    true = match_to_dense(match)
    matched = match.row_counts() > 0
    p_rows = build_targets(match)[matched]
    cells = {}
    for name, pr in probs.items():
        binary = lf_match_predict(pr, k)
        cells[f"{name}.accuracy"] = float((binary == true).mean())
        cells[f"{name}.macro_f1"] = binary_cells_macro_f1(binary, true)
        cells[f"{name}.cross_entropy"] = ce_loss(pr[matched], p_rows)
    cells["uniform.cross_entropy"] = float(-(p_rows * math.log(1.0 / match.m)).sum(axis=1).mean())
    return cells


def random_csr(rng: np.random.Generator, n: int, V: int, nnz: int = 4) -> CSRMatrix:
    cols = np.sort(np.stack([rng.choice(V, size=nnz, replace=False) for _ in range(n)]), axis=1)
    return CSRMatrix(rng.random(n * nnz), cols.ravel(), np.arange(0, n * nnz + 1, nnz), (n, V))


def one_hot(k: int, n: int) -> CSRMatrix:
    """k rows over n columns; row i has its one nonzero in column i % n, which names it."""
    return CSRMatrix(np.ones(k), np.arange(k) % n, np.arange(k + 1), (k, n))


@settings(max_examples=60)
@given(
    k=st.integers(0, 4),
    d=st.sampled_from((-1, 0, 1)),
    seed=st.integers(0, 2**16),
    density=st.sampled_from((0.0, 0.2, 0.6)),
)
def test_small_chunks_equal_one_pass(k, d, seed, density):
    n = max(k * SMALL_CHUNK + d, 1)
    rng = np.random.default_rng(seed)
    c, m = 3, 7
    mapping = MappingMatrix(c=c, class_of=np.arange(m) % c)
    match = MatchMatrix(n=n, m=m, pairs=np.argwhere(rng.random((n, m)) < density))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "ROW_CHUNK", SMALL_CHUNK)

        # the memorization cells, against a one-pass reference from the same forward outputs
        params = init_params(20, mapping, SMALL_ENC, rng=np.random.default_rng(seed))
        X = random_csr(rng, n, 20)
        traces = forward_chunks(params, X, lambda rows, trace: trace)
        if match.pairs.size:
            report = memorization_report(params, X, match, k=2)
            want = one_pass_memorization_cells(traces, match, mapping.class_of, k=2)
            assert {key: repr(v) for key, v in report.cells().items()} == {key: repr(v) for key, v in want.items()}

        # the noise, against one (n, m) draw from the same stream
        rng_a, rng_b = stream(seed, "noise"), stream(seed, "noise")
        noised = inject_noise(match, mapping, 0.5, rng_a)
        assert_same_arrays(noised.pairs, dense_inject_noise(match, mapping, 0.5, rng_b).pairs)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

        # each training batch's targets, against rows of the whole epoch's targets
        batches = []

        def spy(params, X, targets, **kwargs):
            batches.append((X.indices, targets))
            return model.backward(params, X, targets, **kwargs)

        mp.setattr(sepll.trainer, "backward", spy)
        cfg = TrainConfig(max_epochs=2, patience=2, batch_size=2, noise_lambda=0.5, seed=seed)
        _fit(one_hot(n, n), one_hot(2, n), np.array([0, 1]), match, mapping, cfg, SMALL_ENC, None)
        rng_noise = stream(seed, "noise")
        epochs = [build_targets(dense_inject_noise(match, mapping, 0.5, rng_noise)) for _ in range(2)]
        assert sum(rows.size for rows, _ in batches) == 2 * n
        seen = 0
        for rows, targets in batches:
            assert_same_arrays(targets, epochs[seen // n][rows])
            seen += rows.size


# the models of the two benchmark workloads: (vocabulary, classes, LFs)
WORKLOAD_SHAPES = {"wide-vocab": (4000, 4, 20), "rules-large": (4000, 7, 70)}


@settings(max_examples=20)
@given(
    k=st.integers(1, 3),  # up to 3,073 rows: the bound documented beside ROW_CHUNK starts at 3,907
    d=st.sampled_from((-1, 0, 1)),
    shape=st.sampled_from(sorted(WORKLOAD_SHAPES)),
    seed=st.integers(0, 2**16),
)
def test_forward_chunks_equal_one_pass(k, d, shape, seed):
    n = k * model.ROW_CHUNK + d
    V, c, m = WORKLOAD_SHAPES[shape]
    rng = np.random.default_rng(seed)
    params = init_params(V, MappingMatrix(c=c, class_of=np.arange(m) % c), EncoderConfig(), rng=rng)
    X = random_csr(rng, n, V, nnz=8)
    one = forward_batch(params, X)
    traces = forward_chunks(params, X, lambda rows, trace: trace)
    sizes = [t.z.shape[0] for t in traces]
    assert sum(sizes) == n and min(n, model.ROW_CHUNK) <= min(sizes) <= max(sizes) < 2 * model.ROW_CHUNK
    for field in ("z", "task_logits", "lf_logits", "combined_logits", "q", "task_probs"):
        assert_same_arrays(np.concatenate([getattr(t, field) for t in traces]), getattr(one, field))
    assert_same_arrays(predict_batch(params, X), np.argmax(one.task_logits, axis=1))
