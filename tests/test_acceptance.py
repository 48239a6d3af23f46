"""Acceptance suite: one test per shipping criterion, each printing a verdict line.

The 5-seed sweep fixture trains the full and basic routing variants on the
default synthetic fixture (one shared run feeds criteria 3, 4, and 5).
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import conftest
import numpy as np
import pytest
from conftest import densify, match_from_dense, match_to_dense

from sepll.data import (
    MappingMatrix,
    SynthSpec,
    build_targets,
    load_dataset,
    synth_dataset,
    to_one_class_lfs,
)
from sepll.encoder import EncoderConfig, featurize_split
from sepll.evaluation import memorization_report
from sepll.lf_engine import majority_vote
from sepll.model import ModelConfig, backward, forward_batch, init_params, param_items
from sepll.nnet import softmax
from sepll.seeds import stream
from sepll.trainer import TrainConfig, ablation_config, inject_noise, train

SEEDS = (0, 1, 2, 3, 4)


def verdict(criterion: str, ok: bool, detail: str) -> None:
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared 5-seed sweep (criteria 3, 4, 5)


@dataclass(frozen=True)
class SeedRun:
    seed: int
    mv_test_acc: float
    sepll_test_acc: float
    full_dev: float
    basic_dev: float
    ce_full: float
    ce_task_mapped: float
    ce_uniform: float


@pytest.fixture(scope="module")
def sweep():
    runs = []
    full_seconds = 0.0
    for seed in SEEDS:
        splits = synth_dataset(SynthSpec(), seed=seed)
        conv = to_one_class_lfs(splits)
        test_gold = np.array([s.gold_label for s in splits.test], dtype=np.int64)
        mv_preds = majority_vote(conv.match["test"], conv.mapping, seed=seed)
        mv_acc = float((mv_preds == test_gold).mean())

        t0 = time.perf_counter()
        params, history, vocab = train(
            splits, conv.match["train"], conv.mapping, TrainConfig(seed=seed)
        )
        full_seconds += time.perf_counter() - t0

        X_test = featurize_split(splits.tokens("test"), vocab)
        from sepll.model import predict_batch

        sep_acc = float((predict_batch(params, X_test) == test_gold).mean())

        X_train = featurize_split(splits.tokens("train"), vocab)
        mem = memorization_report(params, X_train, conv.match["train"])

        basic_cfg = ablation_config(TrainConfig(seed=seed), "basic")
        _, basic_history, _ = train(
            splits, conv.match["train"], conv.mapping, basic_cfg
        )

        runs.append(
            SeedRun(
                seed=seed,
                mv_test_acc=mv_acc,
                sepll_test_acc=sep_acc,
                full_dev=history.best_dev_metric,
                basic_dev=basic_history.best_dev_metric,
                ce_full=mem.paths["full"].cross_entropy,
                ce_task_mapped=mem.paths["task_mapped"].cross_entropy,
                ce_uniform=mem.uniform_ce,
            )
        )
    return runs, full_seconds


# ---------------------------------------------------------------------------
# criterion 1: analytic gradients match finite differences


def test_criterion_1_gradient_check():
    input_dim, hidden, d, c, m = 6, 8, 4, 2, 3
    mapping = MappingMatrix(c=c, class_of=np.array([0, 1, 1], dtype=np.int64))
    enc_cfg = EncoderConfig(max_features=50, hidden=(hidden,), dim=d, nonlinearity="tanh")
    params = init_params(input_dim, mapping, enc_cfg, ModelConfig(), np.random.default_rng(0))
    rng = np.random.default_rng(1)
    X = rng.normal(size=(5, input_dim))
    raw = rng.random((5, m))
    targets = raw / raw.sum(axis=1, keepdims=True)

    t0 = time.perf_counter()
    _, grad = backward(params, X, targets)
    eps = 1e-6
    worst = 0.0
    checked = 0
    for (name, arr), (_, g) in zip(param_items(params), param_items(params, densify(params, grad))):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + eps
            up, _ = backward(params, X, targets)
            arr[idx] = orig - eps
            dn, _ = backward(params, X, targets)
            arr[idx] = orig
            fd = (up - dn) / (2.0 * eps)
            rel = abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-6)
            worst = max(worst, rel)
            checked += 1
    elapsed = time.perf_counter() - t0
    verdict(
        "criterion 1 (gradient check)",
        worst <= 1e-4 and elapsed < 5.0,
        f"{checked} params, worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# criterion 2: core numerics against brute-force oracles


def test_criterion_2_numeric_oracles():
    rng = np.random.default_rng(42)
    n = 1000

    # softmax rows vs direct exponential normalization
    logits = rng.uniform(-30.0, 30.0, size=(n, 5))
    ours = softmax(logits)
    worst_softmax = 0.0
    for i in range(n):
        exps = [math.exp(v - max(logits[i])) for v in logits[i]]
        total = sum(exps)
        for j in range(5):
            worst_softmax = max(worst_softmax, abs(ours[i, j] - exps[j] / total))

    # batch cross entropy vs scalar double loop
    q = softmax(rng.normal(size=(n, 6)))
    raw = rng.random((n, 6))
    targets = raw / raw.sum(axis=1, keepdims=True)
    from sepll.model import ce_loss

    brute = 0.0
    for i in range(n):
        for j in range(6):
            brute -= targets[i, j] * math.log(q[i, j])
    ce_err = abs(ce_loss(q, targets) - brute / n)

    # majority vote vs exhaustive counting
    dense = (rng.random((n, 7)) < 0.4).astype(np.int64)
    class_of = rng.integers(0, 3, size=7)
    match = match_from_dense(dense)
    mapping = MappingMatrix(c=3, class_of=class_of)
    preds = majority_vote(match, mapping, seed=0)
    preds_again = majority_vote(match, mapping, seed=0)
    mv_ok = bool(np.array_equal(preds, preds_again))
    for i in range(n):
        counts = [0, 0, 0]
        for j in range(7):
            if dense[i, j]:
                counts[class_of[j]] += 1
        best = max(counts)
        tied = [k for k in range(3) if counts[k] == best]
        if len(tied) == 1:
            mv_ok = mv_ok and preds[i] == tied[0]
        else:
            mv_ok = mv_ok and preds[i] in tied

    # combined logits vs per-cell recombination of the two branches
    enc_cfg = EncoderConfig(max_features=50, hidden=(8,), dim=4)
    params = init_params(6, mapping, enc_cfg, ModelConfig(), np.random.default_rng(3))
    X = rng.normal(size=(n, 6))
    trace = forward_batch(params, X)
    worst_comb = 0.0
    for i in range(0, n, 97):  # spot rows exactly, all rows vectorized below
        for j in range(7):
            direct = trace.lf_logits[i, j] + trace.task_logits[i, class_of[j]]
            worst_comb = max(worst_comb, abs(trace.combined_logits[i, j] - direct))
    T = mapping.to_dense()
    worst_comb = max(
        worst_comb,
        float(np.max(np.abs(trace.combined_logits - (trace.task_logits @ T.T + trace.lf_logits)))),
    )

    ok = worst_softmax <= 1e-10 and ce_err <= 1e-10 and mv_ok and worst_comb <= 1e-10
    verdict(
        "criterion 2 (numeric oracles)",
        ok,
        f"softmax {worst_softmax:.1e}, ce {ce_err:.1e}, mv exact {mv_ok}, recombination {worst_comb:.1e}",
    )


# ---------------------------------------------------------------------------
# criteria 3-5: the 5-seed synthetic sweep


def test_criterion_3_beats_majority_vote(sweep):
    runs, full_seconds = sweep
    wins = sum(1 for r in runs if r.sepll_test_acc > r.mv_test_acc)
    mean_acc = float(np.mean([r.sepll_test_acc for r in runs]))
    ok = wins >= 4 and mean_acc >= 0.85 and full_seconds < 120.0
    detail = (
        f"wins {wins}/5, mean test acc {mean_acc:.4f}, "
        f"mv {[round(r.mv_test_acc, 3) for r in runs]}, "
        f"sepll {[round(r.sepll_test_acc, 3) for r in runs]}, {full_seconds:.1f}s"
    )
    verdict("criterion 3 (beats majority vote)", ok, detail)


def test_criterion_4_routing_helps_dev(sweep):
    runs, _ = sweep
    full_mean = float(np.mean([r.full_dev for r in runs]))
    basic_mean = float(np.mean([r.basic_dev for r in runs]))
    verdict(
        "criterion 4 (full >= basic on dev)",
        full_mean >= basic_mean,
        f"full mean {full_mean:.4f} vs basic mean {basic_mean:.4f}",
    )


def test_criterion_5_information_ordering(sweep):
    runs, _ = sweep
    holds = sum(
        1 for r in runs if r.ce_full <= r.ce_task_mapped <= r.ce_uniform
    )
    detail = ", ".join(
        f"seed {r.seed}: {r.ce_full:.4f} <= {r.ce_task_mapped:.4f} <= {r.ce_uniform:.4f}"
        for r in runs
    )
    verdict(
        "criterion 5 (match-info ordering)", holds >= 4, f"holds {holds}/5; {detail}"
    )


# ---------------------------------------------------------------------------
# criterion 6: noise injection rate


def test_criterion_6_noise_rate_monte_carlo():
    n = 100_000
    dense = np.zeros((n, 4), dtype=np.int64)
    dense[:, 0] = 1  # class 0 seeded everywhere; LF1 is the eligible sibling
    match = match_from_dense(dense)
    mapping = MappingMatrix(c=2, class_of=np.array([0, 0, 1, 1]))
    results = []
    ok = True
    for lam in (0.05, 0.1, 0.2):
        out = match_to_dense(inject_noise(match, mapping, lam, stream(17, "noise")))
        added = int(out[:, 1].sum())
        cross_class = int(out[:, 2:].sum())
        sigma = math.sqrt(n * lam * (1.0 - lam))
        dev = abs(added - n * lam)
        ok = ok and dev <= 3.0 * sigma and cross_class == 0
        results.append(f"lambda {lam}: {added} added, |dev| {dev:.0f} <= {3 * sigma:.0f}")
    verdict("criterion 6 (noise Monte Carlo)", ok, "; ".join(results))


# ---------------------------------------------------------------------------
# criterion 7: named invariants, 100 cases each


def test_criterion_7_invariants():
    cases = 100
    failures = []

    rng = np.random.default_rng(7)
    # target rows always sum to one, unmatched rows uniform
    for _ in range(cases):
        n, m = int(rng.integers(1, 20)), int(rng.integers(1, 10))
        dense = (rng.random((n, m)) < 0.4).astype(np.int64)
        targets = build_targets(match_from_dense(dense))
        if not np.allclose(targets.sum(axis=1), 1.0, atol=1e-9):
            failures.append("row-normalization")
            break
        unmatched = dense.sum(axis=1) == 0
        if not np.all(targets[unmatched] == 1.0 / m):
            failures.append("uniform-unmatched")
            break

    # the class routing matrix is exactly one-hot per LF
    for _ in range(cases):
        c = int(rng.integers(2, 6))
        m = int(rng.integers(1, 12))
        mapping = MappingMatrix(c=c, class_of=rng.integers(0, c, size=m))
        dense = mapping.to_dense()
        if not (np.all(dense.sum(axis=1) == 1.0) and np.all((dense == 0) | (dense == 1))):
            failures.append("mapping-one-hot")
            break

    # softmax is shift invariant and never changes the argmax
    for _ in range(cases):
        row = rng.normal(size=int(rng.integers(2, 9))) * 10.0
        shift = float(rng.uniform(-50.0, 50.0))
        p1, p2 = softmax(row), softmax(row + shift)
        if not (np.allclose(p1, p2, atol=1e-12) and np.argmax(p1) == np.argmax(row)):
            failures.append("softmax-shift-invariance")
            break

    # permuting LF columns permutes combined logits the same way
    mapping = MappingMatrix(c=2, class_of=np.array([0, 0, 1, 1, 1]))
    enc_cfg = EncoderConfig(max_features=20, hidden=(), dim=3)
    params = init_params(4, mapping, enc_cfg, ModelConfig(), np.random.default_rng(0))
    for _ in range(cases):
        X = rng.normal(size=(3, 4))
        perm = rng.permutation(5)
        trace = forward_batch(params, X)
        import copy

        permuted = copy.deepcopy(params)
        permuted.lf_head[-1].W[:] = params.lf_head[-1].W[:, perm]
        permuted.lf_head[-1].b[:] = params.lf_head[-1].b[perm]
        permuted.mapping = MappingMatrix(c=2, class_of=mapping.class_of[perm])
        trace_p = forward_batch(permuted, X)
        if not np.allclose(trace_p.combined_logits, trace.combined_logits[:, perm], atol=1e-12):
            failures.append("permutation-equivariance")
            break

    # everything seeded is bitwise reproducible under the same root seed
    for case in range(cases):
        a = synth_dataset(SynthSpec(n_train=8, n_dev=2, n_test=2), seed=case)
        b = synth_dataset(SynthSpec(n_train=8, n_dev=2, n_test=2), seed=case)
        same = a.train == b.train and np.array_equal(
            a.raw_weak_labels["train"], b.raw_weak_labels["train"]
        )
        dense = (np.random.default_rng(case).random((6, 4)) < 0.5).astype(np.int64)
        match = match_from_dense(dense)
        mp = MappingMatrix(c=2, class_of=np.array([0, 0, 1, 1]))
        same = same and np.array_equal(
            majority_vote(match, mp, seed=case), majority_vote(match, mp, seed=case)
        )
        same = same and inject_noise(match, mp, 0.3, stream(case, "noise")) == inject_noise(
            match, mp, 0.3, stream(case, "noise")
        )
        if not same:
            failures.append("determinism-under-seed")
            break

    verdict(
        "criterion 7 (invariants, 100 cases each)",
        not failures,
        "all invariants held" if not failures else f"failed: {failures}",
    )


# ---------------------------------------------------------------------------
# criterion 8: real Wrench-format benchmark (optional)


def _youtube_dir() -> Path | None:
    env = os.environ.get("SEPLL_YOUTUBE_DIR")
    candidates = [Path(env)] if env else []
    candidates.append(Path(__file__).resolve().parent.parent / "datasets" / "youtube")
    for cand in candidates:
        if cand.is_dir() and (cand / "train.json").exists():
            return cand
    return None


def test_criterion_8_youtube_benchmark():
    root = _youtube_dir()
    if root is None:
        line = "[acceptance] criterion 8 (youtube benchmark): SKIP (dataset not present)"
        print(line)
        conftest.ACCEPTANCE_LINES.append(line)
        pytest.skip("youtube dataset not present (set SEPLL_YOUTUBE_DIR to enable)")
    splits = load_dataset(root, "wrench-json")
    conv = to_one_class_lfs(splits)
    coverage = float((conv.match["train"].row_counts() > 0).mean())
    test_gold = np.array([s.gold_label for s in splits.test], dtype=np.int64)
    mv_acc = float(
        (majority_vote(conv.match["test"], conv.mapping, seed=0) == test_gold).mean()
    )
    params, _, vocab = train(splits, conv.match["train"], conv.mapping, TrainConfig(seed=0))
    from sepll.model import predict_batch

    X_test = featurize_split(splits.tokens("test"), vocab)
    sep_acc = float((predict_batch(params, X_test) == test_gold).mean())
    ok = abs(coverage - 0.88) <= 0.01 and abs(mv_acc - 0.84) <= 0.02 and sep_acc >= mv_acc
    verdict(
        "criterion 8 (youtube benchmark)",
        ok,
        f"coverage {coverage:.3f}, mv {mv_acc:.3f}, sepll {sep_acc:.3f}",
    )
