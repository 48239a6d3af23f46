from __future__ import annotations

import json
import math

import numpy as np
import pytest
from conftest import densify, traced_peak
from hypothesis import given, settings, strategies as st

from sepll.data import MappingMatrix
from sepll.encoder import EncoderConfig, Vocabulary
from sepll.errors import ConfigError, DataError, NumericalError
from sepll.model import (
    ModelConfig,
    backward,
    ce_loss,
    clone_params,
    forward_batch,
    init_params,
    load_checkpoint,
    param_items,
    predict_batch,
    save_checkpoint,
)
from sepll.nnet import CSRMatrix
from sepll.nnet import softmax as softmax_rows

SOFT_21 = (0.7310585786300049, 0.2689414213699951)  # softmax([2, 1])
LN2 = 0.6931471805599453


def tiny_params(c=2, m=3, d=4, hidden=(), rng_seed=0, class_of=(0, 1, 1)):
    mapping = MappingMatrix(c=c, class_of=np.array(class_of, dtype=np.int64))
    enc_cfg = EncoderConfig(max_features=50, hidden=hidden, dim=d, nonlinearity="tanh")
    return init_params(
        d + 1, mapping, enc_cfg, ModelConfig(), np.random.default_rng(rng_seed)
    )


def zeroed_heads(params, task_bias, lf_bias):
    """Zero all weights so logits come straight from the head biases."""
    for layer in params.encoder:
        layer.W[:] = 0.0
        layer.b[:] = 0.0
    for head, bias in ((params.task_head, task_bias), (params.lf_head, lf_bias)):
        for layer in head:
            layer.W[:] = 0.0
            layer.b[:] = 0.0
        head[-1].b[:] = np.asarray(bias, dtype=float)
    return params


# ---------------------------------------------------------------------------
# forward


def test_combined_logits_hand_example():
    # task logits [2, 1], lf logits [0.5, -0.5, 0], class_of = (0, 1, 1)
    # combined_j = lf_j + task_{class_of(j)} -> [2.5, 0.5, 1.0]
    params = zeroed_heads(tiny_params(), task_bias=[2.0, 1.0], lf_bias=[0.5, -0.5, 0.0])
    trace = forward_batch(params, np.zeros((1, 5)))
    assert np.allclose(trace.task_logits, [[2.0, 1.0]], atol=1e-15)
    assert np.allclose(trace.lf_logits, [[0.5, -0.5, 0.0]], atol=1e-15)
    assert np.allclose(trace.combined_logits, [[2.5, 0.5, 1.0]], atol=1e-15)
    assert np.allclose(trace.q.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(softmax_rows(trace.task_logits).sum(axis=1), 1.0, atol=1e-12)


def test_task_probs_frozen_softmax_oracle():
    params = zeroed_heads(tiny_params(), task_bias=[2.0, 1.0], lf_bias=[0.0, 0.0, 0.0])
    trace = forward_batch(params, np.zeros((1, 5)))
    task_probs = softmax_rows(trace.task_logits)
    assert abs(task_probs[0, 0] - SOFT_21[0]) <= 1e-15
    assert abs(task_probs[0, 1] - SOFT_21[1]) <= 1e-15


def test_softmax_rows_shift_invariant_and_stable():
    logits = np.array([[1000.0, 1000.0, 999.0], [-1000.0, -1001.0, -1002.0]])
    p = softmax_rows(logits)
    assert np.all(np.isfinite(p))
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    shifted = softmax_rows(logits + 123.456)
    assert np.allclose(p, shifted, atol=1e-12)


def test_recombination_equals_dense_matmul(rng):
    params = tiny_params(c=3, m=7, d=6, hidden=(8,), class_of=tuple(int(v) for v in np.random.default_rng(5).integers(0, 3, 7)))
    X = rng.normal(size=(11, 7))
    trace = forward_batch(params, X)
    T = params.mapping.to_dense()
    expected = trace.task_logits @ T.T + trace.lf_logits
    assert np.array_equal(trace.combined_logits, trace.lf_logits + trace.task_logits[:, params.mapping.class_of])
    assert np.allclose(trace.combined_logits, expected, atol=1e-12)


def test_forward_single_matches_batch(rng):
    # each row's outputs depend on that row alone
    params = tiny_params(d=4, hidden=(6,))
    X = rng.normal(size=(3, 5))
    batch = forward_batch(params, X)
    for i in range(3):
        single = forward_batch(params, X[i : i + 1])
        assert np.allclose(single.q, batch.q[i : i + 1], atol=1e-15)
        assert np.allclose(single.task_logits, batch.task_logits[i : i + 1], atol=1e-15)


def test_forward_accepts_feature_vector():
    from sepll.encoder import featurize_split, fit_vocabulary

    vocab = fit_vocabulary(["a b c d e", "a b"])
    mapping = MappingMatrix(c=2, class_of=np.array([0, 1, 1]))
    enc_cfg = EncoderConfig(max_features=50, hidden=(), dim=4)
    params = init_params(len(vocab), mapping, enc_cfg, rng=np.random.default_rng(0))
    X = featurize_split(["a b"], vocab)
    trace = forward_batch(params, X)
    dense = np.zeros((1, len(vocab)))
    dense[0, X.indices] = X.data
    ref = forward_batch(params, dense)
    assert np.allclose(trace.q, ref.q, atol=1e-15)


def test_non_finite_input_raises():
    params = tiny_params()
    X = np.zeros((1, 5))
    X[0, 0] = np.nan
    with pytest.raises(NumericalError):
        forward_batch(params, X)


# ---------------------------------------------------------------------------
# loss


def test_ce_loss_uniform_targets_uniform_q_is_ln_m():
    q = np.full((4, 5), 0.2)
    targets = np.full((4, 5), 0.2)
    assert ce_loss(q, targets) == pytest.approx(math.log(5), abs=1e-12)


def test_ce_loss_perfect_onehot_is_zero():
    q = np.array([[1.0, 0.0], [0.0, 1.0]])
    targets = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert ce_loss(q, targets) == pytest.approx(0.0, abs=1e-9)


def test_ce_loss_half_mass_is_ln2():
    q = np.array([[0.5, 0.5]])
    targets = np.array([[1.0, 0.0]])
    assert ce_loss(q, targets) == pytest.approx(LN2, abs=1e-15)


def test_ce_loss_is_batch_mean():
    q = np.array([[0.5, 0.5], [1.0, 0.0]])
    targets = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert ce_loss(q, targets) == pytest.approx(LN2 / 2, abs=1e-9)


def test_ce_loss_brute_force_oracle(rng):
    n, m = 50, 6
    logits = rng.normal(size=(n, m))
    q = softmax_rows(logits)
    raw = rng.random((n, m))
    targets = raw / raw.sum(axis=1, keepdims=True)
    total = 0.0
    for i in range(n):
        for j in range(m):
            total -= targets[i, j] * math.log(q[i, j])
    assert ce_loss(q, targets) == pytest.approx(total / n, abs=1e-10)


def test_ce_loss_shape_mismatch():
    with pytest.raises(DataError):
        ce_loss(np.ones((2, 3)) / 3, np.ones((2, 2)) / 2)
    with pytest.raises(DataError):
        ce_loss(np.empty((0, 3)), np.empty((0, 3)))


@pytest.mark.parametrize("shape", [(3,), (), (1, 1, 3)])
def test_ce_loss_and_backward_reject_input_that_is_not_2d(shape):
    q = np.full(shape, 1.0 / 3)
    with pytest.raises(DataError, match="2-D"):
        ce_loss(q, q)
    params = tiny_params()
    with pytest.raises(DataError, match="shape mismatch"):
        backward(params, np.ones((1, params.dims[0][0])), q)
    with pytest.raises(DataError, match="empty batch"):
        backward(params, np.ones((0, params.dims[0][0])), np.ones((0, 3)))


# ---------------------------------------------------------------------------
# prediction


def test_task_predict_ignores_lf_head():
    params = zeroed_heads(tiny_params(), task_bias=[1.0, 3.0], lf_bias=[99.0, -99.0, 0.0])
    preds = predict_batch(params, np.zeros((4, 5)))
    assert preds.tolist() == [1, 1, 1, 1]


def test_task_predict_tie_takes_lowest_index():
    params = zeroed_heads(tiny_params(), task_bias=[0.5, 0.5], lf_bias=[9.0, 0.0, 0.0])
    assert predict_batch(params, np.zeros((2, 5))).tolist() == [0, 0]
    params.task_head[0].b[:] = [0.25, 0.5]
    assert predict_batch(params, np.zeros((1, 5))).tolist() == [1]


# ---------------------------------------------------------------------------
# backward


def test_backward_zero_gradient_when_q_equals_targets():
    # With q == P the combined-logit residual vanishes, so every head
    # gradient that flows only through the CE term must be zero.
    params = zeroed_heads(tiny_params(), task_bias=[0.0, 0.0], lf_bias=[0.0, 0.0, 0.0])
    X = np.zeros((2, 5))
    targets = np.full((2, 3), 1.0 / 3.0)
    loss, grad = backward(params, X, targets)
    assert loss == pytest.approx(math.log(3), abs=1e-12)
    for name, g in param_items(params, densify(params, grad)):
        assert np.allclose(g, 0.0, atol=1e-12), name


def test_backward_lf_bias_gradient_is_residual():
    params = zeroed_heads(tiny_params(), task_bias=[2.0, 1.0], lf_bias=[0.5, -0.5, 0.0])
    X = np.zeros((1, 5))
    targets = np.array([[1.0, 0.0, 0.0]])
    trace = forward_batch(params, X)
    _, grad = backward(params, X, targets)
    grads = dict(param_items(params, densify(params, grad)))
    residual = trace.q[0] - targets[0]
    assert np.allclose(grads["lf.0.b"], residual, atol=1e-12)
    T = params.mapping.to_dense()
    assert np.allclose(grads["task.0.b"], residual @ T, atol=1e-12)


def test_backward_loss_matches_forward_ce(rng):
    params = tiny_params(d=4, hidden=(6,))
    X = rng.normal(size=(8, 5))
    raw = rng.random((8, 3))
    targets = raw / raw.sum(axis=1, keepdims=True)
    trace = forward_batch(params, X)
    loss, _ = backward(params, X, targets)
    assert loss == pytest.approx(ce_loss(trace.q, targets), abs=1e-12)


def fd_check(params, X, targets, penalty=0.0, tol=1e-4):
    def objective():
        loss, _ = backward(params, X, targets, l2_lf=penalty, l2_lf_target="activations")
        return loss if penalty == 0.0 else loss_with_penalty(params, X, targets, penalty)

    # backward returns the CE-only loss; with an activation penalty the FD
    # objective must add the penalty term explicitly
    def loss_with_penalty(params, X, targets, penalty):
        trace = forward_batch(params, X)
        base = ce_loss(trace.q, targets)
        return base + penalty * float(np.mean(np.sum(trace.lf_logits ** 2, axis=1)))

    _, grad = backward(params, X, targets, l2_lf=penalty, l2_lf_target="activations")
    grads = dict(param_items(params, densify(params, grad)))
    eps = 1e-6
    worst = 0.0
    for name, arr in param_items(params):
        g = grads[name]
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + eps
            up = objective()
            arr[idx] = orig - eps
            dn = objective()
            arr[idx] = orig
            fd = (up - dn) / (2 * eps)
            denom = max(abs(fd), abs(g[idx]), 1e-6)
            worst = max(worst, abs(fd - g[idx]) / denom)
    assert worst < tol, worst
    return worst


def test_backward_finite_difference_small_net(rng, to_csr, native_paths):
    params = tiny_params(c=2, m=3, d=4, hidden=(5,))
    X = rng.normal(size=(3, 5))
    raw = rng.random((3, 3))
    targets = raw / raw.sum(axis=1, keepdims=True)
    fd_check(params, X, targets)
    X[np.abs(X) < 0.5] = 0.0
    for _ in native_paths():  # the sparse products
        fd_check(params, to_csr(X), targets)


def test_backward_finite_difference_with_activation_penalty(rng):
    params = tiny_params(c=2, m=3, d=4, hidden=(5,))
    X = rng.normal(size=(3, 5))
    raw = rng.random((3, 3))
    targets = raw / raw.sum(axis=1, keepdims=True)
    fd_check(params, X, targets, penalty=0.05)


@settings(max_examples=25)
@given(st.integers(0, 10_000))
def test_backward_permutation_equivariance(seed):
    # permuting LF columns (and class_of accordingly) permutes lf-head
    # output gradients and leaves encoder/task gradients unchanged
    rng = np.random.default_rng(seed)
    c, m, d = 2, 4, 3
    class_of = rng.integers(0, c, size=m)
    mapping = MappingMatrix(c=c, class_of=class_of)
    enc_cfg = EncoderConfig(max_features=20, hidden=(), dim=d)
    params = init_params(d, mapping, enc_cfg, rng=np.random.default_rng(seed + 1))
    X = rng.normal(size=(5, d))
    raw = rng.random((5, m))
    targets = raw / raw.sum(axis=1, keepdims=True)
    loss, grad = backward(params, X, targets)
    grads = dict(param_items(params, densify(params, grad)))

    perm = rng.permutation(m)
    permuted = clone_params(params)
    permuted.lf_head[-1].W[:] = params.lf_head[-1].W[:, perm]
    permuted.lf_head[-1].b[:] = params.lf_head[-1].b[perm]
    permuted.mapping = MappingMatrix(c=c, class_of=class_of[perm])
    loss_p, grad_p = backward(permuted, X, targets[:, perm])
    grads_p = dict(param_items(permuted, densify(permuted, grad_p)))

    assert loss_p == pytest.approx(loss, abs=1e-12)
    assert np.allclose(grads_p["lf.0.W"], grads["lf.0.W"][:, perm], atol=1e-12)
    assert np.allclose(grads_p["lf.0.b"], grads["lf.0.b"][perm], atol=1e-12)
    assert np.allclose(grads_p["task.0.W"], grads["task.0.W"], atol=1e-12)
    assert np.allclose(grads_p["encoder.0.W"], grads["encoder.0.W"], atol=1e-12)


def test_backward_accepts_sparse_input(rng, to_csr, native_paths):
    params = tiny_params(d=4, hidden=(6,))
    X = rng.normal(size=(5, 5))
    X[np.abs(X) < 0.7] = 0.0
    raw = rng.random((5, 3))
    targets = raw / raw.sum(axis=1, keepdims=True)
    loss_d, grad_d = backward(params, X, targets)
    assert np.array_equal(grad_d.rows, np.arange(X.shape[1]))  # a dense batch gives every row
    for path in native_paths():
        loss_s, grad_s = backward(params, to_csr(X), targets)
        assert loss_s == pytest.approx(loss_d, abs=1e-12), path
        pairs = zip(param_items(params, densify(params, grad_d)), param_items(params, densify(params, grad_s)))
        for (name, g_d), (_, g_s) in pairs:
            assert np.allclose(g_d, g_s, atol=1e-12), (path, name)


def test_backward_first_layer_rows_outside_the_batch_are_positive_zero(rng, to_csr, native_paths):
    params = tiny_params(d=4, hidden=(6,))
    X = rng.normal(size=(7, 5))
    X[:, [1, 3]] = 0.0  # two features the batch never uses
    X[np.abs(X) < 0.5] = 0.0
    raw = rng.random((7, 3))
    X_csr = to_csr(X)
    for path in native_paths():
        _, grad = backward(params, X_csr, raw / raw.sum(axis=1, keepdims=True))
        # the gradient holds exactly the used rows, so every other row is +0.0
        assert np.array_equal(grad.rows, np.unique(X_csr.indices)), path
        assert grad.first.shape == (grad.rows.size, params.dims[0][1])
        W = dict(param_items(params, densify(params, grad)))["encoder.0.W"]
        unused = np.setdiff1d(np.arange(W.shape[0]), grad.rows)
        assert {1, 3} <= set(unused.tolist())
        assert np.array_equal(W[unused].view(np.int64), np.zeros((unused.size, W.shape[1]), dtype=np.int64)), path
        # a batch that uses no feature holds no row
        _, grad = backward(params, to_csr(np.zeros_like(X)), raw / raw.sum(axis=1, keepdims=True))
        assert grad.rows.size == 0 and grad.first.shape == (0, params.dims[0][1]), path


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_backward_non_finite_first_layer_row_names_it(to_csr, native_paths):
    # feature 2 adds nothing to the forward pass (its weights are zero), but its
    # 1e308 input times a large upstream gradient overflows its gradient row
    params = tiny_params(d=4)
    params.encoder[0].W[2] = 0.0
    for layer in params.task_head + params.lf_head:
        layer.W *= 1e3
    X = np.zeros((2, 5))
    X[:, 2] = 1e308
    X[0, 0] = X[1, 4] = 1.0
    targets = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    for _ in native_paths():
        with pytest.raises(NumericalError, match=r"non-finite gradient in encoder\.0\.W"):
            backward(params, to_csr(X), targets)


def test_backward_parameters_penalty_is_two_l2_lf_theta_on_the_lf_path(rng, to_csr):
    # the "parameters" flavour adds 2 * l2_lf * theta to the LF path's gradient,
    # bit for bit, and leaves the rest of the gradient and the loss as they are
    params = tiny_params(d=4, hidden=(6,))
    X = rng.normal(size=(5, 5))
    X[np.abs(X) < 0.7] = 0.0
    raw = rng.random((5, 3))
    targets = raw / raw.sum(axis=1, keepdims=True)
    l2_lf = 0.3
    for batch in (X, to_csr(X)):
        plain_loss, plain = backward(params, batch, targets)
        loss, grad = backward(params, batch, targets, l2_lf=l2_lf, l2_lf_target="parameters")
        assert loss == plain_loss
        lf = params.lf_slice
        want = plain.rest.copy()
        want[lf.start - params.first_size :] += 2.0 * l2_lf * params.theta[lf]
        assert not np.array_equal(want, plain.rest)
        assert np.array_equal(grad.rest.view(np.int64), want.view(np.int64))
        assert np.array_equal(grad.rows, plain.rows)
        assert np.array_equal(grad.first.view(np.int64), plain.first.view(np.int64))


def test_backward_on_a_wide_sparse_batch_holds_no_first_layer_sized_array(native_paths):
    # A 16-row batch with 5 features a row uses 80 of 20,000 first-layer rows;
    # the first layer is over 98 % of theta. The traced peak of backward stays
    # below a tenth of theta; a dense first-layer gradient would put it above one
    # theta.
    V, n, nnz = 20_000, 16, 5
    mapping = MappingMatrix(c=2, class_of=np.array([0, 0, 1, 1]))
    params = init_params(V, mapping, EncoderConfig(hidden=(64,), dim=8), rng=np.random.default_rng(6))
    assert params.first_size >= 0.98 * params.theta.size
    cols = np.sort((np.arange(n)[:, None] * 37 + np.arange(nnz) * 4000) % V, axis=1)
    X = CSRMatrix(np.full(n * nnz, 0.5), cols.ravel(), np.arange(0, n * nnz + 1, nnz), (n, V))
    targets = np.full((n, 4), 0.25)
    for path in native_paths():
        (_, grad), peak = traced_peak(backward, params, X, targets)
        assert grad.rows.size == np.unique(cols).size, path
        assert peak < 0.1 * params.theta.nbytes, (path, f"peak {peak / params.theta.nbytes:.3f} thetas")


# ---------------------------------------------------------------------------
# config validation


def test_model_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(head_depth=3)
    with pytest.raises(ConfigError):
        ModelConfig(head_depth=2, head_hidden=0)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path, rng):
    params = tiny_params(c=2, m=3, d=4, hidden=(6,), rng_seed=7)
    vocab = Vocabulary(
        tokens=("a", "b", "c", "d", "e"),
        df=np.array([5, 4, 3, 2, 1], dtype=np.int64),
        n_docs=6,
        lowercase=True,
    )
    path = tmp_path / "model.sepll"
    save_checkpoint(path, params, vocab, config_echo={"train": {"seed": 3}})
    loaded, vocab2, echo = load_checkpoint(path)
    assert echo == {"train": {"seed": 3}}
    assert vocab2 == vocab
    assert loaded.mapping == params.mapping
    assert loaded.head_nonlinearity == params.head_nonlinearity
    X = rng.normal(size=(4, 5))
    a = forward_batch(params, X)
    b = forward_batch(loaded, X)
    assert np.array_equal(a.q, b.q)
    assert np.array_equal(a.task_logits, b.task_logits)


def test_checkpoint_rejects_wrong_kind(tmp_path):
    from sepll.serialize import write_container

    path = tmp_path / "bad.sepll"
    write_container(path, {"kind": "something-else"}, np.zeros(2))
    with pytest.raises(DataError):
        load_checkpoint(path)


def edited_checkpoint(tmp_path, edit, new_arrays=None):
    """Save a valid checkpoint (encoder 5 -> 6 -> 4, task 4 -> 2, LF 4 -> 3, 89
    parameters), then rewrite it with ``edit`` applied to its header and with the
    arrays in ``new_arrays`` written in place of the parameters they name."""
    from sepll.serialize import read_container, write_container

    vocab = Vocabulary(tokens=("a", "b", "c", "d", "e"), df=np.ones(5, dtype=np.int64), n_docs=6)
    path = tmp_path / "model.sepll"
    params = tiny_params(hidden=(6,))
    save_checkpoint(path, params, vocab)
    header, theta = read_container(path)
    edit(header)
    if new_arrays:
        theta = np.concatenate([np.ravel(new_arrays.get(name, view)) for name, view in param_items(params)])
    write_container(path, header, theta)
    return path


def test_checkpoint_missing_header_key_is_data_error(tmp_path):
    path = edited_checkpoint(tmp_path, lambda h: h.pop("n_classes"))
    with pytest.raises(DataError, match=r"model\.sepll: .*'n_classes'"):
        load_checkpoint(path)


def test_checkpoint_rejects_vocab_encoder_mismatch(tmp_path):
    def drop_token(header):
        header["vocab"]["tokens"] = header["vocab"]["tokens"][:-1]
        header["vocab"]["df"] = header["vocab"]["df"][:-1]

    path = edited_checkpoint(tmp_path, drop_token)
    with pytest.raises(DataError, match=r"model\.sepll: vocabulary has 4 tokens .* 5"):
        load_checkpoint(path)


def test_checkpoint_rejects_class_of_lf_head_mismatch(tmp_path):
    path = edited_checkpoint(tmp_path, lambda h: h.update(class_of=[0, 1]))
    with pytest.raises(DataError, match=r"model\.sepll: class_of has 2 entries .* width 3"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("n_classes", "x", "malformed checkpoint header"),
        ("class_of", "ab", "malformed checkpoint header"),
        ("vocab", 5, "malformed checkpoint header"),
        # a path of zero layers: fewer than two widths
        ("dims.2", [4], r"dims: the lf path needs at least two widths, each at least 1, got \[4\]"),
        ("dims.0", [5], r"dims: the encoder path needs at least two widths, each at least 1, got \[5\]"),
        ("dims.1", [], r"dims: the task path needs at least two widths, each at least 1, got \[\]"),
        ("n_classes", 0, "mapping needs at least one class"),
        ("class_of", [0, 1, 7], "mapping class index out of range"),
        ("head_nonlinearity", "swish", "unknown nonlinearity 'swish'"),
        # JSON types are checked, not coerced: int() would read 1.0 and True as 1
        ("n_classes", True, "malformed checkpoint header: 'n_classes' must be int, got bool"),
        ("dims.1.1", 2.0, "malformed checkpoint header: 'dims' must be 3 lists of int"),
        ("vocab.n_docs", "6", "malformed checkpoint header: 'n_docs' must be int, got str"),
        ("class_of", [0.5, 1.5, 1.5], "malformed checkpoint header: 'class_of' must be a list of int"),
        ("vocab.df", [1, 1, 1, 1, True], "malformed checkpoint header: 'df' must be a list of int"),
        ("vocab.df", [1, 1, 1, 1, 2**70], "malformed checkpoint header: Python int too large"),
        ("vocab.tokens", "abcde", "malformed checkpoint header: 'tokens' must be a list of str"),
        ("vocab.lowercase", "false", "malformed checkpoint header: 'lowercase' must be bool, got str"),
        ("vocab.lowercase", 0, "malformed checkpoint header: 'lowercase' must be bool, got int"),
        ("vocab.tokens", ["a", "b", "a", "d", "e"], "vocabulary repeats the token 'a'"),
        ("vocab.df", [1, 1, 1, 1], "vocabulary has 5 tokens but 4 document frequencies"),
        ("vocab.n_docs", -5, r"vocabulary document frequencies are not all in \[0, n_docs = -5\]"),
        ("vocab.df", [1, 1, -3, 1, 1], r"vocabulary document frequencies are not all in \[0, n_docs = 6\]"),
        ("vocab.df", [1, 1, 7, 1, 1], r"vocabulary document frequencies are not all in \[0, n_docs = 6\]"),
    ],
    ids=[
        "n_classes",
        "class_of",
        "vocab",
        "lf_layers",
        "encoder_layers",
        "task_layers",
        "n_classes_zero",
        "class_of_out_of_range",
        "head_nonlinearity",
        "int_is_bool",
        "int_is_float",
        "int_is_str",
        "int_list_holds_floats",
        "int_list_holds_bool",
        "int_list_overflows_int64",
        "str_list_is_a_string",
        "bool_is_str",
        "bool_is_int",
        "repeated_token",
        "df_length",
        "n_docs_negative",
        "df_negative",
        "df_above_n_docs",
    ],
)
def test_checkpoint_bad_header_value_is_data_error(tmp_path, key, value, message):
    def edit(header):
        *parents, last = (int(part) if part.isdigit() else part for part in key.split("."))
        for parent in parents:
            header = header[parent]
        header[last] = value

    path = edited_checkpoint(tmp_path, edit)
    with pytest.raises(DataError, match=rf"model\.sepll: {message}"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "dims, new_arrays, message",
    [
        # arrays whose shapes disagree with the dims: the payload has the wrong size
        (None, {"task.0.W": np.zeros((5, 2))}, "payload holds 91 values but dims need 89"),
        (None, {"lf.0.b": np.zeros(4)}, "payload holds 90 values but dims need 89"),
        (None, {"encoder.1.W": np.zeros((5, 4))}, "payload holds 85 values but dims need 89"),
        (None, {"lf.0.b": np.zeros(2)}, "payload holds 88 values but dims need 89"),
        # dims, [[5, 6, 4], [4, 2], [4, 3]] as saved, that do not chain or do not fit the mapping
        (
            [[5, 6, 3], [4, 2], [4, 3]],
            {"encoder.1.W": np.zeros((6, 3)), "encoder.1.b": np.zeros(3)},
            "dims: the task path's input is 4 wide but the encoder's output is 3",
        ),
        ([[5, 6, 4], [4, 2], [3, 3]], {}, "dims: the lf path's input is 3 wide but the encoder's output is 4"),
        ([30, [4, 2], [4, 3]], {}, "malformed checkpoint header: 'dims' must be 3 lists of int"),
        (
            [[5, 6, 4], [4, 3], [4, 3]],
            {"task.0.W": np.zeros((4, 3)), "task.0.b": np.zeros(3)},
            "n_classes is 2 but the task head has width 3",
        ),
        # dims that are not three lists of widths of at least 1
        ([[5, 6, 4], [4, 2]], {}, "malformed checkpoint header: 'dims' must be 3 lists of int"),
        (5, {}, "malformed checkpoint header: 'dims' must be 3 lists of int"),
        ([[5, 6, 4], [4, True], [4, 3]], {}, "malformed checkpoint header: 'dims' must be 3 lists of int"),
        ([[5, 0, 4], [4, 2], [4, 3]], {}, r"dims: the encoder path needs at least two widths, each at least 1"),
        ([[5, -6, 4], [4, 2], [4, 3]], {}, r"dims: the encoder path needs at least two widths, each at least 1"),
    ],
    ids=[
        "head_rows",
        "bias_length",
        "encoder_rows",
        "payload_short",
        "encoder_output",
        "lf_input",
        "not_a_matrix",
        "task_width",
        "two_paths",
        "dims_is_a_number",
        "width_is_bool",
        "width_is_zero",
        "width_is_negative",
    ],
)
def test_checkpoint_bad_array_shape_is_data_error(tmp_path, dims, new_arrays, message):
    def edit(header):
        if dims is not None:
            header["dims"] = dims

    path = edited_checkpoint(tmp_path, edit, new_arrays)
    with pytest.raises(DataError, match=rf"model\.sepll: {message}"):
        load_checkpoint(path)


def test_checkpoint_is_its_header_then_theta(tmp_path):
    params = tiny_params(hidden=(6,), rng_seed=3)
    vocab = Vocabulary(tokens=("a", "b", "c", "d", "e"), df=np.ones(5, dtype=np.int64), n_docs=6)
    path = tmp_path / "model.sepll"
    save_checkpoint(path, params, vocab)
    raw = path.read_bytes()
    magic_end = raw.index(b"\n") + 1
    end = raw.index(b"\n", magic_end)
    assert raw[end + 1 :] == params.theta.astype("<f8").tobytes()
    header = json.loads(raw[magic_end:end])
    assert header["version"] == 2
    assert header["dims"] == [list(widths) for widths in params.dims] == [[5, 6, 4], [4, 2], [4, 3]]
    assert not {"arrays", "dim", "encoder_layers", "task_layers", "lf_layers"} & set(header)
    loaded, _, _ = load_checkpoint(path)
    assert loaded.dims == params.dims
    assert np.array_equal(loaded.theta.view(np.int64), params.theta.view(np.int64))
    assert loaded.theta.flags.aligned and loaded.theta.flags.writeable


def version_1_header(header):
    """``header`` rewritten the way the first checkpoint format laid it out."""
    dims = header.pop("dims")
    header.update(version=1, dim=dims[0][-1])
    header.update((f"{prefix}_layers", len(widths) - 1) for prefix, widths in zip(("encoder", "task", "lf"), dims))
    header["arrays"] = [
        {"name": f"{prefix}.{i}.{kind}", "shape": shape}
        for prefix, widths in zip(("encoder", "task", "lf"), dims)
        for i, (n_in, n_out) in enumerate(zip(widths[:-1], widths[1:]))
        for kind, shape in (("W", [n_in, n_out]), ("b", [n_out]))
    ]


@pytest.mark.parametrize(
    "edit, shown",
    [
        (version_1_header, "1"),
        (lambda header: header.pop("version"), "None"),
        (lambda header: header.update(version=3), "3"),
        (lambda header: header.update(version="2"), "'2'"),
        (lambda header: header.update(version=2.0), "2.0"),
    ],
    ids=["version_1", "missing", "version_3", "string", "float"],
)
def test_checkpoint_of_another_version_is_data_error(tmp_path, edit, shown):
    path = edited_checkpoint(tmp_path, edit)
    with pytest.raises(DataError, match=rf"model\.sepll: checkpoint format version {shown} is not 2; train again"):
        load_checkpoint(path)


def test_checkpoint_payload_of_partial_values_is_data_error(tmp_path):
    path = edited_checkpoint(tmp_path, lambda header: None)
    path.write_bytes(path.read_bytes() + b"\0\0\0")
    with pytest.raises(DataError, match=r"model\.sepll: container payload is not whole float64 values"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["encoder.0.W", "task.0.b", "lf.0.b"])
def test_checkpoint_non_finite_weight_is_data_error(tmp_path, name, value):
    # training never saves a non-finite parameter, so such a file is corrupt
    from sepll.serialize import read_container, write_container

    path = edited_checkpoint(tmp_path, lambda h: None)
    header, theta = read_container(path)
    names, sizes = zip(*((n, view.size) for n, view in param_items(tiny_params(hidden=(6,)))))
    theta[sum(sizes[: names.index(name) + 1]) - 1] = value  # the parameter's last element
    write_container(path, header, theta)
    with pytest.raises(DataError, match=rf"model\.sepll: non-finite value in {name}"):
        load_checkpoint(path)


def test_clone_params_is_deep():
    params = tiny_params()
    copy = clone_params(params)
    copy.task_head[0].W[:] += 1.0
    assert not np.allclose(params.task_head[0].W, copy.task_head[0].W)
    for (name, a), (_, b) in zip(param_items(params), param_items(copy)):
        assert not np.shares_memory(a, b), name
    assert not np.shares_memory(params.theta, copy.theta)
    names = [n for n, _ in param_items(params)]
    assert names == [n for n, _ in param_items(copy)]
    assert "encoder.0.W" in names and "task.0.b" in names and "lf.0.W" in names


def test_param_items_are_views_into_theta():
    params = tiny_params(hidden=(6,))
    assert params.theta.flags.c_contiguous and params.theta.dtype == np.float64
    items = list(param_items(params))
    assert [n for n, _ in items] == [
        "encoder.0.W", "encoder.0.b", "encoder.1.W", "encoder.1.b", "task.0.W", "task.0.b", "lf.0.W", "lf.0.b",
    ]
    assert sum(view.size for _, view in items) == params.theta.size
    start = 0
    for name, view in items:
        view[...] = 0.0
        view.reshape(-1)[0] = 7.0
        assert params.theta[start] == 7.0, name
        start += view.size
    assert np.count_nonzero(params.theta) == len(items)
    # the layer lists see the same memory, and the LF path is theta's tail
    assert params.encoder[1].W[0, 0] == params.task_head[0].b[0] == params.lf_head[0].W[0, 0] == 7.0
    assert params.theta[params.lf_slice].size == sum(v.size for n, v in items if n.startswith("lf."))
