from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sepll.data import MappingMatrix
from sepll.encoder import EncoderConfig, Vocabulary
from sepll.errors import ConfigError, DataError, NumericalError
from sepll.model import (
    GradientBuffer,
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
    assert np.allclose(trace.task_probs.sum(axis=1), 1.0, atol=1e-12)


def test_task_probs_frozen_softmax_oracle():
    params = zeroed_heads(tiny_params(), task_bias=[2.0, 1.0], lf_bias=[0.0, 0.0, 0.0])
    trace = forward_batch(params, np.zeros((1, 5)))
    assert abs(trace.task_probs[0, 0] - SOFT_21[0]) <= 1e-15
    assert abs(trace.task_probs[0, 1] - SOFT_21[1]) <= 1e-15


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
    for name, g in param_items(params, grad):
        assert np.allclose(g, 0.0, atol=1e-12), name


def test_backward_lf_bias_gradient_is_residual():
    params = zeroed_heads(tiny_params(), task_bias=[2.0, 1.0], lf_bias=[0.5, -0.5, 0.0])
    X = np.zeros((1, 5))
    targets = np.array([[1.0, 0.0, 0.0]])
    trace = forward_batch(params, X)
    _, grad = backward(params, X, targets)
    grads = dict(param_items(params, grad))
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
        loss, _ = backward(params, X, targets, lf_activation_penalty=penalty)
        return loss if penalty == 0.0 else loss_with_penalty(params, X, targets, penalty)

    # backward returns the CE-only loss; with an activation penalty the FD
    # objective must add the penalty term explicitly
    def loss_with_penalty(params, X, targets, penalty):
        trace = forward_batch(params, X)
        base = ce_loss(trace.q, targets)
        return base + penalty * float(np.mean(np.sum(trace.lf_logits ** 2, axis=1)))

    _, grad = backward(params, X, targets, lf_activation_penalty=penalty)
    grads = dict(param_items(params, grad))
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
    grads = dict(param_items(params, grad))

    perm = rng.permutation(m)
    permuted = clone_params(params)
    permuted.lf_head[-1].W[:] = params.lf_head[-1].W[:, perm]
    permuted.lf_head[-1].b[:] = params.lf_head[-1].b[perm]
    permuted.mapping = MappingMatrix(c=c, class_of=class_of[perm])
    loss_p, grad_p = backward(permuted, X, targets[:, perm])
    grads_p = dict(param_items(permuted, grad_p))

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
    for path in native_paths():
        loss_s, grad_s = backward(params, to_csr(X), targets)
        assert loss_s == pytest.approx(loss_d, abs=1e-12), path
        for (name, g_d), (_, g_s) in zip(param_items(params, grad_d), param_items(params, grad_s)):
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
        W = dict(param_items(params, grad))["encoder.0.W"]
        unused = np.setdiff1d(np.arange(W.shape[0]), np.unique(X_csr.indices))
        assert {1, 3} <= set(unused.tolist())
        assert np.array_equal(W[unused].view(np.int64), np.zeros((unused.size, W.shape[1]), dtype=np.int64)), path


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


def test_backward_reused_buffer_is_bitwise_fresh_buffers(rng, to_csr, native_paths):
    # The used columns of successive batches overlap, are disjoint, are none at
    # all, and are every column (a dense batch): a first-layer row that the last
    # batch wrote and this one does not must read +0.0 again.
    n_features = 12
    mapping = MappingMatrix(c=2, class_of=np.array([0, 1, 1]))
    params = init_params(n_features, mapping, EncoderConfig(hidden=(6,), dim=4), rng=np.random.default_rng(5))
    columns = [[0, 1, 2, 3], [2, 3, 4], [7, 8], [], list(range(n_features)), [5], [0, 11]]
    for path in native_paths():
        buffer = GradientBuffer(np.zeros_like(params.theta))
        for i, cols in enumerate(columns):
            X = np.zeros((3, n_features))
            X[:, cols] = rng.normal(size=(3, len(cols)))
            X[1, cols[:1]] = 0.0
            batch = X if i == 4 else to_csr(X)
            raw = rng.random((3, 3))
            targets = raw / raw.sum(axis=1, keepdims=True)
            loss, grad = backward(params, batch, targets, out=buffer)
            fresh_loss, fresh = backward(params, batch, targets)
            assert grad is buffer.flat
            assert loss == fresh_loss
            assert np.array_equal(grad.view(np.int64), fresh.view(np.int64)), (path, cols)


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
    write_container(path, {"kind": "something-else"}, {"x": np.zeros(2)})
    with pytest.raises(DataError):
        load_checkpoint(path)


def edited_checkpoint(tmp_path, edit, new_arrays=None):
    """Save a valid checkpoint (encoder 5 -> 6 -> 4, task 4 -> 2, LF 4 -> 3), then
    rewrite it with ``edit`` applied to its header and ``new_arrays`` replacing arrays."""
    from sepll.serialize import read_container, write_container

    vocab = Vocabulary(tokens=("a", "b", "c", "d", "e"), df=np.ones(5, dtype=np.int64), n_docs=6)
    path = tmp_path / "model.sepll"
    save_checkpoint(path, tiny_params(hidden=(6,)), vocab)
    header, arrays = read_container(path)
    edit(header)
    arrays.update(new_arrays or {})
    write_container(path, header, arrays)
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
        ("lf_layers", 0, "lf_layers must be at least 1, got 0"),
        ("encoder_layers", 0, "encoder_layers must be at least 1, got 0"),
        ("task_layers", -1, "task_layers must be at least 1, got -1"),
        ("n_classes", 0, "mapping needs at least one class"),
        ("class_of", [0, 1, 7], "mapping class index out of range"),
        ("head_nonlinearity", "swish", "unknown nonlinearity 'swish'"),
        # JSON types are checked, not coerced: int() would read 1.0 and True as 1
        ("n_classes", True, "malformed checkpoint header: 'n_classes' must be int, got bool"),
        ("task_layers", 1.0, "malformed checkpoint header: 'task_layers' must be int, got float"),
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
        *parents, last = key.split(".")
        for parent in parents:
            header = header[parent]
        header[last] = value

    path = edited_checkpoint(tmp_path, edit)
    with pytest.raises(DataError, match=rf"model\.sepll: {message}"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "new_arrays, message",
    [
        ({"task.0.W": np.zeros((5, 2))}, r"array task\.0\.W has 5 rows but its input is 4 wide"),
        ({"lf.0.b": np.zeros(4)}, r"array lf\.0\.b has shape \(4,\) but lf\.0\.W has 3 columns"),
        ({"encoder.1.W": np.zeros((5, 4))}, r"array encoder\.1\.W has 5 rows but its input is 6 wide"),
        (
            {"encoder.1.W": np.zeros((6, 3)), "encoder.1.b": np.zeros(3)},
            r"array task\.0\.W has 4 rows but its input is 3 wide",
        ),
        ({"encoder.0.W": np.zeros(30)}, r"array encoder\.0\.W has shape \(30,\), not a matrix"),
        (
            {"task.0.W": np.zeros((4, 3)), "task.0.b": np.zeros(3)},
            "n_classes is 2 but the task head has width 3",
        ),
    ],
    ids=["head_rows", "bias_length", "encoder_rows", "encoder_output", "not_a_matrix", "task_width"],
)
def test_checkpoint_bad_array_shape_is_data_error(tmp_path, new_arrays, message):
    path = edited_checkpoint(tmp_path, lambda h: None, new_arrays)
    with pytest.raises(DataError, match=rf"model\.sepll: {message}"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["encoder.0.W", "task.0.b", "lf.0.b"])
def test_checkpoint_non_finite_weight_is_data_error(tmp_path, name, value):
    # training never saves a non-finite parameter, so such a file is corrupt
    from sepll.serialize import read_container, write_container

    path = edited_checkpoint(tmp_path, lambda h: None)
    header, arrays = read_container(path)
    arrays[name].reshape(-1)[-1] = value
    write_container(path, header, arrays)
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
