from __future__ import annotations

import math

import numpy as np
import pytest
from conftest import as_gradient, match_from_dense, match_to_dense, traced_peak
from hypothesis import given, strategies as st

from sepll import native
from sepll.data import (
    MappingMatrix,
    MatchMatrix,
    SynthSpec,
    build_targets,
    synth_dataset,
    to_one_class_lfs,
)
from sepll.encoder import EncoderConfig, featurize_split
from sepll.errors import ConfigError, DataError, NumericalError
from sepll.evaluation import task_metrics
from sepll.lf_engine import majority_vote
from sepll.model import Gradient, backward, init_params, param_items, predict_batch
from sepll.native import BLOCK
from sepll.nnet import CSRMatrix
from sepll.trainer import (
    VARIANT_ORDER,
    TrainConfig,
    TrainHistory,
    EpochRecord,
    ablation_config,
    adamw_step,
    init_optimizer,
    inject_noise,
    lr_schedule,
    run_ablation,
    train,
)

SMALL_ENC = EncoderConfig(max_features=300, hidden=(16,), dim=8)


def small_splits(seed=0, n_train=120, n_dev=40, n_test=40):
    spec = SynthSpec(n_train=n_train, n_dev=n_dev, n_test=n_test)
    splits = synth_dataset(spec, seed=seed)
    conv = to_one_class_lfs(splits)
    return splits, conv


def fast_config(**kw):
    base = dict(max_epochs=4, patience=2, seed=0)
    base.update(kw)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# learning-rate schedule


def test_lr_schedule_no_warmup_is_constant():
    assert lr_schedule(1, 0, 0.5) == 0.5
    assert lr_schedule(10_000, 0, 0.5) == 0.5


def test_lr_schedule_linear_ramp():
    assert lr_schedule(0, 10, 1.0) == 0.0
    assert lr_schedule(5, 10, 2.0) == pytest.approx(1.0)
    assert lr_schedule(10, 10, 2.0) == 2.0
    assert lr_schedule(11, 10, 2.0) == 2.0


def test_lr_schedule_rejects_negative_step():
    with pytest.raises(ConfigError):
        lr_schedule(-1, 5, 1.0)


# ---------------------------------------------------------------------------
# optimizer


def zeroed_tiny_params():
    mapping = MappingMatrix(c=2, class_of=np.array([0, 1]))
    params = init_params(
        3, mapping, EncoderConfig(max_features=10, hidden=(), dim=2),
        rng=np.random.default_rng(0),
    )
    for _, arr in param_items(params):
        arr[:] = 0.0
    return params


def zero_grads(params):
    """A zero gradient and its named views."""
    grad = np.zeros_like(params.theta)
    return grad, dict(param_items(params, grad))


def test_adamw_first_step_frozen_value(native_paths):
    # g=1, lr=0.1, wd=0: bias-corrected m-hat = v-hat = 1, so the update is
    # exactly lr / (1 + eps)
    for path in native_paths():
        params = zeroed_tiny_params()
        grad, grads = zero_grads(params)
        grads["task.0.b"][0] = 1.0
        state = init_optimizer(params)
        adamw_step(params, as_gradient(params, grad), state, TrainConfig(weight_decay=0.0), current_lr=0.1)
        assert params.task_head[0].b[0] == pytest.approx(-0.1 / (1.0 + 1e-8), abs=1e-18), path
        # untouched parameters stay exactly zero
        assert params.lf_head[0].b[0] == 0.0
        assert np.all(params.encoder[0].W == 0.0)


def test_adamw_weight_decay_uses_pre_update_theta(native_paths):
    # zero gradient, wd=0.01, lr=0.1, theta=1 -> theta - lr*wd*theta = 0.999
    for path in native_paths():
        params = zeroed_tiny_params()
        params.task_head[0].b[0] = 1.0
        state = init_optimizer(params)
        adamw_step(params, as_gradient(params, zero_grads(params)[0], []), state, TrainConfig(weight_decay=0.01), 0.1)
        assert params.task_head[0].b[0] == pytest.approx(0.999, abs=1e-15), path


def test_adamw_two_steps_match_reference_loop(native_paths):
    for path in native_paths():
        params = zeroed_tiny_params()
        state = init_optimizer(params)
        cfg = TrainConfig(weight_decay=0.01)
        lr = 0.05
        gs = [0.7, -1.3]
        theta_ref, m_ref, v_ref = 0.0, 0.0, 0.0
        for t, g in enumerate(gs, start=1):
            grad, grads = zero_grads(params)
            grads["lf.0.b"][1] = g
            adamw_step(params, as_gradient(params, grad), state, cfg, current_lr=lr)
            m_ref = 0.9 * m_ref + 0.1 * g
            v_ref = 0.999 * v_ref + 0.001 * g * g
            m_hat = m_ref / (1 - 0.9**t)
            v_hat = v_ref / (1 - 0.999**t)
            theta_ref -= lr * m_hat / (np.sqrt(v_hat) + 1e-8) + lr * 0.01 * theta_ref
        assert params.lf_head[0].b[1] == pytest.approx(theta_ref, abs=1e-16), path
        assert state.step == 2


def spread_moments(rng, n):
    """(m, v) over many magnitudes, in four kinds of n elements each: v on m's
    square, m and v independent, m near or below the smallest normal with
    sqrt(v) >= 1 (subnormal updates), and a zero of either sign in m or zero v.
    Outside the third kind m is at least 1e-150, so every product and quotient
    of either form stays normal unless the update itself is subnormal."""

    def signed(lo, hi):
        return rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(lo, hi, size=n)

    m = np.concatenate([
        g := signed(-150, 150),
        signed(-150, 150),
        signed(-323.3, -300),
        np.where(rng.random(n) < 0.5, -0.0, 0.0)[: n // 2],
        signed(-150, 150)[n // 2 :],
    ])  # fmt: skip
    v = np.concatenate([
        g * g * 10.0 ** rng.uniform(-8, 4, size=n),
        10.0 ** rng.uniform(-300, 300, size=n),
        10.0 ** rng.uniform(0, 300, size=n),
        10.0 ** rng.uniform(-300, 300, size=n)[: n // 2],
        np.zeros(n - n // 2),
    ])  # fmt: skip
    return m, v


@pytest.mark.parametrize("step", [1, 2, 3, 10, 100, 1000, 9999, 10_000])
def test_adamw_update_tracks_the_textbook_form(step, native_paths):
    # The step folds both bias corrections into two scalars; the textbook form
    # divides by each. Each form rounds at most eight times, so they agree to 16
    # ulps of the textbook update. In the subnormal range an ulp is the smallest
    # subnormal, so there the bound is 16 of those.
    W = 64
    for path in native_paths():
        for lr in (1e-4, 0.05):
            m, v = spread_moments(np.random.default_rng(step), 2048)
            theta = np.zeros_like(m)  # theta minus an update is minus the update
            rows = np.arange(0, m.size // W, 2)  # every other row, whose -0.0 gradient keeps m's signed zeros
            first, rest = np.full((rows.size, W), -0.0), np.full(0, -0.0)
            assert native.adamw(theta, m, v, rows, first, rest, step, lr, 0.0) == -1
            bc1, bc2 = 1.0 - 0.9**step, 1.0 - 0.999**step
            textbook = lr * (m / bc1) / (np.sqrt(v / bc2) + 1e-8)
            assert np.all(np.isfinite(textbook))
            ulps = np.abs(-theta - textbook) / np.spacing(np.abs(textbook))
            assert ulps.max() <= 16, (path, lr, float(ulps.max()))
            subnormal = (textbook != 0) & (np.abs(textbook) < np.finfo(np.float64).tiny)
            assert subnormal.any() and (textbook == 0).any()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_adamw_rejects_non_finite_update(native_paths):
    for _ in native_paths():
        params = zeroed_tiny_params()
        grad, grads = zero_grads(params)
        grads["task.0.b"][0] = np.inf
        state = init_optimizer(params)
        with pytest.raises(NumericalError, match="task.0.b"):
            adamw_step(params, as_gradient(params, grad), state, TrainConfig(), current_lr=0.1)


def test_adamw_descends_on_fixed_batch(rng):
    # repeated steps on one batch must reduce the loss
    mapping = MappingMatrix(c=2, class_of=np.array([0, 0, 1, 1]))
    params = init_params(
        6, mapping, EncoderConfig(max_features=10, hidden=(5,), dim=4),
        rng=np.random.default_rng(3),
    )
    X = rng.normal(size=(8, 6))
    targets = build_targets(match_from_dense((rng.random((8, 4)) < 0.5).astype(int)))
    state = init_optimizer(params)
    cfg = TrainConfig(weight_decay=0.0)
    first, _ = backward(params, X, targets)
    for _ in range(40):
        loss, grad = backward(params, X, targets)
        adamw_step(params, grad, state, cfg, current_lr=1e-2)
    final, _ = backward(params, X, targets)
    assert final < first


def multi_block_params():
    # encoder.0.W holds 2.5 * BLOCK elements: two full blocks and a half, so
    # its third block is a partial one, and the rest of theta (encoder.0.b and
    # both heads, under BLOCK elements) is one more block after it
    dim = 32
    mapping = MappingMatrix(c=2, class_of=np.array([0, 1, 1]))
    params = init_params(
        BLOCK * 5 // 2 // dim, mapping, EncoderConfig(max_features=10, hidden=(), dim=dim),
        rng=np.random.default_rng(4),
    )
    assert params.encoder[0].W.size == BLOCK * 5 // 2
    assert BLOCK * 2 < params.encoder[0].W.size < params.theta.size < BLOCK * 3
    return params


def reference_adamw_step(params, grad, m_ref, v_ref, t, cfg, lr):
    # the whole-array AdamW update that the blocked step must reproduce bit for
    # bit, with both bias corrections folded into a step size and an epsilon
    b1, b2, eps = 0.9, 0.999, 1e-8
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    step_size, eps_hat = lr * math.sqrt(bc2) / bc1, eps * math.sqrt(bc2)
    theta, g, m, v = params.theta, grad, m_ref, v_ref
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * (g * g)
    update = m * step_size / (np.sqrt(v) + eps_hat)
    if cfg.weight_decay:
        update = update + lr * cfg.weight_decay * theta
    theta -= update


def signed_zero_grad(rng, shape):
    """Normal values with -0.0 and the smallest negative subnormal mixed in: times
    1 - beta1 the latter rounds to -0.0 too."""
    g = rng.normal(size=shape)
    pick = rng.random(shape)
    g[pick < 0.1] = -0.0
    g[pick > 0.9] = -np.nextafter(0.0, 1.0)
    return g


def keep_first_layer_rows(params, grad, rows):
    """``grad`` with every ``encoder.0.W`` row outside ``rows`` set to +0.0."""
    W = dict(param_items(params, grad))["encoder.0.W"]
    keep = np.zeros(W.shape[0], dtype=bool)
    keep[rows] = True
    W[~keep] = 0.0
    return grad


def row_sparse_grad(params, rng, rows=None):
    """``(flat, grad)``: a signed-zero gradient on the first-layer ``rows`` (a
    random eighth when None), +0.0 on the others, as a vector with theta's layout
    and as the row-sparse :class:`Gradient` that ``backward`` gives a sparse batch."""
    n_rows = params.encoder[0].W.shape[0]
    if rows is None:
        rows = np.unique(rng.integers(0, n_rows, size=n_rows // 8))
    flat = keep_first_layer_rows(params, signed_zero_grad(rng, params.theta.shape), rows)
    return flat, as_gradient(params, flat, rows)


def wide_row_params():
    # encoder.0.W has three rows of BLOCK + 5 elements each, so numpy steps
    # every row in two pieces
    mapping = MappingMatrix(c=2, class_of=np.array([0, 1, 1]))
    params = init_params(
        3, mapping, EncoderConfig(max_features=10, hidden=(), dim=BLOCK + 5), rng=np.random.default_rng(7)
    )
    assert params.encoder[0].W.shape == (3, BLOCK + 5)
    return params


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_adamw_blocked_step_is_bitwise_reference(weight_decay, native_paths):
    gradients = {
        "normal": lambda params, rng: (flat := rng.normal(size=params.theta.shape), as_gradient(params, flat)),
        "row-sparse": row_sparse_grad,
    }
    for path in native_paths():
        for kind, make_grad in gradients.items():
            params = multi_block_params()
            ref = multi_block_params()
            state = init_optimizer(params)
            m_ref = np.zeros_like(ref.theta)
            v_ref = np.zeros_like(ref.theta)
            cfg = TrainConfig(weight_decay=weight_decay)
            rng = np.random.default_rng(11)
            for t, lr in enumerate([0.05, 0.01, 0.002, 0.03], start=1):
                flat, grad = make_grad(params, rng)
                adamw_step(params, grad, state, cfg, current_lr=lr)
                reference_adamw_step(ref, flat, m_ref, v_ref, t, cfg, lr)
            assert np.array_equal(params.theta.view(np.int64), ref.theta.view(np.int64)), (path, kind)
            assert np.array_equal(state.m.view(np.int64), m_ref.view(np.int64)), (path, kind)
            assert np.array_equal(state.v.view(np.int64), v_ref.view(np.int64)), (path, kind)


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_adamw_kernel_is_bitwise_numpy_step(weight_decay, native_paths):
    # the numpy step is the kernel's oracle: same inputs, same bits
    finals = {}
    for path in native_paths():
        params = multi_block_params()
        state = init_optimizer(params)
        rng = np.random.default_rng(14)
        for lr in [0.05, 0.01, 0.002, 0.03]:
            adamw_step(params, row_sparse_grad(params, rng)[1], state, TrainConfig(weight_decay=weight_decay), lr)
        finals[path] = [a.view(np.int64) for a in (params.theta, state.m, state.v)]
    if "kernel" not in finals:
        pytest.skip("the AdamW kernel could not be built here")
    for kernel, numpy in zip(finals["kernel"], finals["numpy"]):
        assert np.array_equal(kernel, numpy)


ROW_SETS = {
    "none": lambda n: [],
    "all": lambda n: list(range(n)),
    "first-and-last": lambda n: [0, n - 1],
    "first": lambda n: [0],
    "last": lambda n: [n - 1],
    "runs": lambda n: [r for r in range(n) if r % 5 in (1, 2)],
}


@pytest.mark.parametrize("make_params", [multi_block_params, wide_row_params])
@pytest.mark.parametrize("row_set", sorted(ROW_SETS))
def test_adamw_row_sparse_step_is_bitwise_the_equal_dense_step(row_set, make_params, native_paths):
    # A gradient that holds some first-layer rows steps every element as the
    # gradient that holds every row, +0.0 on the others, does: on each path, and
    # the kernel as numpy. The values hold -0.0 and subnormals; the left-out rows
    # carry moments and theta from earlier steps on other rows.
    finals = {}
    for path in native_paths():
        states = {}
        for form in ("sparse", "dense"):
            params = make_params()
            state = init_optimizer(params)
            n_rows = params.encoder[0].W.shape[0]
            rng = np.random.default_rng(16)
            for step, lr in enumerate([0.05, 0.01, 0.002, 0.03]):
                rows = ROW_SETS[row_set](n_rows) if step % 2 else ROW_SETS["runs"](n_rows)
                flat, grad = row_sparse_grad(params, rng, rows)
                adamw_step(params, grad if form == "sparse" else as_gradient(params, flat), state, TrainConfig(), lr)
            states[form] = [a.view(np.int64) for a in (params.theta, state.m, state.v)]
        for sparse, dense in zip(states["sparse"], states["dense"]):
            assert np.array_equal(sparse, dense), path
        finals[path] = states["sparse"]
    if "kernel" in finals:
        for kernel, numpy in zip(finals["kernel"], finals["numpy"]):
            assert np.array_equal(kernel, numpy)


def test_adamw_first_moment_is_never_negative_zero(native_paths):
    # The first-layer rows a batch does not touch get +0.0 gradient terms; adding
    # them keeps those rows' moments bit for bit only because m never holds -0.0:
    # it starts at +0.0, a rounded sum is -0.0 only if both terms are, and
    # m * beta1 is -0.0 only if m is.
    tiny = -np.nextafter(0.0, 1.0)
    assert np.signbit(tiny * 0.9) and tiny * 0.9 == tiny  # rounds away from zero
    assert tiny * 0.1 == 0.0 and np.signbit(tiny * 0.1)  # the gradient term can be -0.0
    for path in native_paths():
        params = multi_block_params()
        state = init_optimizer(params)
        rng = np.random.default_rng(13)
        for _ in range(4):
            grad = signed_zero_grad(rng, params.theta.shape)
            grad[rng.random(grad.shape) < 0.5] = tiny
            rows = np.flatnonzero(rng.random(params.encoder[0].W.shape[0]) < 0.5)
            grad = as_gradient(params, keep_first_layer_rows(params, grad, rows), rows)
            adamw_step(params, grad, state, TrainConfig(), current_lr=0.01)
            assert not np.any((state.m == 0.0) & np.signbit(state.m)), path


PART_COUNTS = [1, 2, 3, 7]


def split_into(monkeypatch, parts: int) -> None:
    """Let the AdamW kernel split a block of any size into ``parts`` row ranges."""
    monkeypatch.setattr(native, "MIN_PART", 1)
    monkeypatch.setattr(native, "usable_cpus", lambda: parts)


def part_starts(n_rows: int, parts: int) -> list[int]:
    """The first row of each of the kernel's ``parts`` row ranges."""
    return [n_rows * p // parts for p in range(parts)]


# part count, first-layer row count -> the given rows of a step
SPLIT_ROW_SETS = {
    "none": lambda parts, n: [],
    # the first row of every part, and the last row of the part before it
    "boundaries": lambda parts, n: sorted({r + d for r in part_starts(n, parts)[1:] for d in (-1, 0)} | {0}),
    "one part": lambda parts, n: list(range(part_starts(n, parts)[-1], n, 3)),
    "scattered": lambda parts, n: list(range(5, n, 37)),
}


def needs_kernel():
    if native.load() is None:
        pytest.skip("the AdamW kernel could not be built here")


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
@pytest.mark.parametrize("row_set", sorted(SPLIT_ROW_SETS))
def test_adamw_bits_do_not_depend_on_the_part_count(row_set, weight_decay, monkeypatch):
    # every part count steps theta, m and v as the serial numpy step and the
    # whole-array reference do, bit for bit
    needs_kernel()
    cfg = TrainConfig(weight_decay=weight_decay)

    def run(parts):
        params = multi_block_params()
        state = init_optimizer(params)
        ref, m_ref, v_ref = multi_block_params(), np.zeros_like(params.theta), np.zeros_like(params.theta)
        rng = np.random.default_rng(17)
        n_rows = params.encoder[0].W.shape[0]
        for t, lr in enumerate([0.05, 0.01, 0.002, 0.03], start=1):
            flat, grad = row_sparse_grad(params, rng, SPLIT_ROW_SETS[row_set](parts, n_rows))
            adamw_step(params, grad, state, cfg, lr)
            reference_adamw_step(ref, flat, m_ref, v_ref, t, cfg, lr)
        return [a.view(np.int64) for a in (params.theta, state.m, state.v, ref.theta, m_ref, v_ref)]

    finals = {}
    for parts in PART_COUNTS:
        split_into(monkeypatch, parts)
        finals[parts] = run(parts)
    monkeypatch.setattr(native, "_kernels", None)
    for parts, (*stepped, theta_ref, m_ref, v_ref) in finals.items():
        numpy = run(parts)[:3]
        for name, a, b, c in zip(("theta", "m", "v"), stepped, numpy, (theta_ref, m_ref, v_ref)):
            assert np.array_equal(a, b) and np.array_equal(a, c), (parts, name)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("parts", PART_COUNTS)
def test_adamw_non_finite_update_is_found_in_every_part_count(parts, monkeypatch):
    # The step returns the lowest non-finite index over all parts, which the
    # serial numpy walk returns too; every other part of the first layer is
    # fully stepped.
    needs_kernel()
    n_rows, width = multi_block_params().encoder[0].W.shape
    ends = part_starts(n_rows, parts)[1:] + [n_rows]
    bad_rows = [start + 3 for start in part_starts(n_rows, parts)]  # a row inside each part
    clean = np.random.default_rng(19).normal(size=multi_block_params().theta.shape)

    def with_inf(params, bad):
        """The clean gradient with +inf at column 5 of the first-layer rows ``bad``."""
        flat = clean.copy()
        flat[: params.first_size].reshape(n_rows, width)[bad, 5] = np.inf
        return as_gradient(params, flat)

    def step(bad, kernels):
        """The first layer's theta, m and v after a step on ``kernels`` (None:
        numpy) of ``with_inf(bad)``, and the index the step returns."""
        params = multi_block_params()
        state = init_optimizer(params)
        monkeypatch.setattr(native, "_kernels", kernels)
        index = native.adamw(params.theta, state.m, state.v, *with_inf(params, bad), 1, 0.01, 0.0)
        return [a[: params.first_size].view(np.int64) for a in (params.theta, state.m, state.v)], index

    split_into(monkeypatch, parts)
    kernels = native.load()
    assert step(bad_rows, kernels)[1] == step(bad_rows, None)[1] == bad_rows[0] * width + 5
    stepped = step([], kernels)[0]
    for bad, lo, hi in zip(bad_rows, part_starts(n_rows, parts), ends):
        arrays, index = step([bad], kernels)
        assert index == step([bad], None)[1] == bad * width + 5
        this_part = np.s_[lo * width : hi * width]
        for a, b in zip(arrays, stepped):
            assert np.array_equal(np.delete(a, this_part), np.delete(b, this_part))
    params = multi_block_params()
    monkeypatch.setattr(native, "_kernels", kernels)
    with pytest.raises(NumericalError, match="non-finite optimizer update for encoder.0.W"):
        adamw_step(params, with_inf(params, bad_rows), init_optimizer(params), TrainConfig(), 0.01)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_adamw_rejects_non_finite_update_in_last_block(native_paths):
    for _ in native_paths():
        params = multi_block_params()
        grad, grads = zero_grads(params)
        grads["encoder.0.W"].reshape(-1)[-1] = np.inf
        state = init_optimizer(params)
        last_row = [params.encoder[0].W.shape[0] - 1]
        with pytest.raises(NumericalError, match="encoder.0.W"):
            adamw_step(params, as_gradient(params, grad, last_row), state, TrainConfig(), current_lr=0.1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("name", ["encoder.0.W", "lf.0.b"])
def test_adamw_overflowed_theta_raises_at_zero_weight_decay(name, value, native_paths):
    # theta * 0.0 of an overflowed theta is NaN, on both paths alike, also in a
    # first-layer row that the gradient leaves out
    for path in native_paths():
        params = multi_block_params()
        dict(param_items(params))[name].reshape(-1)[-1] = value
        state = init_optimizer(params)
        with pytest.raises(NumericalError, match=name):
            no_rows = as_gradient(params, zero_grads(params)[0], [])
            adamw_step(params, no_rows, state, TrainConfig(weight_decay=0.0), current_lr=0.1)


# each misshapen gradient with the error it must raise
MISSHAPEN_ERRORS = {
    "short": "disagree in shape",
    "long": "disagree in shape",
    "column": "disagree in shape",
    "narrow": "disagree in shape",
    "row-count": "disagree in shape",
    "unsorted": "not ascending",
    "repeated": "not ascending",
    "outside": "not ascending",
    "negative": "not ascending",
}


def misshapen(params, grad: Gradient, shape: str) -> Gradient:
    """``grad`` with one part of the wrong shape, or rows that are not ascending
    indices of the first layer."""
    rows, first, rest = grad
    return {
        "short": lambda: Gradient(rows, first, rest[:-1]),
        "long": lambda: Gradient(rows, first, np.append(rest, 1.0)),
        "column": lambda: Gradient(rows, first, rest[:, None]),
        "narrow": lambda: Gradient(rows, first[:, :-1], rest),
        "row-count": lambda: Gradient(rows[:-1], first, rest),
        "unsorted": lambda: Gradient(rows[::-1].copy(), first, rest),
        "repeated": lambda: Gradient(np.append(rows[:-1], rows[-2]), first, rest),
        "outside": lambda: Gradient(rows + params.encoder[0].W.shape[0] - rows[0], first, rest),
        "negative": lambda: Gradient(rows - rows[-1] - 1, first, rest),
    }[shape]()


@pytest.mark.parametrize("shape", MISSHAPEN_ERRORS)
def test_adamw_wrong_gradient_shape_writes_nothing(shape, native_paths):
    for path in native_paths():
        params = multi_block_params()
        state = init_optimizer(params)
        rng = np.random.default_rng(15)
        for lr in (0.05, 0.01):  # moments that a stray update would change
            adamw_step(params, as_gradient(params, rng.normal(size=params.theta.shape)), state, TrainConfig(), lr)
        grad = misshapen(params, row_sparse_grad(params, rng, [2, 5, 9])[1], shape)
        before = [a.copy() for a in (params.theta, state.m, state.v)]
        with pytest.raises(ValueError, match=MISSHAPEN_ERRORS[shape]):
            adamw_step(params, grad, state, TrainConfig(), current_lr=0.03)
        for old, new in zip(before, (params.theta, state.m, state.v)):
            assert np.array_equal(old.view(np.int64), new.view(np.int64)), (path, shape)


# ---------------------------------------------------------------------------
# noise injection


def demo_match():
    # rows: 0 matches LF0 (class 0); 1 matches LF2 (class 1); 2 matches nothing
    dense = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]])
    mapping = MappingMatrix(c=2, class_of=np.array([0, 0, 1, 1]))
    return match_from_dense(dense), mapping


def test_inject_noise_lambda_zero_is_identity():
    match, mapping = demo_match()
    out = inject_noise(match, mapping, 0.0, np.random.default_rng(0))
    assert out == match


def test_inject_noise_lambda_one_completes_classes():
    match, mapping = demo_match()
    out = inject_noise(match, mapping, 1.0, np.random.default_rng(0))
    # row 0: class 0 hit -> LF1 added, class 1 untouched; row 1: LF3 added;
    # row 2: nothing to seed from
    assert match_to_dense(out).tolist() == [
        [1, 1, 0, 0],
        [0, 0, 1, 1],
        [0, 0, 0, 0],
    ]


@given(st.integers(0, 10_000), st.floats(0.0, 1.0))
def test_inject_noise_never_removes_and_respects_classes(seed, lam):
    rng = np.random.default_rng(seed)
    n, m, c = 12, 6, 3
    dense = (rng.random((n, m)) < 0.4).astype(np.int64)
    class_of = rng.integers(0, c, size=m)
    match = match_from_dense(dense)
    mapping = MappingMatrix(c=c, class_of=class_of)
    out = match_to_dense(inject_noise(match, mapping, lam, np.random.default_rng(seed + 1)))
    assert np.all(out >= dense)
    added = (out > 0) & (dense == 0)
    class_hit = np.zeros((n, c), dtype=bool)
    for k in range(c):
        cols = class_of == k
        if cols.any():
            class_hit[:, k] = dense[:, cols].any(axis=1)
    assert not np.any(added & ~class_hit[:, class_of])


def test_inject_noise_rate_matches_bernoulli():
    n = 20_000
    dense = np.zeros((n, 4), dtype=np.int64)
    dense[:, 0] = 1  # every row matches LF0; LF1 shares its class
    mapping = MappingMatrix(c=2, class_of=np.array([0, 0, 1, 1]))
    lam = 0.1
    out = match_to_dense(inject_noise(match_from_dense(dense), mapping, lam, np.random.default_rng(99)))
    added = int(out[:, 1].sum())
    assert out[:, 2].sum() == 0 and out[:, 3].sum() == 0  # other class untouched
    sigma = np.sqrt(n * lam * (1 - lam))
    assert abs(added - n * lam) <= 3 * sigma


def test_inject_noise_identical_under_same_rng():
    match, mapping = demo_match()
    a = inject_noise(match, mapping, 0.5, np.random.default_rng(7))
    b = inject_noise(match, mapping, 0.5, np.random.default_rng(7))
    assert a == b


def test_inject_noise_validates():
    match, mapping = demo_match()
    with pytest.raises(ConfigError):
        inject_noise(match, mapping, 1.5, np.random.default_rng(0))
    bad_mapping = MappingMatrix(c=2, class_of=np.array([0, 1]))
    with pytest.raises(DataError, match="LF dimension mismatch"):
        inject_noise(match, bad_mapping, 0.1, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# config


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(weight_decay=-0.1)
    with pytest.raises(ConfigError):
        TrainConfig(noise_lambda=2.0)
    with pytest.raises(ConfigError):
        TrainConfig(max_epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(patience=0)
    with pytest.raises(ConfigError):
        TrainConfig(metric="auc")
    with pytest.raises(ConfigError):
        TrainConfig(l2_lf_target="weights")
    with pytest.raises(ConfigError):
        TrainConfig(warmup_steps=-1)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["learning_rate", "weight_decay", "l2_lf"])
def test_train_config_rejects_non_finite_numbers(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        TrainConfig(**{name: value})


def test_train_config_rejects_negative_seed():
    with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
        TrainConfig(seed=-1)
    assert TrainConfig(seed=0).seed == 0


@pytest.mark.parametrize("value", [-1, 2, 5])
def test_train_config_rejects_positive_class_outside_0_and_1(value):
    with pytest.raises(ConfigError, match=f"positive_class must be 0 or 1, got {value}"):
        TrainConfig(positive_class=value)
    assert TrainConfig(positive_class=0).positive_class == 0


# ---------------------------------------------------------------------------
# training loop


def test_train_beats_majority_vote_on_dev():
    splits, conv = small_splits(seed=0, n_train=200)
    params, history, vocab = train(
        splits, conv.match["train"], conv.mapping,
        fast_config(max_epochs=10, patience=4), SMALL_ENC,
    )
    dev_gold = np.array([s.gold_label for s in splits.dev])
    mv_preds = majority_vote(conv.match["dev"], conv.mapping, seed=0)
    mv_acc = float((mv_preds == dev_gold).mean())
    assert history.best_dev_metric > mv_acc
    assert history.best_epoch >= 0


def test_train_returns_parameters_of_best_epoch():
    splits, conv = small_splits(seed=1)
    params, history, vocab = train(
        splits, conv.match["train"], conv.mapping, fast_config(seed=1), SMALL_ENC
    )
    X_dev = featurize_split(splits.tokens("dev"), vocab)
    preds = predict_batch(params, X_dev)
    gold = np.array([s.gold_label for s in splits.dev])
    report = task_metrics(preds, gold, n_classes=conv.mapping.c)
    assert report.accuracy == pytest.approx(history.best_dev_metric, abs=1e-12)


def test_train_is_deterministic():
    splits, conv = small_splits(seed=2)
    cfg = fast_config(max_epochs=2, seed=5)
    a_params, a_hist, _ = train(splits, conv.match["train"], conv.mapping, cfg, SMALL_ENC)
    b_params, b_hist, _ = train(splits, conv.match["train"], conv.mapping, cfg, SMALL_ENC)
    assert [r.train_loss for r in a_hist.epochs] == [r.train_loss for r in b_hist.epochs]
    for (na, aa), (nb, ab) in zip(param_items(a_params), param_items(b_params)):
        assert na == nb
        assert np.array_equal(aa, ab), na


def test_train_seed_changes_outcome():
    splits, conv = small_splits(seed=2)
    a = train(splits, conv.match["train"], conv.mapping, fast_config(max_epochs=1, seed=0), SMALL_ENC)
    b = train(splits, conv.match["train"], conv.mapping, fast_config(max_epochs=1, seed=1), SMALL_ENC)
    assert a[1].epochs[0].train_loss != b[1].epochs[0].train_loss


def test_train_patience_stops_early():
    splits, conv = small_splits(seed=3)
    cfg = fast_config(max_epochs=50, patience=2, seed=0)
    params, history, _ = train(splits, conv.match["train"], conv.mapping, cfg, SMALL_ENC)
    if history.stopped_early:
        assert len(history.epochs) <= history.best_epoch + cfg.patience + 1
        assert len(history.epochs) < cfg.max_epochs
    else:
        assert len(history.epochs) == cfg.max_epochs


def test_train_requires_dev_split():
    splits, conv = small_splits(seed=0, n_dev=0)
    with pytest.raises(DataError, match="dev split required for early stopping"):
        train(splits, conv.match["train"], conv.mapping, fast_config(), SMALL_ENC)


def test_train_rejects_mismatched_matrix():
    splits, conv = small_splits(seed=0)
    bad = MatchMatrix(n=3, m=conv.mapping.m, pairs=np.empty((0, 2), dtype=np.int64))
    with pytest.raises(DataError, match="train split"):
        train(splits, bad, conv.mapping, fast_config(), SMALL_ENC)


def spy_on_backward(monkeypatch):
    """Record the X and targets of every batch that reaches ``trainer.backward``."""
    import sepll.trainer

    batches = []

    def spy(params, X, targets, **kwargs):
        batches.append((X, targets))
        return backward(params, X, targets, **kwargs)

    monkeypatch.setattr(sepll.trainer, "backward", spy)
    return batches


def test_train_without_unlabeled_and_no_matches_raises_before_any_step(monkeypatch):
    splits, conv = small_splits(seed=0)
    unmatched = MatchMatrix(n=len(splits.train), m=conv.mapping.m, pairs=np.empty((0, 2), dtype=np.int64))
    batches = spy_on_backward(monkeypatch)
    with pytest.raises(DataError, match="no training rows"):
        train(splits, unmatched, conv.mapping, fast_config(use_unlabeled=False), SMALL_ENC)
    assert batches == []
    # with unlabeled rows on, the same matches train every row toward uniform
    train(splits, unmatched, conv.mapping, fast_config(max_epochs=1), SMALL_ENC)
    assert sum(X.shape[0] for X, _ in batches) == len(splits.train)
    assert all(np.all(targets == 1.0 / conv.mapping.m) for _, targets in batches)


def test_train_binary_f1_on_three_classes_raises_before_any_step(monkeypatch):
    splits = synth_dataset(SynthSpec(c=3, n_train=60, n_dev=20, n_test=0), seed=0)
    conv = to_one_class_lfs(splits)
    batches = spy_on_backward(monkeypatch)
    with pytest.raises(DataError, match="binary_f1 requires exactly 2 classes, got 3"):
        train(splits, conv.match["train"], conv.mapping, fast_config(metric="binary_f1"), SMALL_ENC)
    assert batches == []


def test_fit_holds_one_spare_copy_of_theta():
    """AdamW holds theta and the two moments; early stopping adds one copy,
    refilled in place. The gradient holds its dense rest and one batch's
    first-layer rows, not the whole first layer. The first layer is over 95 % of
    theta and the data's other allocations stay far below half of it, so the
    traced peak of ``_fit`` stays below 4.5 thetas; a theta-sized gradient would
    take it over 5, and a fresh best-epoch copy made while the previous one is
    alive over 5 too."""
    from sepll.trainer import _fit

    n, n_dev, V, nnz = 64, 16, 20_000, 5
    enc = EncoderConfig(max_features=V, hidden=(64,), dim=8)

    def features(k):  # nnz distinct columns per row
        cols = (np.arange(k)[:, None] * 37 + np.arange(nnz) * 4000) % V
        return CSRMatrix(np.full(k * nnz, 0.5), np.sort(cols, axis=1).ravel(), np.arange(0, k * nnz + 1, nnz), (k, V))

    mapping = MappingMatrix(c=2, class_of=np.array([0, 0, 1, 1]))
    match = MatchMatrix(n=n, m=4, pairs=np.stack([np.arange(n), np.arange(n) % 4], axis=1))
    dev_gold = np.arange(n_dev) % 2
    cfg = fast_config(max_epochs=3, patience=3, batch_size=16)
    (params, history), peak = traced_peak(_fit, features(n), features(n_dev), dev_gold, match, mapping, cfg, enc, None)
    theta = params.theta.nbytes
    assert V * 64 >= 0.95 * params.theta.size
    assert len(history.epochs) == 3
    assert peak < 4.5 * theta, f"peak {peak / theta:.2f} thetas"


@pytest.mark.parametrize("noise_lambda", [0.0, 0.5])
def test_train_without_unlabeled_batches_only_matched_rows(monkeypatch, noise_lambda):
    from sepll.trainer import _fit

    splits, conv = small_splits(seed=0)
    match = conv.match["train"]
    matched = np.flatnonzero(match.row_counts())
    assert 0 < matched.size < match.n
    n, n_dev = match.n, len(splits.dev)

    def one_hot_rows(k):  # row i has its one nonzero in column i, which names it
        return CSRMatrix(np.ones(k), np.arange(k), np.arange(k + 1), (k, n))

    dev_gold = np.array([s.gold_label for s in splits.dev])
    batches = spy_on_backward(monkeypatch)
    cfg = fast_config(use_unlabeled=False, noise_lambda=noise_lambda, max_epochs=3, patience=3, batch_size=7)
    _, history = _fit(one_hot_rows(n), one_hot_rows(n_dev), dev_gold, match, conv.mapping, cfg, SMALL_ENC, None)
    assert len(history.epochs) == 3
    seen = np.concatenate([X.indices for X, _ in batches])
    # every epoch trains each matched row exactly once, and no other row
    assert seen.size == 3 * matched.size
    for epoch in np.split(seen, 3):
        assert np.array_equal(np.sort(epoch), matched)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_raises_with_history():
    splits, conv = small_splits(seed=0)
    cfg = fast_config(learning_rate=1e150, max_epochs=3)
    with pytest.raises(NumericalError) as excinfo:
        train(splits, conv.match["train"], conv.mapping, cfg, SMALL_ENC)
    assert isinstance(excinfo.value.history, TrainHistory)


def test_warmup_ramps_recorded_lr():
    splits, conv = small_splits(seed=0, n_train=40, n_dev=10, n_test=0)
    cfg = fast_config(max_epochs=2, warmup_steps=1000, learning_rate=1e-3)
    _, history, _ = train(splits, conv.match["train"], conv.mapping, cfg, SMALL_ENC)
    lrs = [r.lr for r in history.epochs]
    assert lrs[0] < 1e-3
    assert lrs == sorted(lrs)


def test_history_csv_format(tmp_path):
    history = TrainHistory(
        epochs=[EpochRecord(epoch=0, train_loss=0.5, dev_metric=0.75, lr=0.001)],
        best_epoch=0,
        best_dev_metric=0.75,
    )
    path = tmp_path / "history.csv"
    history.to_csv(path)
    assert path.read_text() == "epoch,train_loss,dev_metric,lr\n0,0.5,0.75,0.001\n"


# ---------------------------------------------------------------------------
# ablation


def test_ablation_config_variants():
    base = TrainConfig(weight_decay=0.05, l2_lf=0.2, noise_lambda=0.3, use_unlabeled=True)
    assert ablation_config(base, "full") == base
    assert ablation_config(base, "-weight_decay").weight_decay == 0.0
    assert ablation_config(base, "-l2").l2_lf == 0.0
    assert ablation_config(base, "-unlabeled").use_unlabeled is False
    assert ablation_config(base, "-noise").noise_lambda == 0.0
    basic = ablation_config(base, "basic")
    assert basic.weight_decay == 0.0
    assert basic.l2_lf == 0.0
    assert basic.noise_lambda == 0.0
    assert basic.use_unlabeled is False
    # untouched knobs carry over
    assert basic.learning_rate == base.learning_rate
    with pytest.raises(ConfigError):
        ablation_config(base, "-dropout")


def test_run_ablation_covers_all_variants():
    splits, conv = small_splits(seed=0, n_train=80, n_dev=24, n_test=24)
    table = run_ablation(
        splits, conv.match, conv.mapping,
        fast_config(max_epochs=2, patience=1), SMALL_ENC,
    )
    assert tuple(table.keys()) == VARIANT_ORDER
    for variant, row in table.items():
        assert set(row) == {"dev", "test"}
        assert 0.0 <= row["dev"] <= 1.0
        assert 0.0 <= row["test"] <= 1.0


def test_run_ablation_featurizes_once(monkeypatch):
    import sepll.trainer

    calls = {"fit_vocabulary": 0, "featurize_split": 0}

    def counted(name):
        fn = getattr(sepll.trainer, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(sepll.trainer, name, counted(name))
    splits, conv = small_splits(seed=0, n_train=80, n_dev=24, n_test=24)
    run_ablation(splits, conv.match, conv.mapping, fast_config(max_epochs=1, patience=1), SMALL_ENC)
    assert calls == {"fit_vocabulary": 1, "featurize_split": 3}  # train, dev and test


def test_run_ablation_requires_test_gold():
    splits, conv = small_splits(seed=0, n_test=0)
    with pytest.raises(DataError, match="test split"):
        run_ablation(splits, conv.match, conv.mapping, fast_config(), SMALL_ENC)
