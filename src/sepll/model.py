"""Two-path latent model over a shared text encoding.

One head produces class logits, the other LF logits. The combined LF logits
add the class logit of each LF's class to its own logit (one-hot mapping), and
training matches softmax(combined) against the per-sample LF distribution.
Task predictions read the class head alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterator, NamedTuple

import numpy as np

from .data import MappingMatrix
from .encoder import EncoderConfig, Vocabulary
from .errors import ConfigError, DataError, NumericalError
from .nnet import ACTIVATIONS, CSRMatrix, Layer, check_finite, init_mlp, mlp_backward, mlp_forward, softmax
from .serialize import read_container, write_container

LOG_CLAMP = 1e-12

# Rows per forward pass when the model runs over a whole split (eval, analyze,
# the dev metric); a multiple of 256, see :func:`row_chunks`. A chunk gives each
# row the bits of one pass over the split only where BLAS runs the same kernel
# for both. The CSR first layer always does. For a dense layer, numpy sends a
# one-row product to a matrix-vector kernel, and OpenBLAS (scipy-openblas
# 0.3.31, AVX-512) sends a product of rows * N * K <= 10**6 multiply-adds to
# its small-matrix kernel; these kernels round differently for some shapes.
# Measured: chunks of ROW_CHUNK rows or more matched one pass on the benchmark
# workloads' models, but not once a split's one pass through an N x K head
# leaves the small-matrix kernel, which its chunks still use: a 64 -> 4 head
# from 3,907 rows on, a 16 -> 2 head from 31,251. One summation order for
# every product would remove both dependences.
ROW_CHUNK = 1024

# parameter-name prefixes of the encoder, class and LF paths, in theta order
PATHS = ("encoder", "task", "lf")


@dataclass(frozen=True)
class ModelConfig:
    head_depth: int = 1  # 1 = single affine layer, 2 = one hidden layer
    head_hidden: int = 64
    nonlinearity: str = "tanh"

    def __post_init__(self):
        if self.head_depth not in (1, 2):
            raise ConfigError("head_depth must be 1 or 2")
        if self.head_hidden < 1:
            raise ConfigError("head_hidden must be positive")
        if self.nonlinearity not in ACTIVATIONS:
            raise ConfigError(f"unknown nonlinearity {self.nonlinearity!r}")


def _views(flat: np.ndarray, dims) -> Iterator[tuple[str, np.ndarray]]:
    """(name, view) of every parameter in ``flat``, which has theta's layout: the
    paths in :data:`PATHS` order, each layer's W (row-major) then its b."""
    lo = 0
    for prefix, widths in zip(PATHS, dims):
        for i, (n_in, n_out) in enumerate(zip(widths[:-1], widths[1:])):
            for kind, shape in (("W", (n_in, n_out)), ("b", (n_out,))):
                size = math.prod(shape)
                yield f"{prefix}.{i}.{kind}", flat[lo : lo + size].reshape(shape)
                lo += size


def _layers(flat: np.ndarray, dims) -> tuple[list[Layer], ...]:
    """One list of :class:`Layer` views into ``flat`` per path."""
    views = (view for _, view in _views(flat, dims))
    return tuple([Layer(W=next(views), b=next(views)) for _ in widths[1:]] for widths in dims)


def _size(dims) -> int:
    return sum(n_in * n_out + n_out for widths in dims for n_in, n_out in zip(widths[:-1], widths[1:]))


@dataclass
class SepLLParams:
    """Every trainable parameter in one C-contiguous float64 vector ``theta``.

    ``dims`` holds the layer widths of the encoder, class and LF paths, e.g.
    ``((vocab, 256, 64), (64, c), (64, m))``. ``encoder``, ``task_head`` and
    ``lf_head`` are :class:`Layer` views into ``theta``, so writing a layer
    writes ``theta`` and the optimizer's writes to ``theta`` show in the layers.
    """

    theta: np.ndarray
    dims: tuple[tuple[int, ...], ...]
    mapping: MappingMatrix
    encoder_nonlinearity: str = "tanh"
    head_nonlinearity: str = "tanh"
    encoder: list[Layer] = field(init=False, repr=False)
    task_head: list[Layer] = field(init=False, repr=False)
    lf_head: list[Layer] = field(init=False, repr=False)

    def __post_init__(self):
        self.encoder, self.task_head, self.lf_head = _layers(self.theta, self.dims)

    @property
    def lf_slice(self) -> slice:
        """The LF path's part of ``theta``, its tail."""
        return slice(_size(self.dims[:2]), self.theta.size)

    @property
    def first_size(self) -> int:
        """How many elements the first layer's weights take at the head of ``theta``."""
        return self.dims[0][0] * self.dims[0][1]


@dataclass(frozen=True)
class ForwardTrace:
    """Everything the forward pass produces; batch fields have a leading n axis."""

    z: np.ndarray
    task_logits: np.ndarray
    lf_logits: np.ndarray
    combined_logits: np.ndarray
    q: np.ndarray


def init_params(
    input_dim: int,
    mapping: MappingMatrix,
    encoder_config: EncoderConfig | None = None,
    model_config: ModelConfig | None = None,
    rng: np.random.Generator | None = None,
) -> SepLLParams:
    encoder_config = encoder_config or EncoderConfig()
    model_config = model_config or ModelConfig()
    if rng is None:
        rng = np.random.default_rng(0)
    if mapping.m < 1:
        raise DataError("model needs at least one LF column")
    d = encoder_config.dim
    heads = (d, model_config.head_hidden) if model_config.head_depth == 2 else (d,)
    dims = ((input_dim, *encoder_config.hidden, d), (*heads, mapping.c), (*heads, mapping.m))
    params = SepLLParams(
        theta=np.zeros(_size(dims)),
        dims=dims,
        mapping=mapping,
        encoder_nonlinearity=encoder_config.nonlinearity,
        head_nonlinearity=model_config.nonlinearity,
    )
    # draws in path order, one W per layer; biases stay zero
    for layers, widths in zip((params.encoder, params.task_head, params.lf_head), dims):
        for layer, fresh in zip(layers, init_mlp(widths, rng)):
            layer.W[...] = fresh.W
    return params


def param_items(params: SepLLParams, flat: np.ndarray | None = None) -> Iterator[tuple[str, np.ndarray]]:
    """Stable (name, view) walk over every trainable tensor.

    The views are into ``params.theta``, or into ``flat`` when given: any
    vector with theta's layout, such as a gradient from :func:`backward`.
    """
    return _views(params.theta if flat is None else flat, params.dims)


def param_name_at(params: SepLLParams, index: int) -> str:
    """Name of the parameter that holds element ``index`` of ``theta``."""
    end = 0
    for name, view in param_items(params):
        end += view.size
        if index < end:
            return name
    raise IndexError(f"theta has {end} elements, no index {index}")


def clone_params(params: SepLLParams) -> SepLLParams:
    return replace(params, theta=params.theta.copy())


def _forward_with_caches(params: SepLLParams, X):
    z, enc_cache = mlp_forward(params.encoder, X, params.encoder_nonlinearity)
    task_logits, task_cache = mlp_forward(params.task_head, z, params.head_nonlinearity)
    lf_logits, lf_cache = mlp_forward(params.lf_head, z, params.head_nonlinearity)
    check_finite("model logits", task_logits, lf_logits)
    combined = lf_logits + task_logits[:, params.mapping.class_of]
    return z, task_logits, lf_logits, combined, enc_cache, task_cache, lf_cache


def forward_batch(params: SepLLParams, X) -> ForwardTrace:
    z, task_logits, lf_logits, combined, *_ = _forward_with_caches(params, X)
    return ForwardTrace(z, task_logits, lf_logits, combined_logits=combined, q=softmax(combined))


def row_chunks(n: int) -> Iterator[slice]:
    """Consecutive slices that cover ``range(n)``: :data:`ROW_CHUNK` rows each, the
    last one taking the rest too, so that only a split shorter than ROW_CHUNK
    has a shorter chunk. One empty slice when ``n`` is 0."""
    for lo in range(0, max(n // ROW_CHUNK, 1) * ROW_CHUNK, ROW_CHUNK):
        yield slice(lo, lo + ROW_CHUNK if lo + 2 * ROW_CHUNK <= n else n)


def row_log_likelihoods(q: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """sum_j P_ij log Q_ij of each row of the (n, m) batch, with log clamped at
    1e-12: minus each row's cross-entropy."""
    q = np.asarray(q, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if q.ndim != 2:
        raise DataError(f"Q must be 2-D (n, m), got shape {q.shape}")
    if q.shape != targets.shape:
        raise DataError(f"shape mismatch between Q {q.shape} and targets {targets.shape}")
    logs = np.clip(q, LOG_CLAMP, None)  # the one array of q's size made here; the rest is in place
    np.log(logs, out=logs)
    logs *= targets
    return logs.sum(axis=1)


def ce_loss(q: np.ndarray, targets: np.ndarray) -> float:
    """Mean over the (n, m) batch of -sum_j P_ij log Q_ij, with log clamped at 1e-12."""
    rows = row_log_likelihoods(q, targets)
    if rows.size == 0:
        raise DataError("cannot take a loss over an empty batch")
    return float(-rows.mean())


def predict_batch(params: SepLLParams, X) -> np.ndarray:
    """Argmax class per row from the class path alone (the encoder and the task
    head), over :func:`row_chunks` of ``X``; ties go to the lowest index. The
    task logits are :func:`forward_batch`'s; the LF head is never run."""
    preds = []
    for rows in row_chunks(X.shape[0]):
        z, _ = mlp_forward(params.encoder, X[rows], params.encoder_nonlinearity)
        task_logits, _ = mlp_forward(params.task_head, z, params.head_nonlinearity)
        check_finite("model logits", task_logits)
        preds.append(np.argmax(task_logits, axis=1))
    return np.concatenate(preds)


class Gradient(NamedTuple):
    """A gradient with theta's layout, as the three arrays :func:`sepll.native.adamw`
    takes. ``first`` holds the rows ``rows`` (ascending) of the gradient of the
    first layer's weights, ``encoder.0.W``, which is +0.0 on every other row.
    ``rest`` is the dense gradient of the rest of theta, from element
    ``params.first_size`` on."""

    rows: np.ndarray
    first: np.ndarray
    rest: np.ndarray


def backward(
    params: SepLLParams,
    X,
    targets: np.ndarray,
    l2_lf: float = 0.0,
    l2_lf_target: str = "parameters",
) -> tuple[float, Gradient]:
    """Loss and exact gradients of the batch-mean loss for every parameter, with
    the L2 penalty of strength ``l2_lf`` on the LF path.

    With ``l2_lf_target`` "activations" the loss gains
    l2_lf * mean_i ||lf_logits_i||^2 and the gradient its derivative. With
    "parameters" the gradient gains 2 * l2_lf * theta on the LF path's
    parameters, and the returned loss leaves that penalty out.
    Returns ``(loss, grad)``, a :class:`Gradient`. ``grad.rows`` are the rows
    of ``encoder.0.W`` that the batch can touch: for a :class:`CSRMatrix` batch
    the ``cols`` of :meth:`CSRMatrix.transpose_product`, for a dense one every row.
    """
    activation_penalty = l2_lf if l2_lf_target == "activations" else 0.0
    targets = np.asarray(targets, dtype=np.float64)
    z, task_logits, lf_logits, combined, enc_cache, task_cache, lf_cache = _forward_with_caches(
        params, X
    )
    if combined.shape != targets.shape:  # the logits are 2-D, so this rejects other targets
        raise DataError(f"shape mismatch between logits {combined.shape} and targets {targets.shape}")
    n = targets.shape[0]
    q = softmax(combined)
    loss = ce_loss(q, targets)  # rejects an empty batch
    if activation_penalty:
        loss += activation_penalty * float((lf_logits**2).sum()) / n

    d_combined = (q - targets) / n
    d_lf = d_combined.copy()
    if activation_penalty:
        d_lf += (2.0 * activation_penalty / n) * lf_logits
    d_task = d_combined @ params.mapping.to_dense()

    lf_grads, dz_lf = mlp_backward(params.lf_head, lf_cache, d_lf, params.head_nonlinearity)
    task_grads, dz_task = mlp_backward(params.task_head, task_cache, d_task, params.head_nonlinearity)
    enc_grads, _ = mlp_backward(
        params.encoder, enc_cache, dz_lf + dz_task, params.encoder_nonlinearity, need_input_grad=False
    )
    (first_W, first_b), *enc_grads = enc_grads
    rows, first = first_W if isinstance(X, CSRMatrix) else (np.arange(params.dims[0][0]), first_W)
    rest = np.concatenate([first_b] + [a.ravel() for layer in (*enc_grads, *task_grads, *lf_grads) for a in layer])
    if not np.isfinite(first).all():
        raise NumericalError(f"non-finite gradient in {param_name_at(params, 0)}")
    finite = np.isfinite(rest)
    if not finite.all():
        at = params.first_size + int(np.argmin(finite))
        raise NumericalError(f"non-finite gradient in {param_name_at(params, at)}")
    if l2_lf > 0 and l2_lf_target == "parameters":
        lf = params.lf_slice
        rest[lf.start - params.first_size :] += 2.0 * l2_lf * params.theta[lf]
    return loss, Gradient(rows, first, rest)


# ---------------------------------------------------------------------------
# checkpointing


def save_checkpoint(
    path,
    params: SepLLParams,
    vocab: Vocabulary,
    config_echo: dict | None = None,
) -> None:
    """A container of ``params.theta`` under a header of everything else, ``dims`` included."""
    header = {
        "kind": "sepll-model",
        "version": 2,
        "encoder_nonlinearity": params.encoder_nonlinearity,
        "head_nonlinearity": params.head_nonlinearity,
        "dims": [list(widths) for widths in params.dims],
        "n_classes": params.mapping.c,
        "class_of": [int(v) for v in params.mapping.class_of],
        "vocab": {
            "tokens": list(vocab.tokens),
            "df": [int(v) for v in vocab.df],
            "n_docs": vocab.n_docs,
            "lowercase": vocab.lowercase,
        },
        "config": config_echo or {},
    }
    write_container(path, header, params.theta)


def _field(obj: dict, key: str, kind: type, listed: bool = False):
    """``obj[key]``, of exactly the type ``kind`` (a list of them when ``listed``): json
    gives true/false as bool, which isinstance(..., int) accepts."""
    value = obj[key]
    if listed and (type(value) is not list or any(type(v) is not kind for v in value)):
        raise TypeError(f"{key!r} must be a list of {kind.__name__}")
    if not listed and type(value) is not kind:
        raise TypeError(f"{key!r} must be {kind.__name__}, got {type(value).__name__}")
    return value


# the sections of the config echo that ``train`` writes: (type, list of that type)
_ECHO_SECTIONS = {
    "encoder": (dict, False),
    "model": (dict, False),
    "train": (dict, False),
    "data": (dict, False),
    "lfs": (list, False),
    "class_names": (str, True),
}


def load_checkpoint(path) -> tuple[SepLLParams, Vocabulary, dict]:
    header, theta = read_container(path)
    if header.get("kind") != "sepll-model":
        raise DataError(f"{path}: not a model checkpoint")
    version = header.get("version")
    if type(version) is not int or version != 2:
        raise DataError(f"{path}: checkpoint format version {version!r} is not 2; train again to write one")
    try:
        mapping = MappingMatrix(
            c=_field(header, "n_classes", int),
            class_of=np.asarray(_field(header, "class_of", int, listed=True), dtype=np.int64),
        )
        dims = header["dims"]
        if type(dims) is not list or len(dims) != len(PATHS) or any(
            type(widths) is not list or any(type(w) is not int for w in widths) for widths in dims
        ):
            raise TypeError(f"'dims' must be {len(PATHS)} lists of int")
        for prefix, widths in zip(PATHS, dims):  # the encoder's first, so its widths are checked first
            if len(widths) < 2 or min(widths) < 1:
                raise DataError(f"dims: the {prefix} path needs at least two widths, each at least 1, got {widths}")
            if prefix != "encoder" and widths[0] != dims[0][-1]:
                raise DataError(
                    f"dims: the {prefix} path's input is {widths[0]} wide but the encoder's output is {dims[0][-1]}"
                )
        dims = tuple(map(tuple, dims))
        nonlinearities = header["encoder_nonlinearity"], header["head_nonlinearity"]
        for name in nonlinearities:
            if name not in ACTIVATIONS:
                raise DataError(f"unknown nonlinearity {name!r}")
        v = header["vocab"]
        vocab = Vocabulary(
            tokens=tuple(_field(v, "tokens", str, listed=True)),
            df=np.asarray(_field(v, "df", int, listed=True), dtype=np.int64),
            n_docs=_field(v, "n_docs", int),
            lowercase=_field(v, "lowercase", bool),
        )
        if len(vocab.index) != len(vocab):
            repeated = next(t for i, t in enumerate(vocab.tokens) if vocab.index[t] != i)
            raise DataError(f"vocabulary repeats the token {repeated!r}")
        if vocab.df.shape != (len(vocab),):
            raise DataError(f"vocabulary has {len(vocab)} tokens but {vocab.df.size} document frequencies")
        if not (vocab.n_docs >= 0 and np.all((vocab.df >= 0) & (vocab.df <= vocab.n_docs))):
            raise DataError(f"vocabulary document frequencies are not all in [0, n_docs = {vocab.n_docs}]")
        echo = _field({"config": header.get("config", {})}, "config", dict)
        for key in echo:
            if key not in _ECHO_SECTIONS:
                raise DataError(f"config echo has an unknown section {key!r}")
            _field(echo, key, *_ECHO_SECTIONS[key])
    except KeyError as exc:
        raise DataError(f"{path}: checkpoint header is missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: malformed checkpoint header: {exc}") from exc
    except DataError as exc:  # the widths, and MappingMatrix's own checks
        raise DataError(f"{path}: {exc}") from exc
    if theta.size != _size(dims):
        raise DataError(f"{path}: payload holds {theta.size} values but dims need {_size(dims)}")
    if len(vocab) != dims[0][0]:
        raise DataError(
            f"{path}: vocabulary has {len(vocab)} tokens but the encoder input dim is {dims[0][0]}"
        )
    if mapping.c != dims[1][-1]:
        raise DataError(f"{path}: n_classes is {mapping.c} but the task head has width {dims[1][-1]}")
    if mapping.m != dims[2][-1]:
        raise DataError(
            f"{path}: class_of has {mapping.m} entries but the LF head has width {dims[2][-1]}"
        )
    params = SepLLParams(theta, dims, mapping, *nonlinearities)
    finite = np.isfinite(params.theta)
    if not finite.all():
        raise DataError(f"{path}: non-finite value in {param_name_at(params, int(np.argmin(finite)))}")
    return params, vocab, echo
