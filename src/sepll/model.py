"""Two-path latent model over a shared text encoding.

One head produces class logits, the other LF logits. The combined LF logits
add the class logit of each LF's class to its own logit (one-hot mapping), and
training matches softmax(combined) against the per-sample LF distribution.
Task predictions read the class head alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .data import MappingMatrix
from .encoder import EncoderConfig, EncoderParams, FeatureVector, Vocabulary, init_encoder
from .errors import ConfigError, DataError, NumericalError
from .nnet import ACTIVATIONS, Layer, check_finite, init_mlp, mlp_backward, mlp_forward, softmax
from .serialize import read_container, write_container

LOG_CLAMP = 1e-12


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


@dataclass
class SepLLParams:
    encoder: EncoderParams
    task_head: list[Layer]
    lf_head: list[Layer]
    mapping: MappingMatrix
    head_nonlinearity: str = "tanh"

    @property
    def n_classes(self) -> int:
        return self.mapping.c

    @property
    def n_lfs(self) -> int:
        return self.mapping.m


@dataclass(frozen=True)
class ForwardTrace:
    """Everything the forward pass produces; batch fields have a leading n axis."""

    z: np.ndarray
    task_logits: np.ndarray
    lf_logits: np.ndarray
    combined_logits: np.ndarray
    q: np.ndarray
    task_probs: np.ndarray


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
    encoder = init_encoder(input_dim, encoder_config, rng)
    d = encoder_config.dim
    if model_config.head_depth == 1:
        task_dims = [d, mapping.c]
        lf_dims = [d, mapping.m]
    else:
        task_dims = [d, model_config.head_hidden, mapping.c]
        lf_dims = [d, model_config.head_hidden, mapping.m]
    return SepLLParams(
        encoder=encoder,
        task_head=init_mlp(task_dims, rng),
        lf_head=init_mlp(lf_dims, rng),
        mapping=mapping,
        head_nonlinearity=model_config.nonlinearity,
    )


def param_items(params: SepLLParams) -> Iterator[tuple[str, np.ndarray]]:
    """Stable (name, array) walk over every trainable tensor."""
    for prefix, layers in (
        ("encoder", params.encoder.layers),
        ("task", params.task_head),
        ("lf", params.lf_head),
    ):
        for i, layer in enumerate(layers):
            yield f"{prefix}.{i}.W", layer.W
            yield f"{prefix}.{i}.b", layer.b


def clone_params(params: SepLLParams) -> SepLLParams:
    return SepLLParams(
        encoder=EncoderParams(
            layers=[Layer(W=l.W.copy(), b=l.b.copy()) for l in params.encoder.layers],
            nonlinearity=params.encoder.nonlinearity,
        ),
        task_head=[Layer(W=l.W.copy(), b=l.b.copy()) for l in params.task_head],
        lf_head=[Layer(W=l.W.copy(), b=l.b.copy()) for l in params.lf_head],
        mapping=params.mapping,
        head_nonlinearity=params.head_nonlinearity,
    )


def _forward_with_caches(params: SepLLParams, X):
    z, enc_cache = mlp_forward(params.encoder.layers, X, params.encoder.nonlinearity)
    task_logits, task_cache = mlp_forward(params.task_head, z, params.head_nonlinearity)
    lf_logits, lf_cache = mlp_forward(params.lf_head, z, params.head_nonlinearity)
    check_finite("model logits", task_logits, lf_logits)
    combined = lf_logits + task_logits[:, params.mapping.class_of]
    return z, task_logits, lf_logits, combined, enc_cache, task_cache, lf_cache


def forward_batch(params: SepLLParams, X) -> ForwardTrace:
    z, task_logits, lf_logits, combined, *_ = _forward_with_caches(params, X)
    return ForwardTrace(
        z=z,
        task_logits=task_logits,
        lf_logits=lf_logits,
        combined_logits=combined,
        q=softmax(combined),
        task_probs=softmax(task_logits),
    )


def _as_row(features) -> np.ndarray:
    if isinstance(features, FeatureVector):
        row = np.zeros((1, features.dim))
        if features.indices.size:
            row[0, features.indices] = features.weights
        return row
    arr = np.asarray(features, dtype=np.float64)
    return arr.reshape(1, -1)


def forward(params: SepLLParams, features) -> ForwardTrace:
    """Single-sample forward; fields come back squeezed to 1-d."""
    t = forward_batch(params, _as_row(features))
    return ForwardTrace(
        z=t.z[0],
        task_logits=t.task_logits[0],
        lf_logits=t.lf_logits[0],
        combined_logits=t.combined_logits[0],
        q=t.q[0],
        task_probs=t.task_probs[0],
    )


def ce_loss(q: np.ndarray, targets: np.ndarray) -> float:
    """Mean over the batch of -sum_j P_ij log Q_ij, with log clamped at 1e-12."""
    q = np.asarray(q, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if q.ndim == 1:
        q = q[None, :]
        targets = targets[None, :]
    if q.shape != targets.shape:
        raise DataError(f"shape mismatch between Q {q.shape} and targets {targets.shape}")
    if q.shape[0] == 0:
        raise DataError("cannot take a loss over an empty batch")
    logs = np.log(np.clip(q, LOG_CLAMP, None))
    return float(-(targets * logs).sum(axis=1).mean())


def task_predict(params: SepLLParams, features) -> int:
    """Argmax class from the task head alone; ties go to the lowest index."""
    return int(np.argmax(forward(params, features).task_logits))


def predict_batch(params: SepLLParams, X) -> np.ndarray:
    trace = forward_batch(params, X)
    return np.argmax(trace.task_logits, axis=1)


def backward(params: SepLLParams, X, targets: np.ndarray, lf_activation_penalty: float = 0.0):
    """Loss and exact gradients of the batch-mean loss for every parameter.

    With ``lf_activation_penalty`` > 0 the loss gains
    penalty * mean_i ||lf_logits_i||^2 (the activation flavor of LF-path L2).
    Returns ``(loss, grads)`` with grads keyed like :func:`param_items`.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim == 1:
        targets = targets[None, :]
    n = targets.shape[0]
    if n == 0:
        raise DataError("cannot take gradients over an empty batch")
    z, task_logits, lf_logits, combined, enc_cache, task_cache, lf_cache = _forward_with_caches(
        params, X
    )
    if combined.shape != targets.shape:
        raise DataError(f"shape mismatch between logits {combined.shape} and targets {targets.shape}")
    q = softmax(combined)
    loss = ce_loss(q, targets)
    if lf_activation_penalty:
        loss += lf_activation_penalty * float((lf_logits**2).sum()) / n

    d_combined = (q - targets) / n
    d_lf = d_combined.copy()
    if lf_activation_penalty:
        d_lf += (2.0 * lf_activation_penalty / n) * lf_logits
    d_task = d_combined @ params.mapping.to_dense()

    lf_grads, dz_lf = mlp_backward(params.lf_head, lf_cache, d_lf, params.head_nonlinearity)
    task_grads, dz_task = mlp_backward(params.task_head, task_cache, d_task, params.head_nonlinearity)
    enc_grads, _ = mlp_backward(
        params.encoder.layers,
        enc_cache,
        dz_lf + dz_task,
        params.encoder.nonlinearity,
        need_input_grad=False,
    )
    grads: dict[str, np.ndarray] = {}
    for prefix, layer_grads in (("encoder", enc_grads), ("task", task_grads), ("lf", lf_grads)):
        for i, g in enumerate(layer_grads):
            grads[f"{prefix}.{i}.W"] = g.W
            grads[f"{prefix}.{i}.b"] = g.b
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"non-finite gradient in {name}")
    return loss, grads


# ---------------------------------------------------------------------------
# checkpointing


def save_checkpoint(
    path,
    params: SepLLParams,
    vocab: Vocabulary,
    config_echo: dict | None = None,
) -> None:
    header = {
        "kind": "sepll-model",
        "version": 1,
        "encoder_nonlinearity": params.encoder.nonlinearity,
        "head_nonlinearity": params.head_nonlinearity,
        "dim": params.encoder.dim,
        "n_classes": params.mapping.c,
        "class_of": [int(v) for v in params.mapping.class_of],
        "vocab": {
            "tokens": list(vocab.tokens),
            "df": [int(v) for v in vocab.df],
            "n_docs": vocab.n_docs,
            "lowercase": vocab.lowercase,
        },
        "config": config_echo or {},
        "task_layers": len(params.task_head),
        "lf_layers": len(params.lf_head),
        "encoder_layers": len(params.encoder.layers),
    }
    arrays = dict(param_items(params))
    write_container(path, header, arrays)


def load_checkpoint(path) -> tuple[SepLLParams, Vocabulary, dict]:
    header, arrays = read_container(path)
    if header.get("kind") != "sepll-model":
        raise DataError(f"{path}: not a model checkpoint")

    def layers_for(prefix: str) -> list[Layer]:
        count = int(header[f"{prefix}_layers"])
        if count < 1:
            raise DataError(f"{prefix}_layers must be at least 1, got {count}")
        out = []
        for i in range(count):
            try:
                out.append(Layer(W=arrays[f"{prefix}.{i}.W"].copy(), b=arrays[f"{prefix}.{i}.b"].copy()))
            except KeyError as exc:
                raise DataError(f"missing array {exc} in checkpoint") from exc
        return out

    try:
        mapping = MappingMatrix(
            c=int(header["n_classes"]),
            class_of=np.asarray(header["class_of"], dtype=np.int64),
        )
        params = SepLLParams(
            encoder=EncoderParams(
                layers=layers_for("encoder"),
                nonlinearity=header["encoder_nonlinearity"],
            ),
            task_head=layers_for("task"),
            lf_head=layers_for("lf"),
            mapping=mapping,
            head_nonlinearity=header["head_nonlinearity"],
        )
        v = header["vocab"]
        vocab = Vocabulary(
            tokens=tuple(v["tokens"]),
            df=np.asarray(v["df"], dtype=np.int64),
            n_docs=int(v["n_docs"]),
            lowercase=bool(v["lowercase"]),
        )
    except KeyError as exc:
        raise DataError(f"{path}: checkpoint header is missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed checkpoint header: {exc}") from exc
    except DataError as exc:  # layer counts and MappingMatrix's own checks
        raise DataError(f"{path}: {exc}") from exc
    if len(vocab) != params.encoder.input_dim:
        raise DataError(
            f"{path}: vocabulary has {len(vocab)} tokens but the encoder input dim is "
            f"{params.encoder.input_dim}"
        )
    lf_width = params.lf_head[-1].W.shape[1]
    if mapping.m != lf_width:
        raise DataError(f"{path}: class_of has {mapping.m} entries but the LF head has width {lf_width}")
    return params, vocab, header.get("config", {})
