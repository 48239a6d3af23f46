"""AdamW training loop with warmup, the information-routing strategies, and the
ablation runner.

Routing during training: decoupled weight decay on all parameters, an L2
penalty on the LF head (parameters by default, activations behind a config
switch), per-epoch noise injection that hallucinates same-class sibling
matches, and optional uniform-target training on unmatched samples.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import native
from .data import MappingMatrix, MatchMatrix, SplitSet, build_targets
from .encoder import EncoderConfig, Vocabulary, featurize_split, fit_vocabulary
from .errors import ConfigError, DataError, NumericalError
from .evaluation import task_metrics
from .model import (
    GradientBuffer,
    ModelConfig,
    SepLLParams,
    backward,
    clone_params,
    init_params,
    param_name_at,
    predict_batch,
    row_chunks,
)
from .nnet import CSRMatrix
from .seeds import stream
from .serialize import write_csv


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 16
    warmup_steps: int = 0
    weight_decay: float = 0.01
    l2_lf: float = 0.1
    noise_lambda: float = 0.1
    use_unlabeled: bool = True
    max_epochs: int = 50
    patience: int = 5
    seed: int = 0
    metric: str = "accuracy"
    positive_class: int = 1
    l2_lf_target: str = "parameters"  # or "activations"

    def __post_init__(self):
        for name in ("learning_rate", "weight_decay", "l2_lf"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.warmup_steps < 0:
            raise ConfigError("warmup_steps must be non-negative")
        if self.weight_decay < 0 or self.l2_lf < 0:
            raise ConfigError("regularizer strengths must be non-negative")
        if not (0.0 <= self.noise_lambda <= 1.0):
            raise ConfigError("noise_lambda must be in [0, 1]")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be at least 1")
        if self.patience < 1:
            raise ConfigError("patience must be at least 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.metric not in ("accuracy", "binary_f1", "macro_f1"):
            raise ConfigError(f"unknown dev metric {self.metric!r}")
        if self.positive_class not in (0, 1):
            raise ConfigError(f"positive_class must be 0 or 1, got {self.positive_class}")
        if self.l2_lf_target not in ("parameters", "activations"):
            raise ConfigError("l2_lf_target must be 'parameters' or 'activations'")


def lr_schedule(step: int, warmup_steps: int, base_lr: float) -> float:
    """Linear ramp 0 -> base_lr over warmup_steps, then constant."""
    if step < 0:
        raise ConfigError("step must be non-negative")
    if warmup_steps <= 0 or step >= warmup_steps:
        return base_lr
    return base_lr * step / warmup_steps


@dataclass
class OptimizerState:
    m: np.ndarray  # first and second moments, with theta's layout
    v: np.ndarray
    step: int = 0


def init_optimizer(params: SepLLParams) -> OptimizerState:
    return OptimizerState(m=np.zeros_like(params.theta), v=np.zeros_like(params.theta))


def adamw_step(
    params: SepLLParams,
    grad: np.ndarray,
    state: OptimizerState,
    config: TrainConfig,
    current_lr: float,
) -> None:
    """One decoupled-weight-decay Adam update, in place on ``params.theta``,
    through :func:`sepll.native.adamw`.

    ``grad`` has theta's layout. A non-finite update raises ``NumericalError``
    naming the parameter, with theta and the moments left partly updated.
    """
    state.step += 1
    bad = native.adamw(
        params.theta, grad, state.m, state.v, state.step, current_lr, current_lr * config.weight_decay
    )
    if bad >= 0:
        raise NumericalError(f"non-finite optimizer update for {param_name_at(params, bad)}")


def inject_noise(
    match: MatchMatrix,
    mapping: MappingMatrix,
    noise_lambda: float,
    rng: np.random.Generator,
) -> MatchMatrix:
    """For every sample and class with at least one match, each unmatched LF of
    that class independently gains a match with probability noise_lambda.
    Existing matches are never removed.

    The draws are one uniform per (sample, LF) cell in row-major order, made in
    :func:`~sepll.model.row_chunks` of rows: the same stream as one (n, m) draw.
    """
    class_hit = match.class_votes(mapping) > 0
    if not (0.0 <= noise_lambda <= 1.0):
        raise ConfigError("noise_lambda must be in [0, 1]")
    if noise_lambda == 0.0 or match.m == 0 or match.n == 0:
        return match
    pairs = [match.pairs]
    for rows in row_chunks(match.n):
        eligible = class_hit[rows, mapping.class_of]
        own = match.pairs[match.row_starts[rows.start] : match.row_starts[rows.stop]]
        eligible[own[:, 0] - rows.start, own[:, 1]] = False
        eligible &= rng.random(eligible.shape) < noise_lambda
        hit = np.argwhere(eligible)
        hit[:, 0] += rows.start
        pairs.append(hit)
    return MatchMatrix(match.n, match.m, np.concatenate(pairs))


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    dev_metric: float
    lr: float


@dataclass
class TrainHistory:
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = -1
    best_dev_metric: float = float("-inf")
    stopped_early: bool = False

    def to_csv(self, path) -> None:
        names = [f.name for f in dataclasses.fields(EpochRecord)]
        write_csv(path, [names, *([repr(getattr(r, name)) for name in names] for r in self.epochs)])


def _dev_metric(params, X, gold, config: TrainConfig, n_classes: int) -> float:
    preds = predict_batch(params, X)
    return task_metrics(
        preds,
        gold,
        metric=config.metric,
        n_classes=n_classes,
        positive_class=config.positive_class,
    ).value


def train(
    splits: SplitSet,
    match_train: MatchMatrix,
    mapping: MappingMatrix,
    config: TrainConfig | None = None,
    encoder_config: EncoderConfig | None = None,
    model_config: ModelConfig | None = None,
) -> tuple[SepLLParams, TrainHistory, Vocabulary]:
    """Fit the two-path model; returns the best-dev parameters, the history, and
    the vocabulary fitted on the training split.

    Each epoch re-samples noise injection, shuffles, then sweeps mini-batches,
    each trained toward the targets of its own rows; early stopping keeps the
    parameters of the best dev epoch and stops after ``patience`` epochs
    without improvement.
    """
    encoder_config = encoder_config or EncoderConfig()
    vocab, X_train, X_dev, dev_gold = _featurize(splits, match_train, encoder_config)
    params, history = _fit(
        X_train, X_dev, dev_gold, match_train, mapping, config or TrainConfig(), encoder_config, model_config
    )
    return params, history, vocab


def _featurize(splits: SplitSet, match_train: MatchMatrix, encoder_config: EncoderConfig):
    """Check the splits, fit the vocabulary on the train texts and featurize the
    train and dev splits; returns ``(vocab, X_train, X_dev, dev_gold)``."""
    if not splits.dev:
        raise DataError("dev split required for early stopping")
    if any(s.gold_label is None for s in splits.dev):
        raise DataError("dev split requires gold labels for early stopping")
    if match_train.n != len(splits.train):
        raise DataError(
            f"match matrix has {match_train.n} rows but train split has {len(splits.train)} samples"
        )
    vocab = fit_vocabulary([s.text for s in splits.train], encoder_config)
    X_train = featurize_split([s.text for s in splits.train], vocab)
    X_dev = featurize_split([s.text for s in splits.dev], vocab)
    dev_gold = np.array([s.gold_label for s in splits.dev], dtype=np.int64)
    return vocab, X_train, X_dev, dev_gold


def _fit(
    X_train: CSRMatrix,
    X_dev: CSRMatrix,
    dev_gold: np.ndarray,
    match_train: MatchMatrix,
    mapping: MappingMatrix,
    config: TrainConfig,
    encoder_config: EncoderConfig,
    model_config: ModelConfig | None,
) -> tuple[SepLLParams, TrainHistory]:
    """The training loop of :func:`train`, on features built by :func:`_featurize`. The rows
    that train (all, or the matched ones without ``use_unlabeled``) are fixed once, ascending.

    Besides theta, its gradient and the two moments, it holds one theta-sized array
    (the best epoch's parameters, refilled in place) and no (n, m) array: each
    batch builds the targets of its own rows."""
    if config.metric == "binary_f1" and mapping.c != 2:
        raise DataError(f"binary_f1 requires exactly 2 classes, got {mapping.c}")
    rng_init = stream(config.seed, "init")
    rng_shuffle = stream(config.seed, "shuffle")
    rng_noise = stream(config.seed, "noise")
    native.load()  # the kernels run from here on, where they could be built
    params = init_params(X_train.shape[1], mapping, encoder_config, model_config, rng_init)
    # noise only adds matches to rows that already have one, so no epoch changes this set
    train_rows = np.arange(match_train.n) if config.use_unlabeled else np.flatnonzero(match_train.row_counts())
    if train_rows.size == 0:
        raise DataError("no training rows: every sample is unmatched and use_unlabeled is off")
    state = init_optimizer(params)
    grad_buffer = GradientBuffer(np.zeros_like(params.theta))  # every batch's gradient
    history = TrainHistory()
    best_params = clone_params(params)  # the one copy; improving epochs refill it
    epochs_flat = 0
    global_step = 0
    activation_penalty = config.l2_lf if config.l2_lf_target == "activations" else 0.0
    lf = params.lf_slice

    try:
        for epoch in range(config.max_epochs):
            noised = inject_noise(match_train, mapping, config.noise_lambda, rng_noise)
            order = train_rows.copy()
            rng_shuffle.shuffle(order)
            losses = []
            for start in range(0, order.size, config.batch_size):
                batch = order[start : start + config.batch_size]
                global_step += 1
                lr = lr_schedule(global_step, config.warmup_steps, config.learning_rate)
                loss, grad = backward(
                    params,
                    X_train[batch],
                    build_targets(noised.take(batch)),
                    lf_activation_penalty=activation_penalty,
                    out=grad_buffer,
                )
                if not math.isfinite(loss):
                    raise NumericalError(f"non-finite training loss at step {global_step}")
                if config.l2_lf > 0 and config.l2_lf_target == "parameters":
                    grad[lf] += 2.0 * config.l2_lf * params.theta[lf]
                adamw_step(params, grad, state, config, lr)
                losses.append(loss)
            dev_metric = _dev_metric(params, X_dev, dev_gold, config, mapping.c)
            history.epochs.append(
                EpochRecord(epoch=epoch, train_loss=float(np.mean(losses)), dev_metric=dev_metric, lr=lr)
            )
            if dev_metric > history.best_dev_metric:
                history.best_dev_metric = dev_metric
                history.best_epoch = epoch
                np.copyto(best_params.theta, params.theta)
                epochs_flat = 0
            else:
                epochs_flat += 1
                if epochs_flat >= config.patience:
                    history.stopped_early = True
                    break
    except NumericalError as exc:
        exc.history = history  # let callers inspect the partial run
        raise
    return best_params, history


# ---------------------------------------------------------------------------
# ablation

# each routing variant's overrides of the base config
VARIANTS: dict[str, dict[str, object]] = {
    "full": {},
    "-weight_decay": {"weight_decay": 0.0},
    "-l2": {"l2_lf": 0.0},
    "-unlabeled": {"use_unlabeled": False},
    "-noise": {"noise_lambda": 0.0},
    "basic": {"weight_decay": 0.0, "l2_lf": 0.0, "use_unlabeled": False, "noise_lambda": 0.0},
}
VARIANT_ORDER = tuple(VARIANTS)


def ablation_config(base: TrainConfig, variant: str) -> TrainConfig:
    if variant not in VARIANTS:
        raise ConfigError(f"unknown ablation variant {variant!r}")
    return dataclasses.replace(base, **VARIANTS[variant])


def run_ablation(
    splits: SplitSet,
    match_by_split: Mapping[str, MatchMatrix],
    mapping: MappingMatrix,
    base_config: TrainConfig | None = None,
    encoder_config: EncoderConfig | None = None,
    model_config: ModelConfig | None = None,
) -> dict[str, dict[str, float]]:
    """Train every routing variant; returns {variant: {dev, test}} in a fixed order.

    The vocabulary and the features depend on no routing switch, so they are
    built once and shared by all variants.
    """
    base_config = base_config or TrainConfig()
    encoder_config = encoder_config or EncoderConfig()
    if not splits.test or any(s.gold_label is None for s in splits.test):
        raise DataError("ablation requires a test split with gold labels")
    test_gold = np.array([s.gold_label for s in splits.test], dtype=np.int64)
    vocab, X_train, X_dev, dev_gold = _featurize(splits, match_by_split["train"], encoder_config)
    X_test = featurize_split([s.text for s in splits.test], vocab)
    table: dict[str, dict[str, float]] = {}
    for variant in VARIANT_ORDER:
        cfg = ablation_config(base_config, variant)
        params, history = _fit(
            X_train, X_dev, dev_gold, match_by_split["train"], mapping, cfg, encoder_config, model_config
        )
        test_metric = _dev_metric(params, X_test, test_gold, cfg, mapping.c)
        table[variant] = {"dev": history.best_dev_metric, "test": test_metric}
    return table
