"""Task metrics, thresholded LF predictions, memorization analysis, and the
match-count / train-test breakdowns, plus CSV/SVG report output.

The memorization analysis compares three prediction distributions over LF
columns: softmax of the LF head alone ("lf_latent"), softmax of the combined
logits ("full"), and softmax of the class logits broadcast through the LF
mapping ("task_mapped"). A probability strictly above k/m counts as a
predicted match (k small, default 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import MatchMatrix, build_targets
from .errors import ConfigError, DataError
from .model import ForwardTrace, SepLLParams, forward_chunks, row_log_likelihoods
from .nnet import softmax
from .serialize import write_csv, write_text


@dataclass(frozen=True, eq=False)
class EvalReport:
    split: str
    metric: str
    value: float
    accuracy: float
    per_class_precision: tuple[float, ...]
    per_class_recall: tuple[float, ...]
    per_class_f1: tuple[float, ...]
    confusion: np.ndarray  # rows = gold, cols = predicted

    def cells(self) -> dict[str, float]:
        out = {"value": self.value, "accuracy": self.accuracy}
        for k in range(len(self.per_class_precision)):
            out[f"precision_{k}"] = self.per_class_precision[k]
            out[f"recall_{k}"] = self.per_class_recall[k]
            out[f"f1_{k}"] = self.per_class_f1[k]
        return out


def _precision_recall_f1(confusion: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    tp = np.diag(confusion).astype(np.float64)
    pred_totals = confusion.sum(axis=0).astype(np.float64)
    gold_totals = confusion.sum(axis=1).astype(np.float64)
    precision = np.divide(tp, pred_totals, out=np.zeros_like(tp), where=pred_totals > 0)
    recall = np.divide(tp, gold_totals, out=np.zeros_like(tp), where=gold_totals > 0)
    denom = precision + recall
    f1 = np.divide(2 * precision * recall, denom, out=np.zeros_like(tp), where=denom > 0)
    return precision, recall, f1


def task_metrics(
    preds: Sequence[int],
    gold: Sequence[int],
    metric: str = "accuracy",
    n_classes: int | None = None,
    positive_class: int = 1,
    split: str = "",
) -> EvalReport:
    """Accuracy / binary F1 / macro F1 with the full confusion breakdown.

    Zero-support classes contribute F1 = 0 to the macro mean; binary F1 demands
    exactly two classes and scores the positive class (index 1 by default).
    """
    preds = np.asarray(list(preds), dtype=np.int64)
    gold = np.asarray(list(gold), dtype=np.int64)
    if preds.shape != gold.shape:
        raise DataError("preds and gold have different lengths")
    if preds.size == 0:
        raise DataError("cannot score an empty prediction set")
    c = n_classes if n_classes is not None else int(max(preds.max(), gold.max())) + 1
    if preds.min() < 0 or gold.min() < 0 or preds.max() >= c or gold.max() >= c:
        raise DataError("class index out of range")
    confusion = np.zeros((c, c), dtype=np.int64)
    np.add.at(confusion, (gold, preds), 1)
    accuracy = float(np.trace(confusion)) / preds.size
    precision, recall, f1 = _precision_recall_f1(confusion)
    if metric == "accuracy":
        value = accuracy
    elif metric == "macro_f1":
        value = float(f1.mean())
    elif metric == "binary_f1":
        if c != 2:
            raise DataError(f"binary_f1 requires exactly 2 classes, got {c}")
        if positive_class not in (0, 1):
            raise ConfigError("positive_class must be 0 or 1")
        value = float(f1[positive_class])
    else:
        raise ConfigError(f"unknown metric {metric!r}")
    return EvalReport(
        split=split,
        metric=metric,
        value=value,
        accuracy=accuracy,
        per_class_precision=tuple(float(v) for v in precision),
        per_class_recall=tuple(float(v) for v in recall),
        per_class_f1=tuple(float(v) for v in f1),
        confusion=confusion,
    )


def lf_match_predict(prob_rows: np.ndarray, k: int = 4) -> np.ndarray:
    """Binary (n, m) match predictions from (n, m) probability rows: above k/m.

    With m <= k no probability can clear the threshold; that degenerate regime
    is the caller's to avoid (k is meant to sit well below m).
    """
    if not isinstance(k, (int, np.integer)) or k <= 0:
        raise ConfigError("threshold k must be a positive integer")
    rows = np.asarray(prob_rows, dtype=np.float64)
    if rows.ndim != 2:
        raise DataError(f"probability rows must be 2-D (n, m), got shape {rows.shape}")
    m = rows.shape[1]
    if m < 1:
        raise DataError("probability rows need at least one column")
    sums = rows.sum(axis=1)
    if not np.allclose(sums, 1.0, atol=1e-6):
        raise DataError("probability rows must sum to 1")
    return (rows > k / m).astype(np.int64)


@dataclass(frozen=True)
class PathMemorization:
    accuracy: float
    macro_f1: float
    cross_entropy: float


@dataclass(frozen=True)
class MemorizationReport:
    paths: Mapping[str, PathMemorization]  # lf_latent, full, task_mapped
    uniform_ce: float
    threshold_k: int
    m: int

    def cells(self) -> dict[str, float]:
        out = {}
        for name, p in self.paths.items():
            out[f"{name}.accuracy"] = p.accuracy
            out[f"{name}.macro_f1"] = p.macro_f1
            out[f"{name}.cross_entropy"] = p.cross_entropy
        out["uniform.cross_entropy"] = self.uniform_ce
        return out


def memorization_report(
    params: SepLLParams, X, match: MatchMatrix, k: int = 4
) -> MemorizationReport:
    """Score the three prediction paths against the true match matrix.

    Accuracy and macro F1 treat every (sample, LF) cell as a binary decision;
    cross-entropy against the :func:`build_targets` rows is restricted to
    samples with at least one true match, where it is well defined.

    The model runs through :func:`forward_chunks`, so nothing here is n x m:
    the cells come from integer counts and each cross-entropy from per-row
    sums whose mean is taken once, as one pass over all rows would take it.
    """
    if X.shape[0] != match.n:
        raise DataError("feature matrix and match matrix disagree on sample count")
    if params.mapping.m != match.m:
        raise DataError(f"LF dimension mismatch: model has m={params.mapping.m}, matches m={match.m}")
    if not match.pairs.size:
        raise DataError("memorization analysis needs at least one matched sample")
    chunks = forward_chunks(
        params, X, lambda rows, trace: _chunk_scores(trace, match.take(rows), params.mapping.class_of, k)
    )
    cells, true = match.n * match.m, match.pairs.shape[0]
    paths = {}
    for p, name in enumerate(("lf_latent", "full", "task_mapped")):
        predicted, hits, log_likelihoods = zip(*(scores[p] for scores, _ in chunks))
        tp = sum(hits)
        fp, fn = sum(predicted) - tp, true - tp
        tn = cells - tp - fp - fn
        paths[name] = PathMemorization(
            accuracy=(tp + tn) / cells,
            # the no-match class's false positives are the match class's false negatives
            macro_f1=float(np.mean([_f1(tn, fn, fp), _f1(tp, fp, fn)])),
            cross_entropy=float(-np.concatenate(log_likelihoods).mean()),
        )
    uniform_ce = float(-np.concatenate([uniform for _, uniform in chunks]).mean())
    return MemorizationReport(paths=paths, uniform_ce=uniform_ce, threshold_k=int(k), m=match.m)


def _chunk_scores(trace: ForwardTrace, part: MatchMatrix, class_of: np.ndarray, k: int):
    """One row chunk's share of :func:`memorization_report`, whose true matches are
    ``part``. For each path in report order: the cells predicted to match, how
    many of them truly match, and the log-likelihoods of the matched rows'
    targets; then those rows' log-likelihoods under uniform predictions."""
    matched = part.row_counts() > 0
    targets = build_targets(part)[matched]
    i, j = part.pairs.T

    def paths():  # one probability array at a time
        yield softmax(trace.lf_logits)
        yield trace.q
        yield softmax(trace.task_logits[:, class_of])

    scores = []
    for probs in paths():
        binary = lf_match_predict(probs, k)
        scores.append((int(binary.sum()), int(binary[i, j].sum()), row_log_likelihoods(probs[matched], targets)))
    return scores, (targets * math.log(1.0 / part.m)).sum(axis=1)


def _f1(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom > 0 else 0.0


@dataclass(frozen=True)
class MatchGroup:
    value: float
    support: int


def match_count_breakdown(
    preds: Sequence[int],
    gold: Sequence[int],
    match: MatchMatrix,
    metric: str = "accuracy",
    n_classes: int | None = None,
    positive_class: int = 1,
) -> dict[int, MatchGroup]:
    """Task metric grouped by how many LFs matched each sample."""
    preds = np.asarray(list(preds), dtype=np.int64)
    gold = np.asarray(list(gold), dtype=np.int64)
    if preds.shape[0] != match.n or gold.shape[0] != match.n:
        raise DataError("predictions, gold, and match matrix disagree on sample count")
    counts = match.row_counts()
    c = n_classes if n_classes is not None else int(max(preds.max(), gold.max())) + 1
    out: dict[int, MatchGroup] = {}
    for count in sorted(set(int(v) for v in counts)):
        idx = counts == count
        report = task_metrics(
            preds[idx], gold[idx], metric=metric, n_classes=c, positive_class=positive_class
        )
        out[count] = MatchGroup(value=report.value, support=int(idx.sum()))
    return out


def train_test_gap(report_train, report_test) -> dict[str, float]:
    """Absolute per-cell differences between two same-shaped reports."""
    a = report_train.cells()
    b = report_test.cells()
    if set(a) != set(b):
        raise DataError("reports have different cell layouts")
    return {key: abs(a[key] - b[key]) for key in a}


# ---------------------------------------------------------------------------
# report output


def report_to_csv(cells: Mapping[str, float], path) -> None:
    write_csv(path, [["cell", "value"], *([key, repr(float(value))] for key, value in cells.items())])


def breakdown_to_csv(table: Mapping[int, MatchGroup], metric: str, path) -> None:
    rows = [[count, repr(float(table[count].value)), table[count].support] for count in sorted(table)]
    write_csv(path, [["match_count", metric, "support"], *rows])


_PALETTE = ("#4878a8", "#e49444", "#5ba053", "#b65d60", "#8a7bb0", "#77706a")


def write_bar_chart_svg(
    path,
    title: str,
    group_labels: Sequence[str],
    series: Mapping[str, Sequence[float]],
) -> None:
    """Small dependency-free grouped bar chart."""
    width, height = 640, 360
    left, right, top, bottom = 60, 20, 40, 60
    plot_w = width - left - right
    plot_h = height - top - bottom
    names = list(series)
    values = [list(series[name]) for name in names]
    if any(len(v) != len(group_labels) for v in values):
        raise DataError("every series needs one value per group")
    peak = max((max(v) for v in values if v), default=1.0)
    peak = peak if peak > 0 else 1.0
    n_groups = max(len(group_labels), 1)
    group_w = plot_w / n_groups
    bar_w = group_w * 0.8 / max(len(names), 1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" font-family="sans-serif" font-size="15">{title}</text>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" y2="{top + plot_h}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = top + plot_h * (1 - frac)
        parts.append(
            f'<text x="{left - 6}" y="{y + 4:.1f}" text-anchor="end" font-family="sans-serif" font-size="11">{peak * frac:.2f}</text>'
        )
        parts.append(f'<line x1="{left - 3}" y1="{y:.1f}" x2="{left}" y2="{y:.1f}" stroke="black"/>')
    for g, label in enumerate(group_labels):
        x0 = left + g * group_w + group_w * 0.1
        for s, name in enumerate(names):
            v = values[s][g]
            h = plot_h * max(v, 0.0) / peak
            x = x0 + s * bar_w
            y = top + plot_h - h
            color = _PALETTE[s % len(_PALETTE)]
            parts.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w:.1f}" height="{h:.1f}" fill="{color}"/>'
            )
        parts.append(
            f'<text x="{left + g * group_w + group_w / 2:.1f}" y="{top + plot_h + 16}" text-anchor="middle" font-family="sans-serif" font-size="11">{label}</text>'
        )
    for s, name in enumerate(names):
        x = left + s * 130
        y = height - 18
        parts.append(
            f'<rect x="{x}" y="{y - 10}" width="12" height="12" fill="{_PALETTE[s % len(_PALETTE)]}"/>'
        )
        parts.append(
            f'<text x="{x + 16}" y="{y}" font-family="sans-serif" font-size="11">{name}</text>'
        )
    parts.append("</svg>")
    write_text(path, "\n".join(parts) + "\n")
