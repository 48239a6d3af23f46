from __future__ import annotations

import json
import math

import numpy as np
import pytest
from conftest import match_from_dense
from hypothesis import given, strategies as st

from sepll.data import MappingMatrix, MatchMatrix
from sepll.encoder import EncoderConfig
from sepll.errors import ConfigError, DataError
from sepll.evaluation import (
    breakdown_to_csv,
    lf_match_predict,
    match_count_breakdown,
    memorization_report,
    report_to_csv,
    task_metrics,
    train_test_gap,
    write_bar_chart_svg,
)
from sepll.model import ModelConfig, init_params
from sepll.serialize import to_json, write_json

F1_FROZEN = 0.6666666666666666  # TP=2 FP=1 FN=1


# ---------------------------------------------------------------------------
# task metrics


def test_accuracy_hand_example():
    report = task_metrics([0, 1, 1, 0], [0, 1, 0, 0], metric="accuracy")
    assert report.accuracy == pytest.approx(3 / 4)
    assert report.value == report.accuracy
    assert report.confusion.tolist() == [[2, 1], [0, 1]]


def test_binary_f1_frozen_value():
    # positive class 1: TP=2 (rows 1,2), FP=1 (row 3), FN=1 (row 4)
    preds = [1, 1, 1, 0]
    gold = [1, 1, 0, 1]
    report = task_metrics(preds, gold, metric="binary_f1")
    assert report.value == F1_FROZEN
    assert abs(report.value - 2 / 3) <= 1e-15


def test_binary_f1_positive_class_zero():
    preds = [0, 0, 1]
    gold = [0, 1, 1]
    report = task_metrics(preds, gold, metric="binary_f1", positive_class=0)
    # class 0: TP=1, FP=1, FN=0 -> P=0.5, R=1 -> F1=2/3
    assert report.value == pytest.approx(2 / 3)


def test_binary_f1_requires_two_classes():
    with pytest.raises(DataError, match="binary_f1"):
        task_metrics([0, 1, 2], [0, 1, 2], metric="binary_f1")


def test_macro_f1_zero_support_class_scores_zero():
    # class 2 never appears in gold or preds beyond n_classes padding
    report = task_metrics([0, 1], [0, 1], metric="macro_f1", n_classes=3)
    assert report.per_class_f1[2] == 0.0
    assert report.value == pytest.approx((1.0 + 1.0 + 0.0) / 3)


def test_task_metrics_validation():
    with pytest.raises(DataError):
        task_metrics([], [])
    with pytest.raises(DataError):
        task_metrics([0, 1], [0])
    with pytest.raises(DataError, match="out of range"):
        task_metrics([0, 5], [0, 1], n_classes=2)
    with pytest.raises(ConfigError, match="unknown metric"):
        task_metrics([0, 1], [0, 1], metric="mcc")


@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=60)
)
def test_confusion_rows_sum_to_gold_counts(pairs):
    preds = [p for p, _ in pairs]
    gold = [g for _, g in pairs]
    report = task_metrics(preds, gold, n_classes=4)
    for k in range(4):
        assert report.confusion[k].sum() == sum(1 for g in gold if g == k)
    assert report.confusion.sum() == len(pairs)
    assert 0.0 <= report.accuracy <= 1.0


# report.json of this report, byte for byte: renaming a field of EvalReport
# must not silently change the artifact
EVAL_REPORT_JSON = """{
  "accuracy": 0.6666666666666666,
  "confusion": [
    [
      1,
      1
    ],
    [
      0,
      1
    ]
  ],
  "metric": "macro_f1",
  "per_class_f1": [
    0.6666666666666666,
    0.6666666666666666
  ],
  "per_class_precision": [
    1.0,
    0.5
  ],
  "per_class_recall": [
    0.5,
    1.0
  ],
  "split": "dev",
  "value": 0.6666666666666666
}"""


def test_eval_report_json_round_trip():
    report = task_metrics([0, 1, 1], [0, 1, 0], metric="macro_f1", split="dev")
    assert to_json(report) == EVAL_REPORT_JSON
    blob = json.loads(to_json(report))
    assert blob["split"] == "dev" and blob["metric"] == "macro_f1"
    assert blob["value"] == report.value and blob["accuracy"] == report.accuracy
    assert blob["confusion"] == report.confusion.tolist()


# ---------------------------------------------------------------------------
# thresholded match prediction


def test_lf_match_predict_threshold_is_strict():
    rows = np.array([[0.6, 0.4], [0.5, 0.5]])
    out = lf_match_predict(rows, k=1)  # threshold 1/2
    assert out.tolist() == [[1, 0], [0, 0]]


def test_lf_match_predict_default_k4():
    rows = np.full((1, 8), 1.0 / 8)
    rows = rows.copy()
    rows[0, 0] = 0.51
    rows[0, 1:] = 0.49 / 7
    out = lf_match_predict(rows)
    assert out.tolist() == [[1, 0, 0, 0, 0, 0, 0, 0]]


def test_lf_match_predict_degenerate_when_m_le_k():
    rows = np.array([[0.9, 0.05, 0.05]])  # m=3, k=4 -> threshold 4/3 > 1
    out = lf_match_predict(rows, k=4)
    assert out.sum() == 0


def test_lf_match_predict_validation():
    with pytest.raises(ConfigError):
        lf_match_predict(np.array([[1.0]]), k=0)
    with pytest.raises(ConfigError):
        lf_match_predict(np.array([[1.0]]), k=1.5)
    with pytest.raises(DataError, match="sum to 1"):
        lf_match_predict(np.array([[0.9, 0.9]]), k=1)


@pytest.mark.parametrize("rows", [np.array([0.8, 0.1, 0.1]), np.float64(1.0), np.ones((1, 1, 2)) / 2])
def test_lf_match_predict_rejects_rows_that_are_not_2d(rows):
    with pytest.raises(DataError, match="2-D"):
        lf_match_predict(rows, k=2)


# ---------------------------------------------------------------------------
# memorization


def perfect_memorizer(m=8, c=4):
    """Identity encoder + huge lf-head diagonal: the lf path reproduces the
    match matrix while the task path stays exactly uniform."""
    mapping = MappingMatrix(c=c, class_of=np.arange(m, dtype=np.int64) % c)
    enc_cfg = EncoderConfig(max_features=10, hidden=(), dim=m, nonlinearity="identity")
    params = init_params(m, mapping, enc_cfg, ModelConfig(), np.random.default_rng(0))
    params.encoder[0].W[:] = np.eye(m)
    params.encoder[0].b[:] = 0.0
    params.task_head[0].W[:] = 0.0
    params.task_head[0].b[:] = 0.0
    params.lf_head[0].W[:] = 50.0 * np.eye(m)
    params.lf_head[0].b[:] = 0.0
    return params


def test_memorization_perfect_lf_path_and_uniform_task_path():
    m = 8
    params = perfect_memorizer(m=m)
    X = np.eye(m)
    match = match_from_dense(np.eye(m, dtype=np.int64))
    report = memorization_report(params, X, match, k=4)

    lf = report.paths["lf_latent"]
    assert lf.accuracy == 1.0
    assert lf.macro_f1 == 1.0
    assert lf.cross_entropy == pytest.approx(0.0, abs=1e-12)

    # the combined path inherits the lf spike (task logits are flat)
    assert report.paths["full"].accuracy == 1.0
    assert report.paths["full"].cross_entropy == pytest.approx(0.0, abs=1e-12)

    tm = report.paths["task_mapped"]
    # uniform probs never clear 4/8, so every cell predicts 0: 56 of 64 right
    assert tm.accuracy == pytest.approx(0.875)
    assert tm.cross_entropy == pytest.approx(math.log(m), abs=1e-12)
    # ones-class F1 is 0, zeros-class F1 is 2*(56/64)/(56/64 + 1)
    assert tm.macro_f1 == pytest.approx(0.5 * (0.0 + 2 * 0.875 / 1.875))

    assert report.uniform_ce == pytest.approx(math.log(m), abs=1e-15)
    assert report.m == m and report.threshold_k == 4


def test_memorization_ce_restricted_to_matched_rows():
    m = 8
    params = perfect_memorizer(m=m)
    X = np.eye(m)
    dense = np.eye(m, dtype=np.int64)
    dense[3] = 0  # row 3 goes unmatched; X row 3 still spikes LF 3
    report = memorization_report(params, X, match_from_dense(dense), k=4)
    # CE must skip the unmatched row entirely, so it stays ~0
    assert report.paths["lf_latent"].cross_entropy == pytest.approx(0.0, abs=1e-12)
    # accuracy still counts the unmatched row's cells: one false positive cell
    assert report.paths["lf_latent"].accuracy == pytest.approx(1.0 - 1.0 / (m * m))


def test_memorization_validation():
    params = perfect_memorizer(m=8)
    with pytest.raises(DataError, match="LF dimension mismatch"):
        memorization_report(params, np.eye(8), match_from_dense(np.eye(8, dtype=np.int64)[:, :6]))
    with pytest.raises(DataError, match="sample count"):
        memorization_report(params, np.eye(8), MatchMatrix(n=4, m=8, pairs=np.empty((0, 2), dtype=np.int64)))
    with pytest.raises(DataError, match="at least one matched"):
        memorization_report(params, np.eye(8), MatchMatrix(n=8, m=8, pairs=np.empty((0, 2), dtype=np.int64)))


MEMORIZATION_REPORT_JSON = """{
  "m": 8,
  "paths": {
    "full": {
      "accuracy": 1.0,
      "cross_entropy": -0.0,
      "macro_f1": 1.0
    },
    "lf_latent": {
      "accuracy": 1.0,
      "cross_entropy": -0.0,
      "macro_f1": 1.0
    },
    "task_mapped": {
      "accuracy": 0.875,
      "cross_entropy": 2.0794415416798357,
      "macro_f1": 0.4666666666666667
    }
  },
  "threshold_k": 4,
  "uniform_ce": 2.0794415416798357
}"""


def test_memorization_report_json_round_trip():
    params = perfect_memorizer(m=8)
    report = memorization_report(params, np.eye(8), match_from_dense(np.eye(8, dtype=np.int64)))
    assert to_json(report) == MEMORIZATION_REPORT_JSON
    blob = json.loads(to_json(report))
    assert blob["m"] == report.m and blob["threshold_k"] == report.threshold_k
    cells = report.cells()
    for path in ("lf_latent", "full", "task_mapped"):
        for metric in ("accuracy", "macro_f1", "cross_entropy"):
            assert f"{path}.{metric}" in cells
    assert "uniform.cross_entropy" in cells


# ---------------------------------------------------------------------------
# breakdown and gap


def test_match_count_breakdown_groups_and_supports():
    match = match_from_dense(
        np.array([[0, 0], [1, 0], [0, 1], [1, 1]])
    )
    preds = [0, 1, 1, 0]
    gold = [1, 1, 0, 0]
    table = match_count_breakdown(preds, gold, match, n_classes=2)
    assert sorted(table) == [0, 1, 2]
    assert table[0].support == 1 and table[0].value == 0.0
    assert table[1].support == 2 and table[1].value == pytest.approx(0.5)
    assert table[2].support == 1 and table[2].value == 1.0


def test_match_count_breakdown_only_observed_counts():
    match = match_from_dense(np.array([[1, 1, 1], [1, 1, 1]]))
    table = match_count_breakdown([0, 0], [0, 1], match, n_classes=2)
    assert list(table) == [3]
    assert table[3].support == 2


def test_match_count_breakdown_length_mismatch():
    match = match_from_dense(np.array([[1]]))
    with pytest.raises(DataError):
        match_count_breakdown([0, 1], [0, 1], match)


def test_train_test_gap_zero_for_identical_reports():
    r = task_metrics([0, 1], [0, 1], n_classes=2)
    gap = train_test_gap(r, r)
    assert set(gap) == set(r.cells())
    assert all(v == 0.0 for v in gap.values())


def test_train_test_gap_hand_value():
    train_r = task_metrics([0, 1, 1, 1], [0, 1, 1, 1])  # accuracy 1.0
    test_r = task_metrics([0, 1, 1, 0], [0, 1, 1, 1])  # accuracy 0.75
    gap = train_test_gap(train_r, test_r)
    assert gap["accuracy"] == pytest.approx(0.25)


def test_train_test_gap_layout_mismatch():
    a = task_metrics([0, 1], [0, 1], n_classes=2)
    b = task_metrics([0, 1, 2], [0, 1, 2], n_classes=3)
    with pytest.raises(DataError, match="layout"):
        train_test_gap(a, b)


# ---------------------------------------------------------------------------
# writers


def test_report_to_csv(tmp_path):
    path = tmp_path / "report.csv"
    report_to_csv({"accuracy": 0.5, "value": 0.25}, path)
    assert path.read_text() == "cell,value\naccuracy,0.5\nvalue,0.25\n"


def test_breakdown_to_csv(tmp_path):
    from sepll.evaluation import MatchGroup

    path = tmp_path / "matches.csv"
    breakdown_to_csv({1: MatchGroup(value=0.5, support=4), 0: MatchGroup(value=1.0, support=2)}, "accuracy", path)
    assert path.read_text() == "match_count,accuracy,support\n0,1.0,2\n1,0.5,4\n"


def test_write_json_sorted_and_trailing_newline(tmp_path):
    path = tmp_path / "x.json"
    write_json(path, {"b": 1, "a": 2})
    text = path.read_text()
    assert text == to_json({"b": 1, "a": 2}) + "\n"
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')


def test_write_bar_chart_svg(tmp_path):
    path = tmp_path / "chart.svg"
    write_bar_chart_svg(
        path,
        "scores",
        group_labels=["lf_latent", "full", "task_mapped"],
        series={"accuracy": [0.9, 0.8, 0.5], "macro_f1": [0.7, 0.6, 0.3]},
    )
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert "scores" in text and "task_mapped" in text and "macro_f1" in text
    assert text.count("<rect") >= 6  # one bar per value plus background
