from __future__ import annotations

import json
import math

import numpy as np
import pytest
from conftest import match_from_dense, match_to_dense, traced_peak
from hypothesis import given, strategies as st

from sepll.data import (
    MappingMatrix,
    MatchMatrix,
    Sample,
    SplitSet,
    SynthSpec,
    build_targets,
    load_dataset,
    read_mapping,
    read_triplets,
    save_dataset,
    synth_dataset,
    to_one_class_lfs,
    write_mapping,
    write_triplets,
)
from sepll.errors import DataError
from sepll.lf_engine import majority_vote
from sepll.seeds import stream


def make_splits(weak_train, weak_dev=None, weak_test=None, c=2, texts=None):
    weak_train = np.asarray(weak_train, dtype=np.int64)
    m0 = weak_train.shape[1]
    weak_dev = np.asarray(weak_dev, dtype=np.int64) if weak_dev is not None else np.empty((0, m0), dtype=np.int64)
    weak_test = np.asarray(weak_test, dtype=np.int64) if weak_test is not None else np.empty((0, m0), dtype=np.int64)
    texts = texts or [f"text {i}" for i in range(weak_train.shape[0])]
    return SplitSet(
        train=tuple(Sample(id=i, text=texts[i]) for i in range(weak_train.shape[0])),
        dev=tuple(Sample(id=i, text="d", gold_label=0) for i in range(weak_dev.shape[0])),
        test=tuple(Sample(id=i, text="t", gold_label=0) for i in range(weak_test.shape[0])),
        class_names=tuple(f"class_{k}" for k in range(c)),
        raw_weak_labels={"train": weak_train, "dev": weak_dev, "test": weak_test},
    )


# ---------------------------------------------------------------------------
# dataset files


def write_wrench(tmp_path, train, valid, test, class_names):
    root = tmp_path / "ds"
    root.mkdir()
    for name, split in (("train", train), ("valid", valid), ("test", test)):
        (root / f"{name}.json").write_text(json.dumps(split), encoding="utf-8")
    (root / "label.json").write_text(
        json.dumps({str(i): n for i, n in enumerate(class_names)}), encoding="utf-8"
    )
    return root


def wrench_entry(text, label, weak):
    return {"label": label, "weak_labels": weak, "data": {"text": text}}


def test_load_wrench_json(tmp_path):
    root = write_wrench(
        tmp_path,
        train={"0": wrench_entry("a b", None, [0, -1]), "1": wrench_entry("c", 1, [1, 0])},
        valid={"0": wrench_entry("d", 0, [-1, -1])},
        test={"0": wrench_entry("e", 1, [0, 1])},
        class_names=["ham", "spam"],
    )
    splits = load_dataset(root, "wrench-json")
    assert splits.class_names == ("ham", "spam")
    assert [s.text for s in splits.train] == ["a b", "c"]
    assert splits.train[0].gold_label is None
    assert splits.train[1].gold_label == 1
    assert splits.raw_weak_labels["train"].tolist() == [[0, -1], [1, 0]]
    assert splits.raw_weak_labels["dev"].tolist() == [[-1, -1]]
    assert splits.dev[0].gold_label == 0


def test_load_wrench_orders_by_numeric_id(tmp_path):
    root = write_wrench(
        tmp_path,
        train={"10": wrench_entry("later", 0, [0]), "2": wrench_entry("earlier", 0, [0])},
        valid={}, test={},
        class_names=["only", "other"],
    )
    splits = load_dataset(root, "wrench-json")
    assert [s.id for s in splits.train] == [2, 10]
    assert [s.text for s in splits.train] == ["earlier", "later"]


def test_load_wrench_missing_label_json(tmp_path):
    root = tmp_path / "ds"
    root.mkdir()
    (root / "train.json").write_text(json.dumps({"0": wrench_entry("x", 0, [0])}))
    with pytest.raises(DataError, match="label.json"):
        load_dataset(root, "wrench-json")


def test_load_reports_file_and_line_on_bad_json(tmp_path):
    root = tmp_path / "ds"
    root.mkdir()
    (root / "train.json").write_text('{\n "0": {broken\n}')
    (root / "label.json").write_text('{"0": "a", "1": "b"}')
    with pytest.raises(DataError, match=r"train\.json:2"):
        load_dataset(root, "wrench-json")


def test_load_rejects_inconsistent_lf_count(tmp_path):
    root = write_wrench(
        tmp_path,
        train={"0": wrench_entry("x", 0, [0, 1]), "1": wrench_entry("y", 0, [0])},
        valid={}, test={},
        class_names=["a", "b"],
    )
    with pytest.raises(DataError, match="inconsistent LF count"):
        load_dataset(root, "wrench-json")


def test_load_rejects_out_of_range_class(tmp_path):
    root = write_wrench(
        tmp_path,
        train={"0": wrench_entry("x", 0, [5])},
        valid={}, test={},
        class_names=["a", "b"],
    )
    with pytest.raises(DataError, match="class index out of range"):
        load_dataset(root, "wrench-json")


def test_load_jsonl(tmp_path):
    root = tmp_path / "ds"
    root.mkdir()
    lines = [
        json.dumps({"text": "a b", "label": 0, "weak_labels": [0, -1]}),
        json.dumps({"text": "c", "weak_labels": [1, 1]}),
    ]
    (root / "train.jsonl").write_text("\n".join(lines) + "\n")
    (root / "dev.jsonl").write_text(json.dumps({"text": "d", "label": 1, "weak_labels": [-1, -1]}) + "\n")
    splits = load_dataset(root, "jsonl")
    assert splits.class_names == ("class_0", "class_1")
    assert splits.train[1].gold_label is None
    assert splits.raw_weak_labels["train"].tolist() == [[0, -1], [1, 1]]


@pytest.mark.parametrize(
    "lines, missing",
    [
        ([{"text": "a", "label": 0}, {"text": "b", "label": 1_000_000}], 1),
        ([{"text": "a", "weak_labels": [1, -1]}, {"text": "b", "weak_labels": [-1, 2]}], 0),
        ([{"text": "a", "label": 0, "weak_labels": [2]}], 1),
    ],
)
def test_jsonl_inferred_classes_need_no_gaps(tmp_path, lines, missing):
    root = tmp_path / "ds"
    root.mkdir()
    (root / "train.jsonl").write_text("".join(json.dumps(x) + "\n" for x in lines))
    with pytest.raises(DataError, match=f"class {missing} never occurs") as info:
        load_dataset(root, "jsonl")
    assert str(root) in str(info.value) and "label.json" in str(info.value)


def test_jsonl_label_json_allows_unused_classes(tmp_path):
    root = tmp_path / "ds"
    root.mkdir()
    (root / "train.jsonl").write_text(json.dumps({"text": "a", "label": 2}) + "\n")
    (root / "label.json").write_text(json.dumps({"0": "x", "1": "y", "2": "z"}))
    assert load_dataset(root, "jsonl").class_names == ("x", "y", "z")


def test_jsonl_bad_line_reports_position(tmp_path):
    root = tmp_path / "ds"
    root.mkdir()
    (root / "train.jsonl").write_text('{"text": "ok", "weak_labels": [0]}\n{oops\n')
    with pytest.raises(DataError, match=r"train\.jsonl:2"):
        load_dataset(root, "jsonl")


def entry_for(fmt, text="x", **fields):
    """One sample object in ``fmt``'s layout."""
    base = {"data": {"text": text}} if fmt == "wrench-json" else {"text": text}
    return {**base, "label": 0, "weak_labels": [0, -1], **fields}


def with_text(entry, text):
    """``entry`` with its text, wherever its format keeps it, set to ``text``."""
    return {**entry, "data": {"text": text}} if "data" in entry else {**entry, "text": text}


def write_train_split(root, fmt, entries):
    """A dataset directory whose only split is ``entries`` as the train split."""
    root.mkdir()
    (root / "label.json").write_text('{"0": "a", "1": "b"}', encoding="utf-8")
    if fmt == "wrench-json":
        text = json.dumps({str(i): e for i, e in enumerate(entries)})
        (root / "train.json").write_text(text, encoding="utf-8")
    else:
        text = "".join(json.dumps(e) + "\n" for e in entries)
        (root / "train.jsonl").write_text(text, encoding="utf-8")
    return root


# where each format's errors point for the first sample of train
ENTRY_WHERE = {"wrench-json": r"train\.json: sample 0: ", "jsonl": r"train\.jsonl:1: "}
FORMATS = sorted(ENTRY_WHERE)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda e: {**e, "weak_labels": [0, "x"]}, 'weak label "x" is not a 64-bit integer'),
        (lambda e: {**e, "weak_labels": [None, -1]}, "weak label null is not"),
        (lambda e: {**e, "weak_labels": [0.7, -1]}, "weak label 0.7 is not"),
        (lambda e: {**e, "weak_labels": [True, -1]}, "weak label true is not"),
        (lambda e: {**e, "weak_labels": [2**64, -1]}, "weak label 18446744073709551616 is not"),
        (lambda e: {**e, "weak_labels": "0 -1"}, "weak_labels must be an array"),
        (lambda e: {**e, "label": True}, "label must be an integer or null, got true"),
        (lambda e: {**e, "label": 1.0}, "label must be an integer or null, got 1.0"),
        (lambda e: {**e, "label": "1"}, "label must be an integer or null"),
        (lambda e: with_text(e, None), "text must be a string, got null"),
        (lambda e: with_text(e, 5), "text must be a string, got 5"),
        (lambda e: with_text(e, ["a", "b"]), r'text must be a string, got \["a", "b"\]'),
        (lambda e: 5, "expected a JSON object, got int"),
        (lambda e: [e], "expected a JSON object, got list"),
    ],
    ids=[
        "weak_str", "weak_null", "weak_float", "weak_bool", "weak_huge", "weak_not_array",
        "label_bool", "label_float", "label_str", "text_null", "text_int", "text_list", "entry_int", "entry_list",
    ],
)  # fmt: skip
def test_malformed_entry_is_data_error_naming_sample(tmp_path, fmt, mutate, message):
    root = write_train_split(tmp_path / "ds", fmt, [mutate(entry_for(fmt))])
    with pytest.raises(DataError, match=ENTRY_WHERE[fmt] + message):
        load_dataset(root, fmt)


@pytest.mark.parametrize(
    "fmt, entry, message",
    [
        ("wrench-json", {"data": "context", "weak_labels": [0]}, "missing data.text field"),
        ("wrench-json", {"data": {"text": "x"}}, "weak_labels must be an array"),
        ("jsonl", {"data": {"text": "x"}, "weak_labels": [0]}, "missing text field"),
    ],
    ids=["wrench_data_is_string", "wrench_no_weak_labels", "jsonl_no_text"],
)
def test_entry_missing_field_is_data_error(tmp_path, fmt, entry, message):
    root = write_train_split(tmp_path / "ds", fmt, [entry])
    with pytest.raises(DataError, match=ENTRY_WHERE[fmt] + message):
        load_dataset(root, fmt)


def test_jsonl_inconsistent_lf_count_names_line(tmp_path):
    entries = [entry_for("jsonl"), entry_for("jsonl", weak_labels=[0])]
    root = write_train_split(tmp_path / "ds", "jsonl", entries)
    with pytest.raises(DataError, match=r"train\.jsonl:2: inconsistent LF count \(1 != 2\)"):
        load_dataset(root, "jsonl")


@pytest.mark.parametrize("fmt", FORMATS)
def test_non_utf8_split_file_is_data_error(tmp_path, fmt):
    root = write_train_split(tmp_path / "ds", fmt, [entry_for(fmt)])
    split_file = root / ("train.json" if fmt == "wrench-json" else "train.jsonl")
    split_file.write_bytes(split_file.read_bytes().replace(b'"x"', b'"\xff"'))
    with pytest.raises(DataError, match=r"train\.jsonl?: file is not UTF-8"):
        load_dataset(root, fmt)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=6,
)


@given(
    fmt=st.sampled_from(FORMATS),
    field=st.sampled_from(["data", "text", "label", "weak_labels", "entry"]),
    value=JSON_VALUES,
    row=st.integers(0, 1),
)
def test_load_dataset_loads_or_raises_data_error(tmp_path_factory, fmt, field, value, row):
    entries = [entry_for(fmt, "a b", label=0), entry_for(fmt, "c", label=1, weak_labels=[-1, 1])]
    if field == "entry":
        entries[row] = value
    elif field == "text" and fmt == "wrench-json":
        entries[row]["data"]["text"] = value
    else:
        entries[row][field] = value
    root = write_train_split(tmp_path_factory.mktemp("fuzz") / "ds", fmt, entries)
    try:
        splits = load_dataset(root, fmt)
    except DataError:
        return
    assert all(isinstance(s.text, str) for s in splits.train)
    assert all(s.gold_label in (None, 0, 1) for s in splits.train)
    assert splits.raw_weak_labels["train"].shape == (2, 2)


@pytest.mark.parametrize("fmt", ["wrench-json", "jsonl"])
def test_save_load_round_trip(tmp_path, fmt):
    splits = synth_dataset(SynthSpec(n_train=20, n_dev=8, n_test=8), seed=3)
    out1 = tmp_path / "one"
    out1.mkdir()
    save_dataset(splits, out1, fmt)
    loaded = load_dataset(out1, fmt)
    assert loaded.class_names == splits.class_names
    for name in ("train", "dev", "test"):
        assert [s.text for s in loaded.split(name)] == [s.text for s in splits.split(name)]
        assert [s.gold_label for s in loaded.split(name)] == [s.gold_label for s in splits.split(name)]
        assert np.array_equal(loaded.raw_weak_labels[name], splits.raw_weak_labels[name])
    # a second save of the loaded data is byte-identical
    out2 = tmp_path / "two"
    out2.mkdir()
    save_dataset(loaded, out2, fmt)
    for f in sorted(out1.iterdir()):
        assert (out2 / f.name).read_bytes() == f.read_bytes()


# ---------------------------------------------------------------------------
# SplitSet validation


def test_splitset_rejects_duplicate_ids():
    with pytest.raises(DataError, match="duplicate sample id"):
        SplitSet(
            train=(Sample(id=0, text="a"), Sample(id=0, text="b")),
            dev=(), test=(),
            class_names=("x", "y"),
            raw_weak_labels={
                "train": np.array([[0], [1]]),
                "dev": np.empty((0, 1), dtype=np.int64),
                "test": np.empty((0, 1), dtype=np.int64),
            },
        )


def test_splitset_rejects_bad_gold():
    with pytest.raises(DataError, match="class index out of range"):
        SplitSet(
            train=(Sample(id=0, text="a", gold_label=7),),
            dev=(), test=(),
            class_names=("x", "y"),
            raw_weak_labels={
                "train": np.array([[0]]),
                "dev": np.empty((0, 1), dtype=np.int64),
                "test": np.empty((0, 1), dtype=np.int64),
            },
        )


# ---------------------------------------------------------------------------
# one-class conversion


def test_one_class_split_and_order():
    # LF 0 emits classes {0,1}, LF 1 only class 1, LF 2 never fires
    splits = make_splits([[0, -1, -1], [1, 1, -1], [0, 1, -1]])
    conv = to_one_class_lfs(splits)
    assert conv.provenance.columns == ((0, 0), (0, 1), (1, 1))
    assert conv.provenance.dropped == (2,)
    assert conv.mapping.class_of.tolist() == [0, 1, 1]
    dense = match_to_dense(conv.match["train"])
    assert dense.tolist() == [[1, 0, 0], [0, 1, 1], [1, 0, 1]]


def test_one_class_inventory_spans_all_splits():
    # class 1 appears for LF 0 only in dev; the column must still exist for train
    splits = make_splits([[0]], weak_dev=[[1]])
    conv = to_one_class_lfs(splits)
    assert conv.provenance.columns == ((0, 0), (0, 1))
    assert match_to_dense(conv.match["train"]).tolist() == [[1, 0]]
    assert match_to_dense(conv.match["dev"]).tolist() == [[0, 1]]


@given(
    st.integers(2, 4).flatmap(
        lambda c: st.tuples(
            st.just(c),
            st.lists(
                st.lists(st.integers(-1, c - 1), min_size=3, max_size=3),
                min_size=1,
                max_size=8,
            ),
        )
    )
)
def test_one_class_conversion_is_lossless(args):
    c, rows = args
    splits = make_splits(np.asarray(rows, dtype=np.int64), c=c)
    conv = to_one_class_lfs(splits)
    dense = match_to_dense(conv.match["train"])
    raw = splits.raw_weak_labels["train"]
    # grouping derived columns by original LF reconstructs the fire pattern
    rebuilt = np.full_like(raw, -1)
    for col, (orig, cls) in enumerate(conv.provenance.columns):
        hit = dense[:, col] > 0
        assert np.all(rebuilt[hit, orig] == -1)  # at most one derived column per original
        rebuilt[hit, orig] = cls
    assert np.array_equal(rebuilt, raw)
    for orig in conv.provenance.dropped:
        assert np.all(raw[:, orig] == -1)


# ---------------------------------------------------------------------------
# targets


def test_build_targets_normalizes_matched_rows():
    match = match_from_dense(np.array([[1, 0, 1, 0]]))
    targets = build_targets(match)
    assert targets.tolist() == [[0.5, 0.0, 0.5, 0.0]]
    assert not targets.flags.writeable


def test_build_targets_uniform_unmatched_and_mask():
    match = match_from_dense(np.array([[0, 0], [1, 0]]))
    targets = build_targets(match)
    assert targets.tolist() == [[0.5, 0.5], [1.0, 0.0]]


def test_build_targets_zero_lfs_errors():
    with pytest.raises(DataError, match="zero LF columns"):
        build_targets(MatchMatrix(n=2, m=0, pairs=np.empty((0, 2), dtype=np.int64)))


@given(
    st.integers(1, 12).flatmap(
        lambda m: st.lists(
            st.lists(st.booleans(), min_size=m, max_size=m), min_size=1, max_size=20
        )
    )
)
def test_build_targets_rows_sum_to_one(rows):
    dense = np.asarray(rows, dtype=float)
    targets = build_targets(match_from_dense(dense))
    sums = targets.sum(axis=1)
    assert np.all(np.abs(sums - 1.0) <= 1e-9)
    unmatched = dense.sum(axis=1) == 0
    # unlabeled rows exactly uniform, matched rows exactly the normalized matches
    assert np.all(targets[unmatched] == 1.0 / dense.shape[1])
    matched = dense[~unmatched]
    assert np.array_equal(targets[~unmatched], matched / matched.sum(axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# matrices


def test_match_matrix_validates():
    with pytest.raises(DataError, match="row index"):
        MatchMatrix(n=2, m=2, pairs=np.array([[5, 0]]))
    with pytest.raises(DataError, match="duplicate"):
        MatchMatrix(n=2, m=2, pairs=np.array([[0, 0], [0, 0]]))


def test_match_matrix_pairs_cannot_change_through_the_callers_array():
    # sorted pairs in an array of their own are kept, and the caller's array is frozen
    own = np.array([[0, 1], [1, 0], [2, 1]], dtype=np.int64)
    match = MatchMatrix(n=3, m=2, pairs=own)
    with pytest.raises(ValueError, match="read-only"):
        own[0, 1] = 0
    assert match.pairs.tolist() == [[0, 1], [1, 0], [2, 1]]
    # sorted pairs in a view are copied: the view's base stays the caller's to write
    base = np.array([[9, 9], [0, 1], [1, 0], [2, 1]], dtype=np.int64)
    match = MatchMatrix(n=3, m=2, pairs=base[1:])
    base[1, 1] = 0
    assert match.pairs.tolist() == [[0, 1], [1, 0], [2, 1]]
    with pytest.raises(ValueError, match="read-only"):
        match.pairs[0, 1] = 0
    # so are unsorted pairs, into a sorted copy
    unsorted = np.array([[2, 1], [0, 1]], dtype=np.int64)
    match = MatchMatrix(n=3, m=2, pairs=unsorted)
    unsorted[0, 0] = 1
    assert match.pairs.tolist() == [[0, 1], [2, 1]]


def test_mapping_one_hot_dense():
    mapping = MappingMatrix(c=3, class_of=np.array([0, 2, 2]))
    dense = mapping.to_dense()
    assert dense.tolist() == [[1, 0, 0], [0, 0, 1], [0, 0, 1]]
    assert np.all(dense.sum(axis=1) == 1)


@given(st.lists(st.integers(0, 3), min_size=1, max_size=12))
def test_mapping_rows_always_one_hot(class_of):
    mapping = MappingMatrix(c=4, class_of=np.asarray(class_of))
    dense = mapping.to_dense()
    assert np.all(dense.sum(axis=1) == 1.0)
    assert np.all((dense == 0) | (dense == 1))


def test_triplet_round_trip(tmp_path):
    match = MatchMatrix(4, 3, np.array([(3, 2), (0, 1), (2, 0)]))
    f = tmp_path / "L.triplets"
    write_triplets(match, f)
    raw = f.read_bytes()
    assert raw == b"4 3\n0 1\n2 0\n3 2\n"  # UTF-8, LF endings, "n m" header
    assert read_triplets(f) == match


def test_triplet_bad_line(tmp_path):
    f = tmp_path / "L.triplets"
    f.write_text("2 2\n0 x\n")
    with pytest.raises(DataError, match=r"L\.triplets:2"):
        read_triplets(f)


@pytest.mark.parametrize(
    "content, where",
    [
        ("3 2\n99999999999999999999999 1\n", r"L\.triplets:2: integer outside the 64-bit range"),
        ("3 99999999999999999999999\n", r"L\.triplets:1: integer outside the 64-bit range"),
        ("3 2\n3 1\n", r"L\.triplets: match row index out of range"),
        ("3 2\n0 1\n0 1\n", r"L\.triplets: duplicate \(sample, LF\) match pair"),
        ("-1 2\n", r"L\.triplets: matrix dimensions must be non-negative"),
        ("3 2\n1_0 1\n", r"L\.triplets:2: expected two integers, got '1_0 1'$"),
        ("3 2\n\u0663 1\n", r"L\.triplets:2: expected two integers, got '\u0663 1'$"),
        # only ASCII spaces separate the two integers
        ("3 2\n2\x1c0\n", r"L\.triplets:2: expected two integers, got '2\\x1c0'$"),
        ("3 2\n1\u00a01\n", r"L\.triplets:2: expected two integers, got '1\\xa01'$"),
        ("3 2\n0\t1\n", r"L\.triplets:2: expected two integers, got '0\\t1'$"),
    ],
    ids=[
        "row-past-int64", "m-past-int64", "row-range", "repeated-pair", "negative-n",
        "underscore", "non-ascii-digit", "file-separator", "no-break-space", "tab",
    ],
)
def test_triplets_bad_file_names_it(tmp_path, content, where):
    f = tmp_path / "L.triplets"
    f.write_text(content, encoding="utf-8")
    with pytest.raises(DataError, match=where):
        read_triplets(f)


def test_mapping_file_round_trip(tmp_path):
    mapping = MappingMatrix(c=2, class_of=np.array([0, 1, 0]))
    f = tmp_path / "T.classof"
    write_mapping(mapping, f)
    assert f.read_bytes() == b"3 2\n0 0\n1 1\n2 0\n"
    assert read_mapping(f) == mapping


@pytest.mark.parametrize(
    "content, where",
    [
        ("x 2\n0 0\n", r"T\.classof:1: expected two integers"),
        ("1 2\n0 x\n", r"T\.classof:2: expected two integers"),
        ("2 2\n0 0\n1 1\n0 1\n", r"T\.classof:4: column 0 listed twice"),
        ("-1 2\n", r"T\.classof:1: need m >= 0"),
        ("2 2\n0 0\n1 2\n", r"T\.classof:3: class index out of range"),
        ("2 2\n\n0 0\n1 x\n", r"T\.classof:4: expected two integers"),
        (b"2 2\n0 \xff\n", r"T\.classof: file is not UTF-8"),
        ("99999999999999999999999 2\n", r"T\.classof:1: integer outside the 64-bit range"),
        ("2 2\n0 -9223372036854775809\n", r"T\.classof:2: integer outside the 64-bit range"),
        ("1000000000 2\n0 0\n", r"T\.classof:1: header says m=1000000000 columns but only 1 follow"),
        ("3 2\n0 0\n1 1\n", r"T\.classof:1: header says m=3 columns but only 2 follow"),
        ("2 2\n1_0 1\n", r"T\.classof:2: expected two integers, got '1_0 1'$"),
        ("2 2\n\u0663 1\n", r"T\.classof:2: expected two integers, got '\u0663 1'$"),
        # only ASCII spaces separate the two integers
        ("2 2\n0 0\n1\x1c0\n", r"T\.classof:3: expected two integers, got '1\\x1c0'$"),
        ("2 2\n0\u00a01\n", r"T\.classof:2: expected two integers, got '0\\xa01'$"),
        ("2 2\n0\t1\n", r"T\.classof:2: expected two integers, got '0\\t1'$"),
    ],
    ids=[
        "non-integer-header", "non-integer-pair", "duplicate-column", "negative-m",
        "class-range", "blank-line-counted", "not-utf8", "m-past-int64", "class-past-int64",
        "m-past-rows", "missing-column", "underscore", "non-ascii-digit", "file-separator",
        "no-break-space", "tab",
    ],
)
def test_mapping_bad_file_names_line(tmp_path, content, where):
    f = tmp_path / "T.classof"
    f.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    with pytest.raises(DataError, match=where):
        read_mapping(f)


# ---------------------------------------------------------------------------
# synthetic data


def test_synth_deterministic():
    a = synth_dataset(SynthSpec(n_train=30, n_dev=10, n_test=10), seed=9)
    b = synth_dataset(SynthSpec(n_train=30, n_dev=10, n_test=10), seed=9)
    assert a.train == b.train and a.dev == b.dev and a.test == b.test
    for name in ("train", "dev", "test"):
        assert np.array_equal(a.raw_weak_labels[name], b.raw_weak_labels[name])
    c = synth_dataset(SynthSpec(n_train=30, n_dev=10, n_test=10), seed=10)
    assert a.train != c.train


def old_synth_dataset(spec: SynthSpec, seed: int) -> SplitSet:
    """synth_dataset as it drew its tokens with ``rng.choice`` on Python lists,
    and its weak labels in one expression: the oracle of its stream."""
    rng = stream(seed, "synth")
    m0 = spec.c * spec.m_per_class
    words = [[f"topic{k}word{t}" for t in range(12)] for k in range(spec.c)]
    filler = ("the", "and", "of", "to", "a", "in", "it", "is")
    splits, weak = {}, {}
    for name, size in (("train", spec.n_train), ("dev", spec.n_dev), ("test", spec.n_test)):
        labels = rng.integers(spec.c, size=size)
        samples = []
        for i in range(size):
            k = int(labels[i])
            n_kw = int(rng.integers(3, 9))
            tokens = list(rng.choice(words[k], size=n_kw))
            n_fill = int(rng.integers(0, 4))
            tokens += list(rng.choice(filler, size=n_fill))
            if rng.random() < 0.1:
                other = int((k + 1 + rng.integers(spec.c - 1)) % spec.c)
                tokens.append(str(rng.choice(words[other])))
            order = rng.permutation(len(tokens))
            samples.append(Sample(id=i, text=" ".join(tokens[t] for t in order), gold_label=k))
        fires = rng.random((size, m0)) < spec.lf_coverage
        correct = rng.random((size, m0)) < spec.lf_accuracy
        wrong = (labels[:, None] + rng.integers(1, spec.c, size=(size, m0))) % spec.c
        weak[name] = np.where(fires, np.where(correct, labels[:, None], wrong), -1)
        splits[name] = tuple(samples)
    names = tuple(f"class_{k}" for k in range(spec.c))
    return SplitSet(splits["train"], splits["dev"], splits["test"], names, weak)


@given(
    c=st.integers(2, 6),
    m_per_class=st.integers(1, 4),
    sizes=st.tuples(*[st.integers(0, 40)] * 3),
    seed=st.integers(0, 2**32),
)
def test_synth_draws_the_stream_of_rng_choice(c, m_per_class, sizes, seed):
    spec = SynthSpec(c=c, m_per_class=m_per_class, n_train=sizes[0], n_dev=sizes[1], n_test=sizes[2])
    got, want = synth_dataset(spec, seed), old_synth_dataset(spec, seed)
    assert (got.train, got.dev, got.test, got.class_names) == (want.train, want.dev, want.test, want.class_names)
    for name in ("train", "dev", "test"):
        assert np.array_equal(got.raw_weak_labels[name], want.raw_weak_labels[name])
        assert got.raw_weak_labels[name].dtype == np.int64


def test_synth_noiseless_majority_vote_recovers_gold():
    splits = synth_dataset(
        SynthSpec(lf_accuracy=1.0, lf_coverage=1.0, n_train=60, n_dev=20, n_test=20), seed=1
    )
    conv = to_one_class_lfs(splits)
    preds = majority_vote(conv.match["train"], conv.mapping, seed=0)
    gold = np.array([s.gold_label for s in splits.train])
    assert np.array_equal(preds, gold)


def test_synth_coverage_matches_binomial():
    spec = SynthSpec(lf_coverage=0.4, n_train=4000, n_dev=0, n_test=0)
    splits = synth_dataset(spec, seed=5)
    raw = splits.raw_weak_labels["train"]
    m0 = spec.c * spec.m_per_class
    covered = (raw != -1).any(axis=1).mean()
    expected = 1.0 - (1.0 - 0.4) ** m0
    sigma = math.sqrt(expected * (1 - expected) / spec.n_train)
    assert abs(covered - expected) <= 4 * sigma


def test_synth_validates_spec():
    with pytest.raises(DataError):
        SynthSpec(c=1)
    with pytest.raises(DataError):
        SynthSpec(lf_coverage=0.0)
    with pytest.raises(DataError):
        SynthSpec(lf_accuracy=1.5)


# the 25k-row shape of the memory measurements at a fifth of the rows: 6,000
# rows over the three splits, 200 weak labels each
WIDE_SPEC = SynthSpec(c=2, m_per_class=100, n_train=5000, n_dev=500, n_test=500, lf_coverage=0.3)


def test_synth_holds_under_two_int64_arrays_of_weak_labels():
    # The draws stay whole, so a split's uniforms are one float64 array; the
    # weak labels are built in place in the int64 offsets. Building them with
    # where-copies beside the draws took 30 bytes a cell.
    splits, peak = traced_peak(synth_dataset, WIDE_SPEC, 3)
    cells = sum(w.size for w in splits.raw_weak_labels.values())
    assert cells == 6000 * 200
    assert peak < 16 * cells, f"{peak / cells:.1f} bytes a cell"


def test_to_one_class_lfs_holds_under_two_copies_of_its_pairs():
    # The pairs are made once, sorted by row as they are placed; stacking
    # per-column pieces, concatenating them and sorting a copy took 56 bytes a pair.
    splits = synth_dataset(WIDE_SPEC, 3)
    conv, peak = traced_peak(to_one_class_lfs, splits)
    nnz = sum(match.pairs.shape[0] for match in conv.match.values())
    assert nnz > 300_000
    assert peak < 2 * 16 * nnz, f"{peak / nnz:.1f} bytes a pair"


@given(st.integers(0, 10_000))
def test_to_one_class_lfs_pairs_are_the_sorted_per_column_matches(seed):
    rng = np.random.default_rng(seed)
    n, m0, c = int(rng.integers(0, 30)), int(rng.integers(1, 5)), int(rng.integers(2, 4))
    weak = np.where(rng.random((n, m0)) < 0.4, rng.integers(0, c, size=(n, m0)), -1)
    samples = tuple(Sample(id=i, text="t") for i in range(n))
    empty = np.empty((0, m0), dtype=np.int64)
    splits = SplitSet(samples, (), (), tuple("abcd"[:c]), {"train": weak, "dev": empty, "test": empty})
    conv = to_one_class_lfs(splits)
    want = [(i, col) for i in range(n) for col, (j, cls) in enumerate(conv.provenance.columns) if weak[i, j] == cls]
    assert [tuple(pair) for pair in conv.match["train"].pairs.tolist()] == want
