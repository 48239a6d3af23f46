from __future__ import annotations

import copy
import csv
import hashlib
import json
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest
from conftest import child_env
from hypothesis import given, settings, strategies as st

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    import tomli as tomllib

from sepll.cli import main
from sepll.errors import DataError
from sepll.manifest import verify_manifest
from sepll.model import load_checkpoint
from sepll.serialize import MAGIC, read_json
from sepll.trainer import VARIANT_ORDER

SYNTH_CONFIG = """\
[data]
format = synth
n_train = 120
n_dev = 30
n_test = 30

[encoder]
max_features = 300
hidden = 16
dim = 8

[train]
max_epochs = 3
patience = 2
seed = 0
"""


def write_config(tmp_path, text=SYNTH_CONFIG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def trained(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    return cfg, out


# ---------------------------------------------------------------------------
# synth + convert


def test_synth_writes_loadable_dataset(tmp_path):
    out = tmp_path / "data"
    code = main(
        ["synth", "--out", str(out), "--seed", "3", "--n-train", "40",
         "--n-dev", "10", "--n-test", "10"]
    )
    assert code == 0
    for name in ("train.json", "valid.json", "test.json", "label.json", "manifest.json"):
        assert (out / name).exists()
    assert verify_manifest(out / "manifest.json") == []


def test_convert_writes_matrices_and_provenance(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--seed", "0", "--n-train", "60",
          "--n-dev", "20", "--n-test", "20"])
    out = tmp_path / "conv"
    assert main(["convert", str(data), "--out", str(out)]) == 0
    for name in ("L_train.triplets", "L_dev.triplets", "L_test.triplets",
                 "T.classof", "provenance.csv", "manifest.json"):
        assert (out / name).exists()
    header = (out / "L_train.triplets").read_text().splitlines()[0]
    n, m = header.split()
    assert int(n) == 60
    first = (out / "T.classof").read_text().splitlines()[0]
    assert first.split()[0] == m
    with open(out / "provenance.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    kept = [r for r in rows if r["status"] == "kept"]
    assert len(kept) == int(m)
    assert kept[0]["class_name"].startswith("class_")
    assert "converted" in capsys.readouterr().out


def test_convert_is_idempotent(tmp_path):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--seed", "1", "--n-train", "50",
          "--n-dev", "10", "--n-test", "10"])
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    main(["convert", str(data), "--out", str(out1)])
    main(["convert", str(data), "--out", str(out2)])
    for name in ("L_train.triplets", "L_dev.triplets", "L_test.triplets", "T.classof", "provenance.csv"):
        assert digest(out1 / name) == digest(out2 / name)


def test_convert_malformed_entry_exits_2_naming_file(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--seed", "0", "--n-train", "20",
          "--n-dev", "5", "--n-test", "5"])
    train = json.loads((data / "train.json").read_text(encoding="utf-8"))
    train["3"]["weak_labels"][0] = "x"
    (data / "train.json").write_text(json.dumps(train), encoding="utf-8")
    assert main(["convert", str(data), "--out", str(tmp_path / "conv")]) == 2
    err = capsys.readouterr().err
    assert f"{data / 'train.json'}: sample 3: weak label" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("fmt", ["wrench-json", "jsonl"])
def test_convert_deeply_nested_json_exits_2_naming_file(tmp_path, capsys, fmt):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--seed", "0", "--n-train", "5",
          "--n-dev", "5", "--n-test", "5", "--format", fmt])
    nested = "[" * 100_000 + "]" * 100_000
    if fmt == "wrench-json":
        split_file, where = data / "train.json", f"{data / 'train.json'}: "
        split_file.write_text(nested, encoding="utf-8")
    else:
        split_file, where = data / "train.jsonl", f"{data / 'train.jsonl'}:2: "
        lines = split_file.read_text(encoding="utf-8").splitlines()
        lines[1] = nested
        split_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["convert", str(data), "--format", fmt, "--out", str(tmp_path / "conv")])
    err = capsys.readouterr().err
    assert code == 2
    assert where + "JSON nested too deeply" in err
    assert "Traceback" not in err


def test_convert_missing_dir_is_usage_error(tmp_path, capsys):
    assert main(["convert", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]) == 1
    assert "error" in capsys.readouterr().err.lower()


# ---------------------------------------------------------------------------
# train


def test_train_synth_config_with_one_class_exits_1_naming_config(tmp_path, capsys):
    cfg = write_config(tmp_path, SYNTH_CONFIG.replace("format = synth", "format = synth\nc = 1"))
    code = main(["train", "--config", cfg, "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 1
    assert f"{cfg}: [data] synth needs at least two classes" in err
    assert "Traceback" not in err


def test_train_writes_artifacts(trained, capsys):
    _, out = trained
    assert (out / "checkpoint.sepll").exists()
    assert (out / "history.csv").exists()
    assert (out / "manifest.json").exists()
    history = (out / "history.csv").read_text().splitlines()
    assert history[0] == "epoch,train_loss,dev_metric,lr"
    assert len(history) > 1
    manifest = read_json(out / "manifest.json")
    assert manifest["config"]["train"]["seed"] == 0
    assert verify_manifest(out / "manifest.json") == []


def test_train_seed_override_is_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", cfg, "--out", str(a), "--seed", "7"]) == 0
    assert main(["train", "--config", cfg, "--out", str(b), "--seed", "7"]) == 0
    assert digest(a / "checkpoint.sepll") == digest(b / "checkpoint.sepll")
    assert digest(a / "history.csv") == digest(b / "history.csv")
    manifest = read_json(a / "manifest.json")
    assert manifest["seed"] == 7
    assert manifest["config"]["train"]["seed"] == 7


def test_train_missing_dev_split_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, SYNTH_CONFIG.replace("n_dev = 30", "n_dev = 0"))
    code = main(["train", "--config", cfg, "--out", str(tmp_path / "x")])
    assert code == 2
    assert "dev split required for early stopping" in capsys.readouterr().err


def test_config_not_utf8_exits_1_naming_file(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"[train]\nseed = \xff\xfe\n")
    assert main(["stats", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f"{cfg}: file is not UTF-8" in err
    assert "Traceback" not in err


def test_train_bad_config_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, "[train]\nlearning_rate = -1\n")
    code = main(["train", "--config", cfg, "--out", str(tmp_path / "x")])
    assert code == 1


def _train_with(old, new, *extra):
    """A case that trains on SYNTH_CONFIG with ``old`` replaced by ``new``."""

    def case(tmp_path, request):
        assert old in SYNTH_CONFIG
        cfg = write_config(tmp_path, SYNTH_CONFIG.replace(old, new))
        return ["train", "--config", cfg, "--out", str(tmp_path / "x"), *extra]

    return case


def _command(*argv):
    """A case that runs ``argv`` with ``{cfg}`` and ``{tmp}`` filled in."""

    def case(tmp_path, request):
        cfg = write_config(tmp_path)
        return [arg.format(cfg=cfg, tmp=tmp_path) for arg in argv]

    return case


def _eval_with_echo(echo):
    """A case that evaluates a trained checkpoint whose config echo is ``echo``."""

    def case(tmp_path, request):
        from sepll.serialize import read_container, write_container

        cfg, run_dir = request.getfixturevalue("trained")
        ckpt = run_dir / "checkpoint.sepll"
        header, arrays = read_container(ckpt)
        header["config"] = echo
        del header["arrays"]
        write_container(ckpt, header, arrays)
        return ["eval", "--checkpoint", str(ckpt), "--config", cfg, "--out", str(tmp_path / "e")]

    return case


# One row per malformed input that used to end in a traceback, a wrong exit
# code or a silent success: case -> (argv builder, exit code, text that stderr
# must hold, with {tmp} for the test's directory). Exit 1 is a config or usage
# error, exit 2 a data error.
MALFORMED_INPUTS = {
    "learning_rate is nan": (_train_with("max_epochs", "learning_rate = nan\nmax_epochs"), 1, "learning_rate"),
    "learning_rate is inf": (_train_with("max_epochs", "learning_rate = inf\nmax_epochs"), 1, "learning_rate"),
    "weight_decay is inf": (_train_with("max_epochs", "weight_decay = inf\nmax_epochs"), 1, "weight_decay"),
    "l2_lf is nan": (_train_with("max_epochs", "l2_lf = nan\nmax_epochs"), 1, "l2_lf"),
    "config seed is negative": (_train_with("seed = 0", "seed = -1"), 1, "seed must be non-negative"),
    "train --seed is negative": (_train_with("seed = 0", "seed = 0", "--seed", "-3"), 1, "--seed"),
    "synth --seed is negative": (_command("synth", "--out", "{tmp}/s", "--seed", "-3"), 1, "--seed"),
    "stats --seed is negative": (_command("stats", "--config", "{cfg}", "--seed", "-3", "--out", "{tmp}/d"), 1, "--seed"),
    "checkpoint echo is a number": (_eval_with_echo(5), 2, "{tmp}/run/checkpoint.sepll: "),
    "checkpoint echo section is a number": (_eval_with_echo({"train": 5}), 2, "{tmp}/run/checkpoint.sepll: "),
    "checkpoint echo is a list": (_eval_with_echo(["x"]), 2, "{tmp}/run/checkpoint.sepll: "),
    "checkpoint echo has an unknown section": (_eval_with_echo({"x": {}}), 2, "{tmp}/run/checkpoint.sepll: "),
    "checkpoint class names are not strings": (_eval_with_echo({"class_names": [0]}), 2, "{tmp}/run/checkpoint.sepll: "),
    "positive_class is 5": (_train_with("max_epochs", "positive_class = 5\nmax_epochs"), 1, "positive_class must be 0 or 1"),
    "binary_f1 on three classes": (
        _train_with(
            SYNTH_CONFIG,
            SYNTH_CONFIG.replace("format = synth", "format = synth\nc = 3").replace("seed = 0", "seed = 0\nmetric = binary_f1"),
        ),
        2,
        "binary_f1 requires exactly 2 classes, got 3",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_with_its_code_naming_it(tmp_path, capsys, request, case):
    build, code, named = MALFORMED_INPUTS[case]
    argv = build(tmp_path, request)
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert named.format(tmp=tmp_path) in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# eval


def test_eval_writes_report(trained, tmp_path, capsys):
    cfg, run_dir = trained
    out = tmp_path / "eval"
    code = main(
        ["eval", "--checkpoint", str(run_dir / "checkpoint.sepll"),
         "--config", cfg, "--split", "test", "--out", str(out)]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["split"] == "test"
    assert report["metric"] == "accuracy"
    assert 0.0 <= report["value"] <= 1.0
    assert len(report["confusion"]) == 2
    csv_text = (out / "report.csv").read_text().splitlines()
    assert csv_text[0] == "cell,value"
    assert verify_manifest(out / "manifest.json") == []


def test_eval_stdout_when_no_out(trained, capsys):
    cfg, run_dir = trained
    code = main(
        ["eval", "--checkpoint", str(run_dir / "checkpoint.sepll"),
         "--config", cfg, "--metric", "macro_f1"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["metric"] == "macro_f1"


def test_eval_dimension_mismatch_exits_2(trained, tmp_path, capsys):
    cfg, run_dir = trained
    other = write_config(
        tmp_path, SYNTH_CONFIG.replace("n_train = 120", "n_train = 120\nm_per_class = 1"),
        name="other.cfg",
    )
    code = main(
        ["eval", "--checkpoint", str(run_dir / "checkpoint.sepll"), "--config", other]
    )
    assert code == 2
    assert "LF dimension mismatch" in capsys.readouterr().err


def test_eval_malformed_checkpoint_exits_2_naming_file(trained, capsys):
    from sepll.serialize import read_container, write_container

    cfg, run_dir = trained
    ckpt = run_dir / "checkpoint.sepll"
    header, arrays = read_container(ckpt)
    header["lf_layers"] = 0
    write_container(ckpt, header, arrays)
    assert main(["eval", "--checkpoint", str(ckpt), "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "checkpoint.sepll" in err
    assert "Traceback" not in err


# What a header mutation may put in place of a value: every JSON type, ints
# at and past the int64 range, and (by "copy") another value of the same header.
HEADER_VALUES = [-1, 0, 1, 7, 2**63, -(2**70), 0.5, 1e308, True, False, None, "", "x", [], [0], [-1], {}, {"x": 1}]
FRACTION = st.floats(0, 1, exclude_max=True)
CHECKPOINT_MUTATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("header"), FRACTION, st.sampled_from(HEADER_VALUES)),
        st.tuples(st.just("copy"), FRACTION, FRACTION),
        # the second pair puts an exponent of all ones into a float64's top bytes
        st.tuples(
            st.just("payload"), FRACTION, st.one_of(st.binary(min_size=1, max_size=2), st.sampled_from([b"\xf8\x7f", b"\xf0\xff"]))
        ),
    ),
    min_size=1,
    max_size=3,
)


def json_slots(node):
    """Every ``(container, key)`` inside a JSON value, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in list(items):
        yield node, key
        yield from json_slots(child)


def mutate_checkpoint(raw: bytes, mutations) -> bytes:
    """``raw`` with each mutation applied to its header's values or its payload bytes."""
    end = raw.index(b"\n", len(MAGIC))
    header, payload = json.loads(raw[len(MAGIC) : end]), bytearray(raw[end + 1 :])
    for kind, frac, arg in mutations:
        if kind == "payload":
            pos = int(frac * len(payload))
            payload[pos : pos + len(arg)] = arg
            continue
        slots = list(json_slots(header))
        node, key = slots[int(frac * len(slots))]
        if kind == "copy":
            source, source_key = slots[int(arg * len(slots))]
            arg = source[source_key]
        node[key] = copy.deepcopy(arg)
    return MAGIC + json.dumps(header, sort_keys=True).encode() + b"\n" + bytes(payload)


def test_mutated_checkpoint_loads_or_is_data_error_and_eval_exits_cleanly(trained, tmp_path, capsys):
    cfg, run_dir = trained
    raw = (run_dir / "checkpoint.sepll").read_bytes()
    assert mutate_checkpoint(raw, []) == raw
    path = tmp_path / "mutated.sepll"

    @settings(max_examples=300)
    @given(CHECKPOINT_MUTATIONS)
    def check(mutations):
        path.write_bytes(mutate_checkpoint(raw, mutations))
        try:
            params, vocab, echo = load_checkpoint(path)
        except DataError as exc:
            assert str(path) in str(exc)
            rejected = True
        else:
            rejected = False
            # valid data: what training could have written
            assert np.isfinite(params.theta).all()
            assert len(set(vocab.tokens)) == len(vocab) == vocab.df.size
            assert vocab.n_docs >= 0 and np.all((vocab.df >= 0) & (vocab.df <= vocab.n_docs))
            assert type(echo) is dict and set(echo) <= {"encoder", "model", "train", "data", "lfs", "class_names"}
            assert all(type(echo[key]) is dict for key in ("encoder", "model", "train", "data") if key in echo)
            assert type(echo.get("lfs", [])) is list
            assert type(echo.get("class_names", [])) is list and all(type(v) is str for v in echo.get("class_names", []))
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(path), "--config", cfg])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        # a checkpoint that loads may still disagree with the data (exit 2) or
        # overflow the logits with finite weights (exit 3)
        assert code == 2 if rejected else code in (0, 2, 3)
        if code == 2:
            assert str(path) in err

    check()


def test_eval_checkpoint_shapes_that_do_not_chain_exit_2(trained, capsys):
    from sepll.serialize import read_container, write_container

    cfg, run_dir = trained
    ckpt = run_dir / "checkpoint.sepll"
    header, arrays = read_container(ckpt)
    rows, cols = arrays["task.0.W"].shape
    arrays["task.0.W"] = np.zeros((rows + 1, cols))
    write_container(ckpt, header, arrays)
    assert main(["eval", "--checkpoint", str(ckpt), "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "checkpoint.sepll" in err and "task.0.W" in err
    assert "Traceback" not in err



def rewrite_header(ckpt: Path, edit) -> None:
    """Replace the JSON header line of a container with ``edit(header)``
    (serialized unless it is already bytes), keeping the payload."""
    raw = ckpt.read_bytes()
    start = raw.index(b"\n") + 1
    end = raw.index(b"\n", start)
    blob = edit(json.loads(raw[start:end]))
    if not isinstance(blob, bytes):
        blob = json.dumps(blob).encode("utf-8")
    ckpt.write_bytes(raw[:start] + blob + raw[end:])


def _edit_first_array(**changes):
    def edit(header):
        header["arrays"][0].update(changes)
        return header

    return edit


def _drop_first_shape(header):
    del header["arrays"][0]["shape"]
    return header


def _first_array_as_list(header):
    spec = header["arrays"][0]
    header["arrays"][0] = [spec["name"], spec["shape"]]
    return header


def _repeat_first_name(header):
    header["arrays"][1]["name"] = header["arrays"][0]["name"]
    return header


NOT_A_SPEC = "container array entry 0 is not"
MALFORMED_HEADERS = {  # case -> (header edit, message)
    "shape is a string": (_edit_first_array(shape="ab"), NOT_A_SPEC),
    "shape has a negative entry": (_edit_first_array(shape=[-1, 3]), NOT_A_SPEC),
    "shape has a boolean entry": (_edit_first_array(shape=[True, 3]), NOT_A_SPEC),
    "shape has a float entry": (_edit_first_array(shape=[2.5, 3]), NOT_A_SPEC),
    "name is not a string": (_edit_first_array(name=5), NOT_A_SPEC),
    "spec without shape": (_drop_first_shape, NOT_A_SPEC),
    "spec is a list": (_first_array_as_list, NOT_A_SPEC),
    "name repeats": (_repeat_first_name, "is listed twice"),
    "arrays is a number": (lambda header: {**header, "arrays": 5}, "field 'arrays' is not a list"),
    "header is a list": (lambda header: [header], "container header is not a JSON object"),
    "header nested too deeply": (
        lambda header: b"[" * 100000 + b"]" * 100000,
        "corrupt container header",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
def test_eval_malformed_container_header_exits_2_naming_file(trained, capsys, case):
    cfg, run_dir = trained
    ckpt = run_dir / "checkpoint.sepll"
    edit, message = MALFORMED_HEADERS[case]
    rewrite_header(ckpt, edit)
    assert main(["eval", "--checkpoint", str(ckpt), "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"{ckpt}: " in err and message in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# analyze


def test_analyze_memorization_json(trained, tmp_path):
    cfg, run_dir = trained
    out = tmp_path / "mem"
    code = main(
        ["analyze", "--checkpoint", str(run_dir / "checkpoint.sepll"), "--config", cfg,
         "--which", "memorization", "--split", "train", "--out", str(out), "--plot"]
    )
    assert code == 0
    blob = json.loads((out / "memorization.json").read_text())
    assert set(blob["paths"]) == {"lf_latent", "full", "task_mapped"}
    for path in blob["paths"].values():
        assert set(path) == {"accuracy", "macro_f1", "cross_entropy"}
    assert blob["threshold_k"] == 4
    assert blob["uniform_ce"] > 0
    assert (out / "memorization_scores.svg").exists()
    assert (out / "memorization_ce.svg").exists()
    assert verify_manifest(out / "manifest.json") == []


def test_analyze_threshold_k_choice(trained, tmp_path):
    cfg, run_dir = trained
    out = tmp_path / "mem2"
    code = main(
        ["analyze", "--checkpoint", str(run_dir / "checkpoint.sepll"), "--config", cfg,
         "--which", "memorization", "--threshold-k", "2", "--out", str(out)]
    )
    assert code == 0
    assert json.loads((out / "memorization.json").read_text())["threshold_k"] == 2


def test_analyze_matches_csv_and_plot(trained, tmp_path):
    cfg, run_dir = trained
    out = tmp_path / "matches"
    code = main(
        ["analyze", "--checkpoint", str(run_dir / "checkpoint.sepll"), "--config", cfg,
         "--which", "matches", "--out", str(out), "--plot"]
    )
    assert code == 0
    lines = (out / "matches.csv").read_text().splitlines()
    assert lines[0] == "match_count,accuracy,support"
    assert len(lines) > 1
    assert (out / "matches.svg").exists()


def test_analyze_gap_json(trained, tmp_path):
    cfg, run_dir = trained
    out = tmp_path / "gap"
    code = main(
        ["analyze", "--checkpoint", str(run_dir / "checkpoint.sepll"), "--config", cfg,
         "--which", "gap", "--out", str(out)]
    )
    assert code == 0
    blob = json.loads((out / "gap.json").read_text())
    assert set(blob) == {"cells", "train", "test"}
    assert "full.cross_entropy" in blob["cells"]
    assert all(v >= 0 for v in blob["cells"].values())


# what ``analyze --which matches`` prints, byte for byte: count keys sort as text
MATCHES_JSON = """{
  "0": {
    "support": 8,
    "value": 0.25
  },
  "10": {
    "support": 1,
    "value": 1.0
  },
  "2": {
    "support": 4,
    "value": 0.5
  }
}
"""


def test_analyze_matches_stdout_golden(trained, capsys, monkeypatch):
    import sepll.cli
    from sepll.evaluation import MatchGroup

    table = {2: MatchGroup(0.5, 4), 10: MatchGroup(1.0, 1), 0: MatchGroup(0.25, 8)}
    monkeypatch.setattr(sepll.cli, "match_count_breakdown", lambda *args, **kwargs: table)
    cfg, run_dir = trained
    code = main(
        ["analyze", "--checkpoint", str(run_dir / "checkpoint.sepll"), "--config", cfg,
         "--which", "matches"]
    )
    assert code == 0
    assert capsys.readouterr().out == MATCHES_JSON


@pytest.mark.parametrize(
    "argv, name",
    [
        (["stats"], "stats.json"),
        (["eval", "--metric", "macro_f1"], "report.json"),
        (["analyze", "--which", "memorization"], "memorization.json"),
        (["analyze", "--which", "gap"], "gap.json"),
    ],
    ids=["stats", "eval", "analyze-memorization", "analyze-gap"],
)
def test_stdout_without_out_is_the_written_json(trained, tmp_path, capsys, argv, name):
    cfg, run_dir = trained
    argv = [*argv, "--config", cfg]
    if argv[0] != "stats":
        argv += ["--checkpoint", str(run_dir / "checkpoint.sepll")]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert printed == (tmp_path / "out" / name).read_text(encoding="utf-8")


def test_analyze_stdout_without_out(trained, capsys):
    cfg, run_dir = trained
    code = main(
        ["analyze", "--checkpoint", str(run_dir / "checkpoint.sepll"), "--config", cfg,
         "--which", "memorization"]
    )
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert "paths" in blob


# ---------------------------------------------------------------------------
# ablate


def test_ablate_runs_all_variants(tmp_path):
    cfg = write_config(
        tmp_path,
        SYNTH_CONFIG.replace("n_train = 120", "n_train = 60")
        .replace("n_dev = 30", "n_dev = 16")
        .replace("n_test = 30", "n_test = 16")
        .replace("max_epochs = 3", "max_epochs = 2"),
    )
    out = tmp_path / "abl"
    assert main(["ablate", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "ablation.csv").read_text().splitlines()
    assert rows[0] == "variant,synth,avg"
    assert [r.split(",")[0] for r in rows[1:]] == list(VARIANT_ORDER)
    blob = json.loads((out / "ablation.json").read_text())
    assert set(blob["synth"]) == set(VARIANT_ORDER)
    for cell in blob["synth"].values():
        assert set(cell) == {"dev", "test"}


def test_ablate_multiple_datasets(tmp_path):
    d1, d2 = tmp_path / "d1", tmp_path / "d2"
    for i, d in enumerate((d1, d2)):
        main(["synth", "--out", str(d), "--seed", str(i), "--n-train", "60",
              "--n-dev", "16", "--n-test", "16"])
    cfg = write_config(
        tmp_path,
        "[data]\nformat = wrench-json\npath = " + str(d1) + "\n\n"
        "[encoder]\nmax_features = 300\nhidden = 16\ndim = 8\n\n"
        "[train]\nmax_epochs = 2\npatience = 2\nseed = 0\n",
    )
    out = tmp_path / "abl"
    code = main(["ablate", "--config", cfg, "--datasets", f"{d1},{d2}", "--out", str(out)])
    assert code == 0
    rows = (out / "ablation.csv").read_text().splitlines()
    assert rows[0] == "variant,d1,d2,avg"
    body = [r.split(",") for r in rows[1:]]
    assert len(body) == len(VARIANT_ORDER)
    for cells in body:
        vals = [float(v) for v in cells[1:]]
        assert vals[2] == pytest.approx((vals[0] + vals[1]) / 2)


def test_ablate_datasets_sharing_a_name_exit_1(tmp_path, capsys):
    # results are keyed by the directory's base name, so the second would
    # silently replace the first in ablation.json, ablation.csv and the manifest
    d1, d2 = tmp_path / "a" / "data", tmp_path / "b" / "data"
    for d in (d1, d2):
        main(["synth", "--out", str(d), "--n-train", "20", "--n-dev", "8", "--n-test", "8"])
    cfg = write_config(tmp_path)
    out = tmp_path / "abl"
    code = main(["ablate", "--config", cfg, "--datasets", f"{d1},{d2}", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert str(d1) in err and str(d2) in err and "'data'" in err
    assert not out.exists()


def test_ablate_empty_datasets_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = main(["ablate", "--config", cfg, "--datasets", " , ", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "empty dataset list" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# apply-lfs + stats


LF_CONFIG = SYNTH_CONFIG + """
[lfs]
rule_a = keyword class_0 topic0word0, topic0word1
rule_b = keyword class_1 topic1word0
rule_c = regex class_1 topic1word[23]
"""


def test_eval_lf_class_mismatch_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, LF_CONFIG)
    run_dir = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(run_dir)]) == 0
    # same m and c, but the first two LFs (classes 0 and 1) swap columns
    swapped = LF_CONFIG.replace(
        "rule_a = keyword class_0 topic0word0, topic0word1\nrule_b = keyword class_1 topic1word0",
        "rule_b = keyword class_1 topic1word0\nrule_a = keyword class_0 topic0word0, topic0word1",
    )
    assert swapped != LF_CONFIG
    other = write_config(tmp_path, swapped, name="swapped.cfg")
    code = main(["eval", "--checkpoint", str(run_dir / "checkpoint.sepll"), "--config", other])
    assert code == 2
    assert "LF class mismatch: checkpoint maps LF 0 to class 0, data yields class 1" in (
        capsys.readouterr().err
    )


def test_commands_label_only_the_splits_they_read(tmp_path, monkeypatch):
    import sepll.cli

    cfg = write_config(tmp_path, LF_CONFIG)
    run_dir = tmp_path / "run"
    labeled = []
    apply = sepll.cli.apply_lfs
    monkeypatch.setattr(
        sepll.cli, "apply_lfs", lambda lfs, samples: labeled.append(len(samples)) or apply(lfs, samples)
    )
    assert main(["train", "--config", cfg, "--out", str(run_dir)]) == 0
    assert labeled == [120]
    ckpt = ["--checkpoint", str(run_dir / "checkpoint.sepll"), "--config", cfg]
    for argv, sizes in [
        (["eval", *ckpt], []),
        (["analyze", *ckpt, "--which", "memorization", "--split", "dev"], [30]),
        (["analyze", *ckpt, "--which", "matches", "--split", "train"], [120]),
        (["analyze", *ckpt, "--which", "gap"], [120, 30]),
    ]:
        labeled.clear()
        assert main(argv) == 0
        assert labeled == sizes, argv


def test_apply_lfs_writes_match_matrices(tmp_path):
    cfg = write_config(tmp_path, LF_CONFIG)
    out = tmp_path / "lfs"
    assert main(["apply-lfs", "--config", cfg, "--out", str(out)]) == 0
    header = (out / "L_train.triplets").read_text().splitlines()[0]
    assert header == "120 3"
    assert (out / "T.classof").read_text().splitlines()[0] == "3 2"
    assert verify_manifest(out / "manifest.json") == []


# What a text mutation may put into a triplet or mapping file: digits, signs,
# separators, integers at and past the int64 range, a header-sized column
# count, and bytes that are not UTF-8 or not ASCII.
TEXT_TOKENS = [
    b"0", b"1", b"7", b"-", b"+", b"_", b" ", b"\n", b"\r", b"\t", b"x", b"\x00", b"\xff", b"\xc2\x85", b"1e3",
    b"9223372036854775807", b"9223372036854775808", b"-9223372036854775809", b"99999999999999999999999",
    b"1000000000",
]
TEXT_MUTATIONS = st.lists(
    st.tuples(st.sampled_from(["replace", "insert", "delete"]), FRACTION, st.sampled_from(TEXT_TOKENS)),
    min_size=1,
    max_size=3,
)


def mutate_text(raw: bytes, mutations) -> bytes:
    out = bytearray(raw)
    for kind, frac, token in mutations:
        pos = int(frac * len(out))
        if kind == "insert":
            out[pos:pos] = token
        else:
            out[pos : pos + len(token)] = token if kind == "replace" else b""
    return bytes(out)


def test_mutated_triplets_and_mapping_load_or_are_data_error(tmp_path):
    from sepll.data import read_mapping, read_triplets

    cfg = write_config(tmp_path, LF_CONFIG)
    out = tmp_path / "lfs"
    assert main(["apply-lfs", "--config", cfg, "--out", str(out)]) == 0
    files = {name: (out / name).read_bytes() for name in ("L_train.triplets", "T.classof")}
    path = tmp_path / "mutated"

    @settings(max_examples=400)
    @given(st.sampled_from(sorted(files)), TEXT_MUTATIONS)
    def check(name, mutations):
        path.write_bytes(mutate_text(files[name], mutations))
        try:
            loaded = read_triplets(path) if name.endswith(".triplets") else read_mapping(path)
        except DataError as exc:
            assert str(path) in str(exc)
            return
        # valid data: what apply-lfs could have written
        if name.endswith(".triplets"):
            pairs = loaded.pairs
            assert loaded.n >= 0 and loaded.m >= 0 and pairs.dtype == np.int64
            assert np.all((pairs >= 0) & (pairs < [loaded.n, loaded.m]))
            rows, cols = np.diff(pairs[:, 0]), np.diff(pairs[:, 1])
            assert np.all((rows > 0) | ((rows == 0) & (cols > 0)))  # sorted, no repeats
        else:
            assert loaded.c >= 1 and loaded.class_of.dtype == np.int64
            assert np.all((loaded.class_of >= 0) & (loaded.class_of < loaded.c))

    check()


def test_apply_lfs_without_section_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["apply-lfs", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
    assert "no [lfs] section" in capsys.readouterr().err


def test_stats_stdout(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["stats", "--config", cfg]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert set(blob) == {"train", "dev", "test"}
    assert 0.0 <= blob["train"]["coverage"] <= 1.0
    assert blob["train"]["per_lf"]


def test_stats_out_dir(tmp_path):
    cfg = write_config(tmp_path, LF_CONFIG)
    out = tmp_path / "stats"
    assert main(["stats", "--config", cfg, "--out", str(out)]) == 0
    blob = json.loads((out / "stats.json").read_text())
    assert len(blob["train"]["per_lf"]) == 3


def test_every_out_command_manifest_lists_exactly_its_files(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--seed", "0", "--n-train", "60",
                 "--n-dev", "20", "--n-test", "20"]) == 0  # fmt: skip
    text = f"[data]\npath = {data}\n\n" + LF_CONFIG[LF_CONFIG.index("[encoder]"):]
    cfg = write_config(tmp_path, text)
    quick = write_config(tmp_path, text.replace("max_epochs = 3", "max_epochs = 1"), name="quick.cfg")
    ckpt = ["--checkpoint", str(tmp_path / "train" / "checkpoint.sepll"), "--config", cfg]
    commands = {
        "synth": None,
        "convert": ["convert", str(data)],
        "apply-lfs": ["apply-lfs", "--config", cfg],
        "stats": ["stats", "--config", cfg],
        "train": ["train", "--config", cfg],
        "eval": ["eval", *ckpt],
        **{
            f"analyze-{which}": ["analyze", *ckpt, "--which", which, "--plot"]
            for which in ("memorization", "matches", "gap")
        },
        "ablate": ["ablate", "--config", quick],
    }
    for name, argv in commands.items():
        out = data if argv is None else tmp_path / name
        if argv is not None:
            assert main([*argv, "--out", str(out)]) == 0, name
        manifest = out / "manifest.json"
        assert verify_manifest(manifest) == [], name
        listed = [Path(entry["path"]).resolve() for entry in read_json(manifest)["artifacts"].values()]
        written = [f.resolve() for f in out.iterdir() if f.name != "manifest.json"]
        assert sorted(listed) == sorted(written), name


# ---------------------------------------------------------------------------
# plumbing


def test_usage_error_exits_1(capsys):
    assert main(["train", "--no-such-flag"]) == 1
    assert "error" in capsys.readouterr().err.lower()


def test_unknown_command_exits_1(capsys):
    assert main(["frobnicate"]) == 1


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for cmd in ("convert", "apply-lfs", "stats", "synth", "train", "eval", "analyze", "ablate"):
        assert cmd in out


def test_console_script_entry_point():
    # Resolve the console script declared in pyproject.toml and run it in a
    # fresh interpreter the way pip's generated `sepll` wrapper does, so the
    # check needs no installed script on PATH.
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert "sepll" in scripts
    ep = EntryPoint(name="sepll", value=scripts["sepll"], group="console_scripts")
    assert callable(ep.load())
    runner = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"ep = EntryPoint(name={ep.name!r}, value={ep.value!r}, group={ep.group!r})\n"
        "sys.argv[0] = ep.name\n"
        "sys.exit(ep.load()())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", runner, "--help"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0
    assert "Weak-supervision" in proc.stdout


def test_convert_and_train_leave_numpy_ma_unloaded(tmp_path):
    # numpy's unique() without return_counts imports numpy.ma, about 1 MB and 10 ms per command
    from sepll.data import SynthSpec, save_dataset, synth_dataset

    splits = synth_dataset(SynthSpec(n_train=40, n_dev=10, n_test=10), seed=0)
    for fmt in ("jsonl", "wrench-json"):
        save_dataset(splits, tmp_path / fmt, fmt=fmt)
    (tmp_path / "jsonl" / "label.json").unlink()  # so that loading infers the classes
    cfg = write_config(tmp_path, SYNTH_CONFIG.replace("max_epochs = 3", "max_epochs = 1"))
    for argv in (
        ["convert", str(tmp_path / "jsonl"), "--format", "jsonl", "--out", str(tmp_path / "c1")],
        ["convert", str(tmp_path / "wrench-json"), "--out", str(tmp_path / "c2")],
        ["train", "--config", cfg, "--out", str(tmp_path / "t")],
    ):
        code = f"import sys; from sepll.cli import main; code = main({argv!r}); print(code, 'numpy.ma' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), check=True)
        assert proc.stdout.splitlines()[-1] == "0 False", (argv[0], proc.stdout, proc.stderr)


def test_cli_import_loads_no_scipy():
    # Every command starts a fresh interpreter, so import time is paid per command.
    code = "import sys, sepll.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), check=True
    )
    assert proc.stdout.strip() == "[]"
