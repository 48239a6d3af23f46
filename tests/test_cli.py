from __future__ import annotations

import csv
import hashlib
import json
import os
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    import tomli as tomllib

import sepll
from sepll.cli import main
from sepll.manifest import load_manifest, verify_manifest
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


def test_convert_missing_dir_is_usage_error(tmp_path, capsys):
    assert main(["convert", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]) == 1
    assert "error" in capsys.readouterr().err.lower()


# ---------------------------------------------------------------------------
# train


def test_train_writes_artifacts(trained, capsys):
    _, out = trained
    assert (out / "checkpoint.sepll").exists()
    assert (out / "history.csv").exists()
    assert (out / "manifest.json").exists()
    history = (out / "history.csv").read_text().splitlines()
    assert history[0] == "epoch,train_loss,dev_metric,lr"
    assert len(history) > 1
    manifest = load_manifest(out / "manifest.json")
    assert manifest["config"]["train"]["seed"] == 0
    assert verify_manifest(out / "manifest.json") == []


def test_train_seed_override_is_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", cfg, "--out", str(a), "--seed", "7"]) == 0
    assert main(["train", "--config", cfg, "--out", str(b), "--seed", "7"]) == 0
    assert digest(a / "checkpoint.sepll") == digest(b / "checkpoint.sepll")
    assert digest(a / "history.csv") == digest(b / "history.csv")
    manifest = load_manifest(a / "manifest.json")
    assert manifest["seed"] == 7
    assert manifest["config"]["train"]["seed"] == 7


def test_train_missing_dev_split_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, SYNTH_CONFIG.replace("n_dev = 30", "n_dev = 0"))
    code = main(["train", "--config", cfg, "--out", str(tmp_path / "x")])
    assert code == 2
    assert "dev split required for early stopping" in capsys.readouterr().err


def test_train_bad_config_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, "[train]\nlearning_rate = -1\n")
    code = main(["train", "--config", cfg, "--out", str(tmp_path / "x")])
    assert code == 1


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


def test_eval_checkpoint_shapes_that_do_not_chain_exit_2(trained, capsys):
    import numpy as np

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


def child_env() -> dict[str, str]:
    """Environment for a child interpreter that imports the same sepll as this
    process, from any cwd."""
    pkg_root = str(Path(sepll.__file__).resolve().parents[1])
    inherited = [
        os.path.abspath(entry)
        for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep)
        if entry
    ]
    return {**os.environ, "PYTHONPATH": os.pathsep.join([pkg_root, *inherited])}


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


def test_cli_import_loads_no_scipy():
    # Every command starts a fresh interpreter, so import time is paid per command.
    code = "import sys, sepll.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), check=True
    )
    assert proc.stdout.strip() == "[]"
