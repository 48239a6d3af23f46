"""Workload definitions: input sizes, input generation and the CLI pipeline of each.

Every workload starts from ``sepll synth``. The benchmark seed picks the synth
seed, the train seed and, for wide-vocab, the generated word list and padding;
the program only ever sees the files written here. All paths handed to the CLI
are relative to the workload directory, so the config echo stored in the
checkpoint (and therefore the checkpoint digest) does not depend on where the
benchmark runs.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# (argv without the program, working directory) -> exit code
RunCli = Callable[[list[str], Path], int]

SPLIT_FILES = ("train.json", "valid.json", "test.json")
# output directories of one pipeline repeat, one per command
OUT_DIRS = ("label", "stats", "train", "eval", "analyze")


@dataclass(frozen=True)
class Sizes:
    n_train: int
    n_dev: int
    n_test: int
    max_epochs: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    classes: int
    lfs_per_class: int
    batch_size: int
    learning_rate: float
    full: Sizes
    smoke: Sizes
    lf_coverage: float = 0.5  # firing rate of each synth weak-label LF
    rules: bool = False  # label with config-defined LFs instead of the synth weak labels
    vocab_words: int = 0  # size of the generated padding word list (0: no padding)
    pad_range: tuple[int, int] = (0, 0)  # padding words added per text, inclusive


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wide-vocab",
            why="synth texts padded from a generated 6000-word list, max_features 4000: a ~1M-parameter "
            "first layer, so AdamW, first-layer matmuls, featurization and checkpoint I/O dominate",
            classes=4,
            lfs_per_class=5,
            batch_size=16,
            learning_rate=0.001,
            full=Sizes(n_train=700, n_dev=200, n_test=400, max_epochs=2),
            smoke=Sizes(n_train=400, n_dev=40, n_test=80, max_epochs=3),
            lf_coverage=0.2,
            vocab_words=6000,
            pad_range=(20, 40),
        ),
        Workload(
            name="rules-large",
            why="large synth corpus labeled by 70 config-defined keyword, phrase and regex LFs, batch 256: "
            "LF application, tokenization and dense n x m arrays dominate",
            classes=7,
            lfs_per_class=1,
            batch_size=256,
            learning_rate=0.01,
            full=Sizes(n_train=3000, n_dev=300, n_test=600, max_epochs=3),
            smoke=Sizes(n_train=400, n_dev=60, n_test=60, max_epochs=3),
            rules=True,
        ),
    )
}


def lf_entries(classes: int) -> list[tuple[str, str]]:
    """The rules-large labeling functions over the synth vocabulary, ten per class.

    Keywords, keyword alternatives, phrases (adjacent topic words) and regexes
    on topic words 0-3, plus one regex on words 10-11. Words 4-9 are left to
    the model to generalize to, so majority vote has to guess on the rows that
    hold only those.
    """
    entries = []
    for k in range(classes):
        cls = f"class_{k}"
        word = f"topic{k}word"
        entries += [(f"kw_{k}_{t}", f"keyword {cls} {word}{t}") for t in range(4)]
        entries.append((f"alt_{k}_a", f"keyword {cls} {word}0, {word}2"))
        entries.append((f"alt_{k}_b", f"keyword {cls} {word}1, {word}3"))
        entries.append((f"phrase_{k}_a", f"keyword {cls} {word}0 {word}1, {word}2 {word}3"))
        entries.append((f"phrase_{k}_b", f"keyword {cls} {word}1 {word}0, {word}3 {word}2"))
        entries.append((f"re_{k}_a", rf"regex {cls} \b{word}1[01]\b"))
        entries.append((f"re_{k}_b", rf"regex {cls} ^{word}[0-3]\b"))
    return entries


def config_text(w: Workload, sizes: Sizes, seed: int, data_path: str) -> str:
    lines = [
        "[data]",
        "format = wrench-json",
        f"path = {data_path}",
        "",
        "[encoder]",
        "max_features = 4000",
        "",
        "[train]",
        f"seed = {seed}",
        f"batch_size = {w.batch_size}",
        f"learning_rate = {w.learning_rate}",
        f"max_epochs = {sizes.max_epochs}",
        # never stop early: every seed runs the same number of epochs
        f"patience = {sizes.max_epochs}",
    ]
    if w.rules:
        lines += ["", "[lfs]"] + [f"{name} = {value}" for name, value in lf_entries(w.classes)]
    return "\n".join(lines) + "\n"


def word_list(seed: int, count: int) -> list[str]:
    """``count`` distinct lowercase words of 5 to 9 letters.

    Letters only, so each is one token and none collides with the synth
    vocabulary (topic words carry digits, fillers are shorter).
    """
    rng = random.Random(seed)
    seen: set[str] = set()
    words = []
    while len(words) < count:
        word = "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(5, 9)))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def pad_corpus(src: Path, dst: Path, words: list[str], pad_range: tuple[int, int], seed: int) -> None:
    """Copy a wrench-json dataset, appending random words from ``words`` to every text."""
    rng = random.Random(seed)
    dst.mkdir(parents=True, exist_ok=True)
    (dst / "label.json").write_bytes((src / "label.json").read_bytes())
    lo, hi = pad_range
    for name in SPLIT_FILES:
        obj = json.loads((src / name).read_text(encoding="utf-8"))
        for key in sorted(obj, key=int):
            extra = [rng.choice(words) for _ in range(rng.randint(lo, hi))]
            obj[key]["data"]["text"] = " ".join([obj[key]["data"]["text"], *extra])
        (dst / name).write_text(json.dumps(obj, sort_keys=True) + "\n", encoding="utf-8")


def data_dir(w: Workload) -> str:
    """Dataset directory under the workload root: padded copy or raw synth output."""
    return "data" if w.vocab_words else "raw"


def prepare(w: Workload, sizes: Sizes, seed: int, root: Path, run_cli: RunCli) -> int:
    """Write the workload's inputs under ``root``; returns the synth exit code.

    Layout: ``raw/`` (synth output with its manifest), ``data/`` (the padded
    copy, wide-vocab only), ``words.txt`` (wide-vocab only) and ``run.cfg``.
    """
    root.mkdir(parents=True, exist_ok=True)
    argv = [
        "synth", "--out", "raw", "--seed", str(seed),
        "--classes", str(w.classes), "--lfs-per-class", str(w.lfs_per_class),
        "--n-train", str(sizes.n_train), "--n-dev", str(sizes.n_dev), "--n-test", str(sizes.n_test),
        "--lf-coverage", str(w.lf_coverage),
    ]  # fmt: skip
    code = run_cli(argv, root)
    if code != 0:
        return code
    if w.vocab_words:
        words = word_list(seed, w.vocab_words)
        (root / "words.txt").write_text("\n".join(words) + "\n", encoding="utf-8")
        pad_corpus(root / "raw", root / data_dir(w), words, w.pad_range, seed + 1)
    (root / "run.cfg").write_text(config_text(w, sizes, seed, data_dir(w)), encoding="utf-8")
    return 0


def input_files(root: Path) -> list[Path]:
    """Every file ``prepare`` wrote, in a stable order (for byte-identity checks)."""
    return sorted(p for p in root.rglob("*") if p.is_file())


def pipeline(w: Workload, out: str) -> list[tuple[str, list[str]]]:
    """The timed commands of one repeat, as (metric prefix, argv), writing under ``out``."""
    ckpt = f"{out}/train/checkpoint.sepll"
    label = (
        ["apply-lfs", "--config", "run.cfg", "--out", f"{out}/label"]
        if w.rules
        else ["convert", data_dir(w), "--out", f"{out}/label"]
    )
    return [
        ("label", label),
        ("stats", ["stats", "--config", "run.cfg", "--out", f"{out}/stats"]),
        ("train", ["train", "--config", "run.cfg", "--out", f"{out}/train"]),
        ("eval", ["eval", "--checkpoint", ckpt, "--config", "run.cfg", "--split", "test", "--out", f"{out}/eval"]),
        (
            "analyze",
            ["analyze", "--checkpoint", ckpt, "--config", "run.cfg", "--which", "memorization",
             "--split", "train", "--out", f"{out}/analyze"],
        ),  # fmt: skip
    ]
