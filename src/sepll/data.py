"""Dataset model: splits with weak labels, the one-class LF convention, training
targets, plain-text matrix persistence, and a synthetic corpus generator.

Weak labels arrive as an n x m0 integer matrix per split where -1 means the
labeling function abstained and any other entry is the class it assigned.
Multi-class labeling functions are split into one derived column per
(function, class) pair so that every column of the binary match matrix maps to
exactly one class.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import DataError
from .seeds import stream
from .serialize import read_json, read_text, write_text

SPLIT_NAMES = ("train", "dev", "test")
ABSTAIN = -1


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Sample:
    """One text with an optional gold class (present for dev/test)."""

    id: int
    text: str
    gold_label: int | None = None


@dataclass(frozen=True, eq=False)
class SplitSet:
    """The three splits plus the class inventory and raw per-split weak labels."""

    train: tuple[Sample, ...]
    dev: tuple[Sample, ...]
    test: tuple[Sample, ...]
    class_names: tuple[str, ...]
    raw_weak_labels: Mapping[str, np.ndarray]

    def __post_init__(self):
        if not self.class_names:
            raise DataError("class_names must not be empty")
        widths = set()
        for name in SPLIT_NAMES:
            samples = self.split(name)
            if name not in self.raw_weak_labels:
                raise DataError(f"missing raw weak labels for split {name!r}")
            weak = np.asarray(self.raw_weak_labels[name], dtype=np.int64)
            if weak.ndim != 2:
                raise DataError(f"{name}: weak labels must be a 2-d array")
            if weak.shape[0] != len(samples):
                raise DataError(
                    f"{name}: {len(samples)} samples but {weak.shape[0]} weak-label rows"
                )
            widths.add(weak.shape[1])
            seen_ids = set()
            for s in samples:
                if s.id < 0:
                    raise DataError(f"{name}: sample id {s.id} is negative")
                if s.id in seen_ids:
                    raise DataError(f"{name}: duplicate sample id {s.id}")
                seen_ids.add(s.id)
                if s.gold_label is not None and not (0 <= s.gold_label < self.n_classes):
                    raise DataError(
                        f"{name}: sample {s.id}: class index out of range: {s.gold_label}"
                    )
            bad = (weak != ABSTAIN) & ((weak < 0) | (weak >= self.n_classes))
            if bad.any():
                i, j = np.argwhere(bad)[0]
                raise DataError(
                    f"{name}: sample row {i}, LF {j}: class index out of range: {weak[i, j]}"
                )
            self.raw_weak_labels[name] = _frozen(weak)
        if len(widths) != 1:
            raise DataError(f"inconsistent LF count across splits: {sorted(widths)}")

    def split(self, name: str) -> tuple[Sample, ...]:
        if name not in SPLIT_NAMES:
            raise DataError(f"unknown split {name!r}")
        return getattr(self, name)

    @property
    def n_classes(self) -> int:
        return len(self.class_names)


def _strictly_ascending(pairs: np.ndarray) -> bool:
    """Whether the (i, j) pairs are in lexicographic order without repeats."""
    rows, cols = pairs[:, 0], pairs[:, 1]
    return bool(np.all((rows[1:] > rows[:-1]) | ((rows[1:] == rows[:-1]) & (cols[1:] > cols[:-1]))))


def gather_rows(indptr: np.ndarray, rows) -> tuple[np.ndarray, np.ndarray]:
    """The row pointers of ``rows`` (indices, a slice or a mask; bounds-checked) of a structure
    whose row i holds entries ``indptr[i]:indptr[i + 1]``, and the positions of their entries."""
    rows = np.arange(indptr.size - 1)[rows]
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    out = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    return out, np.repeat(starts - out[:-1], lengths) + np.arange(out[-1])


@dataclass(frozen=True, eq=False)
class MatchMatrix:
    """Binary n x m matrix stored as a sorted, duplicate-free (i, j) pair list."""

    n: int
    m: int
    pairs: np.ndarray  # (nnz, 2) int64, lexicographically sorted

    def __post_init__(self):
        """Pairs in any order are sorted into a copy. An int64 array of pairs
        already in order that owns its memory is kept, not copied, and frozen, so
        the caller can no longer write to it; a view is copied, since its base
        would stay writable."""
        given = np.asarray(self.pairs, dtype=np.int64)
        pairs = given.reshape(-1, 2)
        if self.n < 0 or self.m < 0:
            raise DataError("matrix dimensions must be non-negative")
        if pairs.size:
            if pairs[:, 0].min() < 0 or pairs[:, 0].max() >= self.n:
                raise DataError("match row index out of range")
            if pairs[:, 1].min() < 0 or pairs[:, 1].max() >= self.m:
                raise DataError("match column index out of range")
        if pairs.size and not _strictly_ascending(pairs):
            pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
            if not _strictly_ascending(pairs):
                raise DataError("duplicate (sample, LF) match pair")
        elif given.base is None:
            _frozen(given)
        else:
            pairs = pairs.copy()
        object.__setattr__(self, "pairs", _frozen(pairs))

    def row_counts(self) -> np.ndarray:
        return np.bincount(self.pairs[:, 0], minlength=self.n)

    @functools.cached_property
    def row_starts(self) -> np.ndarray:
        """(n + 1,) int64: row i's matches are ``pairs[row_starts[i]:row_starts[i + 1]]``."""
        return _frozen(np.searchsorted(self.pairs[:, 0], np.arange(self.n + 1)))

    def take(self, rows) -> MatchMatrix:
        """The matches of ``rows`` (row indices, a slice or a mask), as the matrix
        whose row r is row ``rows[r]`` of this one."""
        indptr, pos = gather_rows(self.row_starts, rows)
        n = indptr.size - 1
        local = np.repeat(np.arange(n), np.diff(indptr))
        return MatchMatrix(n, self.m, np.stack([local, self.pairs[pos, 1]], axis=1))

    def class_votes(self, mapping: MappingMatrix) -> np.ndarray:
        """(n, c) int64: how many of each row's matches vote for each class."""
        if self.m != mapping.m:
            raise DataError(f"LF dimension mismatch: matches have m={self.m}, mapping m={mapping.m}")
        c = mapping.c
        flat = self.pairs[:, 0] * c + mapping.class_of[self.pairs[:, 1]]
        return np.bincount(flat, minlength=self.n * c).reshape(self.n, c)

    def __eq__(self, other):
        return (
            isinstance(other, MatchMatrix)
            and self.n == other.n
            and self.m == other.m
            and self.pairs.shape == other.pairs.shape
            and bool(np.all(self.pairs == other.pairs))
        )


@dataclass(frozen=True, eq=False)
class MappingMatrix:
    """One-hot m x c map from LF column to class, stored as a class index per column."""

    c: int
    class_of: np.ndarray  # (m,) int64

    def __post_init__(self):
        class_of = np.asarray(self.class_of, dtype=np.int64).reshape(-1)
        if self.c < 1:
            raise DataError("mapping needs at least one class")
        if class_of.size and (class_of.min() < 0 or class_of.max() >= self.c):
            raise DataError("mapping class index out of range")
        object.__setattr__(self, "class_of", _frozen(class_of))

    @property
    def m(self) -> int:
        return int(self.class_of.shape[0])

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.m, self.c), dtype=np.float64)
        dense[np.arange(self.m), self.class_of] = 1.0
        return dense

    def __eq__(self, other):
        return (
            isinstance(other, MappingMatrix)
            and self.c == other.c
            and self.class_of.shape == other.class_of.shape
            and bool(np.all(self.class_of == other.class_of))
        )


def build_targets(match: MatchMatrix) -> np.ndarray:
    """Frozen (n, m) target rows: 1/count on each of a row's matches, 1/m on an unmatched row."""
    if match.m < 1:
        raise DataError("cannot build targets with zero LF columns")
    counts = match.row_counts()
    rows = np.zeros((match.n, match.m))
    rows[counts == 0] = 1.0 / match.m
    i, j = match.pairs.T
    rows[i, j] = 1.0 / counts[i]
    return _frozen(rows)


@dataclass(frozen=True)
class ConversionProvenance:
    """Where each derived one-class column came from, plus dropped originals."""

    columns: tuple[tuple[int, int], ...]  # derived j -> (original LF, class)
    dropped: tuple[int, ...]  # original LFs that never fire anywhere


@dataclass(frozen=True, eq=False)
class ConversionResult:
    match: Mapping[str, MatchMatrix]
    mapping: MappingMatrix
    provenance: ConversionProvenance


def to_one_class_lfs(splits: SplitSet) -> ConversionResult:
    """Split multi-class LFs into derived one-class columns.

    The class inventory of each original LF is collected over all splits
    jointly so every split shares one column layout: original LF order first,
    ascending class within an original LF. LFs that never fire are dropped.
    """
    m0 = splits.raw_weak_labels["train"].shape[1]
    emitted: list[np.ndarray] = []
    for j in range(m0):
        values = [splits.raw_weak_labels[name][:, j] for name in SPLIT_NAMES]
        col = np.concatenate(values) if values else np.empty(0, dtype=np.int64)
        # the classes this LF emits, ascending (every label is in [-1, c), checked by SplitSet)
        emitted.append(np.flatnonzero(np.bincount(col[col != ABSTAIN], minlength=splits.n_classes)))
    columns = [(j, int(cls)) for j in range(m0) for cls in emitted[j]]
    dropped = tuple(j for j in range(m0) if emitted[j].size == 0)
    class_of = np.array([cls for _, cls in columns], dtype=np.int64)
    mapping = MappingMatrix(c=splits.n_classes, class_of=class_of)
    match: dict[str, MatchMatrix] = {}
    for name in SPLIT_NAMES:
        raw = splits.raw_weak_labels[name]
        hits = [np.flatnonzero(raw[:, j] == cls) for j, cls in columns]  # each column's rows, ascending
        # A stable counting sort by row: each row's pairs get consecutive slots,
        # filled in column order, so the pairs come out sorted and are made once.
        slot = np.zeros(raw.shape[0] + 1, dtype=np.int64)
        for rows in hits:
            slot[rows + 1] += 1
        np.cumsum(slot, out=slot)  # slot[i]: where row i's pairs start
        pairs = np.empty((slot[-1], 2), dtype=np.int64)
        for col_idx, rows in enumerate(hits):
            at = slot[rows]
            pairs[at, 0] = rows
            pairs[at, 1] = col_idx
            slot[rows] += 1
        match[name] = MatchMatrix(n=raw.shape[0], m=len(columns), pairs=pairs)
    return ConversionResult(
        match=match,
        mapping=mapping,
        provenance=ConversionProvenance(columns=tuple(columns), dropped=dropped),
    )


# ---------------------------------------------------------------------------
# synthetic fixture


@dataclass(frozen=True)
class SynthSpec:
    """Class-conditional keyword corpus with independently firing noisy LFs."""

    c: int = 2
    m_per_class: int = 3
    n_train: int = 2000
    n_dev: int = 500
    n_test: int = 500
    lf_accuracy: float = 0.85
    lf_coverage: float = 0.5

    def __post_init__(self):
        if self.c < 2:
            raise DataError("synth needs at least two classes")
        if self.m_per_class < 1:
            raise DataError("synth needs at least one LF per class")
        if not (0.0 < self.lf_accuracy <= 1.0):
            raise DataError("lf_accuracy must be in (0, 1]")
        if not (0.0 < self.lf_coverage <= 1.0):
            raise DataError("lf_coverage must be in (0, 1]")
        if min(self.n_train, self.n_dev, self.n_test) < 0:
            raise DataError("split sizes must be non-negative")


_FILLER = ("the", "and", "of", "to", "a", "in", "it", "is")


def synth_dataset(spec: SynthSpec, seed: int) -> SplitSet:
    """Generate a fixture corpus; each of c*m_per_class LFs fires independently
    with probability lf_coverage and, when firing, emits the true class with
    probability lf_accuracy, otherwise a uniformly random wrong class."""
    rng = stream(seed, "synth")
    m0 = spec.c * spec.m_per_class
    words = [[f"topic{k}word{t}" for t in range(12)] for k in range(spec.c)]
    splits: dict[str, tuple[Sample, ...]] = {}
    weak: dict[str, np.ndarray] = {}
    for name, size in (("train", spec.n_train), ("dev", spec.n_dev), ("test", spec.n_test)):
        labels = rng.integers(spec.c, size=size)
        samples = []
        for i in range(size):
            k = int(labels[i])
            # tokens drawn by index: the draws rng.choice makes, without its array conversion
            n_kw = int(rng.integers(3, 9))
            tokens = [words[k][t] for t in rng.integers(0, len(words[k]), size=n_kw).tolist()]
            n_fill = int(rng.integers(0, 4))
            tokens += [_FILLER[t] for t in rng.integers(0, len(_FILLER), size=n_fill).tolist()]
            if rng.random() < 0.1:  # slight cross-class leakage keeps the text signal non-trivial
                other = int((k + 1 + rng.integers(spec.c - 1)) % spec.c)
                tokens.append(words[other][int(rng.integers(len(words[other])))])
            order = rng.permutation(len(tokens))
            samples.append(Sample(id=i, text=" ".join(tokens[t] for t in order), gold_label=k))
        # each draw whole, in stream order; the int64 offsets become the weak labels in place
        fires = rng.random((size, m0)) < spec.lf_coverage
        correct = rng.random((size, m0)) < spec.lf_accuracy
        emitted = rng.integers(1, spec.c, size=(size, m0))
        emitted += labels[:, None]
        emitted %= spec.c  # a uniformly random wrong class
        np.copyto(emitted, labels[:, None], where=correct)
        np.logical_not(fires, out=fires)
        np.copyto(emitted, ABSTAIN, where=fires)
        weak[name] = emitted
        splits[name] = tuple(samples)
    return SplitSet(
        train=splits["train"],
        dev=splits["dev"],
        test=splits["test"],
        class_names=tuple(f"class_{k}" for k in range(spec.c)),
        raw_weak_labels=weak,
    )


# ---------------------------------------------------------------------------
# dataset file formats


_INT64 = range(-(2**63), 2**63)


def _parse_entry(entry, where: str, wrench: bool) -> tuple[str, int | None, list[int]]:
    """(text, gold label, weak labels) of one sample object; errors name ``where``.

    wrench-json nests the text as ``data.text`` and requires ``weak_labels``;
    jsonl keeps ``text`` at the top level and defaults ``weak_labels`` to [].
    """
    if not isinstance(entry, dict):
        raise DataError(f"{where}: expected a JSON object, got {type(entry).__name__}")
    holder = entry.get("data") if wrench else entry
    if not isinstance(holder, dict) or "text" not in holder:
        raise DataError(f"{where}: missing {'data.text' if wrench else 'text'} field")
    text = holder["text"]
    if type(text) is not str:
        raise DataError(f"{where}: text must be a string, got {json.dumps(text)}")
    label = entry.get("label")
    # type(...) is int: json gives true/false as bool, which isinstance(..., int) accepts
    if label is not None and type(label) is not int:
        raise DataError(f"{where}: label must be an integer or null, got {json.dumps(label)}")
    weak = entry.get("weak_labels", None if wrench else [])
    if not isinstance(weak, list):
        raise DataError(f"{where}: weak_labels must be an array of integers")
    for value in weak:
        if not (type(value) is int and value in _INT64):
            raise DataError(f"{where}: weak label {json.dumps(value)} is not a 64-bit integer")
    return text, label, weak


def _parse_split(entries, wrench: bool) -> tuple[tuple[Sample, ...], np.ndarray]:
    """Samples and weak-label matrix of one split file from its
    (where, sample id, entry) triples."""
    samples = []
    rows = []
    width = None
    for where, sample_id, entry in entries:
        text, label, weak = _parse_entry(entry, where, wrench)
        if width is None:
            width = len(weak)
        elif len(weak) != width:
            raise DataError(f"{where}: inconsistent LF count ({len(weak)} != {width})")
        samples.append(Sample(id=sample_id, text=text, gold_label=label))
        rows.append(weak)
    return tuple(samples), np.array(rows, dtype=np.int64).reshape(len(rows), width or 0)


def _load_wrench_split(path: Path) -> tuple[tuple[Sample, ...], np.ndarray]:
    obj = read_json(path)
    if not isinstance(obj, dict):
        raise DataError(f"{path}: expected a JSON object keyed by sample id")
    try:
        keys = sorted(obj.keys(), key=int)
    except ValueError as exc:
        raise DataError(f"{path}: sample ids must be integers: {exc}") from exc
    return _parse_split(((f"{path}: sample {key}", int(key), obj[key]) for key in keys), wrench=True)


def _load_jsonl_split(path: Path) -> tuple[tuple[Sample, ...], np.ndarray]:
    entries = []
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            entries.append((f"{path}:{lineno}", lineno - 1, json.loads(line)))
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{lineno}: {exc.msg}") from exc
        except RecursionError:
            raise DataError(f"{path}:{lineno}: JSON nested too deeply") from None
    return _parse_split(entries, wrench=False)


_SPLIT_FILES = {
    "wrench-json": {"train": ("train.json",), "dev": ("valid.json", "dev.json"), "test": ("test.json",)},
    "jsonl": {"train": ("train.jsonl",), "dev": ("valid.jsonl", "dev.jsonl"), "test": ("test.jsonl",)},
}
DATASET_FORMATS = tuple(_SPLIT_FILES)


def _split_paths(root: Path, fmt: str) -> dict[str, Path | None]:
    """The file each split of a ``fmt`` dataset under ``root`` loads from:
    the first of its candidate names that exists, None when none does."""
    if fmt not in _SPLIT_FILES:
        raise DataError(f"unknown dataset format {fmt!r}")
    return {
        split: next((root / name for name in candidates if (root / name).exists()), None)
        for split, candidates in _SPLIT_FILES[fmt].items()
    }


def dataset_files(path: str | Path, fmt: str) -> list[Path]:
    """The files a load would read; used for manifest digests."""
    root = Path(path)
    found = [f for f in _split_paths(root, fmt).values() if f is not None]
    if (root / "label.json").exists():
        found.append(root / "label.json")
    return found


def _read_class_names(path: Path) -> tuple[str, ...]:
    """The names in a ``label.json``: an object that maps each class index of
    0..c-1, written in decimal, to its name, a string."""
    obj = read_json(path)
    if not isinstance(obj, dict) or not obj:
        raise DataError(f"{path}: expected a non-empty object mapping class index to name")
    indices = {str(k) for k in range(len(obj))}
    if set(obj) != indices:
        odd = min(set(obj) - indices)
        raise DataError(f"{path}: class indices must be 0..c-1 in decimal without gaps, got {json.dumps(odd)}")
    names = tuple(obj[str(k)] for k in range(len(obj)))
    for k, name in enumerate(names):
        if type(name) is not str:
            raise DataError(f"{path}: the name of class {k} must be a string, got {json.dumps(name)}")
        if name in names[:k]:
            raise DataError(f"{path}: class name {json.dumps(name)} appears twice")
    return names


def load_dataset(path: str | Path, fmt: str = "wrench-json") -> SplitSet:
    """Load a dataset directory in wrench-json or jsonl layout."""
    root = Path(path)
    if not root.is_dir():
        raise DataError(f"{root}: not a dataset directory")
    files = _split_paths(root, fmt)
    if all(f is None for f in files.values()):
        raise DataError(f"{root}: no split files found for format {fmt!r}")
    loader = _load_wrench_split if fmt == "wrench-json" else _load_jsonl_split
    parts: dict[str, tuple[Sample, ...]] = {}
    weak: dict[str, np.ndarray] = {}
    for split, f in files.items():
        parts[split], weak[split] = loader(f) if f else ((), np.empty((0, 0), dtype=np.int64))
    widths = {weak[s].shape[1] for s in SPLIT_NAMES if len(parts[s])}
    if not widths:
        raise DataError(f"{root}: no samples in any split file")
    if len(widths) > 1:
        raise DataError(f"{root}: inconsistent LF count across splits")
    width = widths.pop()
    for s in SPLIT_NAMES:
        if not len(parts[s]):
            weak[s] = np.empty((0, width), dtype=np.int64)

    label_file = root / "label.json"
    if label_file.exists():
        class_names = _read_class_names(label_file)
    elif fmt == "wrench-json":
        raise DataError(f"{root}: missing label.json companion file")
    else:
        observed = {x.gold_label for s in SPLIT_NAMES for x in parts[s] if x.gold_label is not None}
        for s in SPLIT_NAMES:
            values = np.sort(weak[s], axis=None)  # not yet bounded, so not a bincount
            first = np.ones(values.size, dtype=bool)
            first[1:] = values[1:] != values[:-1]
            observed.update(values[first].tolist())
        classes = sorted(v for v in observed if v >= 0)
        if not classes:
            raise DataError(f"{root}: cannot infer class count (no labels anywhere)")
        if classes[-1] != len(classes) - 1:
            missing = next(k for k, v in enumerate(classes) if k != v)
            raise DataError(
                f"{root}: inferred classes must be 0..c-1 without gaps, but class {missing} "
                f"never occurs (largest label {classes[-1]}); add a label.json naming the classes"
            )
        class_names = tuple(f"class_{k}" for k in range(len(classes)))

    try:
        return SplitSet(
            train=parts["train"],
            dev=parts["dev"],
            test=parts["test"],
            class_names=class_names,
            raw_weak_labels=weak,
        )
    except DataError as exc:  # a split's sample ids or class indices
        names = f"; {label_file} names classes 0..{len(class_names) - 1}" if label_file.exists() else ""
        raise DataError(f"{root}: {exc}{names}") from None


def save_dataset(splits: SplitSet, path: str | Path, fmt: str = "wrench-json") -> list[Path]:
    """Write a dataset into the existing directory ``path``; returns the files written."""
    if fmt not in _SPLIT_FILES:
        raise DataError(f"unknown dataset format {fmt!r}")
    root = Path(path)
    label_file = root / "label.json"
    names = {str(i): name for i, name in enumerate(splits.class_names)}
    write_text(label_file, json.dumps(names, sort_keys=True) + "\n")
    written = [label_file]
    wrench = fmt == "wrench-json"
    for split in SPLIT_NAMES:
        entries = {
            str(s.id): {
                "label": s.gold_label,
                "weak_labels": weak,
                **({"data": {"text": s.text}} if wrench else {"text": s.text}),
            }
            for s, weak in zip(splits.split(split), splits.raw_weak_labels[split].tolist())
        }
        f = root / _SPLIT_FILES[fmt][split][0]
        if wrench:
            write_text(f, json.dumps(entries, sort_keys=True) + "\n")
        else:
            write_text(f, "".join(json.dumps(entry, sort_keys=True) + "\n" for entry in entries.values()))
        written.append(f)
    return written


# ---------------------------------------------------------------------------
# plain-text matrix persistence


def write_triplets(match: MatchMatrix, path: str | Path) -> None:
    """UTF-8, LF line endings: a "n m" header then one "i j" line per match."""
    lines = [f"{match.n} {match.m}"]
    lines += [f"{i} {j}" for i, j in match.pairs.tolist()]
    write_text(path, "\n".join(lines) + "\n")


_INT_RE = re.compile(r"[+-]?[0-9]+")


def parse_int(text: str) -> int:
    """ASCII digits with an optional sign; Python's ``int`` also takes ``1_0``
    and non-ASCII digits."""
    if not _INT_RE.fullmatch(text):
        raise ValueError(text)
    return int(text)


def _read_int_pairs(path, kind: str) -> list[tuple[int, int, int]]:
    """(line number, a, b) for every non-blank line of a two-integer text file;
    the first row is the header. Every integer fits int64."""
    rows = []
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        parts = line.split()
        if not parts:
            continue
        try:
            a, b = map(parse_int, parts)
        except ValueError:
            raise DataError(f"{path}:{lineno}: expected two integers, got {line!r}") from None
        if a not in _INT64 or b not in _INT64:
            raise DataError(f"{path}:{lineno}: integer outside the 64-bit range in {line!r}")
        rows.append((lineno, a, b))
    if not rows:
        raise DataError(f"{path}:1: empty {kind} file")
    return rows


def read_triplets(path: str | Path) -> MatchMatrix:
    (_, n, m), *rows = _read_int_pairs(path, "triplet")
    arr = np.asarray([(i, j) for _, i, j in rows], dtype=np.int64)
    try:
        return MatchMatrix(n=n, m=m, pairs=arr)
    except DataError as exc:  # dimensions, index ranges and repeated pairs
        raise DataError(f"{path}: {exc}") from None


def write_mapping(mapping: MappingMatrix, path: str | Path) -> None:
    """UTF-8, LF line endings: a "m c" header then one "j class" line per column."""
    lines = [f"{mapping.m} {mapping.c}"]
    lines += [f"{j} {cls}" for j, cls in enumerate(mapping.class_of.tolist())]
    write_text(path, "\n".join(lines) + "\n")


def read_mapping(path: str | Path) -> MappingMatrix:
    (head_line, m, c), *rows = _read_int_pairs(path, "mapping")
    if m < 0 or c < 1:
        raise DataError(f"{path}:{head_line}: need m >= 0 and c >= 1, got m={m}, c={c}")
    # m entries are allocated only once that many rows follow; the loop then puts
    # each row in a distinct column of [0, m), so every column gets a class
    if m > len(rows):
        raise DataError(f"{path}:{head_line}: header says m={m} columns but only {len(rows)} follow")
    class_of = np.full(m, -1, dtype=np.int64)
    for lineno, j, cls in rows:
        if not (0 <= j < m):
            raise DataError(f"{path}:{lineno}: column index out of range: {j}")
        if not (0 <= cls < c):
            raise DataError(f"{path}:{lineno}: class index out of range: {cls}")
        if class_of[j] >= 0:
            raise DataError(f"{path}:{lineno}: column {j} listed twice")
        class_of[j] = cls
    return MappingMatrix(c=c, class_of=class_of)
