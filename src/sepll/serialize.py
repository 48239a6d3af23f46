"""Artifact formats: JSON reports, CSV tables, and the binary container.

A JSON artifact is indented, key-sorted JSON and a newline; a dataclass in it
is written as its fields, an ndarray as nested lists.

The binary container is a magic line, one key-sorted JSON header line, and one
vector of little-endian float64 values that runs to the end of the file. The
header holds everything else, such as the shapes that give the vector meaning.

Every file the package reads goes through :func:`read_text` or
:func:`read_container`; an unreadable one is a :class:`DataError` naming it.

Every artifact the package writes goes through :func:`atomic_open`, so a
reader sees either the previous file or the complete new one, and a write that
fails is a :class:`WriteError` naming the file.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError, WriteError

MAGIC = b"SEPLL-BIN1\n"


@contextmanager
def atomic_open(path) -> Iterator[BinaryIO]:
    """Binary handle on a temporary file next to ``path``. It replaces ``path``
    when the block completes and is deleted when the block raises; an OSError
    (a full disk, say) then becomes a :class:`WriteError` naming ``path``."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise WriteError(f"{path}: cannot write: {exc.strerror or exc}") from None
        raise


def write_text(path, text: str) -> None:
    """``text`` as UTF-8, through :func:`atomic_open`."""
    with atomic_open(path) as fh:
        fh.write(text.encode("utf-8"))


def read_text(path) -> str:
    """The UTF-8 text of ``path``; :class:`DataError` naming the file for other
    bytes or when it cannot be read."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: file is not UTF-8: {exc}") from None
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror}") from None


def _json_default(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def to_json(obj) -> str:
    """``obj`` in the JSON artifact format, without the trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True, default=_json_default)


def write_json(path, obj) -> None:
    """:func:`to_json` of ``obj`` plus a newline, through :func:`atomic_open`."""
    write_text(path, to_json(obj) + "\n")


def read_json(path):
    """The JSON value in ``path``; :class:`DataError` naming the file when it is
    not UTF-8, not JSON, or nested too deeply to decode."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    except RecursionError:
        raise DataError(f"{path}: JSON nested too deeply") from None


def write_csv(path, rows: Iterable[Sequence]) -> None:
    """CSV with LF line endings, through :func:`atomic_open`."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    write_text(path, buf.getvalue())


def write_container(path, header: dict, vector: np.ndarray) -> None:
    """The magic line, ``header`` as one key-sorted JSON line, then ``vector`` as little-endian float64."""
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_open(path) as fh:
        fh.write(MAGIC)
        fh.write(blob + b"\n")
        fh.write(np.ascontiguousarray(vector, dtype="<f8"))  # the array's own buffer, not a copy


def read_container(path) -> tuple[dict, np.ndarray]:
    """The header and the float64 vector of a container; :class:`DataError` naming
    the file where it cannot be read or is not a whole container."""
    try:
        with open(path, "rb") as fh:
            magic, line = fh.read(len(MAGIC)), fh.readline()
            # a new array, aligned and writable, where a view of the file's bytes would be neither
            vector, rest = np.fromfile(fh, dtype="<f8"), fh.read()
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror}") from None
    if magic != MAGIC:
        raise DataError(f"{path}: not a sepll binary container")
    try:
        if not line.endswith(b"\n"):
            raise ValueError("no newline after the header")
        header = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise DataError(f"{path}: corrupt container header: {exc}") from exc
    if not isinstance(header, dict):
        raise DataError(f"{path}: container header is not a JSON object")
    if rest:
        raise DataError(f"{path}: container payload is not whole float64 values")
    return header, vector.astype(np.float64, copy=False)
