"""Self-describing binary container: magic line, one JSON header line, packed arrays.

The header carries an ``arrays`` index of (name, shape) in write order; the
payload is the concatenation of those arrays as row-major little-endian
float64. Everything non-numeric lives in the header.

Every artifact the package writes goes through :func:`atomic_open`, so a
reader sees either the previous file or the complete new one.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError

MAGIC = b"SEPLL-BIN1\n"


@contextmanager
def atomic_open(path) -> Iterator[BinaryIO]:
    """Binary handle on a temporary file next to ``path``. It replaces ``path``
    when the block completes and is deleted when the block raises."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path, text: str) -> None:
    """``text`` as UTF-8, through :func:`atomic_open`."""
    with atomic_open(path) as fh:
        fh.write(text.encode("utf-8"))


def write_csv(path, rows: Iterable[Sequence]) -> None:
    """CSV with LF line endings, through :func:`atomic_open`."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    write_text(path, buf.getvalue())


def write_container(path, header: dict, arrays: dict[str, np.ndarray]) -> None:
    meta = dict(header)
    meta["arrays"] = [{"name": name, "shape": list(arr.shape)} for name, arr in arrays.items()]
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    with atomic_open(path) as fh:
        fh.write(MAGIC)
        fh.write(blob + b"\n")
        for arr in arrays.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_container(path) -> tuple[dict, dict[str, np.ndarray]]:
    raw = Path(path).read_bytes()
    if not raw.startswith(MAGIC):
        raise DataError(f"{path}: not a sepll binary container")
    try:
        end = raw.index(b"\n", len(MAGIC))
        header = json.loads(raw[len(MAGIC):end].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: corrupt container header: {exc}") from exc
    arrays: dict[str, np.ndarray] = {}
    offset = end + 1
    for spec in header.get("arrays", []):
        shape = tuple(int(s) for s in spec["shape"])
        count = math.prod(shape) if shape else 1
        needed = offset + 8 * count
        if needed > len(raw):
            raise DataError(f"{path}: truncated container payload")
        flat = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
        arrays[spec["name"]] = flat.reshape(shape).astype(np.float64)
        offset = needed
    if offset != len(raw):
        raise DataError(f"{path}: trailing bytes after container payload")
    return header, arrays
