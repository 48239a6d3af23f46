"""Artifact formats: JSON reports, CSV tables, and the binary container.

A JSON artifact is indented, key-sorted JSON and a newline; a dataclass in it
is written as its fields, an ndarray as nested lists.

The binary container is a magic line, one JSON header line, and packed arrays.
The header carries an ``arrays`` index of (name, shape) in write order; the
payload is the concatenation of those arrays as row-major little-endian
float64. Everything non-numeric lives in the header.

Every artifact the package writes goes through :func:`atomic_open`, so a
reader sees either the previous file or the complete new one.
"""

from __future__ import annotations

import csv
import dataclasses
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


def read_text(path) -> str:
    """The UTF-8 text of ``path``; :class:`DataError` naming the file for other bytes."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: file is not UTF-8: {exc}") from None


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


def write_container(path, header: dict, arrays: dict[str, np.ndarray]) -> None:
    meta = dict(header)
    meta["arrays"] = [{"name": name, "shape": list(arr.shape)} for name, arr in arrays.items()]
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    with atomic_open(path) as fh:
        fh.write(MAGIC)
        fh.write(blob + b"\n")
        for arr in arrays.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _is_array_spec(spec) -> bool:
    return (
        isinstance(spec, dict)
        and isinstance(spec.get("name"), str)
        and isinstance(spec.get("shape"), list)
        # type(...) is int: json gives true/false as bool, which isinstance(..., int) accepts
        and all(type(s) is int and s >= 0 for s in spec["shape"])
    )


def read_container(path) -> tuple[dict, dict[str, np.ndarray]]:
    raw = Path(path).read_bytes()
    if not raw.startswith(MAGIC):
        raise DataError(f"{path}: not a sepll binary container")
    try:
        end = raw.index(b"\n", len(MAGIC))
        header = json.loads(raw[len(MAGIC):end].decode("utf-8"))
    except (ValueError, UnicodeDecodeError, RecursionError) as exc:
        raise DataError(f"{path}: corrupt container header: {exc}") from exc
    if not isinstance(header, dict):
        raise DataError(f"{path}: container header is not a JSON object")
    specs = header.get("arrays", [])
    if not isinstance(specs, list):
        raise DataError(f"{path}: container header field 'arrays' is not a list")
    arrays: dict[str, np.ndarray] = {}
    offset = end + 1
    for k, spec in enumerate(specs):
        if not _is_array_spec(spec):
            raise DataError(
                f'{path}: container array entry {k} is not {{"name": str, "shape": [non-negative ints]}}'
            )
        if spec["name"] in arrays:
            raise DataError(f"{path}: container array {spec['name']!r} is listed twice")
        shape = tuple(spec["shape"])
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
