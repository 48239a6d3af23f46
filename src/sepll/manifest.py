"""Run manifests: resolved config, seed streams, and SHA-256 digests of inputs
and produced artifacts. Timestamp-free so identical runs write identical files."""

from __future__ import annotations

import hashlib
from pathlib import Path

from . import __version__
from .errors import DataError
from .seeds import STREAM_IDS
from .serialize import read_json


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def build_manifest(
    seed: int,
    config_echo: dict,
    inputs: dict[str, Path],
    artifacts: dict[str, Path],
) -> dict:
    return {
        "tool_version": __version__,
        "seed": int(seed),
        "seed_streams": dict(STREAM_IDS),
        "config": config_echo,
        "inputs": {
            name: {"path": str(path), "sha256": file_digest(path)}
            for name, path in sorted(inputs.items())
        },
        "artifacts": {
            name: {"path": str(path), "sha256": file_digest(path)}
            for name, path in sorted(artifacts.items())
        },
    }


def verify_manifest(path) -> list[str]:
    """Recompute every digest; returns a list of mismatch descriptions, in which a
    group or entry of the wrong shape is one more problem."""
    manifest = read_json(path)
    if not isinstance(manifest, dict):
        raise DataError(f"{path}: manifest is not a JSON object")
    problems = []
    for group in ("inputs", "artifacts"):
        entries = manifest.get(group, {})
        if not isinstance(entries, dict):
            problems.append(f"{group}: not a JSON object")
            continue
        for name, entry in entries.items():
            if not (isinstance(entry, dict) and all(isinstance(entry.get(k), str) for k in ("path", "sha256"))):
                problems.append(f'{group}/{name}: not {{"path": str, "sha256": str}}')
                continue
            target = Path(entry["path"])
            try:
                digest = file_digest(target)
            except (OSError, ValueError):  # ValueError: the path holds a NUL byte
                problems.append(f"{group}/{name}: missing file {target}")
                continue
            if digest != entry["sha256"]:
                problems.append(f"{group}/{name}: digest mismatch for {target}")
    return problems
