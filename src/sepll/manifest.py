"""Run manifests: resolved config, seed streams, and SHA-256 digests of inputs
and produced artifacts. Timestamp-free so identical runs write identical files."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from . import __version__
from .errors import DataError
from .seeds import STREAM_IDS
from .serialize import write_text


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


def write_manifest(path, manifest: dict) -> None:
    write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def load_manifest(path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}:{exc.lineno}: {exc.msg}") from exc


def verify_manifest(path) -> list[str]:
    """Recompute every digest; returns a list of mismatch descriptions."""
    manifest = load_manifest(path)
    problems = []
    for group in ("inputs", "artifacts"):
        for name, entry in manifest.get(group, {}).items():
            target = Path(entry["path"])
            if not target.exists():
                problems.append(f"{group}/{name}: missing file {target}")
            elif file_digest(target) != entry["sha256"]:
                problems.append(f"{group}/{name}: digest mismatch for {target}")
    return problems
