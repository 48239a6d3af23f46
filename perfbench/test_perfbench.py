"""Tests of the benchmark itself. Run from the repository root:

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from harness import pin_environment, run_command  # noqa: E402
from tracer import Span, Target, Tracer, covered_length, self_times, summarize  # noqa: E402
from workloads import WORKLOADS, input_files, prepare  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_covered_length_merges_and_clips():
    assert covered_length([], 0, 10) == 0
    assert covered_length([(1, 4), (3, 6)], 0, 10) == 5
    assert covered_length([(1, 2), (5, 7)], 0, 10) == 3
    assert covered_length([(-5, 2), (9, 20)], 0, 10) == 3
    assert covered_length([(11, 12)], 0, 10) == 0


def test_self_time_subtracts_covered_children_at_every_level():
    spans = [
        Span(0, "a", 0.0, 10.0, None, "r"),
        Span(1, "b", 1.0, 4.0, 0, "r"),
        Span(2, "c", 3.0, 6.0, 0, "r"),  # overlaps b: union of children is [1, 6]
        Span(3, "d", 2.0, 3.0, 1, "r"),  # grandchild: counts against b only
        Span(4, "b", 7.0, 8.0, 0, "r"),
    ]
    own = self_times(spans)
    assert own == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 1.0}
    stats = summarize(spans)
    assert stats["a"]["self_s"] == 4.0
    assert stats["b"]["s"] == 4.0 and stats["b"]["self_s"] == 3.0 and stats["b"]["calls"] == 2
    assert stats["b"]["p50_ms"] == 1000.0 and stats["b"]["p99_ms"] == 3000.0


def test_tracer_wraps_every_by_name_import():
    import numpy as np

    import sepll.encoder
    import sepll.model
    import sepll.nnet

    original = sepll.nnet.mlp_forward
    tracer = Tracer()
    tracer.install([Target("nnet.mlp_forward"), Target("text.tokenize", span=False)])
    try:
        assert sepll.model.mlp_forward is not original
        assert sepll.encoder.mlp_forward is sepll.model.mlp_forward
        assert sepll.encoder.tokenize is sepll.text.tokenize
        layers = sepll.nnet.init_mlp([3, 2], np.random.default_rng(0))
        sepll.model.mlp_forward(layers, np.ones((1, 3)))
        sepll.encoder.tokenize("two tokens")
    finally:
        tracer.uninstall()
    assert sepll.model.mlp_forward is original and sepll.nnet.mlp_forward is original
    assert [s.name for s in tracer.spans] == ["nnet.mlp_forward"]
    assert tracer.counts["text.tokenize.calls"] == 1


def test_tracer_rejects_a_missing_target():
    with pytest.raises(LookupError):
        Tracer().install([Target("model.no_such_function")])


def _prepare_wide_vocab(root: Path, seed: int) -> dict[str, bytes]:
    env = pin_environment()
    w = WORKLOADS["wide-vocab"]
    assert prepare(w, w.smoke, seed, root, lambda argv, cwd: run_command(argv, cwd, env)[0]) == 0
    return {str(p.relative_to(root)): p.read_bytes() for p in input_files(root) if p.name != ".command.log"}


def test_wide_vocab_inputs_are_byte_identical_for_a_seed(tmp_path):
    first = _prepare_wide_vocab(tmp_path / "a", 7)
    again = _prepare_wide_vocab(tmp_path / "b", 7)
    other = _prepare_wide_vocab(tmp_path / "c", 8)
    assert "words.txt" in first and "data/train.json" in first
    assert first == again
    assert first["words.txt"] != other["words.txt"] and first["data/train.json"] != other["data/train.json"]
    words = first["words.txt"].decode().split()
    assert len(words) == len(set(words)) == WORKLOADS["wide-vocab"].vocab_words


def _run_benchmark(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run_benchmark("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout.splitlines()[-2]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_benchmark("--workload", "wide-vocab", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
