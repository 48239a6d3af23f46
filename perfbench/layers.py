"""The traced run: the workload's pipeline through ``sepll.cli.main`` in-process,
with span wrappers on each module's public functions, reduced to per-layer
metrics named ``<module>.<function>.<stat>``.

The on-call hooks below derive some values from array and file sizes seen at
the call boundary; those are computed, not measured.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import time
from pathlib import Path

from harness import ROOT, Ledger, check_accuracy, check_manifests, import_seconds, train_digests
from tracer import Target, Tracer, summarize
from workloads import OUT_DIRS, Sizes, Workload, pipeline, prepare


class TraceRunError(RuntimeError):
    """A declared span never fired, or a wrapper could not be installed."""


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _add(tracer: Tracer, key: str, amount: float) -> None:
    tracer.values[key] = tracer.values.get(key, 0) + amount


def _build_targets(t, args, kwargs, result):
    match = _arg(args, kwargs, 0, "match")
    _add(t, "data.build_targets.bytes_computed", match.n * match.m * 8)


def _fit_vocabulary(t, args, kwargs, result):
    t.values["encoder.vocab_size"] = len(result)


def _featurize_split(t, args, kwargs, result):
    _add(t, "encoder.featurize_split.rows", result.shape[0])


def _apply_lfs(t, args, kwargs, result):
    _add(t, "lf_engine.apply_lfs.cells", result.n * result.m)
    _add(t, "lf_engine.apply_lfs.matches", result.pairs.shape[0])


def _train(t, args, kwargs, result):
    history = result[1]
    t.values["trainer.epochs_run"] = len(history.epochs)
    t.values["trainer.best_epoch"] = history.best_epoch


def _adamw_step(t, args, kwargs, result):
    if "trainer.adamw_step.params" not in t.values:
        from sepll.model import param_items

        params = _arg(args, kwargs, 0, "params")
        t.values["trainer.adamw_step.params"] = sum(a.size for _, a in param_items(params))


def _inject_noise(t, args, kwargs, result):
    match = _arg(args, kwargs, 0, "match")
    _add(t, "trainer.inject_noise.added_matches", result.pairs.shape[0] - match.pairs.shape[0])


def _save_checkpoint(t, args, kwargs, result):
    t.values["model.checkpoint_bytes"] = Path(_arg(args, kwargs, 0, "path")).stat().st_size


def _build_manifest(t, args, kwargs, result):
    files = {**_arg(args, kwargs, 2, "inputs"), **_arg(args, kwargs, 3, "artifacts")}
    _add(t, "manifest.bytes_hashed", sum(Path(p).stat().st_size for p in files.values()))


TARGETS = (
    Target("config.parse_config"),
    Target("data.load_dataset"),
    Target("data.to_one_class_lfs"),
    Target("data.synth_dataset"),
    Target("data.save_dataset"),
    Target("data.build_targets", _build_targets),
    Target("text.tokenize", span=False),
    Target("encoder.fit_vocabulary", _fit_vocabulary),
    Target("encoder.featurize_split", _featurize_split),
    Target("lf_engine.apply_lfs", _apply_lfs),
    Target("lf_engine.compute_stats"),
    Target("lf_engine.majority_vote"),
    Target("trainer.train", _train),
    Target("trainer.adamw_step", _adamw_step),
    Target("trainer.inject_noise", _inject_noise),
    Target("model.backward"),
    Target("model.forward_batch"),
    Target("model.predict_batch"),
    Target("model.clone_params"),
    Target("model.save_checkpoint", _save_checkpoint),
    Target("model.load_checkpoint"),
    Target("nnet.mlp_forward"),
    Target("nnet.mlp_backward"),
    Target("evaluation.memorization_report"),
    Target("evaluation.task_metrics"),
    Target("serialize.write_container"),
    Target("serialize.read_container"),
    Target("manifest.build_manifest", _build_manifest),
)

# Spans that must fire on every workload, plus the workload-specific ones.
REQUIRED_ALWAYS = tuple(t.name for t in TARGETS if t.name not in ("data.to_one_class_lfs", "lf_engine.apply_lfs"))
REQUIRED_RULES = ("lf_engine.apply_lfs",)
REQUIRED_WEAK_LABELS = ("data.to_one_class_lfs",)

# name -> (unit, better); every traced run reports all of them, 0 where a span never fired
PER_LAYER = {
    "cli.import_s": ("s", "lower"),
    "config.parse_config.s": ("s", "lower"),
    "data.load_dataset.s": ("s", "lower"),
    "data.to_one_class_lfs.s": ("s", "lower"),
    "data.synth_dataset.s": ("s", "lower"),
    "data.save_dataset.s": ("s", "lower"),
    "data.build_targets.s": ("s", "lower"),
    "data.build_targets.calls": ("count", "lower"),
    "data.build_targets.bytes_computed": ("bytes", "lower"),
    "text.tokenize.calls": ("count", "lower"),
    "text.tokenize.calls_per_text": ("ratio", "lower"),
    "encoder.fit_vocabulary.s": ("s", "lower"),
    "encoder.featurize_split.s": ("s", "lower"),
    "encoder.featurize_split.rows": ("count", "lower"),
    "encoder.vocab_size": ("count", "lower"),
    "lf_engine.apply_lfs.s": ("s", "lower"),
    "lf_engine.apply_lfs.cells": ("count", "lower"),
    "lf_engine.apply_lfs.hit_ratio": ("ratio", "higher"),
    "lf_engine.compute_stats.s": ("s", "lower"),
    "lf_engine.majority_vote.s": ("s", "lower"),
    "trainer.train.self_s": ("s", "lower"),
    "trainer.adamw_step.s": ("s", "lower"),
    "trainer.adamw_step.calls": ("count", "lower"),
    "trainer.adamw_step.p50_ms": ("ms", "lower"),
    "trainer.adamw_step.p99_ms": ("ms", "lower"),
    "trainer.adamw_step.params": ("count", "lower"),
    "trainer.inject_noise.s": ("s", "lower"),
    "trainer.inject_noise.added_matches": ("count", "lower"),
    "trainer.epochs_run": ("count", "lower"),
    "trainer.best_epoch": ("count", "lower"),
    "trainer.wasted_epoch_ratio": ("ratio", "lower"),
    "model.backward.s": ("s", "lower"),
    "model.backward.calls": ("count", "lower"),
    "model.backward.p50_ms": ("ms", "lower"),
    "model.backward.p99_ms": ("ms", "lower"),
    "model.forward_batch.s": ("s", "lower"),
    "model.predict_batch.s": ("s", "lower"),
    "model.clone_params.s": ("s", "lower"),
    "model.clone_params.calls": ("count", "lower"),
    "model.save_checkpoint.s": ("s", "lower"),
    "model.load_checkpoint.s": ("s", "lower"),
    "model.checkpoint_bytes": ("bytes", "lower"),
    "nnet.mlp_forward.s": ("s", "lower"),
    "nnet.mlp_backward.s": ("s", "lower"),
    "evaluation.memorization_report.s": ("s", "lower"),
    "evaluation.task_metrics.s": ("s", "lower"),
    "serialize.write_container.s": ("s", "lower"),
    "serialize.read_container.s": ("s", "lower"),
    "manifest.build_manifest.s": ("s", "lower"),
    "manifest.bytes_hashed": ("bytes", "lower"),
    "trace.train_untraced_s": ("s", "lower"),
    "trace.train_traced_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_metrics(tracer: Tracer, extra: dict[str, float]) -> dict[str, float]:
    """Reduce spans, counts and computed values to the PER_LAYER table."""
    stats = summarize(tracer.spans)
    values: dict[str, float] = dict(extra)
    for name, row in stats.items():
        for stat, value in row.items():
            values[f"{name}.{stat}"] = value
    values.update(tracer.values)
    values.update(tracer.counts)
    rows = values.get("encoder.featurize_split.rows", 0)
    values["text.tokenize.calls_per_text"] = values.get("text.tokenize.calls", 0) / rows if rows else 0.0
    cells = values.get("lf_engine.apply_lfs.cells", 0)
    values["lf_engine.apply_lfs.hit_ratio"] = values.get("lf_engine.apply_lfs.matches", 0) / cells if cells else 0.0
    epochs = values.get("trainer.epochs_run", 0)
    best = values.get("trainer.best_epoch", 0)
    values["trainer.wasted_epoch_ratio"] = (epochs - 1 - best) / epochs if epochs else 0.0
    return {name: values.get(name, 0) for name in PER_LAYER}


def traced_run(w: Workload, sizes: Sizes, seed: int, work: Path, env: dict, ledger: Ledger, info: dict, out_dir: Path):
    """Set up and run the pipeline once in-process under the tracer."""
    import sepll.cli

    tracer = Tracer()
    import_s = statistics.median(import_seconds(env) for _ in range(3))

    def call(argv: list[str], cwd: Path) -> int:
        sink = io.StringIO()
        with contextlib.chdir(cwd), contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = sepll.cli.main(list(argv))
        ledger.command(argv, code, sink.getvalue())
        return code

    def traced_call(argv: list[str], cwd: Path) -> int:
        tracer.run = argv[0]
        with tracer.span(f"cli.{argv[0]}"):
            return call(argv, cwd)

    def timed(fn, argv: list[str], cwd: Path) -> float:
        start = time.perf_counter()
        if fn(argv, cwd) != 0:
            raise TraceRunError(f"sepll {' '.join(argv)} failed: {ledger.problems[-1]}")
        return time.perf_counter() - start

    root = work / "setup"
    try:
        tracer.install(TARGETS)
    except LookupError as exc:
        raise TraceRunError(str(exc)) from exc
    tracer.run = "setup"
    with tracer.span("bench.setup"):
        if prepare(w, sizes, seed, root, traced_call) != 0:
            raise TraceRunError(f"set-up failed: {ledger.problems[-1]}")
    tracer.uninstall()

    # The same train command untraced first, for the tracing overhead.
    untraced_s = timed(call, dict(pipeline(w, "untraced"))["train"], root)
    tracer.install(TARGETS)
    traced_s = {metric: timed(traced_call, argv, root) for metric, argv in pipeline(w, "r0")}["train"]
    tracer.uninstall()

    tracer.install(t for t in TARGETS if t.name == "lf_engine.majority_vote")
    tracer.run = "check"
    accuracy, mv = check_accuracy(root, "r0", seed, ledger)
    tracer.uninstall()
    check_manifests(root, ["raw"] + [f"r0/{d}" for d in OUT_DIRS], ledger)
    digests = [train_digests(root / out / "train") for out in ("untraced", "r0")]
    ledger.check(digests[0] == digests[1], f"traced and untraced train differ: {digests}")
    info.update(digests=digests[1], test_accuracy=accuracy, majority_vote_accuracy=mv)

    fired = {s.name for s in tracer.spans} | {k.rsplit(".", 1)[0] for k in tracer.counts}
    required = REQUIRED_ALWAYS + (REQUIRED_RULES if w.rules else REQUIRED_WEAK_LABELS)
    missing = [name for name in required if name not in fired]
    if missing:
        raise TraceRunError(f"declared spans never fired on {w.name}: {', '.join(missing)}")

    spans_file = out_dir / f"spans-{w.name}-{seed}.jsonl"
    tracer.write(spans_file)
    info.update(spans_file=str(spans_file.relative_to(ROOT)), spans=len(tracer.spans))
    extra = {
        "cli.import_s": import_s,
        "trace.train_untraced_s": untraced_s,
        "trace.train_traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
    }
    values = layer_metrics(tracer, extra)
    return {name: {"value": values[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}
