"""Command-line interface: convert, apply-lfs, stats, synth, train, eval, analyze, ablate.

Exit codes: 0 success, 1 usage or config error, a failed write or no memory
left, 2 data error, 3 numerical failure, 130 interrupted.
"""

from __future__ import annotations

import ctypes
import dataclasses
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .config import DataConfig, RunConfig, parse_config
from .data import (
    DATASET_FORMATS,
    SPLIT_NAMES,
    ConversionProvenance,
    MappingMatrix,
    MatchMatrix,
    SplitSet,
    SynthSpec,
    dataset_files,
    load_dataset,
    save_dataset,
    synth_dataset,
    to_one_class_lfs,
    write_mapping,
    write_triplets,
)
from .encoder import featurize_split
from .errors import ConfigError, DataError, SepllError
from .evaluation import (
    METRICS,
    breakdown_to_csv,
    match_count_breakdown,
    memorization_report,
    report_to_csv,
    task_metrics,
    train_test_gap,
    write_bar_chart_svg,
)
from .lf_engine import apply_lfs, compute_stats, mapping_from_lfs, parse_lf_entries
from .manifest import build_manifest
from .model import load_checkpoint, predict_batch, save_checkpoint
from .serialize import to_json, write_csv, write_json
from .trainer import VARIANT_ORDER, run_ablation, train


_SEED = click.IntRange(min=0)  # numpy takes only non-negative integers as seeds


class _Interrupted(Exception):
    """An interrupt during a command, carried past click, which would print a
    blank line and turn it into :class:`click.Abort`."""


class _Group(click.Group):
    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except KeyboardInterrupt:
            raise _Interrupted from None
        except ctypes.ArgumentError as exc:
            # a signal that lands while ctypes converts a kernel's arguments
            # comes as ArgumentError('argument 1: KeyboardInterrupt: ')
            if "KeyboardInterrupt" in str(exc):
                raise _Interrupted from None
            raise


@click.group(name="sepll", cls=_Group)
@click.version_option(__version__)
def cli() -> None:
    """Weak-supervision classification from labeling-function matches."""


def _run_config(config_path: str, seed: int | None) -> RunConfig:
    """The config at ``config_path``, its root seed (``train.seed``) overridden by ``--seed``."""
    run_cfg = parse_config(config_path)
    if seed is None:
        return run_cfg
    return dataclasses.replace(run_cfg, train=dataclasses.replace(run_cfg.train, seed=seed))


@dataclasses.dataclass
class _Run:
    """A command's config, the splits it loaded and the files it read."""

    cfg: RunConfig
    splits: SplitSet
    inputs: dict[str, Path]  # manifest inputs: the config and the dataset files

    def echo(self) -> dict:
        """The config echo with the class names, as manifests record it."""
        return {**self.cfg.to_echo_dict(), "class_names": list(self.splits.class_names)}


def _load_run(run_cfg: RunConfig, config_path: str) -> _Run:
    """The data of ``run_cfg``, read from ``config_path``."""
    if run_cfg.data is None:
        raise ConfigError(f"{config_path}: config needs a [data] section for this command")
    data_cfg = run_cfg.data
    inputs = {"config": Path(config_path)}
    if data_cfg.format == "synth":
        splits = synth_dataset(data_cfg.synth, run_cfg.train.seed)
    else:
        splits = load_dataset(data_cfg.path, data_cfg.format)
        inputs.update((f.name, f) for f in dataset_files(data_cfg.path, data_cfg.format))
    return _Run(run_cfg, splits, inputs)


def _out_dir(out: str) -> Path:
    out_dir = Path(out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out}: cannot make the directory: {exc.strerror}") from None
    return out_dir


def _finish(
    out_dir: Path, seed: int, echo: dict, inputs: dict[str, Path], artifacts: dict[str, Path]
) -> None:
    """Write ``out_dir/manifest.json`` over the inputs read and the artifacts written."""
    write_json(out_dir / "manifest.json", build_manifest(seed, echo, inputs, artifacts))


def _build_matrices(
    run: _Run, names: tuple[str, ...] = SPLIT_NAMES
) -> tuple[dict[str, MatchMatrix], MappingMatrix]:
    """Matches either from rule LFs in the config or from the dataset weak labels.

    Rule LFs are applied only to the splits in ``names``; weak labels are
    converted for every split, since the derived columns depend on all of them.
    """
    splits = run.splits
    if run.cfg.lf_entries:
        try:
            lfs = parse_lf_entries(run.cfg.lf_entries, splits.class_names)
        except ConfigError as exc:
            raise ConfigError(f"{run.inputs['config']}: [lfs] {exc}") from None
        match = {name: apply_lfs(lfs, splits.split(name), splits.tokens(name)) for name in names}
        return match, mapping_from_lfs(lfs, splits.n_classes)
    conv = to_one_class_lfs(splits)
    return dict(conv.match), conv.mapping


def _write_label_dir(
    out: str, match: dict[str, MatchMatrix], mapping: MappingMatrix
) -> tuple[Path, dict[str, Path]]:
    """``L_{split}.triplets`` per split and ``T.classof`` in ``out``; returns the
    directory and the artifacts written."""
    out_dir = _out_dir(out)
    artifacts: dict[str, Path] = {}
    for name in SPLIT_NAMES:
        artifacts[f"L_{name}"] = out_dir / f"L_{name}.triplets"
        write_triplets(match[name], artifacts[f"L_{name}"])
    artifacts["T"] = out_dir / "T.classof"
    write_mapping(mapping, artifacts["T"])
    return out_dir, artifacts


def _write_provenance(
    prov: ConversionProvenance, class_names: tuple[str, ...], path: Path
) -> None:
    rows = [["derived_index", "original_lf", "class_index", "class_name", "status"]]
    rows += [[j, orig, cls, class_names[cls], "kept"] for j, (orig, cls) in enumerate(prov.columns)]
    rows += [["", orig, "", "", "dropped"] for orig in prov.dropped]
    write_csv(path, rows)


@cli.command()
@click.argument("in_path", type=click.Path(exists=True, file_okay=False))
@click.option("--format", "fmt", type=click.Choice(DATASET_FORMATS), default="wrench-json")
@click.option("--out", required=True, type=click.Path(file_okay=False))
def convert(in_path: str, fmt: str, out: str) -> None:
    """Convert dataset weak labels into one-class match/mapping matrices."""
    splits = load_dataset(in_path, fmt)
    conv = to_one_class_lfs(splits)
    out_dir, artifacts = _write_label_dir(out, conv.match, conv.mapping)
    artifacts["provenance"] = out_dir / "provenance.csv"
    _write_provenance(conv.provenance, splits.class_names, artifacts["provenance"])
    inputs = {f.name: f for f in dataset_files(in_path, fmt)}
    _finish(out_dir, 0, {"command": "convert", "format": fmt}, inputs, artifacts)
    click.echo(f"converted {conv.mapping.m} one-class LFs ({len(conv.provenance.dropped)} dropped)")


@cli.command("apply-lfs")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(file_okay=False))
@click.option("--seed", type=_SEED, default=None, help="root seed override")
def apply_lfs_cmd(config_path: str, out: str, seed: int | None) -> None:
    """Apply config-defined labeling functions and write match matrices."""
    run_cfg = _run_config(config_path, seed)
    if not run_cfg.lf_entries:
        raise ConfigError(f"{config_path}: config has no [lfs] section to apply")
    run = _load_run(run_cfg, config_path)
    match, mapping = _build_matrices(run)
    out_dir, artifacts = _write_label_dir(out, match, mapping)
    _finish(out_dir, run_cfg.train.seed, run.echo(), run.inputs, artifacts)
    click.echo(f"applied {mapping.m} LFs to {sum(m.n for m in match.values())} samples")


@cli.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(file_okay=False), default=None)
@click.option("--seed", type=_SEED, default=None, help="root seed override")
def stats(config_path: str, out: str | None, seed: int | None) -> None:
    """Per-LF and dataset-level match statistics for every split."""
    run = _load_run(_run_config(config_path, seed), config_path)
    match, mapping = _build_matrices(run)
    payload = {}
    for name in SPLIT_NAMES:
        samples = run.splits.split(name)
        if not samples:
            continue
        gold = [s.gold_label for s in samples]
        gold_arg = gold if all(g is not None for g in gold) else None
        payload[name] = compute_stats(match[name], mapping, gold_arg)
    if out is None:
        click.echo(to_json(payload))
        return
    out_dir = _out_dir(out)
    stats_file = out_dir / "stats.json"
    write_json(stats_file, payload)
    _finish(out_dir, run.cfg.train.seed, run.echo(), run.inputs, {"stats": stats_file})
    click.echo(f"wrote {stats_file}")


# the SynthSpec fields whose flag is not the field name with dashes, as --n-train is for n_train
_SYNTH_FLAGS = {"c": "--classes", "m_per_class": "--lfs-per-class"}


def _check_spec_field(ctx: click.Context, param: click.Parameter, value):
    """``value`` if :class:`SynthSpec` takes it for the field of ``param``; a flag out of range names the flag."""
    try:
        SynthSpec(**{param.name: value})
    except DataError as exc:
        raise click.BadParameter(str(exc)) from None
    return value


def _synth_spec_options(command):
    """One option per :class:`SynthSpec` field, with the field's type and default, in field order."""
    for field in reversed(dataclasses.fields(SynthSpec)):
        flag = _SYNTH_FLAGS.get(field.name, "--" + field.name.replace("_", "-"))
        command = click.option(
            flag, field.name, type=type(field.default), default=field.default, callback=_check_spec_field
        )(command)
    return command


@cli.command()
@click.option("--out", required=True, type=click.Path(file_okay=False))
@click.option("--seed", type=_SEED, default=0)
@_synth_spec_options
@click.option("--format", "fmt", type=click.Choice(DATASET_FORMATS), default="wrench-json")
def synth(out: str, seed: int, fmt: str, **spec_fields) -> None:
    """Generate the synthetic keyword corpus with noisy labeling functions."""
    spec = SynthSpec(**spec_fields)
    splits = synth_dataset(spec, seed)
    out_dir = _out_dir(out)
    artifacts = {f.name: f for f in save_dataset(splits, out_dir, fmt)}
    _finish(out_dir, seed, {"command": "synth", "spec": dataclasses.asdict(spec), "format": fmt}, {}, artifacts)
    click.echo(f"wrote synthetic dataset to {out_dir}")


@cli.command("train")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(file_okay=False))
@click.option("--seed", type=_SEED, default=None, help="root seed override")
def train_cmd(config_path: str, out: str, seed: int | None) -> None:
    """Train the two-path model and write checkpoint, history, manifest."""
    run = _load_run(_run_config(config_path, seed), config_path)
    train_cfg = run.cfg.train
    match, mapping = _build_matrices(run, ("train",))
    out_dir = _out_dir(out)  # before training, so that an unusable --out fails at once
    params, history, vocab = train(
        run.splits, match["train"], mapping, train_cfg, run.cfg.encoder, run.cfg.model
    )
    echo = run.echo()
    ckpt_file = out_dir / "checkpoint.sepll"
    history_file = out_dir / "history.csv"
    written: list[Path] = []  # this run's files, removed again when a later write fails
    try:
        history.to_csv(history_file)  # first, so that no checkpoint is left without its history
        written.append(history_file)
        save_checkpoint(ckpt_file, params, vocab, echo)
        written.append(ckpt_file)
        _finish(out_dir, train_cfg.seed, echo, run.inputs, {"checkpoint": ckpt_file, "history": history_file})
    except BaseException:
        for f in written:
            f.unlink()
        raise
    click.echo(
        f"best dev {train_cfg.metric} {history.best_dev_metric:.4f} at epoch {history.best_epoch}; "
        f"wrote {ckpt_file}"
    )


def _load_eval_inputs(checkpoint: str, config_path: str, seed: int | None, names: tuple[str, ...]):
    """The run (its inputs now include the checkpoint), the checkpoint's parameters,
    vocabulary and config echo, and the matches of the splits in ``names``, after
    checking that the checkpoint's LF-to-class map is the one the data yields."""
    run_cfg = _run_config(config_path, seed)
    params, vocab, echo = load_checkpoint(checkpoint)
    run = _load_run(run_cfg, config_path)
    run.inputs["checkpoint"] = Path(checkpoint)
    match, mapping = _build_matrices(run, names)
    for what, key in (("LF dimension", "m"), ("class count", "c")):
        have, got = getattr(params.mapping, key), getattr(mapping, key)
        if have != got:
            raise DataError(f"{checkpoint}: {what} mismatch: checkpoint has {key}={have}, data yields {key}={got}")
    if not np.array_equal(mapping.class_of, params.mapping.class_of):
        j = int(np.argmax(mapping.class_of != params.mapping.class_of))
        raise DataError(
            f"{checkpoint}: LF class mismatch: checkpoint maps LF {j} to class {params.mapping.class_of[j]}, "
            f"data yields class {mapping.class_of[j]}"
        )
    return run, params, vocab, echo, match


def _split_features_gold(splits: SplitSet, vocab, split: str, need_gold: bool = False):
    """Features and gold labels of ``split``; with ``need_gold`` every sample must have one."""
    samples = splits.split(split)
    if not samples:
        raise DataError(f"split {split!r} is empty")
    gold = [s.gold_label for s in samples]
    if need_gold and any(g is None for g in gold):
        raise DataError(f"split {split!r} lacks gold labels")
    return featurize_split(splits.tokens(split, vocab.lowercase), vocab), gold


@cli.command("eval")
@click.option("--checkpoint", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--split", type=click.Choice(SPLIT_NAMES), default="test")
@click.option("--metric", type=click.Choice(METRICS), default=None)
@click.option("--out", type=click.Path(file_okay=False), default=None)
@click.option("--seed", type=_SEED, default=None, help="root seed override")
def eval_cmd(
    checkpoint: str, config_path: str, split: str, metric: str | None, out: str | None, seed: int | None
) -> None:
    """Score task predictions from the class head against gold labels."""
    out_dir = None if out is None else _out_dir(out)  # first, so that an unusable --out fails at once
    run, params, vocab, echo, _ = _load_eval_inputs(checkpoint, config_path, seed, ())
    X, gold = _split_features_gold(run.splits, vocab, split, need_gold=True)
    metric = metric or run.cfg.train.metric
    preds = predict_batch(params, X)
    report = task_metrics(
        preds,
        gold,
        metric=metric,
        n_classes=params.mapping.c,
        positive_class=run.cfg.train.positive_class,
        split=split,
    )
    if out_dir is None:
        click.echo(to_json(report))
        return
    json_file = out_dir / "report.json"
    write_json(json_file, report)
    csv_file = out_dir / "report.csv"
    report_to_csv(report.cells(), csv_file)
    _finish(out_dir, run.cfg.train.seed, echo, run.inputs, {"report_json": json_file, "report_csv": csv_file})
    click.echo(f"{split} {metric} {report.value:.4f}; wrote {json_file}")


@cli.command()
@click.option("--checkpoint", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--which", type=click.Choice(["memorization", "matches", "gap"]), required=True)
@click.option("--split", type=click.Choice(SPLIT_NAMES), default="test")
@click.option("--threshold-k", type=click.Choice(["2", "3", "4"]), default="4")
@click.option("--plot", is_flag=True, default=False)
@click.option("--out", type=click.Path(file_okay=False), default=None)
@click.option("--seed", type=_SEED, default=None, help="root seed override")
def analyze(
    checkpoint: str,
    config_path: str,
    which: str,
    split: str,
    threshold_k: str,
    plot: bool,
    out: str | None,
    seed: int | None,
) -> None:
    """Memorization report, match-count breakdown, or train-test gap."""
    out_dir = None if out is None else _out_dir(out)  # first, so that an unusable --out fails at once
    run, params, vocab, echo, match = _load_eval_inputs(
        checkpoint, config_path, seed, ("train", "test") if which == "gap" else (split,)
    )
    k = int(threshold_k)
    if which == "matches":
        X, gold = _split_features_gold(run.splits, vocab, split, need_gold=True)
        metric = run.cfg.train.metric
        table = match_count_breakdown(
            predict_batch(params, X),
            gold,
            match[split],
            metric=metric,
            n_classes=params.mapping.c,
            positive_class=run.cfg.train.positive_class,
        )
        payload = {str(c): g for c, g in table.items()}  # str keys sort as text: "10" < "2"
    elif which == "memorization":
        X, _ = _split_features_gold(run.splits, vocab, split)
        payload = report = memorization_report(params, X, match[split], k=k)
    else:  # gap
        gap_reports = {}
        for part in ("train", "test"):
            X, _ = _split_features_gold(run.splits, vocab, part)
            gap_reports[part] = memorization_report(params, X, match[part], k=k)
        payload = {"cells": train_test_gap(gap_reports["train"], gap_reports["test"]), **gap_reports}
    if out_dir is None:
        click.echo(to_json(payload))
        return

    if which == "matches":
        artifacts = {"matches": out_dir / "matches.csv"}
        breakdown_to_csv(table, metric, artifacts["matches"])
        if plot:
            artifacts["matches_svg"] = out_dir / "matches.svg"
            counts = sorted(table)
            write_bar_chart_svg(
                artifacts["matches_svg"],
                f"{metric} by match count ({split})",
                [str(c) for c in counts],
                {metric: [table[c].value for c in counts]},
            )
    else:
        artifacts = {which: out_dir / f"{which}.json"}
        write_json(artifacts[which], payload)
    if plot and which == "memorization":
        paths = list(report.paths)
        artifacts["memorization_scores_svg"] = out_dir / "memorization_scores.svg"
        write_bar_chart_svg(
            artifacts["memorization_scores_svg"],
            f"LF prediction quality ({split}, k={k})",
            paths,
            {
                "accuracy": [report.paths[p].accuracy for p in paths],
                "macro_f1": [report.paths[p].macro_f1 for p in paths],
            },
        )
        artifacts["memorization_ce_svg"] = out_dir / "memorization_ce.svg"
        write_bar_chart_svg(
            artifacts["memorization_ce_svg"],
            f"Cross-entropy vs match distribution ({split})",
            paths + ["uniform"],
            {"cross_entropy": [report.paths[p].cross_entropy for p in paths] + [report.uniform_ce]},
        )
    _finish(out_dir, run.cfg.train.seed, echo, run.inputs, artifacts)
    click.echo(f"wrote {artifacts[which]}")


@cli.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--datasets", default=None, help="comma-separated dataset directories")
@click.option("--out", required=True, type=click.Path(file_okay=False))
@click.option("--seed", type=_SEED, default=None, help="root seed override")
def ablate(config_path: str, datasets: str | None, out: str, seed: int | None) -> None:
    """Train all six routing variants; test metric per dataset plus average."""
    run_cfg = _run_config(config_path, seed)
    if datasets is None:
        label = Path(run_cfg.data.path).name if run_cfg.data and run_cfg.data.path else "synth"
        data_cfgs = [(label, run_cfg.data)]
    else:
        names = [part.strip() for part in datasets.split(",") if part.strip()]
        if not names:
            raise ConfigError("--datasets got an empty dataset list")
        fmt = run_cfg.data.format if run_cfg.data and run_cfg.data.format != "synth" else "wrench-json"
        data_cfgs = [(Path(name).name, DataConfig(format=fmt, path=name)) for name in names]
        seen: dict[str, str] = {}
        for label, data_cfg in data_cfgs:
            if label in seen:
                raise ConfigError(
                    f"--datasets {seen[label]} and {data_cfg.path} share the name {label!r}, "
                    "which labels their results"
                )
            seen[label] = data_cfg.path

    inputs = {"config": Path(config_path)}
    jobs: list[tuple[str, SplitSet, dict[str, MatchMatrix], MappingMatrix]] = []
    for label, data_cfg in data_cfgs:
        run = _load_run(dataclasses.replace(run_cfg, data=data_cfg), config_path)
        jobs.append((label, run.splits, *_build_matrices(run, ("train",))))
        prefix = "" if datasets is None else f"{label}/"
        inputs.update((prefix + name, f) for name, f in run.inputs.items() if name != "config")

    out_dir = _out_dir(out)  # before training, so that an unusable --out fails at once
    results: dict[str, dict[str, dict[str, float]]] = {}
    for label, splits, match, mapping in jobs:
        results[label] = run_ablation(splits, match, mapping, run_cfg.train, run_cfg.encoder, run_cfg.model)

    labels = [label for label, *_ in jobs]
    csv_file = out_dir / "ablation.csv"
    rows = [["variant", *labels, "avg"]]
    for variant in VARIANT_ORDER:
        row = [results[label][variant]["test"] for label in labels]
        rows.append([variant, *(repr(v) for v in row), repr(float(np.mean(row)))])
    write_csv(csv_file, rows)
    json_file = out_dir / "ablation.json"
    write_json(json_file, results)
    echo = run_cfg.to_echo_dict()  # no class names: the datasets may differ in them
    _finish(out_dir, run_cfg.train.seed, echo, inputs, {"csv": csv_file, "json": json_file})
    click.echo(f"wrote {csv_file}")


def main(argv: list[str] | None = None) -> int:
    """Entry point mapping errors onto documented exit codes."""
    try:
        # a non-finite result ends in a NumericalError's one error line; numpy's
        # warnings would print lines of their own before it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # click returns the code of a command that exits, and None when it returns
            return cli.main(args=argv, standalone_mode=False) or 0
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    except SepllError as exc:
        click.echo(f"error: {exc}", err=True)
        return exc.exit_code
    except MemoryError as exc:
        click.echo(f"error: out of memory: {exc}", err=True)
        return 1
    except _Interrupted:
        click.echo("interrupted", err=True)
        return 130


if __name__ == "__main__":
    sys.exit(main())
