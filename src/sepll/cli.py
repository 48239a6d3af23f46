"""Command-line interface: convert, apply-lfs, stats, synth, train, eval, analyze, ablate.

Exit codes: 0 success, 1 usage or config error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .config import DataConfig, RunConfig, parse_config
from .data import (
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
    breakdown_to_csv,
    match_count_breakdown,
    memorization_report,
    report_to_csv,
    task_metrics,
    train_test_gap,
    write_bar_chart_svg,
    write_json,
)
from .lf_engine import apply_lfs, compute_stats, mapping_from_lfs, parse_lf_entries
from .manifest import build_manifest, write_manifest
from .model import load_checkpoint, predict_batch, save_checkpoint
from .serialize import write_csv
from .trainer import VARIANT_ORDER, run_ablation, train


@click.group(name="sepll")
@click.version_option(__version__)
def cli() -> None:
    """Weak-supervision classification from labeling-function matches."""


def _require_data(run_cfg: RunConfig) -> DataConfig:
    if run_cfg.data is None:
        raise ConfigError("config needs a [data] section for this command")
    return run_cfg.data


def _load_splits(run_cfg: RunConfig, seed: int) -> tuple[SplitSet, dict[str, Path]]:
    data_cfg = _require_data(run_cfg)
    if data_cfg.format == "synth":
        return synth_dataset(data_cfg.synth, seed), {}
    splits = load_dataset(data_cfg.path, data_cfg.format)
    files = {f.name: f for f in dataset_files(data_cfg.path, data_cfg.format)}
    return splits, files


def _build_matrices(
    splits: SplitSet, run_cfg: RunConfig, names: tuple[str, ...] = ("train", "dev", "test")
) -> tuple[dict[str, MatchMatrix], MappingMatrix, ConversionProvenance | None]:
    """Matches either from rule LFs in the config or from the dataset weak labels.

    Rule LFs are applied only to the splits in ``names``; weak labels are
    converted for every split, since the derived columns depend on all of them.
    """
    if run_cfg.lf_entries:
        lfs = parse_lf_entries(run_cfg.lf_entries, splits.class_names)
        match = {name: apply_lfs(lfs, splits.split(name)) for name in names}
        return match, mapping_from_lfs(lfs, splits.n_classes), None
    conv = to_one_class_lfs(splits)
    return dict(conv.match), conv.mapping, conv.provenance


def _write_provenance(
    prov: ConversionProvenance, class_names: tuple[str, ...], path: Path
) -> None:
    rows = [["derived_index", "original_lf", "class_index", "class_name", "status"]]
    rows += [[j, orig, cls, class_names[cls], "kept"] for j, (orig, cls) in enumerate(prov.columns)]
    rows += [["", orig, "", "", "dropped"] for orig in prov.dropped]
    write_csv(path, rows)


def _echo_with_names(run_cfg: RunConfig, seed: int, splits: SplitSet) -> dict:
    echo = run_cfg.to_echo_dict()
    echo["train"]["seed"] = int(seed)
    echo["class_names"] = list(splits.class_names)
    return echo


@cli.command()
@click.argument("in_path", type=click.Path(exists=True, file_okay=False))
@click.option("--format", "fmt", type=click.Choice(["wrench-json", "jsonl"]), default="wrench-json")
@click.option("--out", required=True, type=click.Path(file_okay=False))
def convert(in_path: str, fmt: str, out: str) -> None:
    """Convert dataset weak labels into one-class match/mapping matrices."""
    splits = load_dataset(in_path, fmt)
    conv = to_one_class_lfs(splits)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts: dict[str, Path] = {}
    for name in ("train", "dev", "test"):
        f = out_dir / f"L_{name}.triplets"
        write_triplets(conv.match[name], f)
        artifacts[f"L_{name}"] = f
    mapping_file = out_dir / "T.classof"
    write_mapping(conv.mapping, mapping_file)
    artifacts["T"] = mapping_file
    prov_file = out_dir / "provenance.csv"
    _write_provenance(conv.provenance, splits.class_names, prov_file)
    artifacts["provenance"] = prov_file
    inputs = {f.name: f for f in dataset_files(in_path, fmt)}
    manifest = build_manifest(0, {"command": "convert", "format": fmt}, inputs, artifacts)
    write_manifest(out_dir / "manifest.json", manifest)
    click.echo(f"converted {conv.mapping.m} one-class LFs ({len(conv.provenance.dropped)} dropped)")


@cli.command("apply-lfs")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(file_okay=False))
@click.option("--seed", type=int, default=None, help="root seed override")
def apply_lfs_cmd(config_path: str, out: str, seed: int | None) -> None:
    """Apply config-defined labeling functions and write match matrices."""
    run_cfg = parse_config(config_path)
    if not run_cfg.lf_entries:
        raise ConfigError("config has no [lfs] section to apply")
    root_seed = seed if seed is not None else run_cfg.train.seed
    splits, data_files = _load_splits(run_cfg, root_seed)
    match, mapping, _ = _build_matrices(splits, run_cfg)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts: dict[str, Path] = {}
    for name in ("train", "dev", "test"):
        f = out_dir / f"L_{name}.triplets"
        write_triplets(match[name], f)
        artifacts[f"L_{name}"] = f
    mapping_file = out_dir / "T.classof"
    write_mapping(mapping, mapping_file)
    artifacts["T"] = mapping_file
    inputs = {"config": Path(config_path), **data_files}
    manifest = build_manifest(root_seed, _echo_with_names(run_cfg, root_seed, splits), inputs, artifacts)
    write_manifest(out_dir / "manifest.json", manifest)
    click.echo(f"applied {mapping.m} LFs to {sum(m.n for m in match.values())} samples")


@cli.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(file_okay=False), default=None)
@click.option("--seed", type=int, default=None, help="root seed override")
def stats(config_path: str, out: str | None, seed: int | None) -> None:
    """Per-LF and dataset-level match statistics for every split."""
    run_cfg = parse_config(config_path)
    root_seed = seed if seed is not None else run_cfg.train.seed
    splits, data_files = _load_splits(run_cfg, root_seed)
    match, mapping, _ = _build_matrices(splits, run_cfg)
    payload = {}
    for name in ("train", "dev", "test"):
        samples = splits.split(name)
        if not samples:
            continue
        gold = [s.gold_label for s in samples]
        gold_arg = gold if all(g is not None for g in gold) else None
        payload[name] = compute_stats(match[name], mapping, gold_arg).to_json_dict()
    if out is None:
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
        return
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stats_file = out_dir / "stats.json"
    write_json(payload, stats_file)
    inputs = {"config": Path(config_path), **data_files}
    manifest = build_manifest(root_seed, _echo_with_names(run_cfg, root_seed, splits), inputs, {"stats": stats_file})
    write_manifest(out_dir / "manifest.json", manifest)
    click.echo(f"wrote {stats_file}")


@cli.command()
@click.option("--out", required=True, type=click.Path(file_okay=False))
@click.option("--seed", type=int, default=0)
@click.option("--classes", type=int, default=2)
@click.option("--lfs-per-class", type=int, default=3)
@click.option("--n-train", type=int, default=2000)
@click.option("--n-dev", type=int, default=500)
@click.option("--n-test", type=int, default=500)
@click.option("--lf-accuracy", type=float, default=0.85)
@click.option("--lf-coverage", type=float, default=0.5)
@click.option("--format", "fmt", type=click.Choice(["wrench-json", "jsonl"]), default="wrench-json")
def synth(
    out: str,
    seed: int,
    classes: int,
    lfs_per_class: int,
    n_train: int,
    n_dev: int,
    n_test: int,
    lf_accuracy: float,
    lf_coverage: float,
    fmt: str,
) -> None:
    """Generate the synthetic keyword corpus with noisy labeling functions."""
    spec = SynthSpec(
        c=classes,
        m_per_class=lfs_per_class,
        n_train=n_train,
        n_dev=n_dev,
        n_test=n_test,
        lf_accuracy=lf_accuracy,
        lf_coverage=lf_coverage,
    )
    splits = synth_dataset(spec, seed)
    out_dir = Path(out)
    files = save_dataset(splits, out_dir, fmt)
    artifacts = {f.name: f for f in files}
    manifest = build_manifest(seed, {"command": "synth", "spec": dataclasses.asdict(spec), "format": fmt}, {}, artifacts)
    write_manifest(out_dir / "manifest.json", manifest)
    click.echo(f"wrote synthetic dataset to {out_dir}")


@cli.command("train")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(file_okay=False))
@click.option("--seed", type=int, default=None, help="root seed override")
def train_cmd(config_path: str, out: str, seed: int | None) -> None:
    """Train the two-path model and write checkpoint, history, manifest."""
    run_cfg = parse_config(config_path)
    root_seed = seed if seed is not None else run_cfg.train.seed
    train_cfg = dataclasses.replace(run_cfg.train, seed=root_seed)
    splits, data_files = _load_splits(run_cfg, root_seed)
    match, mapping, _ = _build_matrices(splits, run_cfg, ("train",))
    params, history, vocab = train(
        splits, match["train"], mapping, train_cfg, run_cfg.encoder, run_cfg.model
    )
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    echo = _echo_with_names(run_cfg, root_seed, splits)
    ckpt_file = out_dir / "checkpoint.sepll"
    save_checkpoint(ckpt_file, params, vocab, echo)
    history_file = out_dir / "history.csv"
    history.to_csv(history_file)
    inputs = {"config": Path(config_path), **data_files}
    manifest = build_manifest(root_seed, echo, inputs, {"checkpoint": ckpt_file, "history": history_file})
    write_manifest(out_dir / "manifest.json", manifest)
    click.echo(
        f"best dev {train_cfg.metric} {history.best_dev_metric:.4f} at epoch {history.best_epoch}; "
        f"wrote {ckpt_file}"
    )


def _load_eval_inputs(checkpoint: str, config_path: str, seed: int | None, names: tuple[str, ...]):
    """Checkpoint, data and the matches of the splits in ``names``, after checking
    that the checkpoint's LF-to-class map is the one the data yields."""
    run_cfg = parse_config(config_path)
    params, vocab, echo = load_checkpoint(checkpoint)
    root_seed = seed if seed is not None else run_cfg.train.seed
    splits, data_files = _load_splits(run_cfg, root_seed)
    match, mapping, _ = _build_matrices(splits, run_cfg, names)
    if mapping.m != params.mapping.m:
        raise DataError(
            f"LF dimension mismatch: checkpoint has m={params.mapping.m}, data yields m={mapping.m}"
        )
    if mapping.c != params.mapping.c:
        raise DataError(
            f"class count mismatch: checkpoint has c={params.mapping.c}, data yields c={mapping.c}"
        )
    if not np.array_equal(mapping.class_of, params.mapping.class_of):
        j = int(np.argmax(mapping.class_of != params.mapping.class_of))
        raise DataError(
            f"LF class mismatch: checkpoint maps LF {j} to class {params.mapping.class_of[j]}, "
            f"data yields class {mapping.class_of[j]}"
        )
    return run_cfg, params, vocab, echo, splits, match, data_files, root_seed


def _split_features_gold(splits: SplitSet, vocab, split: str):
    samples = splits.split(split)
    if not samples:
        raise DataError(f"split {split!r} is empty")
    X = featurize_split([s.text for s in samples], vocab)
    gold = [s.gold_label for s in samples]
    return samples, X, gold


@cli.command("eval")
@click.option("--checkpoint", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--split", type=click.Choice(["train", "dev", "test"]), default="test")
@click.option("--metric", type=click.Choice(["accuracy", "binary_f1", "macro_f1"]), default=None)
@click.option("--out", type=click.Path(file_okay=False), default=None)
@click.option("--seed", type=int, default=None, help="root seed override")
def eval_cmd(
    checkpoint: str, config_path: str, split: str, metric: str | None, out: str | None, seed: int | None
) -> None:
    """Score task predictions from the class head against gold labels."""
    run_cfg, params, vocab, echo, splits, _, data_files, root_seed = _load_eval_inputs(
        checkpoint, config_path, seed, ()
    )
    _, X, gold = _split_features_gold(splits, vocab, split)
    if any(g is None for g in gold):
        raise DataError(f"split {split!r} lacks gold labels")
    metric = metric or run_cfg.train.metric
    preds = predict_batch(params, X)
    report = task_metrics(
        preds,
        gold,
        metric=metric,
        n_classes=params.mapping.c,
        positive_class=run_cfg.train.positive_class,
        split=split,
    )
    if out is None:
        click.echo(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
        return
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_file = out_dir / "report.json"
    write_json(report.to_json_dict(), json_file)
    csv_file = out_dir / "report.csv"
    report_to_csv(report.cells(), csv_file)
    inputs = {"config": Path(config_path), "checkpoint": Path(checkpoint), **data_files}
    manifest = build_manifest(root_seed, echo, inputs, {"report_json": json_file, "report_csv": csv_file})
    write_manifest(out_dir / "manifest.json", manifest)
    click.echo(f"{split} {metric} {report.value:.4f}; wrote {json_file}")


@cli.command()
@click.option("--checkpoint", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--which", type=click.Choice(["memorization", "matches", "gap"]), required=True)
@click.option("--split", type=click.Choice(["train", "dev", "test"]), default="test")
@click.option("--threshold-k", type=click.Choice(["2", "3", "4"]), default="4")
@click.option("--plot", is_flag=True, default=False)
@click.option("--out", type=click.Path(file_okay=False), default=None)
@click.option("--seed", type=int, default=None, help="root seed override")
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
    run_cfg, params, vocab, echo, splits, match, data_files, root_seed = _load_eval_inputs(
        checkpoint, config_path, seed, ("train", "test") if which == "gap" else (split,)
    )
    k = int(threshold_k)
    out_dir = None
    artifacts: dict[str, Path] = {}
    if out is not None:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)

    if which == "memorization":
        _, X, _ = _split_features_gold(splits, vocab, split)
        report = memorization_report(params, X, match[split], k=k)
        payload = report.to_json_dict()
        if out_dir is None:
            click.echo(json.dumps(payload, indent=2, sort_keys=True))
        else:
            f = out_dir / "memorization.json"
            write_json(payload, f)
            artifacts["memorization"] = f
            if plot:
                paths = list(report.paths)
                scores = out_dir / "memorization_scores.svg"
                write_bar_chart_svg(
                    scores,
                    f"LF prediction quality ({split}, k={k})",
                    paths,
                    {
                        "accuracy": [report.paths[p].accuracy for p in paths],
                        "macro_f1": [report.paths[p].macro_f1 for p in paths],
                    },
                )
                artifacts["memorization_scores_svg"] = scores
                ce = out_dir / "memorization_ce.svg"
                write_bar_chart_svg(
                    ce,
                    f"Cross-entropy vs match distribution ({split})",
                    paths + ["uniform"],
                    {"cross_entropy": [report.paths[p].cross_entropy for p in paths] + [report.uniform_ce]},
                )
                artifacts["memorization_ce_svg"] = ce
            click.echo(f"wrote {f}")
    elif which == "matches":
        _, X, gold = _split_features_gold(splits, vocab, split)
        if any(g is None for g in gold):
            raise DataError(f"split {split!r} lacks gold labels")
        metric = run_cfg.train.metric
        preds = predict_batch(params, X)
        table = match_count_breakdown(
            preds,
            gold,
            match[split],
            metric=metric,
            n_classes=params.mapping.c,
            positive_class=run_cfg.train.positive_class,
        )
        if out_dir is None:
            payload = {str(c): {"value": g.value, "support": g.support} for c, g in table.items()}
            click.echo(json.dumps(payload, indent=2, sort_keys=True))
        else:
            f = out_dir / "matches.csv"
            breakdown_to_csv(table, metric, f)
            artifacts["matches"] = f
            if plot:
                svg = out_dir / "matches.svg"
                counts = sorted(table)
                write_bar_chart_svg(
                    svg,
                    f"{metric} by match count ({split})",
                    [str(c) for c in counts],
                    {metric: [table[c].value for c in counts]},
                )
                artifacts["matches_svg"] = svg
            click.echo(f"wrote {f}")
    else:  # gap
        gap_reports = {}
        for part in ("train", "test"):
            _, X, _ = _split_features_gold(splits, vocab, part)
            gap_reports[part] = memorization_report(params, X, match[part], k=k)
        payload = {
            "cells": train_test_gap(gap_reports["train"], gap_reports["test"]),
            "train": gap_reports["train"].to_json_dict(),
            "test": gap_reports["test"].to_json_dict(),
        }
        if out_dir is None:
            click.echo(json.dumps(payload, indent=2, sort_keys=True))
        else:
            f = out_dir / "gap.json"
            write_json(payload, f)
            artifacts["gap"] = f
            click.echo(f"wrote {f}")

    if out_dir is not None:
        inputs = {"config": Path(config_path), "checkpoint": Path(checkpoint), **data_files}
        manifest = build_manifest(root_seed, echo, inputs, artifacts)
        write_manifest(out_dir / "manifest.json", manifest)


@cli.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--datasets", default=None, help="comma-separated dataset directories")
@click.option("--out", required=True, type=click.Path(file_okay=False))
@click.option("--seed", type=int, default=None, help="root seed override")
def ablate(config_path: str, datasets: str | None, out: str | None, seed: int | None) -> None:
    """Train all six routing variants; test metric per dataset plus average."""
    run_cfg = parse_config(config_path)
    root_seed = seed if seed is not None else run_cfg.train.seed
    base_cfg = dataclasses.replace(run_cfg.train, seed=root_seed)

    jobs: list[tuple[str, SplitSet, dict[str, MatchMatrix], MappingMatrix]] = []
    data_files: dict[str, Path] = {}
    if datasets is not None:
        names = [part.strip() for part in datasets.split(",") if part.strip()]
        if not names:
            raise ConfigError("--datasets got an empty dataset list")
        fmt = run_cfg.data.format if run_cfg.data and run_cfg.data.format != "synth" else "wrench-json"
        for name in names:
            splits = load_dataset(name, fmt)
            match, mapping, _ = _build_matrices(splits, run_cfg, ("train",))
            jobs.append((Path(name).name, splits, match, mapping))
            for f in dataset_files(name, fmt):
                data_files[f"{Path(name).name}/{f.name}"] = f
    else:
        splits, files = _load_splits(run_cfg, root_seed)
        match, mapping, _ = _build_matrices(splits, run_cfg, ("train",))
        label = Path(run_cfg.data.path).name if run_cfg.data and run_cfg.data.path else "synth"
        jobs.append((label, splits, match, mapping))
        data_files.update(files)

    results: dict[str, dict[str, dict[str, float]]] = {}
    for label, splits, match, mapping in jobs:
        results[label] = run_ablation(splits, match, mapping, base_cfg, run_cfg.encoder, run_cfg.model)

    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    labels = [label for label, *_ in jobs]
    csv_file = out_dir / "ablation.csv"
    rows = [["variant", *labels, "avg"]]
    for variant in VARIANT_ORDER:
        row = [results[label][variant]["test"] for label in labels]
        rows.append([variant, *(repr(v) for v in row), repr(float(np.mean(row)))])
    write_csv(csv_file, rows)
    json_file = out_dir / "ablation.json"
    write_json(results, json_file)
    inputs = {"config": Path(config_path), **data_files}
    echo = run_cfg.to_echo_dict()
    echo["train"]["seed"] = root_seed
    manifest = build_manifest(root_seed, echo, inputs, {"csv": csv_file, "json": json_file})
    write_manifest(out_dir / "manifest.json", manifest)
    click.echo(f"wrote {csv_file}")


def main(argv: list[str] | None = None) -> int:
    """Entry point mapping errors onto documented exit codes."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    except SepllError as exc:
        click.echo(f"error: {exc}", err=True)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
