"""End-to-end benchmark of the sepll CLI, with a separate traced per-layer run.

Usage (from the repository root):

    python3 perfbench/run.py --workload wide-vocab --seed 1 --seconds 50 --trace 0

``--trace 0`` runs the workload as a closed loop of CLI commands
(``python -m sepll.cli ...`` with ``src`` on ``PYTHONPATH``, one command at a
time) and reports the end-to-end metrics: medians over as many repeats of the
pipeline as fill about ``--seconds`` (at least three). ``--trace 1`` calls
``sepll.cli.main`` in-process with span wrappers around the public functions
of every module and reports per-layer metrics plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it is
``{"info": ...}``: the pinned environment, artifact digests and check details.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from harness import (  # noqa: E402
    ROOT,
    SRC,
    Ledger,
    check_accuracy,
    check_manifests,
    check_setups,
    environment_record,
    pin_environment,
    run_command,
    sha256,
    train_digests,
)
from workloads import OUT_DIRS, WORKLOADS, Sizes, Workload, pipeline, prepare  # noqa: E402

WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
MIN_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "label_s": "s",
    "stats_s": "s",
    "train_s": "s",
    "train_rows_per_s": "rows/s",
    "eval_s": "s",
    "analyze_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "test_accuracy": "fraction",
}


def measure(w: Workload, sizes: Sizes, seed: int, seconds: float, work: Path, env: dict, ledger: Ledger, info: dict):
    """Untraced closed loop: set-ups, then pipeline repeats for ``seconds``."""

    def cli(argv: list[str], cwd: Path) -> int:
        code, _, _, log = run_command(argv, cwd, env)
        ledger.command(argv, code, log)
        return code

    setup_times, roots = [], []
    for k in range(SETUP_REPEATS):
        roots.append(work / f"setup{k}")
        start = time.perf_counter()
        prepare(w, sizes, seed, roots[-1], cli)
        setup_times.append(time.perf_counter() - start)
    if ledger.failed:
        return None
    check_setups(roots, ledger)
    root = roots[0]
    check_manifests(root, ["raw"], ledger)

    times: dict[str, list[float]] = {}
    totals, rss, digests = [], [], []
    start = time.perf_counter()
    while True:
        out = f"r{len(totals)}"
        total = 0.0
        for metric, argv in pipeline(w, out):
            code, wall, peak, log = run_command(argv, root, env)
            ledger.command(argv, code, log)
            if code != 0:
                return None
            times.setdefault(f"{metric}_s", []).append(wall)
            total += wall
            rss.append(peak)
        totals.append(total)
        check_manifests(root, [f"{out}/{d}" for d in OUT_DIRS], ledger)
        digests.append(train_digests(root / out / "train") | {"report.json": sha256(root / out / "eval" / "report.json")})
        elapsed = time.perf_counter() - start
        if len(totals) >= MIN_REPEATS and elapsed + 0.5 * elapsed / len(totals) > seconds:
            break  # less than half a repeat left: stopping now is closest to --seconds
    ledger.check(all(d == digests[0] for d in digests), f"artifacts differ across repeats: {digests}")
    accuracy, mv = check_accuracy(root, "r0", seed, ledger)
    epochs = len((root / "r0" / "train" / "history.csv").read_text().splitlines()) - 1

    metrics = {name: statistics.median(values) for name, values in times.items()}
    metrics["setup_s"] = statistics.median(setup_times)
    metrics["pipeline_s"] = statistics.median(totals)
    metrics["peak_rss_mb"] = max(rss)
    metrics["test_accuracy"] = accuracy
    metrics["train_rows_per_s"] = sizes.n_train * epochs / metrics["train_s"]
    info.update(
        repeats=len(totals),
        samples={"setup_s": setup_times, "pipeline_s": totals, **times},
        digests=digests[0],
        majority_vote_accuracy=mv,
        epochs_run=epochs,
    )
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full", help="smoke: tiny inputs for tests")
    args = parser.parse_args(argv)

    if not (SRC / "sepll" / "cli.py").is_file():
        print(f"error: {SRC / 'sepll'} not found; run from a full checkout", file=sys.stderr)
        return 2
    env = pin_environment()
    sys.path.insert(0, str(SRC))
    w = WORKLOADS[args.workload]
    sizes = w.smoke if args.size == "smoke" else w.full
    work = WORK / f"{w.name}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ledger = Ledger()
    info = {"env": environment_record(w.name, args.seed, args.size)}
    try:
        if args.trace:
            from layers import TraceRunError, traced_run

            try:
                metrics = traced_run(w, sizes, args.seed, work, env, ledger, info, OUT)
            except TraceRunError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
        else:
            metrics = measure(w, sizes, args.seed, args.seconds, work, env, ledger, info)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info["problems"] = ledger.problems
    print(json.dumps({"info": info}, sort_keys=True))
    if metrics is None:
        print("error: a command failed; no metrics", file=sys.stderr)
        return 1
    result = {
        "correct": not ledger.problems and ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
