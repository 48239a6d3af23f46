"""In-memory span tracer that wraps public functions of the ``sepll`` modules.

Modules import each other's functions by name (``from .model import
backward``), so a wrapper is installed on every loaded ``sepll.*`` module that
holds the original function object, not only on the defining module.
Patching just the definition would silently miss those callers.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str


# (tracer, args, kwargs, result) -> None; records counts computed from the call
OnCall = Callable[["Tracer", tuple, dict, object], None]


@dataclass(frozen=True)
class Target:
    name: str  # "<module>.<function>", module relative to the ``sepll`` package
    on_call: OnCall | None = None
    span: bool = True  # False: count calls only (for functions called per text)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.values: dict[str, float] = {}
        self.run = ""
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.run))

    def _wrapper(self, target: Target, fn):
        if not target.span:
            key = f"{target.name}.calls"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counts[key] += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(target.name):
                result = fn(*args, **kwargs)
            if target.on_call is not None:
                target.on_call(self, args, kwargs, result)
            return result

        return traced

    def install(self, targets: Iterable[Target], package: str = "sepll") -> None:
        """Wrap every target on every loaded module of ``package`` that references it."""
        for target in targets:
            module_name, _, attr = target.name.rpartition(".")
            module = importlib.import_module(f"{package}.{module_name}")
            fn = getattr(module, attr, None)
            if not callable(fn):
                raise LookupError(f"trace target {package}.{target.name} does not exist")
            wrapper = self._wrapper(target, fn)
            holders = [
                mod
                for name, mod in list(sys.modules.items())
                if mod is not None and (name == package or name.startswith(package + "."))
            ]
            for mod in holders:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._patches):
            setattr(mod, key, fn)
        self._patches.clear()

    def write(self, path: Path) -> None:
        """Spans as JSON lines, written once at the end of a traced run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its direct children."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered_length(children.get(s.id, []), s.start, s.end) for s in spans
    }


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(min(rank, len(sorted_values))) - 1]


def summarize(spans: Iterable[Span]) -> dict[str, dict[str, float]]:
    """Per span name: total time ``s``, ``self_s``, ``calls``, ``p50_ms`` and ``p99_ms``."""
    spans = list(spans)
    own = self_times(spans)
    durations: dict[str, list[float]] = defaultdict(list)
    self_total: Counter[str] = Counter()
    for s in spans:
        durations[s.name].append(s.end - s.start)
        self_total[s.name] += own[s.id]
    out = {}
    for name, ds in durations.items():
        ds.sort()
        out[name] = {
            "s": sum(ds),
            "self_s": self_total[name],
            "calls": len(ds),
            "p50_ms": 1e3 * percentile(ds, 50),
            "p99_ms": 1e3 * percentile(ds, 99),
        }
    return out
