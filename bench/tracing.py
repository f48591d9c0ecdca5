"""Spans and counts around the package's layers, recorded from outside.

A traced iteration replaces selected module attributes of the package
with wrappers that record a span (name, start, end, parent) or only a
count, and restores them afterwards. The package itself is untouched,
so untraced iterations run exactly the code a user runs. Spans are kept
in memory and written out when the benchmark ends.

A span opened on a thread with no open span of its own (a runner
worker) takes as parent the innermost span open on the main thread,
which is the call that caused it.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, NamedTuple

import mwpeval.backends
import mwpeval.report
import mwpeval.runner
import mwpeval.scoring
import mwpeval.triplets

# (owner, attribute, layer name, spanned). Unspanned entries are only
# counted. Each owner is the module or class whose attribute the caller
# looks up, so the wrapper sits on the call path the package uses.
PATCHES: tuple[tuple[Any, str, str, bool], ...] = (
    (mwpeval.runner, "load_dataset", "triplets.load_dataset", True),
    (mwpeval.triplets, "extract", "extraction.extract", False),
    (mwpeval.scoring, "extract", "extraction.extract", False),
    (mwpeval.runner, "build_cells", "runner.build_cells", True),
    (mwpeval.runner, "render", "prompting.render", True),
    (mwpeval.runner, "load_records", "runner.load_records", True),
    (mwpeval.runner, "index_records", "runner.index_records", True),
    (mwpeval.runner, "score", "scoring.score", True),
    (mwpeval.report, "bootstrap_ci", "metrics.bootstrap_ci", True),
    (mwpeval.backends.HttpChatBackend, "complete", "backends.complete", True),
)


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main = threading.main_thread()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn inside a span called name."""
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent))

    def spanned(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def installed(self) -> "_Installed":
        """Context manager that puts the wrappers in place."""
        return _Installed(self)

    def take(self) -> tuple[list[Span], Counter[str]]:
        """Spans and counts so far; the tracer starts empty again."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


class _Installed:
    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> Tracer:
        for owner, attr, name, spanned in PATCHES:
            original = owner.__dict__.get(attr)
            if original is None:
                print(f"trace: {owner.__name__}.{attr} not found; {name} reads 0", file=sys.stderr)
                continue
            wrap = self._tracer.spanned if spanned else self._tracer.counted
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrap(name, original))
        return self._tracer

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


class GapClock:
    """Backend wrapper for traced iterations: the per-thread time from
    one complete() return to the next complete() entry, in seconds."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self._local = threading.local()
        self.gaps: list[float] = []

    def complete(self, prompt):
        entered = time.perf_counter()
        last = getattr(self._local, "returned", None)
        if last is not None:
            self.gaps.append(entered - last)
        try:
            return self._inner.complete(prompt)
        finally:
            self._local.returned = time.perf_counter()


def durations(spans: list[Span], name: str) -> list[float]:
    return [s.end - s.start for s in spans if s.name == name]


def self_time(spans: list[Span], name: str) -> float:
    """Total over spans called name of their duration minus the part of
    it that their direct children cover (children may overlap)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    total = 0.0
    for s in spans:
        if s.name != name:
            continue
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        total += (s.end - s.start) - covered
    return total


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank q-quantile (0 <= q < 1); 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def write_spans(path: Path, spans_by_iteration: list[list[Span]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for iteration, spans in enumerate(spans_by_iteration):
            for s in spans:
                handle.write(json.dumps({"iteration": iteration, **s._asdict()}) + "\n")
