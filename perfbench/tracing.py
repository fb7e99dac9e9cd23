"""Spans around phiscan's public functions, installed from outside the package.

`traced(tracer)` replaces each function in TARGETS at every module-level
binding inside phiscan (the scanner and the parsers import names such as
read_file directly, and phi.evaluate_security_rule calls classify_record
through phi's own global), and parser methods on their classes. Leaving
the block restores every binding. Each call records a span: its name,
start, end, parent and an optional size (bytes read, records returned).
connect_bytes is timed from enter to exit, so the selects run inside it
are its children.

A span's self time is its duration minus the time its child spans cover,
so the self times of a tree of spans add up to the root's duration.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "size")

    def __init__(self, name: str, parent: Span | None):
        self.name = name
        self.parent = parent
        self.start = self.end = self.child_s = 0.0
        self.size = 0

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """Keeps the spans of the current scan in memory, in the order they opened."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if span.parent is not None:
            span.parent.child_s += span.end - span.start

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def take(self) -> list[Span]:
        """The spans recorded so far; the tracer starts afresh."""
        spans, self.spans = self.spans, []
        return spans


@dataclass(frozen=True)
class Target:
    module: str
    attr: str                       # "function" or "Class.method"
    span: str
    size: Callable | None = None    # (args, result) -> size recorded on the span
    context: bool = False           # a context manager: time it from enter to exit


def _records(args, result) -> int:
    return len(result.records)


TARGETS = (
    Target("phiscan.scanner", "scan_evidence", "scanner"),
    Target("phiscan.evidence", "open_source", "evidence.open"),
    Target("phiscan.evidence", "enumerate_app_roots", "evidence.enumerate"),
    Target("phiscan.evidence", "files_under", "evidence.files_under"),
    Target("phiscan.evidence", "read_file", "evidence.read", lambda args, result: len(result)),
    Target("phiscan.evidence", "hash_file", "evidence.hash"),
    Target("phiscan.parsers.myvitals", "MyVitalsParser.parse", "parsers.myvitals.parse",
           _records),
    Target("phiscan.parsers.healthmate", "HealthMateParser.parse", "parsers.healthmate.parse",
           _records),
    Target("phiscan.parsers.glucosmart", "GlucoSmartParser.parse", "parsers.glucosmart.parse",
           _records),
    Target("phiscan.sqlite_bytes", "connect_bytes", "sqlite_bytes.open",
           lambda args, result: len(args[0]), context=True),
    Target("phiscan.sqlite_bytes", "select_rows", "sqlite_bytes.select"),
    Target("phiscan.phi", "scan_raw", "phi.scan_raw", lambda args, result: len(result)),
    Target("phiscan.phi", "classify_record", "phi.classify", lambda args, result: len(result)),
    Target("phiscan.phi", "evaluate_security_rule", "phi.security_rule"),
    Target("phiscan.phi", "evaluate_privacy_rule", "phi.privacy_rule"),
)


def _wrap(tracer: Tracer, target: Target, fn: Callable) -> Callable:
    if target.context:
        @contextlib.contextmanager
        def traced_context(*args, **kwargs):
            span = tracer.open(target.span)
            try:
                with fn(*args, **kwargs) as value:
                    span.size = target.size(args, value)
                    yield value
            finally:
                tracer.close(span)
        return functools.wraps(fn)(traced_context)

    @functools.wraps(fn)
    def traced_call(*args, **kwargs):
        span = tracer.open(target.span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if target.size is not None:
            span.size = target.size(args, result)
        return result
    return traced_call


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route every TARGETS call through `tracer` inside the block."""
    patches: list[tuple[object, str, object]] = []

    def patch(owner, name: str, value) -> None:
        patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    try:
        for target in TARGETS:
            module = sys.modules[target.module]
            if "." in target.attr:
                cls_name, method = target.attr.split(".")
                cls = getattr(module, cls_name)
                patch(cls, method, _wrap(tracer, target, cls.__dict__[method]))
                continue
            original = getattr(module, target.attr)
            wrapper = _wrap(tracer, target, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "phiscan" or mod_name.startswith("phiscan."):
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            patch(mod, name, wrapper)
        yield tracer
    finally:
        for owner, name, value in reversed(patches):
            setattr(owner, name, value)


def self_times(spans: list[Span]) -> dict[str, list]:
    """name -> [calls, self seconds, size] over the spans."""
    totals: dict[str, list] = {}
    for span in spans:
        entry = totals.setdefault(span.name, [0, 0.0, 0])
        entry[0] += 1
        entry[1] += span.self_s
        entry[2] += span.size
    return totals
