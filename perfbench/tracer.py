"""Spans recorded from outside the program, by wrapping its public functions.

A target names a function by module and attribute path ("build_batch" or
"Tensor.backward"). Installing a target replaces the function in every
module of the package that binds it, so `from .model import build_batch`
in another module is timed too. A target missing from the package is
recorded as absent and left alone. Spans stay in memory until the run ends.
"""

import functools
import importlib
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None      # index of the enclosing span, None at top level
    run: int                # id of the command invocation it belongs to
    info: object = None     # what the target's `info` hook made of the result


@dataclass(frozen=True)
class Target:
    module: str             # e.g. "elink.model"
    attr: str               # e.g. "build_batch" or "Tensor.backward"
    span: str               # span name, e.g. "model.build_batch"
    info: object = None     # optional fn(result) -> value stored on the span


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.run = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.run))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        self._stack.pop()

    def wrap(self, fn, name: str, info=None):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
                if info is not None:
                    self.spans[idx].info = info(out)
                return out
            finally:
                self.close(idx)

        return functools.wraps(fn)(traced)

    def install(self, targets, package: str) -> None:
        """Wrap every target wherever a module of `package` binds it."""
        for t in targets:
            try:
                owner = importlib.import_module(t.module)
                *path, attr = t.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                if t.span not in self.absent:
                    self.absent.append(t.span)
                continue
            wrapped = self.wrap(original, t.span, t.info)
            if path:
                # A class attribute: every binding of the class sees the wrapper.
                self._patch(owner, attr, wrapped)
                continue
            for mod in _package_modules(package):
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapped)

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._patches):
            setattr(owner, name, value)
        self._patches.clear()


def _package_modules(package: str):
    prefix = package + "."
    return [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == package or n.startswith(prefix))
    ]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out
