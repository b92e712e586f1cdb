"""Attribute patching, the per-item clock and the layer tracer.

Everything here is installed from the benchmark's own files by replacing
module and class attributes of the package (and the two LAPACK entry points
the eigensolvers call); nothing under ``src/`` knows about it.  A function
imported by name into another package module (``from .relations import
verify_relation``) is replaced there too, so every alias of one object gets
the same wrapper.  ``Patcher.restore`` puts every original object back and
checks that it did.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

MARK = "__perfbench_wrapper__"
PACKAGE = "blocksep"


def _package_modules():
    return [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
    ]


def _is_wrapper(value) -> bool:
    if isinstance(value, staticmethod):
        value = value.__func__
    return getattr(value, MARK, False) is True


class Patcher:
    """Replaces attributes with wrappers and restores the originals."""

    def __init__(self):
        self._saved: list = []  # (owner, attribute, original object)

    def wrap_function(self, module, attr: str, make):
        """Replace ``module.attr`` and every package-module alias of it."""
        original = getattr(module, attr)
        wrapper = make(original)
        setattr(wrapper, MARK, True)
        owners = [module] + [m for m in _package_modules() if m is not module]
        for owner in owners:
            for name, value in list(vars(owner).items()):
                if value is original:
                    self._saved.append((owner, name, original))
                    setattr(owner, name, wrapper)

    def wrap_method(self, cls, attr: str, make):
        """Replace a plain or static method in the class dictionary."""
        raw = cls.__dict__[attr]
        func = raw.__func__ if isinstance(raw, staticmethod) else raw
        wrapper = make(func)
        setattr(wrapper, MARK, True)
        self._saved.append((cls, attr, raw))
        setattr(cls, attr, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)

    def restore(self):
        saved, self._saved = self._saved, []
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
        check_restored(saved)


def check_restored(saved: list):
    """Raise unless no wrapper is left in the package or the patched owners."""
    first: dict = {}  # an attribute wrapped twice goes back to its first original
    for owner, name, original in saved:
        first.setdefault((id(owner), name), (owner, original))
    for (_, name), (owner, original) in first.items():
        if vars(owner).get(name) is not original:
            raise RuntimeError(f"attribute {name!r} of {owner!r} was not restored")
    owners = _package_modules() + [owner for owner, _, _ in saved]
    for owner in owners:
        for name, value in list(vars(owner).items()):
            if _is_wrapper(value):
                raise RuntimeError(f"wrapper left at {owner!r}.{name}")
            if isinstance(value, type) and value.__module__.startswith(PACKAGE):
                for mname, member in vars(value).items():
                    if _is_wrapper(member):
                        raise RuntimeError(f"wrapper left at {value.__name__}.{mname}")


class ItemClock:
    """Times each call of one item-level function (one report item each).

    It is the only wrapper an untraced pass installs: one clock read on each
    side of a call that takes milliseconds to seconds.  ``excluded()`` gives
    the seconds spent so far in work that is not the item's own (the speed
    sampler's), which is taken out of the item's time.
    """

    def __init__(self, excluded=lambda: 0.0):
        self.seconds: list = []
        self.excluded = excluded

    def make(self, fn):
        clock, excluded = time.perf_counter, self.excluded
        seconds = self.seconds

        def timed(*args, **kwargs):
            t0, x0 = clock(), excluded()
            result = fn(*args, **kwargs)
            seconds.append(clock() - t0 - (excluded() - x0))
            return result

        return timed


class Tracer:
    """Spans (name, start, end, parent) and counts, kept in memory.

    Self time of a span is its duration minus the time covered by its traced
    children.  ``total_s`` counts only outermost calls of a name, so a
    recursive function is not counted twice.
    """

    def __init__(self):
        self.clock = time.perf_counter
        self.names: list = []
        self._name_ids: dict = {}
        self.spans: list = []  # [name id, start, end, parent span index or -1]
        self._stack: list = []  # open frames: [span index, child seconds]
        self._open = Counter()
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()

    def wrap(self, name: str, before=None, after=None):
        """Decorator factory: ``before(args, kwargs)`` and ``after(args, result)``
        record extra counts at the same boundary.  Their time counts as a
        child of the enclosing span, so no layer's self time includes it."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]

        def make(fn):
            clock, spans, stack, opened = self.clock, self.spans, self._stack, self._open

            def traced(*args, **kwargs):
                if before is not None:
                    hook = clock()
                    before(args, kwargs)
                    if stack:
                        stack[-1][1] += clock() - hook
                index = len(spans)
                parent = stack[-1][0] if stack else -1
                span = [nid, 0.0, 0.0, parent]
                spans.append(span)
                frame = [index, 0.0]
                stack.append(frame)
                opened[name] += 1
                span[1] = start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = end = clock()
                    stack.pop()
                    opened[name] -= 1
                    duration = end - start
                    self.calls[name] += 1
                    self.self_s[name] += duration - frame[1]
                    if not opened[name]:
                        self.total_s[name] += duration
                    if stack:
                        stack[-1][1] += duration
                if after is not None:
                    hook = clock()
                    after(args, result)
                    if stack:
                        stack[-1][1] += clock() - hook
                return result

            return traced

        return make

    def inside(self, name: str) -> bool:
        return self._open[name] > 0

    def span_rows(self) -> list:
        return [[self.names[n], s, e, p] for n, s, e, p in self.spans]
