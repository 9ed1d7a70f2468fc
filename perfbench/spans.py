"""In-memory spans recorded by wrappers the benchmark installs on polyfock names.

A wrapper replaces one attribute through which one polyfock module calls
another (``polyfock.verify.tensor_grid``, ``RationalPoly.__mul__``, ...), or
one entry of the benchmark's own call table.  Each call then records a span:
name, start, end, parent (the enclosing span on the same thread), thread and
an optional work record computed from the arguments and the result.  Spans
stay in per-thread lists until the pass ends; nothing is written while the
program runs.  ``Tracer.uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import threading
from time import perf_counter

# Span record fields.
NAME, START, END, PARENT, WORK = range(5)


class Tracer:
    """Collects spans and counts from every thread that calls a wrapper."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads = []        # [(thread number, spans list, counts dict)]
        self.installed = []      # [(owner, attribute, original)]
        self.absent = []         # dotted names that could not be wrapped

    def _state(self):
        local = self._local
        try:
            return local.spans, local.stack, local.counts
        except AttributeError:
            local.spans, local.stack, local.counts = [], [], {}
            with self._lock:
                self.threads.append((len(self.threads), local.spans, local.counts))
            return local.spans, local.stack, local.counts

    def timed(self, name, fn, work=None, before=False):
        """Wrap fn so that each call records a span called ``name``.

        ``name`` may be a function of the positional arguments.  ``work``
        maps (args, kwargs, result) to the span's work record; with
        ``before`` it is computed from the arguments alone (result None)
        before the call, so a call that raises keeps its record.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack, _ = self._state()
            label = name(args) if callable(name) else name
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, None]
            if before:
                rec[WORK] = work(args, kwargs, None)
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if work is not None and not before:
                rec[WORK] = work(args, kwargs, result)
            return result

        return wrapper

    def counted(self, name, fn):
        """Wrap fn so that each call only adds one to the count ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = self._state()[2]
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, targets):
        """Replace each dotted target with its wrapper; record missing ones.

        ``targets`` holds (dotted name, span name, work, kind) with kind
        "timed", "before" (timed, work from the arguments) or "counted".  The dotted name is a module path followed by
        attribute names, e.g. ``polyfock.ratpoly.RationalPoly.__mul__``.
        """
        for dotted, name, work, kind in targets:
            owner, attr = _resolve(dotted)
            if owner is None or not hasattr(owner, attr):
                self.absent.append(dotted)
                continue
            self.wrap_attribute(owner, attr, name, work, kind)

    def wrap_attribute(self, owner, attr, name, work=None, kind="timed"):
        original = getattr(owner, attr)
        if kind == "counted":
            wrapper = self.counted(name, original)
        else:
            wrapper = self.timed(name, original, work, before=kind == "before")
        setattr(owner, attr, wrapper)
        self.installed.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)
        self.installed.clear()

    # -- reading the record ------------------------------------------------

    def records(self):
        """All spans as (thread, index, record) triples."""
        for thread, spans, _ in self.threads:
            for index, rec in enumerate(spans):
                yield thread, index, rec

    def count(self, name):
        return sum(counts.get(name, 0) for _, _, counts in self.threads)

    def self_times(self):
        """{(thread, index): duration minus direct children on the same thread}."""
        out = {}
        for thread, spans, _ in self.threads:
            own = [rec[END] - rec[START] for rec in spans]
            for rec in spans:
                if rec[PARENT] >= 0:
                    own[rec[PARENT]] -= rec[END] - rec[START]
            for index, value in enumerate(own):
                out[(thread, index)] = value
        return out

    def dump(self):
        """JSON-ready copy: one list of [name, start, end, parent, work] per thread."""
        return [{"thread": thread, "spans": [list(rec) for rec in spans],
                 "counts": dict(counts)}
                for thread, spans, counts in self.threads]


def _resolve(dotted):
    """(object owning the last attribute, attribute name), or (None, name)."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return None, parts[-1]
        return obj, parts[-1]
    return None, parts[-1]


def union_length(intervals, lo, hi):
    """Length of the union of [start, end] intervals clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def max_concurrency(intervals):
    """Largest number of [start, end] intervals open at the same instant."""
    events = sorted([(a, 1) for a, _ in intervals] + [(b, -1) for _, b in intervals],
                    key=lambda e: (e[0], e[1]))
    best = cur = 0
    for _, step in events:
        cur += step
        best = max(best, cur)
    return best
