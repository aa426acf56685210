"""Wrappers the benchmark puts around kgtn's public entry points.

Nothing here edits kgtn: `Patches` swaps a module or class attribute for a
wrapper and puts the original back, and the call sites inside kgtn pick the
wrapper up because they look the name up at call time. Three kinds of
wrapper exist:

- `timed` appends (start, end) of each call to a list: the step clock of
  the untraced runs, a few calls per step.
- `observed` hands each call's result to a callback: the output checks.
- `Tracer.span` records a span per call: name, start, end, parent span and
  the id of the step it ran in. Spans stay in memory until the run ends.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

_clock = time.perf_counter_ns


class Patches:
    """Attribute replacements that `restore` undoes in reverse order."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, name, make_wrapper):
        original = vars(owner)[name]
        setattr(owner, name, make_wrapper(original))
        self._saved.append((owner, name, original))

    def restore(self):
        """Put every original back; return the names that did not come back."""
        first = {}
        for owner, name, original in self._saved:
            first.setdefault((owner, name), original)
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()
        return [f"{owner.__name__}.{name}" for (owner, name), original in first.items()
                if vars(owner).get(name) is not original]


def timed(fn, marks):
    """Wrapper that appends (start, end) in seconds of every call to `marks`."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            marks.append((start, time.perf_counter()))

    return wrapper


def observed(fn, after):
    """Wrapper that hands every call's result to `after`."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(result)
        return result

    return wrapper


class Tracer:
    """In-memory span recorder with per-step ids and named counters."""

    def __init__(self):
        self.spans = []          # [name, start_ns, end_ns, parent index or -1, step]
        self.counts = defaultdict(float)
        self.step = 0
        self._stack = []

    def span(self, name, fn, before=None, after=None):
        """Wrap `fn` so each call records a span.

        `before(*args)` runs ahead of the call and `after(result)` once it
        has returned, both outside the span.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args)
            index = len(spans)
            spans.append([name, _clock(), 0, stack[-1] if stack else -1, self.step])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = _clock()
            if after is not None:
                after(result)
            return result

        return wrapper

    def times_ms(self):
        """Inclusive and self time in ms per span name.

        Self time is a span's duration minus the time its child spans cover.
        """
        covered = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        inclusive, own = defaultdict(float), defaultdict(float)
        for (name, start, end, _, _), kids in zip(self.spans, covered):
            inclusive[name] += (end - start) / 1e6
            own[name] += (end - start - kids) / 1e6
        return inclusive, own

    def write(self, path):
        """One JSON object per span, times in ns from the first span's start."""
        origin = self.spans[0][1] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, step) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent,
                                     "step": step}) + "\n")
