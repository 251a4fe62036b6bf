"""In-memory span tracer that wraps public gcirculant call sites from outside.

A span is (name, start, end, parent, items): `parent` is the index of the
enclosing span (-1 for a root) and `items` an optional work count taken from
the call's arguments.  Spans are kept in a list and written out once, at the
end of the traced run.  A span's layer is the prefix of its name before the
first dot, e.g. "limits" for "limits.distance_complex".
"""

from __future__ import annotations

import functools
import json
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, items=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, items]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        """Replace owner.attr by a wrapper that records a span per call.

        `count(*args)`, if given, gives the span's work count.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            items = count(*args) if count is not None else None
            return self.call(name, original, *args, items=items, **kwargs)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def write(self, path) -> None:
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "items": i}
            for n, s, e, p, i in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)
