"""Spans recorded around the benchmark's own calls into treeshift.

A span is ``[name, start, end, parent, request]``: ``parent`` is the index of
the enclosing span (or None) and ``request`` names the individual or ladder
instance the call serves. Spans stay in memory and are written out once the
run ends. An untraced pass uses :data:`OFF`, whose spans cost one method call.
"""
from __future__ import annotations

import contextlib
import time
from collections import defaultdict

_NULL = contextlib.nullcontext()


class _Off:
    def span(self, name, request=None):
        return _NULL


OFF = _Off()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name, request=None):
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, request]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def busy(self) -> dict[str, float]:
        """Total duration per span name."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return out

    def to_json(self, origin: float) -> list[dict]:
        return [
            {"name": name, "start": start - origin, "end": end - origin,
             "parent": parent, "request": request}
            for name, start, end, parent, request in self.spans
        ]
