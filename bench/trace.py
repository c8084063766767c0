"""Span recorder for the traced benchmark run.

Spans are recorded around calls from the benchmark into the library's
public functions; nothing inside `src/reachdl` is instrumented.  Each
span keeps its name, start, end, parent span and query id.  Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter

_NO_SPAN = nullcontext()


class NullTracer:
    """Tracing off: `span` costs one call and records nothing."""

    enabled = False

    def span(self, name: str):
        return _NO_SPAN


class Tracer:
    enabled = True

    def __init__(self) -> None:
        # rows of [name, start, end, parent index or -1, query id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.query_id = ""

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        row = [name, perf_counter(), 0.0, parent, self.query_id]
        self.spans.append(row)
        self._stack.append(idx)
        try:
            yield
        finally:
            row[2] = perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus the part of
        its interval that its child spans cover."""
        child_cover = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_cover[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child_cover[i]
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "query"],
                       "spans": self.spans}, fh)
