"""In-memory spans recorded around calls into the package's layers.

A span is ``[name, start, end, parent, op]``: times from
``time.perf_counter`` in seconds, ``parent`` the index of the enclosing
span (-1 at the top) and ``op`` the id of the benchmark operation it
belongs to.  Spans stay in memory and are written out once, when the
worker exits.  The program itself is not modified: spans come from
wrappers in the benchmark around public functions.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records one span."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced


def layer_times(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children.  Spans of one process never overlap except by nesting, so
    the children's durations are exactly the part of the interval they
    cover.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for (name, start, end, _, _), inner in zip(spans, child_time):
        row = out[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - inner
    return dict(out)
