"""Spans and counters recorded around the benchmark's calls into each layer.

A span has a name, start and end times, the index of the span it ran
inside, and the id of the operation it belongs to.  A layer's busy time
is the sum of its spans' self time: duration minus the time covered by
child spans.  With tracing off, ``span`` hands back one shared no-op
context and ``count`` returns at once, so untraced runs pay only a
method call per boundary.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import nullcontext

from common import cpu

_NULL = nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr.stack[-1] if tr.stack else -1
        self.index = len(tr.spans)
        tr.spans.append([self.name, cpu(), None, parent, tr.op_id])
        tr.stack.append(self.index)
        return self

    def __exit__(self, exc_type, exc, tb):
        tr = self.tracer
        tr.spans[self.index][2] = cpu()
        tr.stack.pop()
        if exc is not None and exc is not tr.last_error:
            # Charge a failure to the innermost layer it passed through.
            tr.last_error = exc
            tr.count(self.name.split(".")[0] + ".errors")
        return False


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []  # [name, start, end, parent index, op id]
        self.stack: list = []
        self.counts: dict = defaultdict(float)
        self.op_id = 0
        self.last_error = None

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def count(self, name: str, n: float = 1) -> None:
        if self.enabled:
            self.counts[name] += n

    def next_op(self) -> None:
        self.op_id += 1

    def busy(self) -> dict:
        """Per span name: (calls, self time in seconds)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if end is None:
                continue
            out[name][0] += 1
            out[name][1] += end - start - child_time[i]
        return out


def span_cost(samples: int = 20000) -> float:
    """Seconds one traced span adds, measured on empty spans."""
    tr = Tracer(True)
    start = cpu()
    for _ in range(samples):
        with tr.span("probe.empty"):
            pass
    traced = cpu() - start
    off = Tracer(False)
    start = cpu()
    for _ in range(samples):
        with off.span("probe.empty"):
            pass
    return max(traced - (cpu() - start), 0.0) / samples
