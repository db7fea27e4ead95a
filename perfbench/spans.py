"""In-memory spans around the benchmark's calls into the library.

A span is ``[name, start, end, parent]``; times come from
``time.perf_counter`` and ``parent`` is the index of the enclosing span
(-1 at top level).  Spans stay in memory; the runner writes them out,
under the run id, when the run ends.  Counters are recorded next to the
spans, at the same call sites.

Step spans (``Tracer.step``) are always recorded: the runner reads the
pass and step durations from them.  Call spans (``Tracer.call``) are
recorded only when tracing is on; with tracing off ``call`` forwards
straight to the library.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def step(self, name: str) -> "_Step":
        return _Step(self, name)

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn``; inside a span named ``name`` when tracing is on."""
        if not self.enabled:
            return fn(*args, **kwargs)
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def count(self, name: str, n=1) -> None:
        self.counts[name] += n

    def mark(self) -> tuple[int, Counter]:
        """Position to pass to `since`, taken before a pass."""
        return len(self.spans), Counter(self.counts)

    def since(self, mark) -> "PassTrace":
        first, counts_before = mark
        counts = Counter(self.counts)
        counts.subtract(counts_before)
        return PassTrace(self.spans[first:], first, counts)


class _Step:
    __slots__ = ("tracer", "name", "span")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.span = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.span)
        return False

    @property
    def seconds(self) -> float:
        return self.span[2] - self.span[1]


class PassTrace:
    """The spans and counter increments of one pass."""

    def __init__(self, spans: list[list], offset: int, counts: Counter):
        self.spans = spans
        self.offset = offset
        self.counts = counts

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time its direct children cover."""
        child = defaultdict(float)
        for s in self.spans:
            if s[3] >= self.offset:
                child[s[3] - self.offset] += s[2] - s[1]
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s[0]] += (s[2] - s[1]) - child[i]
        return dict(out)
