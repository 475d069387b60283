"""In-memory spans around the benchmark's calls into the library.

A span records one call: its name (``<module>.<function>``), the span that
caused it, the operation it belongs to, and its start and end on the
``perf_counter_ns`` clock. Spans stay in memory while the benchmark runs and
are written out once, at the end, so tracing adds no I/O to the timed work.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter_ns
from typing import NamedTuple, Optional


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    op: int
    name: str
    start_ns: int
    end_ns: int

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


class Tracer:
    """Records a span around every call made through :meth:`call`.

    Spans opened inside another span name it as their parent; every span
    carries the id of its outermost ancestor as ``op``, so the spans of one
    operation share an identifier.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next = 0

    def call(self, name, fn, *args, **kwargs):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        op = self._stack[0] if self._stack else sid
        self._stack.append(sid)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans.append(Span(sid, parent, op, name, start, end))

    def median_ms(self, name: str) -> float:
        return statistics.median(s.ms for s in self.spans if s.name == name)

    def write(self, path, header: dict) -> None:
        """Write ``header`` and then one JSON object per span, one per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(s._asdict()) + "\n")


class NoTrace:
    """Stand-in for :class:`Tracer` that calls straight through."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


NO_TRACE = NoTrace()
