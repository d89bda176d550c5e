"""In-memory spans recorded around calls into symbandit's public functions.

A span has a name, start, end, parent and optional attributes. Spans are
kept in memory and written out by the harness when the run ends. Timing
is `time.perf_counter`.
"""

from __future__ import annotations

import contextlib
import statistics
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def find(self, name: str, **attrs) -> list[dict]:
        return [s for s in self.spans if s["name"] == name
                and all(s["attrs"].get(k) == v for k, v in attrs.items())]

    def total(self, name: str, **attrs) -> float:
        """Summed duration of the matching spans, in seconds."""
        return sum(duration(s) for s in self.find(name, **attrs))


class NullTracer:
    """Stand-in for untraced runs: records nothing."""

    def span(self, name: str, **attrs):
        return contextlib.nullcontext({"attrs": attrs})


def duration(rec: dict) -> float:
    return rec["end"] - rec["start"]


def median_total(tracers: list[Tracer], name: str, **attrs) -> float:
    """Median over passes (one tracer per pass) of a span name's total."""
    return statistics.median(t.total(name, **attrs) for t in tracers)
