"""In-memory spans, self time and percentile helpers for the benchmark.

Spans are recorded around calls into the package's public stage functions
from the benchmark's own code; nothing inside the package is instrumented.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from time import thread_time
from typing import Callable, Iterator, NamedTuple, Sequence

# Every time the benchmark reports is CPU time of the one thread that runs the
# program.  Wall time also counts the time other processes hold the cores: two
# busy loops beside the benchmark nearly doubled its requests' wall time.
clock = thread_time

# A tail percentile is reported only where at least this many samples lie
# beyond it; fewer would make it the maximum of a handful of ops.
TAIL_SAMPLES = 10


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same list, -1 for a root
    request: int  # request id shared by every span of one request, -1 in setup


class Tracer:
    """Collects spans in memory; a disabled tracer only calls through."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span | None] = []
        self.request = -1
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(None)
        self._open.append(index)
        start = clock()
        try:
            yield
        finally:
            end = clock()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, self.request)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named after the stage it is."""
        with self.span(name):
            return fn(*args, **kwargs)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap each other or stick out of their parent; only the
    union of their intervals clipped to the parent is subtracted.
    """
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        reach = s.start
        for a, b in sorted(kids):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append((s.end - s.start) - covered)
    return out


def self_time_by_name(spans: Sequence[Span]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        totals[s.name] = totals.get(s.name, 0.0) + t
    return totals


def percentile(values: Sequence[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(count: int, wanted: int = 90) -> int | None:
    """Highest whole percentile up to ``wanted`` with TAIL_SAMPLES ops beyond it.

    None when even the median would have fewer than TAIL_SAMPLES beyond it.
    """
    if count <= 0:
        return None
    q = min(wanted, math.floor(100 * (count - TAIL_SAMPLES) / count))
    return q if q >= 50 else None
