"""In-memory spans recorded around the benchmark's calls into each layer.

The benchmark opens a span around every public call it makes into a
layer (``data``, ``graph``, ``core``, ``engine``, ``ingest``, ``query``,
``serve``, ``cli``); nothing inside the program is instrumented. Spans
stay in memory until the run ends. A disabled recorder opens no spans at
all, so the untraced run pays one attribute test per call site.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    span_id: int
    name: str
    trace_id: int
    parent_id: Optional[int]
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(interval: Tuple[float, float],
            children: Sequence[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``;
    overlapping children count once."""
    low, high = interval
    clipped = sorted((max(start, low), min(end, high))
                     for start, end in children)
    total = 0.0
    reach = low
    for start, end in clipped:
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class Recorder:
    """Spans (name, start, end, parent, trace) plus per-layer counts."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self.counts: Dict[str, List[float]] = {}
        self._local = threading.local()
        self._next_id = 0
        self._next_trace = 0
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def active(self) -> bool:
        """Recording in this thread (enabled and not paused)?"""
        return self.enabled and not getattr(self._local, "paused", False)

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Record nothing from this thread inside the block — the traced
        run's untraced operations, for ``trace.overhead_ratio``."""
        previous = getattr(self._local, "paused", False)
        self._local.paused = True
        try:
            yield
        finally:
            self._local.paused = previous

    @contextmanager
    def span(self, name: str) -> Iterator[Optional[Span]]:
        """Record ``name`` around the block; the outermost span of a
        thread starts a new trace, nested ones join their parent's."""
        if not self.active:
            yield None
            return
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            if stack:
                trace_id = stack[-1].trace_id
            else:
                trace_id = self._next_trace
                self._next_trace += 1
        span = Span(span_id, name, trace_id,
                    stack[-1].span_id if stack else None,
                    time.perf_counter())
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def count(self, name: str, value: float) -> None:
        """Record one work count (rows, nodes, bytes) at a boundary."""
        if self.active:
            self.counts.setdefault(name, []).append(value)

    def durations_ms(self, name: str) -> List[float]:
        return [span.duration * 1000.0 for span in self.spans
                if span.name == name]

    def self_times_ms(self, name: str) -> List[float]:
        """Each ``name`` span's duration minus what its children cover."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent_id is not None:
                children.setdefault(span.parent_id, []).append(
                    (span.start, span.end))
        return [(span.duration - covered(
                    (span.start, span.end),
                    children.get(span.span_id, []))) * 1000.0
                for span in self.spans if span.name == name]
