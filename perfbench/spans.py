"""In-memory spans around layer entry points, and the arithmetic on them.

A :class:`SpanLog` wraps callables so each call records one :class:`Span`
(layer name, start, end, parent span).  Spans nest by call stack on the one
driving thread.  A layer's *self time* is its spans' duration minus the
time their child spans cover; self times of every layer add up to the
duration of the top-level spans.
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple

__all__ = ["Span", "SpanLog", "layer_self_ns", "samples_beyond", "self_times",
           "tail_supported"]

MIN_TAIL_SAMPLES = 10


class Span(NamedTuple):
    layer: str
    start_ns: int
    end_ns: int
    parent: int          # index of the enclosing span, -1 at top level
    tag: object = None   # layer-specific detail (GEMM name and columns)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class SpanLog:
    """Records a span per call of every wrapped callable."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.gemm_calls: list[tuple[str, int, object]] = []
        self.last_start_ns: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, layer: str, fn):
        spans, stack, last = self.spans, self._stack, self.last_start_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter_ns()
            last[layer] = start
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = Span(layer, start, time.perf_counter_ns(), parent)
                stack.pop()
        return traced

    def wrap_gemm(self, layer: str, gemm):
        """Wrap a ``gemm(name, flat) -> (y, stats)`` callable; the span is
        tagged ``(name, columns)`` and the returned stats are kept for the
        correctness check, which runs after the timed region."""
        spans, stack, calls = self.spans, self._stack, self.gemm_calls

        def traced(name, flat):
            start = time.perf_counter_ns()
            y, stats = gemm(name, flat)
            end = time.perf_counter_ns()
            cols = flat.shape[1]
            spans.append(Span(layer, start, end,
                              stack[-1] if stack else -1, (name, cols)))
            calls.append((name, cols, stats))
            return y, stats
        return traced


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.duration_ns for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration_ns
    return out


def layer_self_ns(spans: list[Span]) -> dict[str, int]:
    """Self time summed per layer name."""
    totals: dict[str, int] = {}
    for s, own in zip(spans, self_times(spans), strict=True):
        totals[s.layer] = totals.get(s.layer, 0) + own
    return totals


def samples_beyond(n: int, q: float) -> int:
    """Samples above the ``q``-th percentile of ``n`` samples."""
    return math.floor(n * (100.0 - q) / 100.0 + 1e-9)


def tail_supported(n: int, q: float) -> bool:
    """A percentile is reported only with at least ten samples beyond it."""
    return samples_beyond(n, q) >= MIN_TAIL_SAMPLES
