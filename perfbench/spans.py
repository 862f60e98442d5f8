"""In-memory spans and counts, recorded around calls into detnet's layers.

A span is (name, op index, parent span id, start, end). Spans of one op share
its index; the parent is the span open when it started. Counts are one value
per call, kept with the op index so that a fixed prefix of ops can be summed
exactly whatever the run length.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int | None, float, float]] = []
        self.counts: dict[str, list[tuple[int, float]]] = defaultdict(list)
        self.op = -1
        self.scale: list[float] | None = None  # per-op speed factor, set after the run
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append((name, self.op, parent, perf_counter(), 0.0))
        self._open.append(index)
        try:
            yield
        finally:
            end = perf_counter()
            self._open.pop()
            name, op, parent, start, _ = self.spans[index]
            self.spans[index] = (name, op, parent, start, end)

    def count(self, name: str, value: float) -> None:
        self.counts[name].append((self.op, value))

    def _ms(self, op: int, start: float, end: float) -> float:
        return (end - start) * 1e3 * (self.scale[op] if self.scale else 1.0)

    def durations_ms(self, name: str) -> list[float]:
        return [self._ms(op, start, end) for n, op, _, start, end in self.spans if n == name]

    def median_ms(self, name: str) -> float:
        """Median duration of one call; 0 for a layer the workload never calls."""
        values = self.durations_ms(name)
        return statistics.median(values) if values else 0.0

    def per_op_ms(self, name: str) -> dict[int, float]:
        """Summed duration per op index."""
        totals: dict[int, float] = defaultdict(float)
        for n, op, _, start, end in self.spans:
            if n == name:
                totals[op] += self._ms(op, start, end)
        return totals

    def count_per_call(self, name: str, ops: int) -> float:
        """Mean value per call over op indices below `ops`; exact for a seed."""
        values = [v for op, v in self.counts.get(name, ()) if op < ops]
        return sum(values) / len(values) if values else 0.0
