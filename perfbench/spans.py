"""In-memory span recorder for the traced mode of the benchmark.

Spans are opened by the benchmark's own code around each call it makes
into a fourthorder layer; nothing inside the program is instrumented.
Each span keeps (round, name, start, end, parent), is held in memory,
and is summarized or written out only after the timed rounds.
"""
from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class NullTracer:
    """Tracer of the untraced rounds: every span is a no-op."""

    def span(self, name: str):
        return nullcontext()


class Tracer:
    """Records nested spans; spans of one round share its index."""

    def __init__(self, round_index: int):
        self.round_index = round_index
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [self.round_index, name, time.perf_counter(), None, self._open[-1] if self._open else None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._open.pop()


def span_cost_s(calls: int = 20000) -> float:
    """Bookkeeping cost of one empty span, measured in this process."""
    tracer = Tracer(-1)
    start = time.perf_counter()
    for _ in range(calls):
        with tracer.span("calibration"):
            pass
    return (time.perf_counter() - start) / calls


def self_times(spans) -> dict:
    """Per span name: call count and total self time in seconds.

    A span's self time is its duration minus the durations of its direct
    children; calls here are sequential, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict = {}
    for k, (_, name, start, end, _) in enumerate(spans):
        entry = out.setdefault(name, {"count": 0, "self_s": 0.0})
        entry["count"] += 1
        entry["self_s"] += (end - start) - child_time[k]
    return out
