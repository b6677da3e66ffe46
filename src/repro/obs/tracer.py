"""Nestable named tracing spans with hierarchical wall-clock aggregation.

A :class:`Tracer` times ``with tracer.span("epoch"): ...`` blocks.  Spans
nest: a span opened inside another is keyed by its slash-joined path
(``fit/epoch/batch/forward``), so the report can attribute time per stage
of the data-gen → window → epoch → batch → forward/backward/step
pipeline.  Aggregation is streaming — only per-path totals and a bounded
ring of recent raw :class:`SpanRecord` rows are retained, so a tracer can
run for millions of batches without growing.

``Tracer(flat=True)`` keys by leaf name only — coarse named sections such
as the checkpoint manager's encode/write timers.
"""

from __future__ import annotations

import contextlib
from collections import Counter, deque
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional


@dataclass(frozen=True)
class SpanRecord:
    """One closed span: its path, depth, and wall-clock extent."""

    name: str
    path: str
    depth: int
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Aggregate wall-clock time of named, nestable spans.

    Parameters
    ----------
    flat:
        Key aggregates by leaf name instead of the full nested path.
    max_records:
        Bound on retained raw :class:`SpanRecord` rows (aggregates are
        unaffected; the ring simply forgets the oldest spans).
    on_close:
        Optional callback invoked with each :class:`SpanRecord` as the
        span closes — the :class:`~repro.obs.runlog.RunLogger` uses this
        to stream span events into sinks.
    """

    def __init__(
        self,
        flat: bool = False,
        max_records: int = 1024,
        on_close: Optional[Callable[[SpanRecord], None]] = None,
        clock: Callable[[], float] = perf_counter,
    ) -> None:
        self.flat = flat
        self.seconds: Dict[str, float] = {}
        self.calls: Counter = Counter()
        self.records: deque = deque(maxlen=max_records)
        self.on_close = on_close
        self._clock = clock
        self._stack: List[str] = []

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Current nesting depth (0 outside any span)."""
        return len(self._stack)

    def current_path(self) -> str:
        """Slash-joined path of the innermost open span ('' when idle)."""
        return "/".join(self._stack)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[SpanRecord]:
        """Time the enclosed block under ``name`` (nested under open spans)."""
        self._stack.append(name)
        path = name if self.flat else "/".join(self._stack)
        depth = len(self._stack) - 1
        start = self._clock()
        try:
            yield SpanRecord(name=name, path=path, depth=depth, start=start, end=start)
        finally:
            end = self._clock()
            self._stack.pop()
            self.seconds[path] = self.seconds.get(path, 0.0) + (end - start)
            self.calls[path] += 1
            record = SpanRecord(name=name, path=path, depth=depth, start=start, end=end)
            self.records.append(record)
            if self.on_close is not None:
                self.on_close(record)

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """``{path: {"seconds": float, "calls": int}}`` aggregates."""
        return {
            path: {"seconds": self.seconds[path], "calls": self.calls[path]}
            for path in self.seconds
        }

    def merge(self, other: "Tracer") -> None:
        """Fold another tracer's aggregates into this one."""
        for path, seconds in other.seconds.items():
            self.seconds[path] = self.seconds.get(path, 0.0) + seconds
        self.calls.update(other.calls)

    def summary(self) -> str:
        """Fixed-width table of aggregated span times, heaviest first."""
        lines = [f"{'span':<32} {'calls':>8} {'seconds':>12} {'mean ms':>10}", "-" * 66]
        for path in sorted(self.seconds, key=lambda p: -self.seconds[p]):
            calls = self.calls[path]
            seconds = self.seconds[path]
            mean_ms = (seconds / calls) * 1e3 if calls else 0.0
            lines.append(f"{path:<32} {calls:>8d} {seconds:>12.6f} {mean_ms:>10.3f}")
        return "\n".join(lines)
