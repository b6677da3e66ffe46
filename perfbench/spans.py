"""In-memory span recording for the traced benchmark run.

A span is one call into a layer: name, start, end, parent span, thread
and (for served requests) a request id.  Spans are appended to a list in
memory and written out once, when the run ends, beside the run's counts
(tape nodes, cache hits, bytes).

The untraced runs use :data:`OFF`, whose ``span`` is a shared no-op
context, and wrap no method of the program, so the end-to-end numbers
carry no tracing cost.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

_NULL = contextlib.nullcontext()


class NullTracer:
    """Tracing off: every hook is a no-op."""

    enabled = False

    def span(self, name: str, rid: Optional[int] = None):
        return _NULL


OFF = NullTracer()


class Tracer:
    """Records spans from any thread; safe to share."""

    enabled = True

    def __init__(self) -> None:
        # list.append is atomic under the interpreter lock, so worker
        # threads append without a lock of their own
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, rid: Optional[int] = None):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, rid, threading.get_ident()))

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a ``name`` span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def record(self, name: str, start: float, end: float, rid: Optional[int] = None) -> None:
        """A span measured elsewhere (e.g. a request's time in a queue)."""
        self.spans.append((next(self._ids), name, start, end, 0, rid, 0))

    # ------------------------------------------------------------------
    def layer_times(self, since: float = float("-inf"), until: float = float("inf")) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds of the
        spans that start within [``since``, ``until``].

        Self time is a span's duration minus the time its direct child
        spans cover.  Children of one span run on its thread and nest,
        so they never overlap and their durations simply add.
        """
        spans = [s for s in self.spans if since <= s[2] <= until]
        child_seconds: Dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _, _ in spans:
            if parent:
                child_seconds[parent] += end - start
        table: Dict[str, Dict[str, float]] = {}
        for span_id, name, start, end, _, _, _ in spans:
            row = table.setdefault(name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0})
            row["calls"] += 1
            row["seconds"] += end - start
            row["self_seconds"] += end - start - child_seconds.get(span_id, 0.0)
        return table

    def write(self, path: Path, counts: dict, summary: dict) -> Path:
        """Write spans, counts and the per-layer summary as one JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s[2] for s in self.spans), default=0.0)
        payload = {
            "spans": [
                {
                    "id": span_id,
                    "name": name,
                    "start_ms": (start - origin) * 1e3,
                    "end_ms": (end - origin) * 1e3,
                    "parent": parent,
                    "rid": rid,
                    "thread": thread,
                }
                for span_id, name, start, end, parent, rid, thread in self.spans
            ],
            "counts": counts,
            "summary": summary,
        }
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path


def per_unit_ms(table: Dict[str, Dict[str, float]], names, units: int, inclusive: bool = False) -> float:
    """Milliseconds per unit of work spent in the spans ``names``."""
    key = "seconds" if inclusive else "self_seconds"
    total = sum(table.get(name, {}).get(key, 0.0) for name in names)
    return 1e3 * total / units if units else 0.0
