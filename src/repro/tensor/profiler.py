"""The engine profiler: forward and backward wall time, calls, and bytes
per (module, op).

:class:`EngineProfiler` is the one profiler of the engine and the object
``repro.perf.op_profile()`` yields.  It is an engine observer (the
protocol is described in docs/observability.md, "Engine observers"): it
sees every op output — taped *or* tape-free, so inference-mode forwards
and the fused scan kernels are fully attributable — and every backward
node.  With no observer installed the engine pays one emptiness test per
event.

Attribution model
-----------------
The numpy engine is serial: an op's numpy work happens immediately before
its ``Tensor._make`` call, and a backward node's work happens immediately
before its ``on_backward`` event.  Each event is therefore charged the
wall-clock interval since the *previous* event (or the last explicit
:meth:`mark`).  Pure-Python glue between events is charged to the
following one — an approximation, but one that sums to the true wall
time of the profiled region and ranks ops correctly on any
numpy-dominated workload.

Module attribution reuses ``Module.named_modules`` naming: the op
profiler pushes dotted module paths via :meth:`module_scope` while each
submodule's ``forward`` runs, and every op event is labelled with the
innermost open module.  A backward node is charged to the module that
was open when the node was taped.

Memory accounting
-----------------
- ``nbytes`` per row / per timeline event — bytes allocated for each op
  output (``out.nbytes``).
- ``taped_nodes`` / ``taped_bytes`` — nodes and output bytes pinned by
  the autodiff tape; the inference fast path must show zero of both.
- ``live_bytes`` / ``peak_bytes`` — bytes of profiled op outputs still
  reachable, tracked with ``weakref.finalize`` on the output arrays.
  Leaf tensors constructed directly from user data are not routed
  through ``_make`` and are therefore out of scope by design.

This file reads the wall clock once per profiler (``time.time``) to
anchor the monotonic ``perf_counter`` timeline to calendar time for
Chrome-trace export; the ``no-wallclock`` lint rule allowlists exactly
this file (see pyproject.toml).
"""

from __future__ import annotations

import contextlib
import weakref
from collections import deque
from time import perf_counter, time
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.tensor.tensor import Observer

#: module label attached to ops recorded outside any ``module_scope``
ROOT_MODULE = "(root)"

#: schema version of :meth:`EngineProfiler.as_dict` / the ``op_profile``
#: run-log event (bump on breaking layout changes)
OP_PROFILE_SCHEMA = 3

#: per-(module, op) aggregate fields, in cell order
_FIELDS = ("calls", "seconds", "nbytes", "taped", "backward_seconds")


class EngineProfiler(Observer):
    """Streaming per-(module, op) forward/backward time, calls and bytes.

    Parameters
    ----------
    timeline_capacity:
        Bound on retained raw op events for timeline export (aggregates
        are unaffected; the ring forgets the oldest events and counts
        them in ``dropped_events``).
    track_live:
        Register a ``weakref.finalize`` per op output to maintain
        ``live_bytes``/``peak_bytes``.  Costs one weakref per op while
        profiling; disable for pure-latency runs.
    """

    def __init__(self, timeline_capacity: int = 8192, track_live: bool = True) -> None:
        # fundamental store: (module, op) -> [calls, seconds, nbytes,
        # taped, backward_seconds] (see _FIELDS)
        self._cells: Dict[Tuple[str, str], List] = {}
        #: id(taped output) -> module open when it was taped
        self._node_modules: Dict[int, str] = {}
        self.taped_nodes = 0
        self.taped_bytes = 0
        self.live_bytes = 0
        self.peak_bytes = 0
        self.dropped_events = 0
        self.track_live = track_live
        self.events: deque = deque(maxlen=timeline_capacity)
        self._module_stack: List[str] = []
        self._mark: Optional[float] = None
        #: wall-clock seconds at ``perf_counter() == 0`` — anchors the
        #: monotonic timeline to calendar time for trace export
        self.wall_anchor = time() - perf_counter()

    # ------------------------------------------------------------------
    # engine events
    # ------------------------------------------------------------------
    def mark(self) -> None:
        """Reset the attribution clock at a scope boundary.

        Call when entering a profiled region so setup time before the
        first op is not charged to it.
        """
        self._mark = perf_counter()

    def _interval(self) -> Tuple[float, float]:
        now = perf_counter()
        start = self._mark if self._mark is not None else now
        self._mark = now
        return start, now

    def _cell(self, module: str, op: str) -> List:
        cell = self._cells.get((module, op))
        if cell is None:
            cell = self._cells[(module, op)] = [0, 0.0, 0, 0, 0.0]
        return cell

    def on_op(self, op: str, data: np.ndarray, parents, out) -> None:
        start, now = self._interval()
        nbytes = int(data.nbytes)
        module = self._module_stack[-1] if self._module_stack else ROOT_MODULE
        cell = self._cell(module, op)
        cell[0] += 1
        cell[1] += now - start
        cell[2] += nbytes
        taped = out.requires_grad
        if taped:
            cell[3] += 1
            self.taped_nodes += 1
            self.taped_bytes += nbytes
            self._node_modules[id(out)] = module
        if self.track_live and isinstance(data, np.ndarray):  # numpy scalars take no weakref
            self.live_bytes += nbytes
            if self.live_bytes > self.peak_bytes:
                self.peak_bytes = self.live_bytes
            weakref.finalize(data, self._on_free, nbytes)
        if len(self.events) == self.events.maxlen:
            self.dropped_events += 1
        self.events.append((op, module, start, now, nbytes, taped))

    def on_backward(self, node) -> None:
        start, now = self._interval()
        module = self._node_modules.get(id(node), ROOT_MODULE)
        self._cell(module, node._op)[4] += now - start

    def _on_free(self, nbytes: int) -> None:
        self.live_bytes -= nbytes

    # ------------------------------------------------------------------
    # module attribution
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def module_scope(self, name: str) -> Iterator[None]:
        """Label ops recorded inside the block with module ``name``."""
        self._module_stack.append(name)
        try:
            yield
        finally:
            self._module_stack.pop()

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    @property
    def total_calls(self) -> int:
        """Op outputs recorded while active."""
        return sum(cell[0] for cell in self._cells.values())

    @property
    def backward_seconds(self) -> float:
        return sum(cell[4] for cell in self._cells.values())

    @property
    def total_seconds(self) -> float:
        """Attributed wall time: forward plus backward."""
        return sum(cell[1] + cell[4] for cell in self._cells.values())

    @property
    def total_bytes(self) -> int:
        return sum(cell[2] for cell in self._cells.values())

    def rows(self) -> List[dict]:
        """Per-(module, op) aggregate rows, heaviest (forward + backward) first."""
        out = [
            {"module": module, "op": op, **dict(zip(_FIELDS, cell))}
            for (module, op), cell in self._cells.items()
        ]
        out.sort(key=lambda r: (-(r["seconds"] + r["backward_seconds"]), -r["nbytes"], r["op"]))
        return out

    def top_ops(self, n: int = 10) -> List[dict]:
        """Heaviest (module, op) rows by attributed wall time."""
        return self.rows()[:n]

    def _fold(self, index: int) -> Dict[str, dict]:
        folded: Dict[str, dict] = {}
        for key, cell in self._cells.items():
            agg = folded.setdefault(key[index], dict.fromkeys(_FIELDS, 0))
            for name, value in zip(_FIELDS, cell):
                agg[name] += value
        return folded

    def per_op(self) -> Dict[str, dict]:
        """Aggregates folded over modules, keyed by op name."""
        return self._fold(1)

    def per_module(self) -> Dict[str, dict]:
        """Aggregates folded over ops, keyed by dotted module path."""
        return self._fold(0)

    def timeline(self) -> List[dict]:
        """Retained raw op events (oldest first) for trace export."""
        return [
            {
                "op": op,
                "module": module,
                "start": start,
                "end": end,
                "nbytes": nbytes,
                "taped": taped,
            }
            for op, module, start, end, nbytes, taped in self.events
        ]

    def memory_stats(self) -> Dict[str, int]:
        """Byte-level accounting snapshot (all integers, gauge-ready)."""
        return {
            "allocated_bytes": self.total_bytes,
            "live_bytes": self.live_bytes,
            "peak_bytes": self.peak_bytes,
            "taped_nodes": self.taped_nodes,
            "taped_bytes": self.taped_bytes,
        }

    # ------------------------------------------------------------------
    # serialisation / rendering
    # ------------------------------------------------------------------
    def as_dict(self, top: int = 20, timeline: bool = True) -> dict:
        """The ``op_profile`` run-log event body (JSON-serialisable)."""
        payload = {
            "schema": OP_PROFILE_SCHEMA,
            "total_calls": self.total_calls,
            "total_seconds": self.total_seconds,
            "backward_seconds": self.backward_seconds,
            "total_tape_nodes": self.taped_nodes,
            "memory": self.memory_stats(),
            "per_op": self.per_op(),
            "per_module": self.per_module(),
            "top": self.top_ops(top),
            "dropped_events": self.dropped_events,
            "wall_anchor": self.wall_anchor,
        }
        if timeline:
            payload["timeline"] = self.timeline()
        return payload

    def summary(self, n: int = 15) -> str:
        """Fixed-width top-K table: op, module, calls, taped, fwd/bwd seconds, bytes."""
        header = (
            f"{'op':<18} {'module':<32} {'calls':>7} {'taped':>6} "
            f"{'fwd s':>10} {'bwd s':>10} {'MB':>8}"
        )
        rule = "-" * len(header)
        lines = [header, rule]
        for row in self.top_ops(n):
            lines.append(
                f"{row['op']:<18} {row['module']:<32.32} {row['calls']:>7d} {row['taped']:>6d} "
                f"{row['seconds']:>10.6f} {row['backward_seconds']:>10.6f} {row['nbytes'] / 1e6:>8.2f}"
            )
        lines.append(rule)
        mem = self.memory_stats()
        lines.append(
            f"{'total':<18} {'':<32} {self.total_calls:>7d} {self.taped_nodes:>6d} "
            f"{self.total_seconds - self.backward_seconds:>10.6f} {self.backward_seconds:>10.6f} "
            f"{self.total_bytes / 1e6:>8.2f}"
        )
        lines.append(
            f"taped: {mem['taped_nodes']} nodes / {mem['taped_bytes'] / 1e6:.2f} MB, "
            f"peak live {mem['peak_bytes'] / 1e6:.2f} MB"
        )
        return "\n".join(lines)
