"""The :class:`RunLogger` handle: one object the training stack emits into.

A ``RunLogger`` bundles a :class:`~repro.obs.tracer.Tracer`, a
:class:`~repro.obs.metrics.MetricRegistry`, an
:class:`AnomalyMonitor`, and any number of sinks.  Instrumented code
(``Trainer.fit``, ``run_experiment``, ``walk_forward``, ``grid_search``)
calls the same handful of methods whether telemetry is on or off:

- ``logger.span("forward")`` — nestable timing scope
- ``logger.event("epoch", epoch=3, train_loss=...)`` — structured event
- ``logger.observe("grad_norm", 2.4)`` / ``logger.count("clip_events")``
- ``logger.anomaly("nonfinite_loss", loss=float("nan"))``

When the logger is disabled (the module-level :data:`NULL_LOGGER`, or any
logger with only :class:`~repro.obs.sinks.NullSink` attached), every call
is a constant-time no-op and ``span`` returns a shared nullcontext — the
fused training-step hot path pays nothing.

``close()`` flushes two summary events (``spans`` and ``metrics``) so a
JSONL log contains the aggregate picture alongside the raw stream, then
closes the sinks.
"""

from __future__ import annotations

import contextlib
import math
import platform
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional, Union

from repro.obs.metrics import MetricRegistry
from repro.obs.sinks import ConsoleSink, JSONLSink, MemorySink, NullSink, Sink
from repro.obs.tracer import Tracer

_NULL_SPAN = contextlib.nullcontext()


# ----------------------------------------------------------------------
# run manifest
# ----------------------------------------------------------------------
def git_revision() -> Optional[str]:
    """Current git commit hash, or None outside a repo / without git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def build_manifest(**extra) -> Dict:
    """Environment fingerprint merged with caller-supplied run facts.

    Records everything needed to audit a benchmark number later: git
    revision, numpy version, python/platform, and whatever the caller
    passes (seed, model name, ``ExperimentSettings`` as a dict, ...).
    """
    import numpy

    manifest: Dict = {
        "git_rev": git_revision(),
        "numpy_version": numpy.__version__,
        "python_version": sys.version.split()[0],
        "platform": platform.platform(),
        "unix_time": time.time(),
    }
    manifest.update(extra)
    return manifest


# ----------------------------------------------------------------------
# anomaly detection
# ----------------------------------------------------------------------
class AnomalyMonitor:
    """Flags training pathologies as structured facts.

    Two families of checks:

    - **non-finite values** — NaN/Inf loss or gradient norm (the silent
      killers: one bad batch poisons Adam's moment buffers forever);
    - **exploding gradients** — grad norm exceeding both an absolute
      threshold and ``ratio`` x its own EWMA, so a healthy warm-up ramp
      does not alarm but a sudden 10x spike does.
    """

    def __init__(
        self,
        grad_norm_threshold: float = 1e3,
        grad_norm_ratio: float = 10.0,
        ewma_alpha: float = 0.2,
    ) -> None:
        self.grad_norm_threshold = grad_norm_threshold
        self.grad_norm_ratio = grad_norm_ratio
        self.ewma_alpha = ewma_alpha
        self._grad_ewma: Optional[float] = None
        self.flagged: int = 0

    def check_loss(self, value: float) -> Optional[Dict]:
        if not math.isfinite(value):
            self.flagged += 1
            return {"anomaly": "nonfinite_loss", "loss": value}
        return None

    def check_grad_norm(self, value: float) -> Optional[Dict]:
        if not math.isfinite(value):
            self.flagged += 1
            return {"anomaly": "nonfinite_grad_norm", "grad_norm": value}
        baseline = self._grad_ewma
        self._grad_ewma = value if baseline is None else (
            self.ewma_alpha * value + (1.0 - self.ewma_alpha) * baseline
        )
        if (
            baseline is not None
            and value > self.grad_norm_threshold
            and value > self.grad_norm_ratio * baseline
        ):
            self.flagged += 1
            return {
                "anomaly": "exploding_grad_norm",
                "grad_norm": value,
                "ewma": baseline,
                "ratio": value / baseline if baseline > 0 else float("inf"),
            }
        return None


# ----------------------------------------------------------------------
# the logger handle
# ----------------------------------------------------------------------
class RunLogger:
    """Telemetry handle threaded through the training stack."""

    def __init__(
        self,
        sinks: Iterable[Sink] = (),
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricRegistry] = None,
        anomaly_monitor: Optional[AnomalyMonitor] = None,
        clock=time.time,
    ) -> None:
        self.sinks: List[Sink] = list(sinks)
        self.tracer = tracer if tracer is not None else Tracer()
        if self.tracer.on_close is None:
            # stream each closed span into the sinks so `obs trace` can
            # rebuild the timeline (aggregates still land in close())
            self.tracer.on_close = self._emit_span
        self.metrics = metrics if metrics is not None else MetricRegistry()
        self.anomaly_monitor = (
            anomaly_monitor if anomaly_monitor is not None else AnomalyMonitor()
        )
        self._clock = clock
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """True when at least one attached sink consumes events."""
        return any(s.enabled for s in self.sinks)

    @staticmethod
    def null() -> "RunLogger":
        """The shared disabled logger (all calls are no-ops)."""
        return NULL_LOGGER

    def add_sink(self, sink: Sink) -> "RunLogger":
        if self is NULL_LOGGER:
            raise ValueError("NULL_LOGGER is shared and immutable; build a RunLogger instead")
        self.sinks.append(sink)
        return self

    def ensure_console(self) -> "RunLogger":
        """Attach a :class:`ConsoleSink` unless one is already present."""
        if not any(isinstance(s, ConsoleSink) for s in self.sinks):
            self.add_sink(ConsoleSink())
        return self

    # ------------------------------------------------------------------
    def event(self, kind: str, **fields) -> None:
        """Emit ``{"ts": ..., "kind": kind, **fields}`` to every sink."""
        if not self.enabled:
            return
        payload = {"ts": self._clock(), "kind": kind}
        payload.update(fields)
        for sink in self.sinks:
            if sink.enabled:
                sink.emit(payload)

    def span(self, name: str):
        """Timing scope; a shared no-op context when disabled."""
        if not self.enabled:
            return _NULL_SPAN
        return self.tracer.span(name)

    def _emit_span(self, record) -> None:
        """Tracer ``on_close`` target: one ``span`` event per closed span.

        Start/end are monotonic ``perf_counter`` seconds — consistent
        within a process, which is all the Chrome-trace export needs.
        """
        if not self.enabled:
            return
        self.event(
            "span",
            name=record.name,
            path=record.path,
            depth=record.depth,
            start=record.start,
            end=record.end,
        )

    # metric sugar ------------------------------------------------------
    def observe(self, name: str, value: Optional[float]) -> None:
        if not self.enabled or value is None:
            return
        self.metrics.histogram(name).observe(value)

    def count(self, name: str, n: int = 1) -> None:
        if not self.enabled:
            return
        self.metrics.counter(name).inc(n)

    def gauge(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        self.metrics.gauge(name).set(value)

    # anomaly sugar -----------------------------------------------------
    def anomaly(self, kind: str, **fields) -> None:
        """Emit an ``anomaly`` event and count it."""
        if not self.enabled:
            return
        self.count("anomalies")
        self.event("anomaly", anomaly=kind, **fields)

    def check_loss(self, value: float) -> bool:
        """True (and emits an anomaly event) when the loss is non-finite."""
        if not self.enabled:
            return not math.isfinite(value)
        finding = self.anomaly_monitor.check_loss(value)
        if finding is not None:
            self.count("anomalies")
            self.event("anomaly", **finding)
            return True
        return False

    def check_grad_norm(self, value: float) -> bool:
        """True when the grad norm is non-finite; exploding norms are
        reported but return False (the step is still usable)."""
        if not self.enabled:
            return not math.isfinite(value)
        finding = self.anomaly_monitor.check_grad_norm(value)
        if finding is not None:
            self.count("anomalies")
            self.event("anomaly", **finding)
            return finding["anomaly"] == "nonfinite_grad_norm"
        return False

    # structured helpers ------------------------------------------------
    def record_cache_stats(self) -> None:
        """Gauge the engine's BufferArena and PlanCache hit/miss/slot stats.

        Lazy-imports the engine so ``repro.obs`` stays importable without
        it; called automatically by :meth:`close` so every run log's
        ``metrics`` event (and hence ``obs report``) carries the numbers
        that previously only surfaced inside ``BENCH_inference.json``.
        """
        if not self.enabled:
            return
        from repro.tensor import get_arena, plan_cache

        for key, value in get_arena().stats().items():
            self.gauge(f"arena.{key}", value)
        for key, value in plan_cache().stats().items():
            self.gauge(f"plan_cache.{key}", value)

    def record_memory(self, profile) -> None:
        """Gauge an op-level profiler's byte accounting.

        Accepts anything with ``memory_stats()`` (duck-typed on
        :class:`repro.tensor.profiler.EngineProfiler` so ``repro.obs``
        never imports the engine): live/peak tensor bytes, cumulative
        allocated bytes, and tape-node count/bytes.
        """
        if not self.enabled:
            return
        for key, value in profile.memory_stats().items():
            self.gauge(f"mem.{key}", value)

    def log_manifest(self, **fields) -> None:
        """Emit the run manifest (should be the first event of a run)."""
        if not self.enabled:
            return
        self.event("manifest", **build_manifest(**fields))

    def record_op_profile(self, profile) -> None:
        """Bridge an op profile (:func:`repro.perf.op_profile`) into the registry.

        Accepts anything with ``taped_nodes``/``as_dict()`` (duck-typed so
        ``repro.obs`` never imports ``repro.perf``).
        """
        if not self.enabled:
            return
        self.metrics.histogram("tape_nodes").observe(profile.taped_nodes)
        self.event("op_profile", **profile.as_dict())

    # lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Flush span/metric summary events and close all sinks."""
        if self._closed or self is NULL_LOGGER:
            return
        if self.enabled:
            self.record_cache_stats()
            if self.tracer.seconds:
                self.event("spans", spans=self.tracer.as_dict())
            snapshot = self.metrics.snapshot()
            if snapshot:
                self.event("metrics", metrics=snapshot)
        for sink in self.sinks:
            sink.close()
        self._closed = True

    def __enter__(self) -> "RunLogger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: Shared disabled logger — the default everywhere telemetry is optional.
NULL_LOGGER = RunLogger(sinks=(NullSink(),))


def run_logger(
    jsonl_path: Union[str, "Path", None] = None,
    console: bool = False,
    memory: Optional[int] = None,
    manifest: Optional[Dict] = None,
) -> RunLogger:
    """Build a :class:`RunLogger` from the common sink recipes.

    Parameters
    ----------
    jsonl_path: write a JSONL event log (manifest first when given).
    console: attach a :class:`ConsoleSink` (epoch/anomaly lines).
    memory: attach a :class:`MemorySink` with this capacity.
    manifest: extra manifest fields, emitted immediately.
    """
    sinks: List[Sink] = []
    if jsonl_path is not None:
        sinks.append(JSONLSink(jsonl_path))
    if console:
        sinks.append(ConsoleSink())
    if memory is not None:
        sinks.append(MemorySink(capacity=memory))
    if not sinks:
        return NULL_LOGGER
    logger = RunLogger(sinks=sinks)
    if manifest is not None:
        logger.log_manifest(**manifest)
    return logger
