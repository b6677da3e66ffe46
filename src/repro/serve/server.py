"""The forecast-serving front-end: cache, batcher, pool, telemetry.

:class:`ForecastServer` is the composition root of :mod:`repro.serve`
(architecture in docs/serving.md):

1. :meth:`submit` checks the LRU forecast cache; a hit resolves the
   future immediately (``cached=True``) without touching a queue.
2. A miss routes to the series' worker shard, where the micro-batcher
   coalesces it with concurrent requests into one batched forward
   through the active :class:`~repro.serve.registry.ModelVersion`.
3. If batching is disabled, the shard's worker has died, or the pool is
   shutting down, the request is served inline on the calling thread —
   the **degraded path**: same model, same answer, batch of one.

Every response is a :class:`~repro.serve.batcher.ForecastResponse`
(``status`` ok/timeout/error) — callers never catch exceptions off the
future.  SLO telemetry flows through a :class:`repro.obs.MetricRegistry`
(``serve.latency_seconds`` / ``serve.batch_size`` histograms with
p50/p95, ``serve.queue_depth`` / ``serve.workers_alive`` /
``serve.cache_hit_rate`` gauges) and, when a
:class:`~repro.obs.RunLogger` is attached, as gauges/events in the run
log — ``obs report`` renders a serving run like any training run.

Consistency contract: a forecast is a pure function of (model version,
series history, horizon).  Cache entries are keyed on the history length
the window was read at, so a forward racing an ingest can only cache
under the old length, which no later lookup asks for.  Ingestion also
drops the series' cache entries; hot-swap drops the outgoing version's.
Batched and unbatched paths produce element-wise identical forecasts
(tests/test_properties.py), so a degraded server is slower, never wrong.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Dict, Optional, Union

import numpy as np

from repro.analysis.dataflow import inference_entry
from repro.obs import MetricRegistry, RunLogger
from repro.serve.batcher import ForecastResponse, PendingRequest
from repro.serve.cache import ForecastCache
from repro.serve.clock import Clock, MonotonicClock
from repro.serve.pool import WorkerPool
from repro.serve.registry import ModelRegistry, ModelVersion
from repro.serve.store import RequestWindow, SeriesStore

__all__ = ["ForecastServer"]


class ForecastServer:
    """Concurrent forecast serving over a model registry and series store."""

    def __init__(
        self,
        registry: ModelRegistry,
        store: SeriesStore,
        n_workers: int = 2,
        max_batch: int = 8,
        max_delay: float = 0.002,
        cache_capacity: int = 1024,
        cache_enabled: bool = True,
        batching: bool = True,
        clock: Optional[Clock] = None,
        logger: Optional[RunLogger] = None,
    ) -> None:
        if registry.spec.n_dims != store.n_dims:
            raise ValueError(
                f"registry serves {registry.spec.n_dims}-dim series, store holds {store.n_dims}"
            )
        self.registry = registry
        self.store = store
        #: canonical kernel batch shape — every forward (batched, degraded,
        #: warm-up) pads to this, so all request paths are bit-identical
        self.max_batch = max_batch
        self.clock = clock if clock is not None else MonotonicClock()
        self.cache = ForecastCache(cache_capacity)
        self.cache_enabled = cache_enabled
        self.logger = logger if logger is not None else RunLogger.null()
        self.metrics = MetricRegistry()
        # latency percentiles over a wide window so a bench run's p95
        # reflects the whole run, not the last few hundred requests
        self._latency = self.metrics.histogram("serve.latency_seconds", window=4096)
        self._batch_size = self.metrics.histogram("serve.batch_size", window=4096)
        self._closed = False
        self._lock = threading.Lock()
        self.requests = 0
        self.degraded_requests = 0
        self.timeouts = 0
        self.errors = 0
        registry.on_swap(self._on_swap)
        self.pool: Optional[WorkerPool] = None
        if batching:
            self.pool = WorkerPool(
                n_workers,
                self.clock,
                handler=self._process_batch,
                rescue=self._serve_degraded,
                expire=self._expire,
                max_batch=max_batch,
                max_delay=max_delay,
            )

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    @inference_entry
    def submit(
        self,
        series_id: str,
        horizon: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> "Future[ForecastResponse]":
        """Enqueue one forecast request; returns a resolvable future.

        ``horizon`` defaults to (and is capped by) the model's
        ``pred_len``; ``timeout`` seconds (clock-relative) becomes an
        absolute deadline — a request that cannot be answered in time
        resolves with ``status="timeout"`` instead of blocking forever.
        """
        now = self.clock.now()
        spec = self.registry.spec
        horizon = spec.pred_len if horizon is None else int(horizon)
        pending = PendingRequest(
            series_id=series_id,
            horizon=horizon,
            enqueued_at=now,
            deadline=None if timeout is None else now + timeout,
        )
        with self._lock:
            self.requests += 1
        if self._closed:
            self._resolve_error(pending, "server is shut down")
            return pending.future
        if horizon < 1 or horizon > spec.pred_len:
            self._resolve_error(pending, f"horizon must be in [1, {spec.pred_len}], got {horizon}")
            return pending.future
        if self.cache_enabled:
            version = self.registry.current()
            hit = self.cache.get(version.version, series_id, horizon, self.store.length(series_id))
            if hit is not None:
                pending.future.set_result(
                    ForecastResponse(
                        series_id=series_id,
                        horizon=horizon,
                        status="ok",
                        forecast=hit,
                        model_version=version.version,
                        cached=True,
                        latency=self.clock.now() - now,
                    )
                )
                return pending.future
        if self.pool is not None and self.pool.submit(pending):
            self.metrics.gauge("serve.queue_depth").set(self.pool.depth())
            return pending.future
        self._serve_degraded(pending)
        return pending.future

    def forecast(
        self,
        series_id: str,
        horizon: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> ForecastResponse:
        """Blocking :meth:`submit` (the one-caller convenience path)."""
        return self.submit(series_id, horizon=horizon, timeout=timeout).result()

    # ------------------------------------------------------------------
    # batch execution (worker threads)
    # ------------------------------------------------------------------
    def _process_batch(self, batch) -> None:
        """Serve one coalesced batch with a single forward."""
        now = self.clock.now()
        version = self.registry.current()
        live = []
        windows = []
        for pending in batch:
            if pending.expired(now):
                self._expire(pending)
                continue
            window = self._assemble(pending)
            if window is not None:
                live.append(pending)
                windows.append(window)
        if not live:
            return
        spec = self.registry.spec
        forecasts = version.forecast_batch(
            np.stack([w.x_enc for w in windows]),
            np.stack([w.x_mark for w in windows]),
            np.stack([w.x_dec for w in windows]),
            np.stack([w.y_mark for w in windows]),
            pad_to=self.max_batch,
        )
        self._batch_size.observe(len(live))
        done = self.clock.now()
        for pending, window, forecast in zip(live, windows, forecasts):
            self._deliver(pending, window, forecast, version, batch_size=len(live), done=done)
        if self.pool is not None:
            self.metrics.gauge("serve.queue_depth").set(self.pool.depth())

    def _serve_degraded(self, pending: PendingRequest, error: Optional[Exception] = None) -> None:
        """Unbatched fallback: same forward, batch of one, calling thread.

        Used when batching is off, a worker died (rescue), or shutdown
        drains a queue.  ``error`` carries a handler exception from a
        failed batch — after one retry-as-degraded fails again, the
        request resolves with that error instead of looping.
        """
        with self._lock:
            self.degraded_requests += 1
        if pending.expired(self.clock.now()):
            self._expire(pending)
            return
        window = self._assemble(pending)
        if window is None:
            return
        version = self.registry.current()
        try:
            forecast = version.forecast_batch(
                window.x_enc[None], window.x_mark[None], window.x_dec[None], window.y_mark[None],
                pad_to=self.max_batch,
            )[0]
        except Exception as exc:
            self._resolve_error(pending, f"degraded forward failed: {exc}" if error is None else str(error))
            return
        self._batch_size.observe(1)
        self._deliver(pending, window, forecast, version, batch_size=1, done=self.clock.now(), degraded=True)

    # ------------------------------------------------------------------
    # request resolution helpers
    # ------------------------------------------------------------------
    def _assemble(self, pending: PendingRequest):
        """The request's model-input window, or None after resolving the
        future with an error (unknown series, too-short history)."""
        spec = self.registry.spec
        try:
            return self.store.window(pending.series_id, spec.input_len, spec.label_len, spec.pred_len)
        except (KeyError, ValueError) as exc:
            self._resolve_error(pending, str(exc))
            return None

    def _deliver(
        self,
        pending: PendingRequest,
        window: RequestWindow,
        forecast: np.ndarray,
        version: ModelVersion,
        batch_size: int,
        done: float,
        degraded: bool = False,
    ) -> None:
        sliced = forecast[: pending.horizon]
        if self.cache_enabled:
            sliced = self.cache.put(version.version, pending.series_id, pending.horizon, window.length, sliced)
        else:
            sliced = np.array(sliced, copy=True)
        latency = done - pending.enqueued_at
        self._latency.observe(latency)
        pending.future.set_result(
            ForecastResponse(
                series_id=pending.series_id,
                horizon=pending.horizon,
                status="ok",
                forecast=sliced,
                model_version=version.version,
                batch_size=batch_size,
                degraded=degraded,
                latency=latency,
            )
        )

    def _expire(self, pending: PendingRequest) -> None:
        with self._lock:
            self.timeouts += 1
        self.logger.anomaly("serve_timeout", series_id=pending.series_id, horizon=pending.horizon)
        pending.future.set_result(
            ForecastResponse(
                series_id=pending.series_id,
                horizon=pending.horizon,
                status="timeout",
                latency=self.clock.now() - pending.enqueued_at,
                error="deadline exceeded",
            )
        )

    def _resolve_error(self, pending: PendingRequest, message: str) -> None:
        with self._lock:
            self.errors += 1
        pending.future.set_result(
            ForecastResponse(
                series_id=pending.series_id,
                horizon=pending.horizon,
                status="error",
                latency=self.clock.now() - pending.enqueued_at,
                error=message,
            )
        )

    # ------------------------------------------------------------------
    # data + model lifecycle
    # ------------------------------------------------------------------
    def ingest(self, series_id: str, values: np.ndarray) -> int:
        """Append observations and invalidate the series' cached forecasts."""
        length = self.store.ingest(series_id, values)
        dropped = self.cache.invalidate_series(series_id)
        if dropped:
            self.metrics.counter("serve.cache_invalidations").inc(dropped)
        return length

    def hot_swap(
        self,
        version: str,
        checkpoint_dir: Union[str, None] = None,
        model=None,
        warm: bool = True,
    ) -> ModelVersion:
        """Load/publish ``version`` cold, warm it, then swap atomically.

        The new model is fully built, checkpoint-restored, dtype-cast,
        and (by default) warmed with one real forward — populating the
        plan cache for the serving geometry — *before* the registry's
        current pointer flips.  In-flight batches finish on the version
        they resolved; the swap listener invalidates the old version's
        cache entries.
        """
        if (checkpoint_dir is None) == (model is None):
            raise ValueError("pass exactly one of checkpoint_dir or model")
        if model is not None:
            pinned = self.registry.publish(version, model, activate=False)
        else:
            pinned = self.registry.load(version, checkpoint_dir, activate=False)
        if warm:
            self._warm(pinned)
        self.registry.activate(version)
        return pinned

    def _warm(self, pinned: ModelVersion) -> None:
        series = self.store.series_ids()
        spec = self.registry.spec
        for series_id in series:
            if self.store.length(series_id) >= spec.input_len:
                window = self.store.window(series_id, spec.input_len, spec.label_len, spec.pred_len)
                pinned.forecast_batch(
                    window.x_enc[None], window.x_mark[None], window.x_dec[None], window.y_mark[None],
                    pad_to=self.max_batch,
                )
                return

    def _on_swap(self, old_version: Optional[str], new_version: str) -> None:
        dropped = 0
        if old_version is not None:
            dropped = self.cache.invalidate_version(old_version)
            if dropped:
                self.metrics.counter("serve.cache_invalidations").inc(dropped)
        self.logger.event(
            "model_swapped", old=old_version, new=new_version, invalidated=dropped
        )

    # ------------------------------------------------------------------
    # lifecycle / introspection
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Graceful: refuse new work, drain every queue, join workers."""
        self._closed = True
        if self.pool is not None:
            self.pool.close()
        self._record_gauges()

    def __enter__(self) -> "ForecastServer":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def _record_gauges(self) -> None:
        self.metrics.gauge("serve.cache_hit_rate").set(self.cache.hit_rate())
        if self.pool is not None:
            self.metrics.gauge("serve.workers_alive").set(self.pool.alive_count())
            self.metrics.gauge("serve.queue_depth").set(self.pool.depth())
        for name, value in (
            ("serve.requests", self.requests),
            ("serve.degraded", self.degraded_requests),
            ("serve.timeouts", self.timeouts),
            ("serve.errors", self.errors),
        ):
            self.logger.gauge(name, value)

    def stats(self) -> Dict[str, object]:
        """One JSON-able snapshot of every serving-side counter and SLO."""
        self._record_gauges()
        latency = self._latency
        return {
            "requests": self.requests,
            "degraded_requests": self.degraded_requests,
            "timeouts": self.timeouts,
            "errors": self.errors,
            "latency": {
                "count": latency.count,
                "p50": latency.quantile(0.5),
                "p95": latency.quantile(0.95),
                "mean": latency.mean if latency.count else None,
            },
            "batch_size": {
                "count": self._batch_size.count,
                "mean": self._batch_size.mean if self._batch_size.count else None,
                "max": self._batch_size.max,
            },
            "cache": self.cache.stats(),
            "pool": self.pool.stats() if self.pool is not None else None,
            "registry": self.registry.stats(),
        }
