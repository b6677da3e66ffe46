"""``serve`` workload: open-loop reads and writes against ``ForecastServer``.

One generator (this process's main thread) replays a seeded Poisson
schedule of operations against a ``ForecastServer`` (2 workers,
``max_batch`` 8, cache on) serving the canonical tiny Conformer in
float32.  Reads (``submit``) pick a series by a Zipf popularity over more
series than the cache holds; writes (``ingest`` of the series' next
observation) follow the same popularity, so every write invalidates the
cached forecast of a series that is likely to be read again.

The schedule is replayed at each rate of a fixed ladder.  Every rung gets
a fresh store and server and the same operation sequence, only faster or
slower, so every rung starts from the same cache state; the first
``WARM_SHARE`` of each rung's operations fill the cache and the queues and
are not measured.  A read is timed from the moment it was due to the
moment its future completed, on this process's clock.

Check: a sampled share of ok responses must equal, bit for bit, a direct
``ModelVersion.forecast_batch(..., pad_to=max_batch)`` on one of the
histories the series had between the read's submit and its completion.
A cached forecast that predates an ``ingest`` is therefore wrong.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from time import perf_counter, sleep
from typing import Dict, List

import numpy as np

from repro.data import load_dataset
from repro.serve import ForecastServer, ModelRegistry, SeriesStore, ServingSpec
from repro.tensor import tape_node_count
from repro.training import PROFILES, build_model

from perfbench.common import Outcome, percentile
from perfbench.layers import (
    conformer_modules,
    engine_counters,
    engine_layer_metrics,
    instrument,
    instrument_conformer,
    uninstrument,
)
from perfbench.spans import OFF

PRED_LEN = 12
N_WORKERS = 2
MAX_BATCH = 8
N_SERIES = 256
CACHE_CAPACITY = 32
ZIPF_EXPONENT = 0.65
WRITE_SHARE = 0.25
#: initial history of every series (the encoder window is 64)
HISTORY = 96
#: read rates of the ladder (reads per second); writes come on top
RATES = (10.0, 20.0, 40.0, 80.0, 160.0)
#: the middle rung, whose reads give ``serve_p50_ms`` / ``serve_p99_ms``:
#: below the knee, where queue and lock waits already grow
NOMINAL = 2
#: latency limit on a rung's p99 for it to count towards ``serve_max_rps``
SLO_MS = 200.0
#: most reads still outstanding when a rung's last operation is sent
BACKLOG_LIMIT = 2 * N_WORKERS * MAX_BATCH
WARM_SHARE = 0.1
VERIFY_SHARE = 0.1
#: time the generator leaves for checks and draining, per second of run
SCHEDULE_SHARE = 0.8


class ServeSetup:
    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        settings = replace(PROFILES["tiny"], input_len=64, label_len=32)
        dataset = load_dataset("etth1", n_points=8000, seed=seed)
        values, _ = dataset.split("train")
        self.n_dims = dataset.n_dims
        rng = np.random.default_rng(seed)
        # every series is a stretch of the scaled ETTh1 series: its first
        # HISTORY points are ingested up front, the rest feed the writes
        starts = rng.integers(0, len(values), size=N_SERIES)
        span = np.arange(len(values))
        self.series = [f"s{i:03d}" for i in range(N_SERIES)]
        self.points = {
            sid: values[np.take(span, np.arange(start, start + len(values)), mode="wrap")]
            for sid, start in zip(self.series, starts)
        }
        self.spec = ServingSpec(
            input_len=settings.input_len, label_len=settings.label_len, pred_len=PRED_LEN, n_dims=self.n_dims
        )

        def factory():
            return build_model("conformer", self.n_dims, self.n_dims, PRED_LEN, settings, seed=seed)

        self.registry = ModelRegistry(factory, self.spec, dtype=np.float32)
        self.version = self.registry.publish("v1", factory())
        self.server = self.start_server()
        for sid in self.series[:MAX_BATCH]:  # warm-up: fills the arena and plan cache
            response = self.server.submit(sid).result()
            if not response.ok:
                raise RuntimeError(f"warm-up forecast failed: {response.error}")

    def new_store(self) -> SeriesStore:
        store = SeriesStore(n_dims=self.n_dims)
        for sid in self.series:
            store.ingest(sid, self.points[sid][:HISTORY])
        return store

    def start_server(self) -> ForecastServer:
        return ForecastServer(
            self.registry, self.new_store(), n_workers=N_WORKERS, max_batch=MAX_BATCH,
            cache_capacity=CACHE_CAPACITY,
        )

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server = None


def schedule(seed: int, n_ops: int):
    """The seeded operation sequence: (is_write, series index, arrival)
    with arrivals in units of the mean gap between reads."""
    rng = np.random.default_rng([seed, 1])
    weights = 1.0 / np.arange(1, N_SERIES + 1) ** ZIPF_EXPONENT
    popularity = rng.permutation(N_SERIES)  # which series are hot varies by seed
    picks = popularity[rng.choice(N_SERIES, size=n_ops, p=weights / weights.sum())]
    writes = rng.random(n_ops) < WRITE_SHARE
    # exponential gaps: a Poisson process whose reads come at rate 1
    arrivals = np.cumsum(rng.exponential((1.0 - WRITE_SHARE), size=n_ops))
    return writes, picks, arrivals


class Rung:
    """The replay of the schedule at one read rate, and what it measured."""

    def __init__(self, setup: ServeSetup, rate: float, ops, tracer, warm: int) -> None:
        self.rate = rate
        writes, picks, arrivals = ops
        server = setup.server
        series = setup.series
        n_ops = len(writes)
        lengths = {sid: HISTORY for sid in series}  # history length as the generator knows it
        self.reads: List[int] = []
        self.read_series: Dict[int, str] = {}
        self.submit_len: Dict[int, int] = {}
        self.done_len: Dict[int, int] = {}
        self.due: Dict[int, float] = {}
        self.done: Dict[int, float] = {}
        self.responses: Dict[int, object] = {}
        self.lag_ms: List[float] = []
        futures = []
        t0 = perf_counter() + 0.01
        self.window = (t0 + arrivals[warm] / rate, None)
        for i in range(n_ops):
            due = t0 + arrivals[i] / rate
            now = perf_counter()
            if now < due:
                sleep(due - now)
                now = perf_counter()
            sid = series[picks[i]]
            measured = i >= warm
            if measured:
                self.lag_ms.append((now - due) * 1e3)
            if writes[i]:
                at = lengths[sid]
                lengths[sid] = at + 1  # before the write: an in-flight read may see it
                with tracer.span("serve.ingest"):
                    server.ingest(sid, setup.points[sid][at])
                continue
            if measured:
                self.reads.append(i)
                self.read_series[i] = sid
                self.submit_len[i] = lengths[sid]
                self.due[i] = due
            with tracer.span("serve.submit", rid=i):
                future = server.submit(sid)
            if measured:
                future.add_done_callback(self._completion(i, sid, lengths))
                futures.append((i, future))
        self.backlog_end = sum(1 for _, future in futures if not future.done())
        for i, future in futures:
            self.responses[i] = future.result(timeout=120)
        self.window = (self.window[0], perf_counter())
        self.rid_of = {id(future): i for i, future in futures}

    def _completion(self, i: int, sid: str, lengths):
        def record(future) -> None:
            self.done[i] = perf_counter()
            self.done_len[i] = lengths[sid]

        return record

    def latencies_ms(self) -> np.ndarray:
        return np.array([(self.done[i] - self.due[i]) * 1e3 for i in self.reads])

    def ok_reads(self) -> List[int]:
        return [i for i in self.reads if self.responses[i].ok]

    def goodput(self) -> float:
        ok = self.ok_reads()
        span = max(self.done[i] for i in ok) - min(self.due[i] for i in self.reads)
        return len(ok) / span

    def passes(self) -> bool:
        return percentile(self.latencies_ms(), 99) <= SLO_MS and self.backlog_end <= BACKLOG_LIMIT


def reference_forecasts(setup: ServeSetup, keys) -> dict:
    """Direct ``forecast_batch(..., pad_to=max_batch)`` forecasts of each
    ``(series, history length)`` in ``keys``, keyed by it."""
    spec = setup.spec
    expected = {}
    for start in range(0, len(keys), MAX_BATCH):
        chunk = keys[start : start + MAX_BATCH]
        windows = []
        for sid, length in chunk:
            store = SeriesStore(n_dims=setup.n_dims)
            store.ingest(sid, setup.points[sid][:length])
            windows.append(store.window(sid, spec.input_len, spec.label_len, spec.pred_len))
        rows = setup.version.forecast_batch(
            *(np.stack([getattr(w, name) for w in windows]) for name in ("x_enc", "x_mark", "x_dec", "y_mark")),
            pad_to=MAX_BATCH,
        )
        expected.update(zip(chunk, rows))
    return expected


def verify(setup: ServeSetup, rung: Rung, rng, outcome: Outcome) -> int:
    """Check a sampled share of ok responses bit for bit; returns how many."""
    ok = rung.ok_reads()
    if not ok:
        return 0
    sample = sorted(rng.choice(ok, size=max(1, int(len(ok) * VERIFY_SHARE)), replace=False))
    wanted = sorted({(rung.read_series[i], n) for i in sample for n in range(rung.submit_len[i], rung.done_len[i] + 1)})
    expected = reference_forecasts(setup, wanted)
    for i in sample:
        sid, got = rung.read_series[i], rung.responses[i].forecast
        outcome.attempted += 1
        if not any(
            np.array_equal(got, expected[(sid, n)][: len(got)])
            for n in range(rung.submit_len[i], rung.done_len[i] + 1)
        ):
            cached = " (cached)" if rung.responses[i].cached else ""
            outcome.fail(
                f"{sid}{cached} at {rung.rate:g} req/s matches no history of length "
                f"{rung.submit_len[i]}..{rung.done_len[i]}"
            )
    return len(sample)


def instrument_server(setup: ServeSetup, tracer, rows: list) -> None:
    """Spans around the store, the model version and the model's layers;
    ``rows`` receives (time, rows, padded rows) for every forward."""
    version = setup.version
    instrument(setup.server.store, "window", tracer, "serve.store_window")
    forecast_batch = version.forecast_batch

    def traced(x_enc, *args, **kwargs):
        rows.append((perf_counter(), len(x_enc), kwargs.get("pad_to") or len(x_enc)))
        with tracer.span("serve.forecast_batch"):
            return forecast_batch(x_enc, *args, **kwargs)

    version.forecast_batch = traced
    instrument_conformer(version.model, tracer)
    for batcher in setup.server.pool.batchers:
        batcher.take = queue_wait_recorder(batcher.take, setup.server.clock, tracer)


def uninstrument_server(setup: ServeSetup) -> None:
    uninstrument(setup.version, "forecast_batch")
    for module, _ in conformer_modules(setup.version.model):
        uninstrument(module, "forward")


def queue_wait_recorder(take, clock, tracer):
    """``take`` that records each request's wait from submit to its batch.

    A worker already blocked in ``take`` when this is installed returns
    its first batch unrecorded; the warm-up operations absorb that.
    """

    def traced_take(*args, **kwargs):
        work = take(*args, **kwargs)
        if work is not None:
            now = perf_counter()
            for pending in work.batch:
                waited = clock.now() - pending.enqueued_at
                tracer.record("serve.queue", now - waited, now, rid=id(pending.future))
        return work

    return traced_take


def measure(setup: ServeSetup, seconds: float, tracer, outcome: Outcome) -> float:
    """Replay the ladder within ``seconds``; returns the nominal p50 in ms."""
    per_read = sum(1.0 / rate for rate in RATES) / (1.0 - WARM_SHARE)
    n_reads = max(40, int(seconds * SCHEDULE_SHARE / per_read))
    n_ops = int(n_reads / (1.0 - WRITE_SHARE) / (1.0 - WARM_SHARE))
    ops = schedule(setup.seed, n_ops)
    warm = int(n_ops * WARM_SHARE)
    rng = np.random.default_rng([setup.seed, 2])
    rungs = []
    layer = {}
    for index, rate in enumerate(RATES):
        setup.close()
        setup.server = setup.start_server()
        traced = tracer.enabled and index == NOMINAL
        rows: list = []
        if traced:
            instrument_server(setup, tracer, rows)
            before = engine_counters()
            nodes_before = tape_node_count()
            invalidations_before = setup.server.cache.invalidations
        rung = Rung(setup, rate, ops, tracer if traced else OFF, warm)
        if traced:
            lo, hi = rung.window
            layer = dict(
                before=before,
                after=engine_counters(),
                nodes=tape_node_count() - nodes_before,
                rows=[(n, pad) for at, n, pad in rows if lo <= at <= hi],
                invalidations=setup.server.cache.invalidations - invalidations_before,
            )
            uninstrument_server(setup)
            # queue spans carry their future's id until the rung knows its read
            tracer.spans[:] = [
                s if s[1] != "serve.queue" else s[:5] + (rung.rid_of.get(s[5]),) + s[6:]
                for s in tracer.spans
            ]
        setup.close()
        rungs.append(rung)
        for i in rung.reads:
            outcome.attempted += 1
            response = rung.responses[i]
            if not response.ok:
                outcome.fail(f"read of {response.series_id} at {rate:g} req/s: {response.status} {response.error}")
        verify(setup, rung, rng, outcome)
    nominal = rungs[NOMINAL]
    passing = [rung for rung in rungs if rung.passes()]
    max_rps = max((rung.goodput() for rung in passing), default=0.0)
    latencies = nominal.latencies_ms()
    p50 = percentile(latencies, 50)
    p99 = percentile(latencies, 99)
    outcome.e2e.update(throughput_per_s=max_rps, latency_p50_ms=p50, latency_tail_ms=p99)
    outcome.raw.update(outcome.e2e)
    # concurrent reads cannot be paired with probe times: serve is uncalibrated
    named = {
        "serve_p50_ms": (p50, "ms", len(latencies)),
        "serve_p99_ms": (p99, "ms", len(latencies)),
        "serve_max_rps": (max_rps, "1/s", len(RATES)),
    }
    for rung in rungs:
        lat = rung.latencies_ms()
        hits = sum(1 for i in rung.reads if rung.responses[i].cached) / len(rung.reads)
        named[f"serve_rung_{rung.rate:g}_p99_ms"] = (percentile(lat, 99), "ms", len(lat))
        named[f"serve_rung_{rung.rate:g}_hit_share"] = (hits, "ratio", len(lat))
        named[f"serve_rung_{rung.rate:g}_backlog_end"] = (rung.backlog_end, "count", len(lat))
    outcome.named.update({name: (value, unit, n, value) for name, (value, unit, n) in named.items()})
    if tracer.enabled:
        serve_layer_metrics(nominal, tracer, layer, outcome)
    return p50


def serve_layer_metrics(rung: Rung, tracer, layer: dict, outcome: Outcome) -> None:
    lo, hi = rung.window
    table = tracer.layer_times(since=lo, until=hi)
    rows = layer["rows"]
    batches = max(len(rows), 1)
    engine_layer_metrics(table, batches, layer["before"], outcome, after=layer["after"])
    reads = len(rung.reads)
    ok = rung.ok_reads()
    hits = sum(1 for i in rung.reads if rung.responses[i].cached)
    degraded = sum(1 for i in ok if rung.responses[i].degraded)

    def mean_ms(name):
        row = table.get(name)
        return 1e3 * row["self_seconds"] / row["calls"] if row else 0.0

    computed = sum(pad for _, pad in rows)
    outcome.layers.update({
        "tensor.tape_nodes": (layer["nodes"] / batches, "count"),
        "serve.submit_ms": (mean_ms("serve.submit"), "ms"),
        "serve.ingest_ms": (mean_ms("serve.ingest"), "ms"),
        "serve.generator_lag_ms_p99": (percentile(rung.lag_ms, 99), "ms"),
        "serve.cache_hit_ratio": (hits / reads, "ratio"),
        "serve.cache_invalidations": (float(layer["invalidations"]), "count"),
        "serve.store_window_ms": (mean_ms("serve.store_window"), "ms"),
        "serve.queue_wait_ms": (mean_ms("serve.queue"), "ms"),
        "serve.lock_wait_ms": (mean_ms("serve.forecast_batch"), "ms"),
        "serve.batch_rows_mean": (sum(r for r, _ in rows) / batches, "count"),
        "serve.pad_share": (1.0 - sum(r for r, _ in rows) / max(computed, 1), "ratio"),
        "serve.degraded_share": (degraded / max(len(ok), 1), "ratio"),
        "serve.backlog_end": (float(rung.backlog_end), "count"),
    })
    outcome.bases.update({
        "serve.cache_hit_ratio": f"{hits} hits / {reads} reads at {rung.rate:g} req/s",
        "serve.pad_share": f"{computed - sum(r for r, _ in rows)} padded rows / {computed} computed rows",
        "serve.degraded_share": f"{degraded} degraded / {len(ok)} ok responses",
        "serve.batch_rows_mean": f"{sum(r for r, _ in rows)} rows / {len(rows)} forwards",
    })
