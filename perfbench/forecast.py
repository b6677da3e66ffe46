"""``forecast`` workload: fast-path point forecasts over a whole test split.

The canonical tiny Conformer, cast to float32, forecasts every window
(stride 1) of the test split of a longer synthetic ETTh1 series under
``compute_dtype(float32)`` + ``model.predict`` (``inference_mode``).
Batch 32, one thread, closed loop; the ragged last batch of each pass is
kept.  This is the evaluate/predict/backtest path behind the paper's
tables: forward kernels, the arena and the plan cache do all the work,
with no threads and no backward.

Checks: every output is finite, no tape node is recorded, and one
sampled batch agrees with a float64 ``no_grad`` reference within
``F32_ATOL``.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.data import load_dataset
from repro.tensor import Tensor, compute_dtype, no_grad, tape_node_count
from repro.training import PROFILES, build_model, make_loaders

from perfbench.common import Outcome, Probe
from perfbench.layers import engine_counters, engine_layer_metrics, instrument_conformer

PRED_LEN = 12
N_POINTS = 8000
#: largest absolute float32-vs-float64 difference allowed (data is scaled)
F32_ATOL = 1e-4


class ForecastSetup:
    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.settings = replace(
            PROFILES["tiny"], input_len=64, label_len=32, batch_size=32,
            n_points=N_POINTS, eval_stride=1, max_eval_windows=10**9,
        )
        dataset = load_dataset("etth1", n_points=N_POINTS, seed=seed)
        self.n_dims = dataset.n_dims
        _, _, self.loader = make_loaders(dataset, self.settings, PRED_LEN, seed=seed)
        self.model = self.build()
        self.model.eval()
        self.model.to_dtype(np.float32)
        self._batches = iter(())
        self.probe = Probe()
        self.predict(self.next_batch())  # warm-up: fills the arena and plan cache

    def build(self):
        return build_model("conformer", self.n_dims, self.n_dims, PRED_LEN, self.settings, seed=self.seed)

    def next_batch(self):
        try:
            return next(self._batches)
        except StopIteration:
            self._batches = iter(self.loader)
            return next(self._batches)

    def predict(self, batch) -> np.ndarray:
        with compute_dtype(np.float32):
            return self.model.predict(*batch[:4])

    def reference(self, batch) -> np.ndarray:
        """The float64 ``no_grad`` forecast of a freshly built copy."""
        model = self.build()
        model.eval()
        with no_grad():
            outputs = model(*(Tensor(a) for a in batch[:4]), deterministic=True)
        return model.point_forecast(outputs)

    def close(self) -> None:
        pass


def measure(setup: ForecastSetup, seconds: float, tracer, outcome: Outcome) -> float:
    """Forecast batches for ``seconds``; returns the median batch time in ms."""
    if tracer.enabled:
        instrument_conformer(setup.model, tracer)
    rng = np.random.default_rng(setup.seed)
    sample_at = int(rng.integers(len(setup.loader)))
    sampled = None
    before = engine_counters()
    nodes_before = tape_node_count()
    batch_ms, probe_ms, n_windows = [], [], 0
    probe_ms.append(setup.probe())
    start = perf_counter()
    while not batch_ms or perf_counter() - start < seconds:
        t0 = perf_counter()
        with tracer.span("forecast.batch"):
            with tracer.span("data.batch"):
                batch = setup.next_batch()
            forecast = setup.predict(batch)
        batch_ms.append((perf_counter() - t0) * 1e3)
        n_windows += len(forecast)
        outcome.attempted += 1
        if forecast.shape != batch[4].shape or not np.isfinite(forecast).all():
            outcome.fail(f"batch {len(batch_ms)}: forecast shape {forecast.shape} or non-finite values")
        if len(batch_ms) == sample_at + 1:
            sampled = (batch, forecast.copy())
        probe_ms.append(setup.probe())
    nodes = tape_node_count() - nodes_before
    outcome.attempted += 1
    if nodes:
        outcome.fail(f"fast path recorded {nodes} tape nodes")
    if sampled is None:  # a run too short to reach the sampled batch
        sampled = (batch, forecast)
    batch, forecast = sampled
    outcome.attempted += 1
    diff = float(np.max(np.abs(forecast - setup.reference(batch))))
    if not diff <= F32_ATOL:
        outcome.fail(f"float32 forecast is {diff:.3g} from the float64 reference")

    p50 = outcome.timing("forecast_batch_ms", batch_ms, probe_ms)
    outcome.throughput("forecast_windows_per_s", n_windows, batch_ms, probe_ms)
    if tracer.enabled:
        engine_layer_metrics(tracer.layer_times(), len(batch_ms), before, outcome)
        outcome.layers["tensor.tape_nodes"] = (nodes / len(batch_ms), "count")
    return p50
