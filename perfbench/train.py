"""``train`` workload: closed-loop training steps with periodic checkpoints.

The canonical tiny Conformer (d_model 16, input 64 / label 32 / pred 12,
batch 16) trains in float64 with the fused kernels on the synthetic
ETTh1 train split.  Each step is data -> forward -> loss -> backward ->
clip -> Adam; every ``SAVE_EVERY`` steps the training state is saved
through ``CheckpointManager``.  This is the only workload with a taped
forward, backward, optimizer and checkpoint; it bypasses the inference
fast path and serving.

Checks: every loss is finite, and the first measured step's gradients
equal those of the unfused ``fused_ops(False)`` oracle, computed from the
same weights and random state.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.ckpt import CheckpointManager
from repro.ckpt.state import capture_module_rngs, capture_training_state, restore_module_rngs
from repro.data import load_dataset
from repro.optim import Adam, clip_grad_norm
from repro.tensor import Tensor, fused_ops, tape_node_count
from repro.tensor.random import get_rng_state, seed_everything, set_rng_state
from repro.training import PROFILES, build_model, make_loaders

from perfbench.common import Outcome, Probe
from perfbench.layers import engine_counters, engine_layer_metrics, instrument_conformer
from perfbench.spans import OFF, per_unit_ms

PRED_LEN = 12
SAVE_EVERY = 8
GRAD_CLIP = 5.0
#: largest relative gradient difference the fused kernels may show
GRAD_RTOL = 1e-9


class TrainSetup:
    def __init__(self, seed: int, out_dir: Path) -> None:
        settings = replace(PROFILES["tiny"], input_len=64, label_len=32, batch_size=16, n_points=1200)
        seed_everything(seed)
        dataset = load_dataset("etth1", n_points=settings.n_points, seed=seed)
        self.loader, _, _ = make_loaders(dataset, settings, PRED_LEN, seed=seed)
        self.model = build_model("conformer", dataset.n_dims, dataset.n_dims, PRED_LEN, settings, seed=seed)
        self.optimizer = Adam(self.model.parameters(), lr=settings.learning_rate)
        self.ckpt_dir = out_dir
        shutil.rmtree(self.ckpt_dir, ignore_errors=True)
        self.ckpt = CheckpointManager(self.ckpt_dir, keep_last=2, keep_best=False)
        self._batches = iter(())
        self.probe = Probe()
        # warm-up: one full step and one save, so lazy allocation is done
        step(self.model, self.optimizer, self.next_batch())
        self.ckpt.save(capture_training_state(self.model, self.optimizer), epoch=0, step=0)

    def next_batch(self):
        """The next training batch; a new shuffled epoch when one runs out."""
        try:
            return next(self._batches)
        except StopIteration:
            self._batches = iter(self.loader)
            return next(self._batches)

    def close(self) -> None:
        shutil.rmtree(self.ckpt_dir, ignore_errors=True)


def forward_loss(model, batch):
    x_enc, x_mark, x_dec, y_mark, y = batch
    outputs = model(Tensor(x_enc), Tensor(x_mark), Tensor(x_dec), Tensor(y_mark))
    return model.compute_loss(outputs, Tensor(y))


def step(model, optimizer, batch, tracer=OFF, grads_out=None) -> float:
    """One training step; returns the loss value.  ``grads_out``, when
    given, receives a copy of the gradients before clipping."""
    x_enc, x_mark, x_dec, y_mark, y = batch
    outputs = model(Tensor(x_enc), Tensor(x_mark), Tensor(x_dec), Tensor(y_mark))
    with tracer.span("core.loss"):
        loss = model.compute_loss(outputs, Tensor(y))
    optimizer.zero_grad()
    with tracer.span("tensor.backward"):
        loss.backward()
    if grads_out is not None:
        grads_out.extend(_copy(p.grad) for p in model.parameters())
    with tracer.span("optim.step"):
        clip_grad_norm(model.parameters(), GRAD_CLIP)
        optimizer.step()
    return loss.item()


def _copy(grad):
    return None if grad is None else np.array(grad, copy=True)


def oracle_gradients(model, optimizer, batch):
    """Gradients of ``batch`` under the unfused kernels, leaving the
    weights and every random stream as they were."""
    module_rngs, global_rng = capture_module_rngs(model), get_rng_state()
    with fused_ops(False):
        loss = forward_loss(model, batch)
        optimizer.zero_grad()
        loss.backward()
    grads = [_copy(p.grad) for p in model.parameters()]
    optimizer.zero_grad()
    restore_module_rngs(model, module_rngs)
    set_rng_state(global_rng)
    return grads


def compare_gradients(fused, oracle, outcome: Outcome) -> None:
    """Largest gradient difference relative to the largest oracle gradient.

    One scale for all parameters: some gradients (an attention key bias,
    which softmax cancels) are zero up to rounding, so a per-tensor
    relative error would compare rounding noise with rounding noise.
    """
    pairs = [(got, want) for got, want in zip(fused, oracle) if got is not None or want is not None]
    outcome.attempted += 1
    if len(fused) != len(oracle) or any(got is None or want is None for got, want in pairs):
        outcome.fail("fused and unfused steps give gradients to different parameters")
        return
    scale = max(float(np.max(np.abs(want))) for _, want in pairs)
    worst = max(float(np.max(np.abs(got - want))) for got, want in pairs) / scale
    if not worst <= GRAD_RTOL:
        outcome.fail(f"first-step gradients differ from the unfused oracle (relative {worst:.3g})")


def measure(setup: TrainSetup, seconds: float, tracer, outcome: Outcome) -> float:
    """Run steps for ``seconds``; returns the median step time in ms."""
    model, optimizer = setup.model, setup.optimizer
    first = setup.next_batch()
    oracle = oracle_gradients(model, optimizer, first)
    fused_grads: list = []
    if tracer.enabled:
        instrument_conformer(model, tracer)
    before = engine_counters()
    bytes_before = setup.ckpt.bytes_written
    step_ms, iter_ms, probe_ms = [], [], []
    n_windows, saves, nodes = 0, 0, 0
    batch, grads_out = first, fused_grads
    probe_ms.append(setup.probe())
    start = perf_counter()
    while not step_ms or perf_counter() - start < seconds:
        t0 = perf_counter()
        with tracer.span("train.step"):
            if batch is None:
                with tracer.span("data.batch"):
                    batch = setup.next_batch()
            nodes_before = tape_node_count()
            loss = step(model, optimizer, batch, tracer, grads_out)
            nodes += tape_node_count() - nodes_before
        step_ms.append((perf_counter() - t0) * 1e3)
        n_windows += len(batch[0])
        batch, grads_out = None, None
        outcome.attempted += 1
        if not math.isfinite(loss):
            outcome.fail(f"step {len(step_ms)}: loss is {loss}")
        if len(step_ms) % SAVE_EVERY == 0:
            outcome.attempted += 1
            with tracer.span("ckpt.save"):
                path = setup.ckpt.save(capture_training_state(model, optimizer), epoch=0, step=len(step_ms))
            saves += 1
            if not path.is_file():
                outcome.fail(f"checkpoint {path} was not written")
        iter_ms.append((perf_counter() - t0) * 1e3)
        probe_ms.append(setup.probe())
    compare_gradients(fused_grads, oracle, outcome)

    p50 = outcome.timing("train_step_ms", step_ms, probe_ms)
    outcome.throughput("train_windows_per_s", n_windows, iter_ms, probe_ms)
    if tracer.enabled:
        table = tracer.layer_times()
        engine_layer_metrics(table, len(step_ms), before, outcome)
        outcome.layers["tensor.tape_nodes"] = (nodes / len(step_ms), "count")
        outcome.layers["ckpt.save_ms"] = (per_unit_ms(table, ["ckpt.save"], saves), "ms")
        outcome.layers["ckpt.bytes"] = ((setup.ckpt.bytes_written - bytes_before) / max(saves, 1), "B")
        outcome.bases["ckpt.save_ms"] = f"{saves} saves over {len(step_ms)} steps"
    return p50
