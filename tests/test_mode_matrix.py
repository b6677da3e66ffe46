"""Differential mode matrix: every execution mode computes the same forecast.

Each kernel has one code path whatever the mode, so the modes may differ
only in rounding.  Every registry model and the bare ``GRUCell``,
``LSTMCell`` and ``AutoCorrelation`` run in every cell of

    {unfused, fused, no_grad, inference_mode} x {float64, float32}

and each cell's forward output must match the unfused float64 reference
within its dtype's tolerance.  Fused and unfused gradients must agree in
float64.  A seeded mutation (the fused GRU scan perturbed under
``no_grad``) proves the matrix fires.
"""

from __future__ import annotations

import contextlib
from dataclasses import replace

import numpy as np
import pytest

from repro.data import load_dataset
from repro.nn import GRUCell, LSTMCell
from repro.nn.attention import AutoCorrelation
from repro.tensor import Tensor, compute_dtype, functional as F, inference_mode, is_grad_enabled, no_grad
from repro.tensor.random import seed_everything
from repro.training import PROFILES, available_models, build_model, make_loaders

pytestmark = pytest.mark.inference

MODES = ("unfused", "fused", "no_grad", "inference_mode")
DTYPES = (np.float64, np.float32)
#: forward agreement with the unfused float64 reference, per cell dtype;
#: float32 is the documented fast-path envelope (docs/performance.md)
ATOL = {np.float64: 1e-9, np.float32: 1e-4}
GRAD_RTOL, GRAD_ATOL = 1e-6, 1e-9

SETTINGS = replace(PROFILES["tiny"], input_len=24, label_len=12, batch_size=4, n_points=300)
PRED_LEN = 6


def _mode(mode: str):
    stack = contextlib.ExitStack()
    stack.enter_context(F.fused_ops(mode != "unfused"))
    if mode == "no_grad":
        stack.enter_context(no_grad())
    elif mode == "inference_mode":
        stack.enter_context(inference_mode())
    return stack


@pytest.fixture(scope="module")
def batch():
    dataset = load_dataset("etth1", n_points=SETTINGS.n_points, seed=0)
    train, _, _ = make_loaders(dataset, SETTINGS, PRED_LEN, seed=0)
    return dataset.n_dims, next(iter(train))


def _flat(outputs) -> np.ndarray:
    """Every tensor a forward returned (nested tuples too) as one float64 vector."""
    if isinstance(outputs, Tensor):
        return outputs.data.astype(np.float64).ravel()
    return np.concatenate([_flat(item) for item in outputs])


class _Case:
    """A module plus inputs, rebuilt fresh (same seed) for every cell so
    stateful generators inside a model draw identically in each cell."""

    def build(self):
        raise NotImplementedError

    def forward(self, module, inputs):
        return module(*inputs)

    def loss(self, module, outputs) -> Tensor:
        return (_as_tensor(outputs) ** 2).mean()

    def run(self, mode: str, dtype, backward: bool = False):
        """Forward in one cell; returns (flat output, {param: grad})."""
        seed_everything(0)
        module, inputs = self.build()
        module.eval()
        if dtype is np.float32:
            module.to_dtype(np.float32)
        with compute_dtype(dtype), _mode(mode):
            inputs = [Tensor(a, requires_grad=backward) for a in inputs]
            outputs = self.forward(module, inputs)
            grads = {}
            if backward:
                self.loss(module, outputs).backward()
                named = list(module.named_parameters()) + [(f"input {i}", x) for i, x in enumerate(inputs)]
                grads = {name: t.grad for name, t in named if t.grad is not None}
        return _flat(outputs), grads


def _as_tensor(outputs) -> Tensor:
    while not isinstance(outputs, Tensor):
        outputs = outputs[0]
    return outputs


class _Model(_Case):
    def __init__(self, name: str, n_dims: int, arrays) -> None:
        self.name, self.n_dims, self.arrays = name, n_dims, arrays

    def build(self):
        model = build_model(self.name, self.n_dims, self.n_dims, PRED_LEN, SETTINGS, seed=0)
        return model, self.arrays[:4]

    def forward(self, model, inputs):
        if self.name == "conformer":
            return model(*inputs, deterministic=True)  # flow eps pinned to zero
        return model(*inputs)

    def loss(self, model, outputs) -> Tensor:
        return model.compute_loss(outputs, Tensor(self.arrays[4]))


class _Bare(_Case):
    """A bare recurrent cell or attention mechanism on random inputs."""

    def __init__(self, kind: str) -> None:
        self.kind = kind

    def build(self):
        rng = np.random.default_rng(7)
        if self.kind == "gru":
            # an explicit initial state covers the h0 path of the scan
            return GRUCell(3, 5, rng=rng), [rng.normal(size=(4, 9, 3)), rng.normal(size=(4, 5))]
        if self.kind == "lstm":
            return LSTMCell(3, 5, rng=rng), [rng.normal(size=(4, 9, 3))]
        return AutoCorrelation(), [rng.normal(size=(2, 2, 16, 4)) for _ in range(3)]

    def forward(self, module, inputs):
        if self.kind == "gru":
            return module(inputs[0], inputs[1])
        return module(*inputs)

    def loss(self, module, outputs) -> Tensor:
        if self.kind == "lstm":
            seq, (h, c) = outputs
            return (seq ** 2).mean() + (h * c).sum()
        return super().loss(module, outputs)


def check_mode_matrix(case: _Case) -> None:
    """Raise AssertionError naming the first cell that disagrees."""
    reference, ref_grads = case.run("unfused", np.float64, backward=True)
    assert np.isfinite(reference).all()
    _, fused_grads = case.run("fused", np.float64, backward=True)
    assert fused_grads.keys() == ref_grads.keys()
    for name, grad in ref_grads.items():
        np.testing.assert_allclose(
            fused_grads[name], grad, rtol=GRAD_RTOL, atol=GRAD_ATOL, err_msg=f"fused vs unfused grad of {name}"
        )
    for dtype in DTYPES:
        for mode in MODES:
            if (mode, dtype) == ("unfused", np.float64):
                continue
            out, _ = case.run(mode, dtype)
            np.testing.assert_allclose(
                out, reference, rtol=0, atol=ATOL[dtype], err_msg=f"{mode} x {np.dtype(dtype).name}"
            )


@pytest.mark.parametrize("name", available_models())
def test_registry_model_agrees_in_every_mode(name, batch):
    n_dims, arrays = batch
    check_mode_matrix(_Model(name, n_dims, arrays))


@pytest.mark.parametrize("kind", ["gru", "lstm", "autocorrelation"])
def test_bare_kernel_agrees_in_every_mode(kind):
    check_mode_matrix(_Bare(kind))


def test_matrix_catches_a_scan_perturbed_under_no_grad(monkeypatch):
    """Seeded mutation: the fused GRU scan returns a slightly wrong output
    whenever the tape is off.  The matrix must fail on it."""
    scan = F.gru_sequence

    def perturbed(*args):
        out = scan(*args)
        if not is_grad_enabled():
            out.data[:, -1] += 1e-3
        return out

    monkeypatch.setattr(F, "gru_sequence", perturbed)
    with pytest.raises(AssertionError, match="no_grad x float64"):
        check_mode_matrix(_Bare("gru"))
