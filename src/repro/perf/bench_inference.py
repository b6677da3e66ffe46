"""The canonical inference performance benchmark.

Times a *forward-only prediction pass* (the workload every evaluate /
predict / backtest loop repeats thousands of times) for Conformer and the
GRU baseline under four arms:

- ``eager``     — the seed inference path: op-by-op kernels, gradient
  recording on, float64.  Every op allocates a tape node whose backward
  closure is never called.
- ``fused``     — fused scan kernels, still taping (one node per scan).
- ``no_grad``   — fused kernels under :func:`repro.tensor.no_grad`: no
  tape, float64.
- ``fast_path`` — :func:`repro.tensor.inference_mode` +
  :func:`repro.tensor.compute_dtype` float32 + the model cast via
  ``Module.to_dtype``: the same kernels with no tape, plan-cached
  masks/tables and half-width arithmetic.  ``no_grad`` runs the same
  kernels in float64, so the two arms differ by dtype alone.

Results (plus the float32-vs-float64 agreement of the fast path) are
written to ``BENCH_inference.json`` with the same machine/config envelope
as ``BENCH_autodiff.json``.  Entry points:

- ``python -m repro.cli bench --inference`` (CLI),
- ``benchmarks/test_perf_regression.py`` (asserts the >= 3x speedup),
- ``tests/test_inference_mode.py`` (tier-1 smoke + schema check).
"""

from __future__ import annotations

import contextlib
import inspect
import json
import platform
import sys
from dataclasses import asdict
from pathlib import Path
from time import perf_counter
from typing import Optional

import numpy as np

from repro.perf.bench import canonical_settings
from repro.tensor import (
    Tensor,
    compute_dtype,
    functional as F,
    get_arena,
    inference_mode,
    no_grad,
    plan_cache,
    tape_node_count,
)
from repro.tensor.random import seed_everything
from repro.training import ExperimentSettings, build_model, make_loaders
from repro.data import load_dataset

#: default artifact location (repo root when run from a checkout)
BENCH_INFERENCE_FILENAME = "BENCH_inference.json"

#: the four benchmark arms, in baseline -> fast-path order
ARMS = ("eager", "fused", "no_grad", "fast_path")

#: models compared (registry names)
BENCH_MODELS = ("conformer", "gru")


def _model_and_batch(model_name: str, settings: ExperimentSettings, pred_len: int = 12, seed: int = 0):
    seed_everything(seed)
    dataset = load_dataset("etth1", n_points=settings.n_points, seed=seed)
    train, _, _ = make_loaders(dataset, settings, pred_len, seed=seed)
    model = build_model(model_name, dataset.n_dims, dataset.n_dims, pred_len, settings, seed=seed)
    model.eval()
    batch = next(iter(train))
    return model, batch


def _forward(model, batch, deterministic: bool = False) -> np.ndarray:
    x_enc, x_mark, x_dec, y_mark, _ = batch
    args = (Tensor(x_enc), Tensor(x_mark), Tensor(x_dec), Tensor(y_mark))
    if deterministic and "deterministic" in inspect.signature(model.forward).parameters:
        # pin the flow's eps to zero so the float32-vs-float64 agreement
        # check measures precision, not Monte-Carlo sampling noise
        outputs = model(*args, deterministic=True)
    else:
        outputs = model(*args)
    return model.point_forecast(outputs)


def _arm_context(arm: str):
    """The (fused?, grad/dtype contexts) stack for one benchmark arm."""
    stack = contextlib.ExitStack()
    if arm == "eager":
        stack.enter_context(F.fused_ops(False))
    elif arm == "fused":
        stack.enter_context(F.fused_ops(True))
    elif arm == "no_grad":
        stack.enter_context(F.fused_ops(True))
        stack.enter_context(no_grad())
    elif arm == "fast_path":
        stack.enter_context(F.fused_ops(True))
        stack.enter_context(inference_mode())
        stack.enter_context(compute_dtype(np.float32))
    else:
        raise ValueError(f"unknown arm {arm!r}; choose from {ARMS}")
    return stack


def time_forward(
    model,
    batch,
    arm: str,
    repeats: int = 10,
    warmup: int = 2,
) -> dict:
    """Median seconds per forward pass plus the tape-node delta of one pass.

    The caller is responsible for casting the model (``to_dtype``) before
    a ``fast_path`` run — this function only switches engine modes.
    """
    with _arm_context(arm):
        for _ in range(warmup):
            _forward(model, batch)
        times = []
        for _ in range(repeats):
            start = perf_counter()
            _forward(model, batch)
            times.append(perf_counter() - start)
        nodes_before = tape_node_count()
        prediction = _forward(model, batch)
        tape_nodes = tape_node_count() - nodes_before
    return {
        "arm": arm,
        "seconds_per_forward": float(np.median(times)),
        "seconds_per_forward_mean": float(np.mean(times)),
        "forwards_timed": repeats,
        "tape_nodes_per_forward": int(tape_nodes),
        "prediction_dtype": str(prediction.dtype),
        "_prediction": prediction,  # stripped before serialisation
    }


def run_inference_benchmark(
    repeats: int = 10,
    warmup: int = 2,
    settings: Optional[ExperimentSettings] = None,
    models=BENCH_MODELS,
    seed: int = 0,
) -> dict:
    """The full eager/fused/no_grad/fast_path comparison per model.

    ``speedup`` is fast_path vs the seed eager float64 path; the fused
    grad path is also reported so fusion and tape-freedom are separable.
    """
    settings = settings if settings is not None else canonical_settings()
    result = {
        "benchmark": "inference_forward",
        "description": "forward-only prediction pass: eager f64 vs fused vs no_grad vs inference_mode+float32",
        "machine": {
            "platform": platform.platform(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "config": {
            "pred_len": 12,
            "repeats": repeats,
            "warmup": warmup,
            "fast_path_dtype": "float32",
            **{k: v for k, v in asdict(settings).items() if not isinstance(v, dict)},
        },
        "models": {},
    }
    for name in models:
        model, batch = _model_and_batch(name, settings, seed=seed)
        arms = {}
        for arm in ("eager", "fused", "no_grad"):
            arms[arm] = time_forward(model, batch, arm, repeats=repeats, warmup=warmup)
        model.to_dtype(np.float32)
        arms["fast_path"] = time_forward(model, batch, "fast_path", repeats=repeats, warmup=warmup)
        with _arm_context("fast_path"):
            fast = _forward(model, batch, deterministic=True)
        model.to_dtype(np.float64)  # restore for the reference pass / later reuse
        with _arm_context("no_grad"):
            reference = _forward(model, batch, deterministic=True)
        for arm in ARMS:
            arms[arm].pop("_prediction")
        entry = {
            **{arm: arms[arm] for arm in ARMS},
            "speedup": arms["eager"]["seconds_per_forward"] / arms["fast_path"]["seconds_per_forward"],
            "speedup_vs_fused": arms["fused"]["seconds_per_forward"] / arms["fast_path"]["seconds_per_forward"],
            "float32_max_abs_diff": float(np.max(np.abs(reference - fast.astype(reference.dtype)))),
        }
        result["models"][name] = entry
    result["speedup"] = min(entry["speedup"] for entry in result["models"].values())
    result["arena"] = get_arena().stats()
    result["plan_cache"] = plan_cache().stats()
    return result


def write_bench_json(result: dict, path: Path) -> Path:
    """Persist a benchmark result (the BENCH_inference.json artifact)."""
    path = Path(path)
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return path


def format_result(result: dict) -> str:
    """Human-readable summary of :func:`run_inference_benchmark` output."""
    lines = [result["benchmark"], "-" * len(result["benchmark"])]
    for name, entry in result["models"].items():
        lines.append(f"{name}:")
        for arm in ARMS:
            row = entry[arm]
            lines.append(
                f"  {arm:<10} {row['seconds_per_forward'] * 1e3:8.2f} ms/forward  "
                f"{row['tape_nodes_per_forward']:6d} tape nodes  ({row['prediction_dtype']})"
            )
        lines.append(
            f"  speedup: {entry['speedup']:.2f}x vs eager, {entry['speedup_vs_fused']:.2f}x vs fused; "
            f"float32 max |diff| {entry['float32_max_abs_diff']:.2e}"
        )
    lines.append(f"overall speedup (min across models): {result['speedup']:.2f}x")
    return "\n".join(lines)
