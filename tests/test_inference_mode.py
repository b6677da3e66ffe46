"""Tier-1 gates for the tape-free inference fast path.

Covers the contracts docs/performance.md documents (agreement between
the execution modes is tests/test_mode_matrix.py's job):

- ``inference_mode`` / ``no_grad`` nesting semantics and restoration,
- zero tape nodes recorded inside ``inference_mode`` (counter-asserted),
- arena / plan-cache reuse and invalidation on shape change,
- ``compute_dtype`` + ``Module.to_dtype`` float32 forecasts agree with
  float64 within the documented tolerance,
- ``predict_with_uncertainty`` recycles one Monte-Carlo sample buffer,
- the ``repro.cli bench --inference`` harness and its artifact schema.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.nn import GRUCell, LSTMCell, Module, Parameter
from repro.tensor import (
    Tensor,
    compute_dtype,
    functional as F,
    get_arena,
    get_default_dtype,
    inference_mode,
    is_grad_enabled,
    is_inference_mode,
    no_grad,
    plan_cache,
    tape_node_count,
)
from repro.training import PROFILES

RNG = np.random.default_rng(404)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _smoke_settings():
    return replace(PROFILES["tiny"], input_len=24, label_len=12, batch_size=8, n_points=400)


def _conformer_and_batch(seed: int = 0):
    from repro.perf.bench_inference import _model_and_batch

    return _model_and_batch("conformer", _smoke_settings(), seed=seed)


@pytest.mark.inference
class TestModeSemantics:
    def test_defaults(self):
        assert is_grad_enabled()
        assert not is_inference_mode()
        assert get_default_dtype() == np.dtype(np.float64)

    def test_inference_mode_disables_grad_and_restores(self):
        with inference_mode():
            assert not is_grad_enabled()
            assert is_inference_mode()
        assert is_grad_enabled()
        assert not is_inference_mode()

    def test_nested_inference_mode(self):
        with inference_mode():
            with inference_mode():
                assert is_inference_mode()
            assert is_inference_mode(), "inner exit must not end the outer block"

    def test_no_grad_inside_inference_mode(self):
        with inference_mode():
            with no_grad():
                assert not is_grad_enabled()
                assert is_inference_mode()
            assert is_inference_mode()

    def test_inference_mode_inside_no_grad(self):
        with no_grad():
            with inference_mode():
                assert is_inference_mode()
            # leaving inference_mode restores plain no_grad, not full grad
            assert not is_inference_mode()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with inference_mode():
                raise RuntimeError("boom")
        assert is_grad_enabled()
        assert not is_inference_mode()

    def test_compute_dtype_context(self):
        with compute_dtype(np.float32):
            assert get_default_dtype() == np.dtype(np.float32)
            assert Tensor([1.0, 2.0]).data.dtype == np.float32
        assert get_default_dtype() == np.dtype(np.float64)
        assert Tensor([1.0, 2.0]).data.dtype == np.float64


@pytest.mark.inference
class TestZeroTapeNodes:
    def test_elementwise_chain_records_nothing(self):
        x = Tensor(RNG.normal(size=(8, 8)), requires_grad=True)
        with inference_mode():
            before = tape_node_count()
            ((x @ x).relu() + x).sum()
            assert tape_node_count() == before
        # and the counter does move outside
        before = tape_node_count()
        (x @ x).sum()
        assert tape_node_count() > before

    def test_conformer_forward_records_nothing(self):
        model, batch = _conformer_and_batch()
        x_enc, x_mark, x_dec, y_mark, _ = batch
        with inference_mode():
            before = tape_node_count()
            model(Tensor(x_enc), Tensor(x_mark), Tensor(x_dec), Tensor(y_mark))
            assert tape_node_count() == before

    def test_scan_kernels_record_nothing(self):
        gru = GRUCell(5, 7, rng=np.random.default_rng(1))
        lstm = LSTMCell(5, 7, rng=np.random.default_rng(2))
        x = Tensor(RNG.normal(size=(3, 9, 5)))
        with F.fused_ops(True), inference_mode():
            before = tape_node_count()
            gru(x)
            lstm(x)
            assert tape_node_count() == before


@pytest.mark.inference
class TestBufferAndPlanReuse:
    def test_arena_reuses_matching_geometry(self):
        arena = get_arena()
        a = arena.get("test.slot", (4, 5), np.float64)
        b = arena.get("test.slot", (4, 5), np.float64)
        assert a is b

    def test_arena_shape_change_reallocates(self):
        arena = get_arena()
        a = arena.get("test.shape", (4, 5), np.float64)
        b = arena.get("test.shape", (6, 5), np.float64)
        assert a is not b
        assert b.shape == (6, 5)

    def test_arena_dtype_change_reallocates(self):
        arena = get_arena()
        a = arena.get("test.dtype", (4, 5), np.float64)
        b = arena.get("test.dtype", (4, 5), np.float32)
        assert a is not b
        assert b.dtype == np.float32

    def test_plan_cache_invalidates_on_shape_change(self):
        from repro.nn.attention import causal_mask

        m16 = causal_mask(16)
        assert causal_mask(16) is m16  # hit: same geometry
        m24 = causal_mask(24)
        assert m24.shape == (24, 24)  # miss + rebuild: new geometry
        assert causal_mask(16) is m16  # old geometry still correct

    def test_plan_cache_explicit_invalidate(self):
        cache = plan_cache()
        cache.get(("test_plan", 8), lambda: np.zeros(8))
        assert cache.invalidate("test_plan") == 1
        assert cache.invalidate("test_plan") == 0

    def test_cached_plans_are_read_only(self):
        from repro.nn.attention import causal_mask

        mask = causal_mask(12)
        with pytest.raises(ValueError):
            mask[0, 0] = True


@pytest.mark.inference
class TestFloat32Path:
    def test_to_dtype_casts_parameters_and_buffers(self):
        class WithBuffer(Module):
            def __init__(self):
                super().__init__()
                self.weight = Parameter(np.ones((3, 3)))
                self.table = np.ones(4)

        mod = WithBuffer()
        mod.to_dtype(np.float32)
        assert mod.weight.data.dtype == np.float32
        assert mod.table.dtype == np.float32
        mod.to_dtype(np.float64)
        assert mod.weight.data.dtype == np.float64

    def test_to_dtype_drops_stale_grads(self):
        class Tiny(Module):
            def __init__(self):
                super().__init__()
                self.weight = Parameter(np.ones((2, 2)))

        mod = Tiny()
        (mod.weight.sum()).backward()
        assert mod.weight.grad is not None
        mod.to_dtype(np.float32)
        assert mod.weight.grad is None

    def test_float32_conformer_matches_float64(self):
        model, batch = _conformer_and_batch(seed=7)
        x_enc, x_mark, x_dec, y_mark, _ = batch
        args = lambda: (Tensor(x_enc), Tensor(x_mark), Tensor(x_dec), Tensor(y_mark))  # noqa: E731
        with inference_mode():
            y64, z64 = model(*args(), deterministic=True)
        model.to_dtype(np.float32)
        with inference_mode(), compute_dtype(np.float32):
            y32, z32 = model(*args(), deterministic=True)
        assert y32.data.dtype == np.float32
        # documented tolerance (docs/performance.md): 1e-4 absolute on
        # standardized series — measured agreement is ~1e-6
        np.testing.assert_allclose(y32.data, y64.data, atol=1e-4)
        np.testing.assert_allclose(z32.data, z64.data, atol=1e-4)

    def test_sanitizer_contract_follows_compute_dtype(self):
        from repro.analysis import sanitize

        with sanitize() as san:
            assert san.expected_dtype == np.dtype(np.float64)
            with compute_dtype(np.float32):
                assert san.expected_dtype == np.dtype(np.float32)
                x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
                (x * 2.0).sum().backward()  # float32 ops pass the drift check
            assert san.expected_dtype == np.dtype(np.float64)
        assert not san.findings

    def test_sanitizer_pinned_dtype_still_flags_drift(self):
        from repro.analysis import sanitize, TensorSanitizerError

        # pinning a contract disables the mode-following default: float64
        # ops must now trip the drift check
        with pytest.raises(TensorSanitizerError, match="dtype_drift"):
            with sanitize(expected_dtype=np.float32):
                x = Tensor(np.ones(3), requires_grad=True)
                (x * 2.0).sum()


@pytest.mark.inference
class TestUncertaintyBufferReuse:
    def test_predict_with_uncertainty_recycles_sample_buffer(self):
        model, batch = _conformer_and_batch(seed=3)
        x_enc, x_mark, x_dec, y_mark, _ = batch
        # other tests may have drawn MC samples with different geometry;
        # start from an empty arena so the one-slot assertion is hermetic
        get_arena().clear()
        result = model.predict_with_uncertainty(x_enc, x_mark, x_dec, y_mark, n_samples=4)
        arena = get_arena()
        misses_before = arena.misses
        again = model.predict_with_uncertainty(x_enc, x_mark, x_dec, y_mark, n_samples=4)
        sample_keys = [k for k in arena._slots if k[0] == "model.mc_samples"]
        assert len(sample_keys) == 1, "one recycled Monte-Carlo buffer expected"
        assert arena._slots[sample_keys[0]].shape[0] == 4
        assert all(np.isfinite(result["samples"]).all() for result in (result, again))
        # the second call reuses every slot the first one allocated
        assert arena.misses == misses_before
        for q in ("q0.05", "q0.25", "q0.75", "q0.95"):
            assert q in result
        # escaping arrays must not alias the arena buffer
        assert again["samples"].base is not arena._slots[sample_keys[0]]


@pytest.mark.inference
def test_bench_inference_smoke_produces_artifact(tmp_path):
    """End-to-end micro run of the inference benchmark — checks the
    artifact schema (config + all four arm timings), not wall-clock claims."""
    from repro.perf.bench_inference import ARMS, run_inference_benchmark, write_bench_json

    result = run_inference_benchmark(repeats=1, warmup=0, settings=_smoke_settings())
    path = write_bench_json(result, tmp_path / "BENCH_inference.json")
    loaded = json.loads(path.read_text())
    assert loaded["benchmark"] == "inference_forward"
    assert "config" in loaded and loaded["config"]["fast_path_dtype"] == "float32"
    assert set(loaded["models"]) == {"conformer", "gru"}
    for entry in loaded["models"].values():
        for arm in ARMS:
            assert entry[arm]["seconds_per_forward"] > 0
        assert entry["eager"]["tape_nodes_per_forward"] > 0
        assert entry["fast_path"]["tape_nodes_per_forward"] == 0
        assert entry["fast_path"]["prediction_dtype"] == "float32"
        assert entry["float32_max_abs_diff"] < 1e-4
        assert entry["speedup"] > 0
    assert loaded["speedup"] > 0


@pytest.mark.inference
def test_cli_bench_inference_smoke(tmp_path, capsys):
    from repro.cli import main

    out_path = tmp_path / "BENCH_inference.json"
    assert main(["bench", "--inference", "--smoke", "--json", str(out_path)]) == 0
    captured = capsys.readouterr()
    assert "inference_forward" in captured.out
    loaded = json.loads(out_path.read_text())
    assert loaded["benchmark"] == "inference_forward"
    assert "fast_path" in loaded["models"]["conformer"]
