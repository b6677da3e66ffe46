"""Spans at the program's layer boundaries, and the per-layer metrics.

Instrumentation replaces bound methods on *instances* (a module's
``forward``, a store's ``window``), so the program's code is untouched
and untraced runs never see a wrapper.  ``core.*`` spans sit at the
Conformer's module boundaries; the engine's op profiler is not used.
"""

from __future__ import annotations

from typing import Dict

from repro.tensor import get_arena, plan_cache

from perfbench.spans import per_unit_ms

#: the per-layer metrics of BENCHMARK.json with their units; a workload
#: that does not exercise a layer reports 0 for it
PER_LAYER: Dict[str, str] = {
    "data.batch_ms": "ms",
    "core.input_repr_ms": "ms",
    "core.sirn_ms": "ms",
    "core.flow_ms": "ms",
    "core.forward_ms": "ms",
    "core.loss_ms": "ms",
    "tensor.backward_ms": "ms",
    "tensor.tape_nodes": "count",
    "tensor.arena_hit_ratio": "ratio",
    "tensor.plan_hit_ratio": "ratio",
    "tensor.arena_bytes": "B",
    "optim.step_ms": "ms",
    "ckpt.save_ms": "ms",
    "ckpt.bytes": "B",
    "trace.overhead_share": "ratio",
}

#: the serving layers, reported by the ``serve`` workload only
SERVE_LAYERS: Dict[str, str] = {
    "serve.submit_ms": "ms",
    "serve.ingest_ms": "ms",
    "serve.generator_lag_ms_p99": "ms",
    "serve.cache_hit_ratio": "ratio",
    "serve.cache_invalidations": "count",
    "serve.store_window_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.lock_wait_ms": "ms",
    "serve.batch_rows_mean": "count",
    "serve.pad_share": "ratio",
    "serve.degraded_share": "ratio",
    "serve.backlog_end": "count",
}

_CORE = (
    ("enc_repr", "core.input_repr"),
    ("dec_repr", "core.input_repr"),
    ("encoder", "core.sirn"),
    ("decoder", "core.sirn"),
    ("flow", "core.flow"),
)


def instrument(obj, method: str, tracer, name: str) -> None:
    """Record every call of ``obj.method`` as a ``name`` span."""
    setattr(obj, method, tracer.wrap(getattr(obj, method), name))


def uninstrument(obj, method: str) -> None:
    """Drop the wrapper; the class's own method shows through again."""
    delattr(obj, method)


def conformer_modules(model):
    """(module, span name) for the Conformer and each of its layers."""
    yield model, "core.forward"
    for attr, name in _CORE:
        module = getattr(model, attr)
        if module is not None:
            yield module, name


def instrument_conformer(model, tracer) -> None:
    """Record ``core.*`` spans around the Conformer's sub-module calls."""
    for module, name in conformer_modules(model):
        instrument(module, "forward", tracer, name)


def engine_counters() -> Dict[str, int]:
    arena, plans = get_arena().stats(), plan_cache().stats()
    return {
        "arena_hits": arena["hits"],
        "arena_gets": arena["hits"] + arena["misses"] + arena["dtype_collisions"],
        "plan_hits": plans["hits"],
        "plan_gets": plans["hits"] + plans["misses"],
    }


def _ratio(hits: int, attempts: int) -> float:
    return hits / attempts if attempts else 0.0


def engine_layer_metrics(table, units: int, before: Dict[str, int], outcome, after=None) -> None:
    """Per-unit layer times of the model path, plus arena and plan-cache use.

    ``units`` is the number of training steps or forward batches the
    spans in ``table`` cover; ``before`` is :func:`engine_counters` taken
    when they started and ``after`` (default: now) when they ended.
    Results go to ``outcome.layers``, the counts behind each ratio to
    ``outcome.bases``.
    """
    after = engine_counters() if after is None else after
    delta = {key: after[key] - before[key] for key in after}
    for metric, names in (
        ("data.batch_ms", ["data.batch"]),
        ("core.input_repr_ms", ["core.input_repr"]),
        ("core.sirn_ms", ["core.sirn"]),
        ("core.flow_ms", ["core.flow"]),
        ("core.loss_ms", ["core.loss"]),
        ("tensor.backward_ms", ["tensor.backward"]),
        ("optim.step_ms", ["optim.step"]),
    ):
        outcome.layers[metric] = (per_unit_ms(table, names, units), "ms")
    outcome.layers["core.forward_ms"] = (per_unit_ms(table, ["core.forward"], units, inclusive=True), "ms")
    outcome.layers["tensor.arena_hit_ratio"] = (_ratio(delta["arena_hits"], delta["arena_gets"]), "ratio")
    outcome.layers["tensor.plan_hit_ratio"] = (_ratio(delta["plan_hits"], delta["plan_gets"]), "ratio")
    outcome.layers["tensor.arena_bytes"] = (float(get_arena().nbytes()), "B")
    outcome.bases["tensor.arena_hit_ratio"] = f"{delta['arena_hits']} hits / {delta['arena_gets']} checkouts"
    outcome.bases["tensor.plan_hit_ratio"] = f"{delta['plan_hits']} hits / {delta['plan_gets']} lookups"
