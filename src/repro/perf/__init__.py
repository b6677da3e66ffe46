"""Op-level profiling and benchmarks for the autodiff engine.

- :func:`op_profile` — the one profiler: forward and backward wall time,
  call counts, tape nodes and allocated bytes per op *and per module*,
  memory accounting and Chrome-trace timelines (see
  :mod:`repro.perf.opprof`).  Zero-overhead when inactive.
- :mod:`repro.perf.bench` — the canonical Conformer training-step
  benchmark behind ``python -m repro.perf`` and ``BENCH_autodiff.json``.
- :mod:`repro.perf.history` — the schema-versioned bench-history ledger
  behind ``python -m repro.cli bench diff``.

Example::

    from repro import perf

    with perf.op_profile(model) as prof:
        loss = model.compute_loss(model(x_enc, x_mark, x_dec, y_mark), y)
        loss.backward()
    print(prof.summary())
"""

from __future__ import annotations

from repro.perf.opprof import op_profile

__all__ = ["op_profile"]
