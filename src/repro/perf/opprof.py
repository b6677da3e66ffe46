"""Op-level profiling with module attribution and timeline export.

:func:`op_profile` is the front door::

    from repro.perf import op_profile

    with op_profile(model) as prof:
        loss = model.compute_loss(model(x_enc, x_mark, x_dec, y_mark), y)
        loss.backward()
    print(prof.summary())           # top-K (module, op) table
    prof.as_dict()                  # the ``op_profile`` run-log event body

It installs the engine profiler (:class:`repro.tensor.profiler.EngineProfiler`)
as an engine observer for the enclosed block — the observer protocol is
described in docs/observability.md ("Engine observers") — so *every* op
output, taped or tape-free, is attributed wall time, a call count, and
allocated bytes, and every backward node its wall time.  Passing a model
wraps each submodule's ``forward`` for the duration, labelling ops with
the dotted ``named_modules`` path of the innermost module that produced
them (the same naming the contracts checker uses).  Zero overhead when
inactive: outside the context the observer tuple is empty.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

from repro.tensor.profiler import EngineProfiler
from repro.tensor.tensor import observe

__all__ = ["op_profile"]


@contextlib.contextmanager
def _instrument_modules(model, profiler: EngineProfiler) -> Iterator[None]:
    """Wrap every submodule ``forward`` to push its dotted-path scope."""
    wrapped = []
    seen = set()
    try:
        for name, module in model.named_modules():
            if not name or id(module) in seen:
                continue  # root ops stay labelled "(root)"; shared modules once
            seen.add(id(module))
            original = module.forward

            def forward(*args, _original=original, _name=name, **kwargs):
                with profiler.module_scope(_name):
                    return _original(*args, **kwargs)

            object.__setattr__(module, "forward", forward)
            wrapped.append(module)
        yield
    finally:
        for module in wrapped:
            object.__delattr__(module, "forward")


@contextlib.contextmanager
def op_profile(
    model=None,
    timeline_capacity: int = 8192,
    track_live: bool = True,
) -> Iterator[EngineProfiler]:
    """Activate op-level profiling (and module attribution) for a block."""
    prof = EngineProfiler(timeline_capacity=timeline_capacity, track_live=track_live)
    with contextlib.ExitStack() as stack:
        if model is not None:
            stack.enter_context(_instrument_modules(model, prof))
        stack.enter_context(observe(prof))
        prof.mark()
        yield prof
