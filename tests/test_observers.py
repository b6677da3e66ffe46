"""The engine's single observer slot and the one profiler.

- **kernel visibility** — every fused kernel output passes
  ``Tensor._make``, so under ``inference_mode`` the profiler names the
  GRU and LSTM scans; a seeded mutation (a scan patched to
  ``return Tensor(out)``) must make the check fail;
- **composition** — a strict sanitizer, the alias guard and the profiler
  installed together each see every op exactly once, and leaving them in
  any order (also by exception) empties the slot;
- **truthful attribution** — the Conformer fast path charges scan time to
  ``gru_sequence`` (not to the next ``getitem``), and on a training step
  the per-(module, op) forward plus backward seconds sum to the measured
  wall time.
"""

from __future__ import annotations

import inspect
import itertools
import textwrap
from dataclasses import replace
from time import perf_counter

import numpy as np
import pytest

from repro.analysis import sanitize
from repro.analysis.alias import alias_guard
from repro.nn.rnn import LSTM
from repro.perf import op_profile
from repro.perf.bench_inference import _model_and_batch
from repro.tensor import Observer, Tensor, functional as F, inference_mode, observe, tape_node_count
from repro.tensor import tensor as tensor_mod
from repro.training import PROFILES

pytestmark = pytest.mark.profile

SETTINGS = replace(PROFILES["tiny"], input_len=24, label_len=12, batch_size=8, n_points=400)


def _model_inputs(name: str, seed: int = 0):
    model, batch = _model_and_batch(name, SETTINGS, seed=seed)
    x_enc, x_mark, x_dec, y_mark, y = batch
    return model, (Tensor(x_enc), Tensor(x_mark), Tensor(x_dec), Tensor(y_mark)), Tensor(y)


def _bare_lstm():
    model = LSTM(3, 5, num_layers=2, rng=np.random.default_rng(0))
    return model, (Tensor(np.random.default_rng(1).normal(size=(4, 10, 3))),)


#: (model, kernel op that must appear by name, module-path fragment it
#: must be charged to)
KERNEL_CASES = {
    "conformer": ("gru_sequence", "_rnn.cells."),
    "gru": ("gru_sequence", "rnn.cells."),
    "lstm": ("lstm_sequence", "cells."),
}


def _kernel_modules(case: str) -> set:
    """Modules whose inference-mode rows name the case's kernel."""
    if case == "lstm":
        model, inputs = _bare_lstm()
    else:
        model, inputs, _ = _model_inputs(case)
    op, fragment = KERNEL_CASES[case]
    with op_profile(model) as prof:
        with inference_mode():
            model(*inputs)
    return {row["module"] for row in prof.rows() if row["op"] == op and fragment in row["module"]}


# ----------------------------------------------------------------------
# kernel visibility, and the mutation that proves the check fires
# ----------------------------------------------------------------------
class TestKernelVisibility:
    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_fused_kernel_appears_by_name_under_inference_mode(self, case):
        assert _kernel_modules(case), f"{KERNEL_CASES[case][0]} missing from the {case} profile"

    def test_conformer_scans_are_charged_to_both_rnn_kinds(self):
        modules = _kernel_modules("conformer")
        assert any("trend_rnn" in m for m in modules), modules
        assert any("global_rnn" in m for m in modules), modules


def _mutant(owner, name: str, emit_line: str):
    """``owner.name`` recompiled with its emit line replaced by
    ``return Tensor(out)``: a kernel whose output skips ``Tensor._make``."""
    func = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(func))
    assert emit_line in source, "kernel source changed; update the seeded mutation"
    namespace = dict(func.__globals__)
    exec(compile(source.replace(emit_line, "return Tensor(out)"), f"<mutant {name}>", "exec"), namespace)
    return namespace[name]


MUTATIONS = {
    "gru": (F, "gru_sequence",
            'return Tensor._make(out, (x_proj, h0, weight_hh, bias_hh), "gru_sequence", backward)'),
    "lstm": (F, "lstm_sequence",
             'return Tensor._make(out, (x_proj, h0, c0, weight_hh, bias_hh), "lstm_sequence", backward)'),
}


class TestSeededBypassMutation:
    @pytest.mark.parametrize("case", sorted(MUTATIONS))
    def test_kernel_that_skips_emit_is_caught(self, case, monkeypatch):
        owner, name, emit_line = MUTATIONS[case]
        monkeypatch.setattr(owner, name, _mutant(owner, name, emit_line))
        with pytest.raises(AssertionError):
            TestKernelVisibility().test_fused_kernel_appears_by_name_under_inference_mode(case)


# ----------------------------------------------------------------------
# composition of observers in the one slot
# ----------------------------------------------------------------------
class _Recorder(Observer):
    """Reference observer: the raw event stream."""

    def __init__(self):
        self.ops = []
        self.grads = 0

    def on_op(self, op, data, parents, out):
        self.ops.append((op, out.requires_grad))

    def on_grad(self, op, grad, producer):
        self.grads += 1


def _mixed_workload():
    """A taped training step plus a tape-free forward through every kind
    of fused scan."""
    model, inputs, target = _model_inputs("gru")
    model.compute_loss(model(*inputs), target).backward()
    with inference_mode():
        model(*inputs)
        lstm, lstm_inputs = _bare_lstm()
        lstm(*lstm_inputs)


class TestObserverComposition:
    def test_every_observer_sees_every_op_exactly_once(self):
        reference = _Recorder()
        nodes_before = tape_node_count()
        with observe(reference), sanitize() as numeric, alias_guard() as ownership, op_profile() as prof:
            assert tensor_mod.observers() == (reference, numeric, ownership, prof)
            _mixed_workload()
        taped = tape_node_count() - nodes_before
        n_ops = len(reference.ops)
        assert {"gru_sequence", "lstm_sequence"} <= {op for op, _ in reference.ops}
        assert numeric.checked_nodes == n_ops
        assert ownership.checked_ops == n_ops
        assert prof.total_calls == n_ops
        assert prof.taped_nodes == taped == sum(t for _, t in reference.ops)
        assert numeric.checked_grads == reference.grads > 0
        assert not numeric.findings and not ownership.findings
        assert tensor_mod.observers() == ()

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_any_exit_order_empties_the_slot(self, order):
        managers = [sanitize(), alias_guard(), op_profile()]
        installed = [manager.__enter__() for manager in managers]
        assert tensor_mod.observers() == tuple(installed)
        remaining = list(installed)
        for index in order:
            managers[index].__exit__(None, None, None)
            remaining.remove(installed[index])
            assert tensor_mod.observers() == tuple(remaining)
        assert tensor_mod.observers() == ()

    def test_exit_by_exception_empties_the_slot(self):
        with pytest.raises(ValueError):
            with sanitize(), alias_guard(), op_profile():
                Tensor(np.ones(3), requires_grad=True).sum().backward()
                raise ValueError("body failed")
        assert tensor_mod.observers() == ()

    def test_finding_raised_by_one_observer_empties_the_slot(self):
        from repro.analysis import TensorSanitizerError

        with pytest.raises(TensorSanitizerError), np.errstate(divide="ignore"):
            with op_profile(), alias_guard(), sanitize():
                Tensor(np.array([0.0]), requires_grad=True).log()
        assert tensor_mod.observers() == ()


# ----------------------------------------------------------------------
# the profiler tells the truth
# ----------------------------------------------------------------------
class TestTruthfulAttribution:
    def test_conformer_fast_path_charges_scans_not_getitem(self):
        """Scan time lands on ``gru_sequence``; what is left on a
        single-call ``getitem`` inside an RNN module is glue (< 0.2 ms).
        The minimum over three profiles discards one-off host stalls."""
        model, inputs, _ = _model_inputs("conformer")
        fastest = {}
        for _ in range(3):
            with op_profile(model) as prof:
                with inference_mode():
                    model(*inputs)
            for row in prof.rows():
                key = (row["module"], row["op"], row["calls"])
                fastest[key] = min(fastest.get(key, np.inf), row["seconds"])
        assert any(op == "gru_sequence" and "_rnn" in module for module, op, _ in fastest)
        slow_getitems = {
            key: seconds for key, seconds in fastest.items()
            if key[1] == "getitem" and key[2] == 1 and "_rnn" in key[0] and seconds > 2e-4
        }
        assert not slow_getitems, slow_getitems

    def test_training_step_rows_sum_to_wall_time(self):
        """Forward plus backward seconds over every (module, op) row add up
        to the wall time of forward + loss + backward within 5%, and the
        scans' backward time is charged to the RNN modules that taped them."""
        model, inputs, target = _model_inputs("conformer")
        model.train()
        model.compute_loss(model(*inputs), target).backward()  # warm caches
        model.zero_grad()
        with op_profile(model) as prof:
            start = perf_counter()
            model.compute_loss(model(*inputs), target).backward()
            wall = perf_counter() - start
        rows = prof.rows()
        attributed = sum(row["seconds"] + row["backward_seconds"] for row in rows)
        assert attributed == pytest.approx(wall, rel=0.05)
        assert prof.backward_seconds > 0
        scans = [row for row in rows if row["op"] == "gru_sequence"]
        assert scans and all("_rnn" in row["module"] and row["taped"] == 1 for row in scans)
        assert all(row["backward_seconds"] > 0 for row in scans)
