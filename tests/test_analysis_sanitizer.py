"""Tests for the runtime tensor sanitizer (repro.analysis.sanitizer).

The acceptance contract: an injected non-finite value is caught in the
forward tape *and* in backward accumulation with the offending op named;
findings mirror into repro.obs anomaly events; nesting restores the
previous hook; and disabled mode leaves the engine untouched.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import TensorSanitizerError, sanitize
from repro.core import NormalizingFlow
from repro.obs import MemorySink, RunLogger
from repro.tensor import Tensor, functional as F
from repro.tensor import tensor as engine

RNG = np.random.default_rng(99)


class TestForwardChecks:
    def test_nan_in_forward_tape_names_the_op(self):
        with sanitize(raise_on_error=False) as san:
            x = Tensor(np.array([1.0, -1.0]), requires_grad=True)
            x.log()
        assert len(san.findings) == 1
        finding = san.findings[0]
        assert finding.kind == "nonfinite_forward"
        assert finding.op == "log"
        assert finding.detail["first_bad_index"] == [1]
        assert any("log" in frame or "functional" in frame for frame in finding.stack)

    def test_strict_mode_raises_at_first_finding(self):
        with pytest.raises(TensorSanitizerError) as excinfo:
            with sanitize():
                Tensor(np.array([0.0]), requires_grad=True).log()
        assert excinfo.value.finding.op == "log"
        assert "creation stack" in str(excinfo.value)

    def test_dtype_drift_detected(self):
        with sanitize(raise_on_error=False) as san:
            x = Tensor(np.ones(3), requires_grad=True)
            # a rogue op that silently drops precision
            Tensor._make(x.data.astype(np.float32), (x,), "rogue_cast", lambda g: None)
        kinds = {f.kind for f in san.findings}
        assert "dtype_drift" in kinds
        assert san.findings[0].op == "rogue_cast"

    def test_dtype_check_can_be_disabled(self):
        with sanitize(raise_on_error=False, check_dtype=False) as san:
            x = Tensor(np.ones(3), requires_grad=True)
            Tensor._make(x.data.astype(np.float32), (x,), "rogue_cast", lambda g: None)
        assert san.findings == []

    def test_double_broadcast_surprise_detected(self):
        with sanitize(raise_on_error=False) as san:
            col = Tensor(np.ones((5, 1)), requires_grad=True)
            row = Tensor(np.ones((1, 7)))
            col + row  # (5,1)+(1,7) -> (5,7): neither operand shape survives
        assert [f.kind for f in san.findings] == ["broadcast_surprise"]
        assert san.findings[0].detail["out_shape"] == [5, 7]

    def test_ordinary_bias_broadcast_is_not_flagged(self):
        with sanitize() as san:
            x = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
            bias = Tensor(np.zeros(3), requires_grad=True)
            (x + bias).relu().sum().backward()
        assert san.findings == []


class TestBackwardChecks:
    def test_nonfinite_gradient_attributes_producing_op(self):
        with sanitize(raise_on_error=False) as san:
            x = Tensor(np.array([0.0, 4.0]), requires_grad=True)
            with np.errstate(divide="ignore"):
                x.sqrt().sum().backward()  # d sqrt/dx at 0 -> inf
        grads = [f for f in san.findings if f.kind == "nonfinite_grad"]
        assert grads and grads[0].op == "sqrt"
        assert grads[0].detail["producer_op"] == "sqrt"

    def test_injected_nan_seed_is_caught(self):
        with sanitize(raise_on_error=False) as san:
            x = Tensor(np.ones(3), requires_grad=True)
            y = (x * 2.0).sum()
            y.backward(np.array(np.nan))
        assert any(f.kind == "nonfinite_grad" for f in san.findings)

    def test_clean_backward_stays_silent_and_counts_work(self):
        with sanitize() as san:
            x = Tensor(RNG.normal(size=(4, 4)), requires_grad=True)
            (x @ x).relu().sum().backward()
        assert san.findings == []
        assert san.checked_nodes >= 3
        assert san.checked_grads >= 3


class TestFlowHeadInjection:
    """The acceptance scenario: a NaN born deep inside the flow-NLL head."""

    def _flow(self):
        return NormalizingFlow(d_hidden=8, latent_dim=6, pred_len=5, c_out=2, n_flows=2, seed=0)

    def test_sanitizer_names_op_and_emits_obs_anomaly(self):
        flow = self._flow()
        # poison the mu-projection weights: mu comes out NaN, so the NLL
        # residual (target - mu) is born non-finite deep inside the head
        flow.projection.weight.data[0, 0] = np.nan
        memory = MemorySink()
        logger = RunLogger(sinks=[memory])
        h_e, h_d = Tensor(RNG.normal(size=(2, 8))), Tensor(RNG.normal(size=(2, 8)))
        target = Tensor(RNG.normal(size=(2, 5, 2)))
        with sanitize(logger=logger, raise_on_error=False) as san:
            flow.nll(h_e, h_d, target, deterministic=True)
        assert san.findings, "sanitizer missed the injected NaN"
        first = san.findings[0]
        assert first.kind == "nonfinite_forward"
        assert first.op  # the offending op is named (matmul inside the projection)
        events = memory.of_kind("anomaly")
        assert events and events[0]["anomaly"] == "sanitizer_nonfinite_forward"
        assert events[0]["op"] == first.op
        assert "stack" in events[0]

    def test_fused_scan_reports_first_bad_timestep(self):
        xp = np.zeros((2, 6, 9))
        # column 7 lands in the candidate gate (tanh), where a NaN survives;
        # sigmoid-gate columns would saturate an Inf away silently
        xp[1, 4, 7] = np.nan
        with sanitize(raise_on_error=False) as san:
            F.gru_sequence(
                Tensor(xp, requires_grad=True),
                Tensor(np.zeros((2, 3))),
                Tensor(RNG.normal(size=(3, 9)) * 0.1, requires_grad=True),
                Tensor(np.zeros(9)),
            )
        scans = [f for f in san.findings if f.op == "gru_sequence"]
        assert scans, san.findings
        assert scans[0].detail["first_bad_timestep"] == 4
        # the generic tape-node check must not double-report the same array
        assert len([f for f in san.findings if f.kind == "nonfinite_forward"]) == 1


class TestLifecycle:
    def test_nesting_restores_previous_sanitizer(self):
        assert engine.observers() == ()
        with sanitize(raise_on_error=False) as outer:
            with sanitize(raise_on_error=False) as inner:
                assert engine.observers() == (outer, inner)
            assert engine.observers() == (outer,)
        assert engine.observers() == ()

    def test_hook_restored_when_body_raises(self):
        with pytest.raises(TensorSanitizerError):
            with sanitize():
                Tensor(np.array([-1.0]), requires_grad=True).log()
        assert engine.observers() == ()

    def test_max_findings_caps_collection(self):
        with sanitize(raise_on_error=False, max_findings=2) as san:
            bad = Tensor(np.array([np.nan]), requires_grad=True)
            for _ in range(5):
                bad * 1.0
        assert len(san.findings) == 2

    def test_summary_renders_clean_and_dirty(self):
        with sanitize(raise_on_error=False) as san:
            Tensor(np.ones(2), requires_grad=True).sum()
        assert "clean" in san.summary()
        with sanitize(raise_on_error=False) as san:
            Tensor(np.array([np.inf]), requires_grad=True) * 2.0
        assert "1 finding" in san.summary()
