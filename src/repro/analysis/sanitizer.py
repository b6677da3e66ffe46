"""Runtime tensor sanitizer — ASan-style numeric checks for the autodiff tape.

When installed (via :func:`sanitize` or ``repro.cli run --sanitize``), the
sanitizer observes two engine events (the observer protocol of
:class:`repro.tensor.tensor.Observer`):

- **op outputs** (``Tensor._make``): every op output, taped or not, is checked
  for NaN/Inf, dtype drift away from the engine's active compute-dtype
  contract (float64 by default, float32 under
  ``repro.tensor.compute_dtype(np.float32)``), and
  double-broadcast surprises — an elementwise binary op where *neither*
  operand has the output shape, i.e. the classic ``(n,1) + (1,n)`` outer
  blow-up that silently manufactures an (n,n) tensor;
- **gradient accumulation** (``Tensor._accumulate``): every incoming
  gradient is checked for NaN/Inf before it can poison a parameter's
  ``grad`` buffer (and, one optimizer step later, Adam's moments).

The fused sequence kernels additionally report the first offending
*timestep* (:meth:`TensorSanitizer.on_sequence`), because a NaN born
at t=37 of a 96-step scan is invisible in the single fused tape node.

Each finding carries the op name, the index of the first bad element,
and a captured creation stack, and is mirrored into :mod:`repro.obs` as
an ``anomaly`` event (kind ``sanitizer_*``) when a logger is attached.
When no observer is installed the engine pays one emptiness test per
event — the hot path stays allocation- and branch-free.
"""

from __future__ import annotations

import contextlib
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.tensor import tensor as _engine

#: elementwise binary ops checked for double-broadcast surprises
_ELEMENTWISE_BINARY = frozenset({"add", "sub", "mul", "div", "maximum", "where"})


@dataclass(frozen=True)
class SanitizerFinding:
    """One numeric defect caught at runtime."""

    kind: str  # nonfinite_forward | nonfinite_grad | dtype_drift | broadcast_surprise
    op: str
    message: str
    detail: Dict = field(default_factory=dict)
    stack: Tuple[str, ...] = ()

    def render(self) -> str:
        return f"[{self.kind}] op={self.op}: {self.message}"


class TensorSanitizerError(RuntimeError):
    """Raised at the first finding when the sanitizer runs in strict mode."""

    def __init__(self, finding: SanitizerFinding) -> None:
        stack = "".join(finding.stack)
        super().__init__(f"{finding.render()}\ncreation stack (most recent call last):\n{stack}")
        self.finding = finding


class TensorSanitizer(_engine.Observer):
    """Collects (and optionally raises on) numeric defects in the tape.

    Parameters
    ----------
    logger:
        A :class:`repro.obs.RunLogger`; every finding is mirrored as an
        ``anomaly`` event (``sanitizer_<kind>``).  None keeps findings
        in-process only.
    raise_on_error:
        Strict mode — raise :class:`TensorSanitizerError` at the first
        finding (the default; debugging wants a loud, located failure).
        When False, findings accumulate up to ``max_findings``.
    check_dtype / check_broadcast:
        Toggle the dtype-drift and double-broadcast checks (the
        non-finite checks are always on — they are the point).
    expected_dtype:
        The dtype contract to enforce.  None (the default) tracks the
        engine's active compute dtype — float64 normally, float32 inside
        a ``repro.tensor.compute_dtype(np.float32)`` block — so the drift
        check follows the mode instead of hard-coding float64.
    """

    def __init__(
        self,
        logger=None,
        raise_on_error: bool = True,
        check_dtype: bool = True,
        check_broadcast: bool = True,
        expected_dtype=None,
        max_findings: int = 100,
        stack_limit: int = 12,
    ) -> None:
        self.logger = logger
        self.raise_on_error = raise_on_error
        self.check_dtype = check_dtype
        self.check_broadcast = check_broadcast
        self._expected_dtype = None if expected_dtype is None else np.dtype(expected_dtype)
        self.max_findings = max_findings
        self.stack_limit = stack_limit
        self.findings: List[SanitizerFinding] = []
        self.checked_nodes: int = 0
        self.checked_grads: int = 0
        # id() of the last array reported by on_sequence, so the
        # generic op-output check does not file the same defect twice
        self._sequence_reported: Optional[int] = None

    @property
    def expected_dtype(self) -> np.dtype:
        """The enforced dtype: pinned at construction, or the engine's
        current compute dtype when constructed with ``expected_dtype=None``."""
        if self._expected_dtype is not None:
            return self._expected_dtype
        return _engine.get_default_dtype()

    # ------------------------------------------------------------------
    # engine events
    # ------------------------------------------------------------------
    def on_op(self, op: str, data: np.ndarray, parents: Tuple, out) -> None:
        self.checked_nodes += 1
        if (
            data.dtype.kind == "f"
            and id(data) != self._sequence_reported
            and not np.isfinite(data).all()
        ):
            self._record(
                "nonfinite_forward", op,
                f"op produced {self._describe_nonfinite(data)}",
                self._locate(data),
            )
        if self.check_dtype and data.dtype.kind == "f" and data.dtype != self.expected_dtype:
            self._record(
                "dtype_drift", op,
                f"op produced {data.dtype} but the engine contract is {self.expected_dtype}",
                {"dtype": str(data.dtype)},
            )
        if (
            self.check_broadcast
            and op in _ELEMENTWISE_BINARY
            and len(parents) == 2
            and parents[0].data.size > 1
            and parents[1].data.size > 1
            and data.shape != parents[0].data.shape
            and data.shape != parents[1].data.shape
        ):
            self._record(
                "broadcast_surprise", op,
                f"both operands were broadcast: {parents[0].data.shape} {op} "
                f"{parents[1].data.shape} -> {data.shape}",
                {
                    "lhs_shape": list(parents[0].data.shape),
                    "rhs_shape": list(parents[1].data.shape),
                    "out_shape": list(data.shape),
                },
            )

    def on_grad(self, op: str, grad: np.ndarray, producer: Optional[str]) -> None:
        self.checked_grads += 1
        if grad.dtype.kind == "f" and not np.isfinite(grad).all():
            detail = self._locate(grad)
            source = "the backward seed"
            if producer:
                detail["producer_op"] = producer
                source = f"backward of '{producer}'"
            self._record(
                "nonfinite_grad", producer or op,
                f"gradient from {source} flowing into output of '{op}' has "
                f"{self._describe_nonfinite(grad)}",
                detail,
            )

    def on_sequence(self, op: str, data: np.ndarray, time_axis: int) -> None:
        """Timestep-resolved non-finite check for fused scan kernels."""
        if data.dtype.kind != "f" or np.isfinite(data).all():
            return
        bad = ~np.isfinite(data)
        other_axes = tuple(a for a in range(data.ndim) if a != time_axis)
        per_step = bad.any(axis=other_axes)
        first_t = int(np.argmax(per_step))
        detail = self._locate(data)
        detail["first_bad_timestep"] = first_t
        self._sequence_reported = id(data)
        self._record(
            "nonfinite_forward", op,
            f"scan went non-finite at timestep {first_t} "
            f"({self._describe_nonfinite(data)})",
            detail,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @staticmethod
    def _describe_nonfinite(data: np.ndarray) -> str:
        n_nan = int(np.isnan(data).sum())
        n_inf = int(np.isinf(data).sum())
        parts = []
        if n_nan:
            parts.append(f"{n_nan} NaN")
        if n_inf:
            parts.append(f"{n_inf} Inf")
        return " + ".join(parts) + f" of {data.size} elements"

    @staticmethod
    def _locate(data: np.ndarray) -> Dict:
        index = np.argwhere(~np.isfinite(data))
        first = [int(i) for i in index[0]] if len(index) else []
        return {"first_bad_index": first, "bad_count": int(len(index)), "shape": list(data.shape)}

    def _capture_stack(self) -> Tuple[str, ...]:
        # drop the two sanitizer-internal frames (_record + on_*) so the
        # stack ends at the engine call site that created the value
        frames = traceback.format_stack(limit=self.stack_limit + 2)[:-2]
        return tuple(frames)

    def _record(self, kind: str, op: str, message: str, detail: Dict) -> None:
        if len(self.findings) >= self.max_findings:
            return
        finding = SanitizerFinding(kind, op, message, detail, self._capture_stack())
        self.findings.append(finding)
        if self.logger is not None:
            self.logger.anomaly(
                f"sanitizer_{kind}",
                op=op,
                message=message,
                stack="".join(finding.stack[-4:]),
                **detail,
            )
        if self.raise_on_error:
            raise TensorSanitizerError(finding)

    def summary(self) -> str:
        if not self.findings:
            return (
                f"sanitizer: clean ({self.checked_nodes} op outputs, "
                f"{self.checked_grads} gradient accumulations checked)"
            )
        lines = [
            f"sanitizer: {len(self.findings)} finding(s) over {self.checked_nodes} "
            f"op outputs / {self.checked_grads} gradient accumulations"
        ]
        lines.extend(f"  {f.render()}" for f in self.findings)
        return "\n".join(lines)


@contextlib.contextmanager
def sanitize(
    logger=None,
    raise_on_error: bool = True,
    alias: bool = False,
    **kwargs,
):
    """Install a :class:`TensorSanitizer` for the duration of the block.

    Nestable, and composes with every other engine observer; it is
    removed on exit, so a sanitized test cannot leak checks into the rest
    of the suite::

        with sanitize() as san:
            loss = model(x).sum()
            loss.backward()          # raises TensorSanitizerError on NaN
        assert not san.findings

    ``alias=True`` also installs the ownership sanitizer
    (:func:`repro.analysis.alias.alias_guard`), ahead of the numeric one:
    arena use-after-release, plan-cache write traps, and tape-pinning
    checks run alongside the numeric ones, and a poisoned (NaN) stale
    buffer is reported as the ownership bug it is.  The guard is exposed
    as ``sanitizer.alias`` so callers can inspect its findings separately.
    """
    sanitizer = TensorSanitizer(logger=logger, raise_on_error=raise_on_error, **kwargs)
    with contextlib.ExitStack() as stack:
        if alias:
            from repro.analysis.alias import alias_guard

            sanitizer.alias = stack.enter_context(
                alias_guard(logger=logger, raise_on_error=raise_on_error)
            )
        stack.enter_context(_engine.observe(sanitizer))
        yield sanitizer
