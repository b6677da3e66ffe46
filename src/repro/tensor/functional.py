"""Functional operations on :class:`~repro.tensor.Tensor`.

Everything the model zoo needs that is not a dunder on ``Tensor`` lives
here: reductions, activations, softmax, concatenation, padding, 1-D
convolution/pooling, and losses.  Each op wires its own backward closure.
"""

from __future__ import annotations

import contextlib
import math
from typing import Optional, Sequence, Tuple, Union

import numpy as np
from scipy import special as sp_special

from repro.tensor import tensor as _engine
from repro.tensor.tensor import Tensor, ensure_tensor

Axis = Union[None, int, Tuple[int, ...]]

# ----------------------------------------------------------------------
# fused-kernel switch
# ----------------------------------------------------------------------
# The recurrent/attention hot paths dispatch on this flag: True routes
# through the fused ops below (one tape node for whole subgraphs), False
# falls back to the original op-by-op composition.  The fallback is kept
# both as a numerical reference and as the baseline the perf benchmark
# (`python -m repro.perf`) measures speedups against.
_FUSED_ENABLED = True


def fused_ops_enabled() -> bool:
    """Whether the model zoo routes hot paths through the fused kernels."""
    return _FUSED_ENABLED


@contextlib.contextmanager
def fused_ops(enabled: bool = True):
    """Context manager toggling the fused-kernel dispatch (for benchmarks/tests)."""
    global _FUSED_ENABLED
    previous, _FUSED_ENABLED = _FUSED_ENABLED, bool(enabled)
    try:
        yield
    finally:
        _FUSED_ENABLED = previous


# ----------------------------------------------------------------------
# reductions
# ----------------------------------------------------------------------
def _restore_reduced(grad: np.ndarray, shape: Tuple[int, ...], axis: Axis, keepdims: bool) -> np.ndarray:
    """Broadcast a reduced gradient back to the pre-reduction shape."""
    if axis is None:
        return np.broadcast_to(grad, shape)
    if not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        axes = tuple(a % len(shape) for a in axes)
        for a in sorted(axes):
            grad = np.expand_dims(grad, a)
    return np.broadcast_to(grad, shape)


def sum(x: Tensor, axis: Axis = None, keepdims: bool = False) -> Tensor:  # noqa: A001
    out_data = x.data.sum(axis=axis, keepdims=keepdims)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(_restore_reduced(grad, x.data.shape, axis, keepdims))

    return Tensor._make(np.asarray(out_data), (x,), "sum", backward)


def mean(x: Tensor, axis: Axis = None, keepdims: bool = False) -> Tensor:
    out_data = x.data.mean(axis=axis, keepdims=keepdims)
    count = x.data.size / np.asarray(out_data).size

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(_restore_reduced(grad, x.data.shape, axis, keepdims) / count)

    return Tensor._make(np.asarray(out_data), (x,), "mean", backward)


def var(x: Tensor, axis: Axis = None, keepdims: bool = False) -> Tensor:
    """Biased (population) variance, differentiable."""
    mu = mean(x, axis=axis, keepdims=True)
    centered = x - mu
    return mean(centered * centered, axis=axis, keepdims=keepdims)


def _extreme(x: Tensor, axis: Axis, keepdims: bool, fn, name: str) -> Tensor:
    out_data = fn(x.data, axis=axis, keepdims=keepdims)
    expanded = fn(x.data, axis=axis, keepdims=True)
    mask = (x.data == expanded).astype(x.data.dtype)
    mask = mask / mask.sum(axis=axis, keepdims=True)  # split ties evenly

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            g = _restore_reduced(grad, x.data.shape, axis, keepdims)
            x._accumulate(g * mask)

    return Tensor._make(np.asarray(out_data), (x,), name, backward)


def max(x: Tensor, axis: Axis = None, keepdims: bool = False) -> Tensor:  # noqa: A001
    return _extreme(x, axis, keepdims, np.max, "max")


def min(x: Tensor, axis: Axis = None, keepdims: bool = False) -> Tensor:  # noqa: A001
    return _extreme(x, axis, keepdims, np.min, "min")


# ----------------------------------------------------------------------
# elementwise
# ----------------------------------------------------------------------
def exp(x: Tensor) -> Tensor:
    out_data = np.exp(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * out_data)

    return Tensor._make(out_data, (x,), "exp", backward)


def log(x: Tensor) -> Tensor:
    out_data = np.log(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad / x.data)

    return Tensor._make(out_data, (x,), "log", backward)


def sqrt(x: Tensor) -> Tensor:
    out_data = np.sqrt(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * 0.5 / out_data)

    return Tensor._make(out_data, (x,), "sqrt", backward)


def abs(x: Tensor) -> Tensor:  # noqa: A001
    out_data = np.abs(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * np.sign(x.data))

    return Tensor._make(out_data, (x,), "abs", backward)


def clip(x: Tensor, low: float, high: float) -> Tensor:
    out_data = np.clip(x.data, low, high)
    mask = ((x.data >= low) & (x.data <= high)).astype(x.data.dtype)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * mask)

    return Tensor._make(out_data, (x,), "clip", backward)


def tanh(x: Tensor) -> Tensor:
    out_data = np.tanh(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * (1.0 - out_data ** 2))

    return Tensor._make(out_data, (x,), "tanh", backward)


def sigmoid(x: Tensor) -> Tensor:
    out_data = sp_special.expit(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * out_data * (1.0 - out_data))

    return Tensor._make(out_data, (x,), "sigmoid", backward)


def relu(x: Tensor) -> Tensor:
    out_data = np.maximum(x.data, 0.0)
    mask = (x.data > 0).astype(x.data.dtype)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * mask)

    return Tensor._make(out_data, (x,), "relu", backward)


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    slope = np.where(x.data > 0, 1.0, negative_slope)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * slope)

    return Tensor._make(x.data * slope, (x,), "leaky_relu", backward)


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    neg = alpha * (np.exp(np.minimum(x.data, 0.0)) - 1.0)
    out_data = np.where(x.data > 0, x.data, neg)
    deriv = np.where(x.data > 0, 1.0, neg + alpha)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * deriv)

    return Tensor._make(out_data, (x,), "elu", backward)


def softplus(x: Tensor) -> Tensor:
    out_data = np.logaddexp(0.0, x.data)
    sig = sp_special.expit(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * sig)

    return Tensor._make(out_data, (x,), "softplus", backward)


def erf(x: Tensor) -> Tensor:
    out_data = sp_special.erf(x.data)
    deriv = 2.0 / math.sqrt(math.pi) * np.exp(-x.data ** 2)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * deriv)

    return Tensor._make(out_data, (x,), "erf", backward)


def gelu(x: Tensor) -> Tensor:
    """Exact GELU: x * Phi(x) with Phi the standard normal CDF."""
    phi = 0.5 * (1.0 + sp_special.erf(x.data / math.sqrt(2.0)))
    pdf = np.exp(-0.5 * x.data ** 2) / math.sqrt(2.0 * math.pi)
    out_data = x.data * phi
    deriv = phi + x.data * pdf

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * deriv)

    return Tensor._make(out_data, (x,), "gelu", backward)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out_data = np.maximum(a.data, b.data)
    a_wins = (a.data >= b.data).astype(out_data.dtype)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * a_wins)
        if b.requires_grad:
            b._accumulate(grad * (1.0 - a_wins))

    return Tensor._make(out_data, (a, b), "maximum", backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    cond = np.asarray(condition, dtype=bool)
    out_data = np.where(cond, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(np.where(cond, grad, 0.0))
        if b.requires_grad:
            b._accumulate(np.where(cond, 0.0, grad))

    return Tensor._make(out_data, (a, b), "where", backward)


# ----------------------------------------------------------------------
# softmax family
# ----------------------------------------------------------------------
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    out_data = exps / exps.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            inner = (grad * out_data).sum(axis=axis, keepdims=True)
            x._accumulate(out_data * (grad - inner))

    return Tensor._make(out_data, (x,), "softmax", backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - logsumexp
    soft = np.exp(out_data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(out_data, (x,), "log_softmax", backward)


def softmax_masked(x: Tensor, mask: Optional[np.ndarray] = None, axis: int = -1) -> Tensor:
    """Fused mask + softmax: one tape node, no full ``-1e9`` constant tensor.

    ``mask`` is a boolean array broadcastable to ``x`` where True marks
    *disallowed* positions; those entries receive exactly zero weight and
    zero gradient.  Rows where everything is masked yield a uniform
    distribution with zero gradient, matching the behaviour of masking
    scores with a large negative constant and then calling :func:`softmax`
    (the previous, three-node composition).
    """
    if mask is None:
        return softmax(x, axis=axis)
    mask = np.asarray(mask, dtype=bool)
    # -inf at masked entries keeps the max-shift stable and makes exp() give
    # exact zeros without overflow; the temp is short-lived and never taped.
    neg = np.where(mask, -np.inf, x.data)
    shift = neg.max(axis=axis, keepdims=True)
    shift = np.where(np.isfinite(shift), shift, 0.0)  # all-masked rows
    exps = np.exp(neg - shift)
    denom = exps.sum(axis=axis, keepdims=True)
    dead = denom == 0.0
    soft = exps / np.where(dead, 1.0, denom)
    out_data = np.where(dead, 1.0 / x.data.shape[axis], soft) if np.any(dead) else soft

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            inner = (grad * soft).sum(axis=axis, keepdims=True)
            x._accumulate(soft * (grad - inner))

    return Tensor._make(out_data, (x,), "softmax_masked", backward)


# ----------------------------------------------------------------------
# einsum
# ----------------------------------------------------------------------
def _einsum_parse(subscripts: str, n_operands: int) -> Tuple[list, str]:
    if "..." in subscripts:
        raise NotImplementedError("einsum: ellipsis subscripts are not supported")
    if "->" in subscripts:
        inputs, output = subscripts.split("->")
    else:
        inputs = subscripts
        counts: dict = {}
        for ch in inputs.replace(",", ""):
            counts[ch] = counts.get(ch, 0) + 1
        output = "".join(sorted(ch for ch, n in counts.items() if n == 1))
    specs = inputs.split(",")
    if len(specs) != n_operands:
        raise ValueError(f"einsum: {len(specs)} subscript groups for {n_operands} operands")
    for spec in specs:
        if len(set(spec)) != len(spec):
            raise NotImplementedError("einsum: repeated labels within one operand (traces) are not supported")
    return specs, output


def einsum(subscripts: str, *operands: Tensor, optimize=True) -> Tensor:
    """Differentiable ``np.einsum`` (contracted matmuls as one tape node).

    Supports any number of operands with explicit or implicit output
    subscripts; ellipsis and per-operand repeated labels are not.  The
    gradient of each operand is itself an einsum of the output gradient
    with the remaining operands, with labels missing from those terms
    restored by broadcasting against ones.
    """
    tensors = [ensure_tensor(t) for t in operands]
    specs, out_spec = _einsum_parse(subscripts, len(tensors))
    out_data = np.einsum(f"{','.join(specs)}->{out_spec}", *[t.data for t in tensors], optimize=optimize)

    def backward(grad: np.ndarray) -> None:
        for i, t in enumerate(tensors):
            if not t.requires_grad:
                continue
            terms_specs = [out_spec] + [specs[j] for j in range(len(tensors)) if j != i]
            terms_data = [grad] + [tensors[j].data for j in range(len(tensors)) if j != i]
            available = set("".join(terms_specs))
            for pos, label in enumerate(specs[i]):
                if label not in available:  # summed over this operand alone
                    terms_specs.append(label)
                    terms_data.append(np.ones(t.data.shape[pos], dtype=grad.dtype))
            sub = ",".join(terms_specs) + "->" + specs[i]
            t._accumulate(np.einsum(sub, *terms_data, optimize=optimize))

    return Tensor._make(np.asarray(out_data), tuple(tensors), "einsum", backward)


# ----------------------------------------------------------------------
# fused recurrent kernels
# ----------------------------------------------------------------------
# One tape node per GRU/LSTM timestep (``*_step``) or per whole scan
# (``*_sequence``) with hand-written backwards, replacing the ~12-node
# per-timestep chains previously recorded by GRUCell/LSTMCell.  Gate
# layout follows the cells: [reset | update | candidate] for GRU and
# [input | forget | cell | output] for LSTM.
def gru_step(x_gates: Tensor, h: Tensor, weight_hh: Tensor, bias_hh: Tensor) -> Tensor:
    """One fused GRU timestep.

    ``x_gates`` is the precomputed input projection ``x_t @ W_ih + b_ih``
    of shape (B, 3H); ``h`` is the previous hidden state (B, H).  Returns
    the next hidden state (B, H) as a single tape node.
    """
    hidden = h.shape[-1]
    gh = h.data @ weight_hh.data + bias_hh.data
    gx = x_gates.data
    r = sp_special.expit(gx[:, :hidden] + gh[:, :hidden])
    z = sp_special.expit(gx[:, hidden : 2 * hidden] + gh[:, hidden : 2 * hidden])
    nh = gh[:, 2 * hidden :]
    n = np.tanh(gx[:, 2 * hidden :] + r * nh)
    out_data = (1.0 - z) * n + z * h.data

    def backward(grad: np.ndarray) -> None:
        dn = grad * (1.0 - z)
        dz = grad * (h.data - n)
        dpre_n = dn * (1.0 - n * n)
        dnh = dpre_n * r
        dpre_r = dpre_n * nh * r * (1.0 - r)
        dpre_z = dz * z * (1.0 - z)
        dgh = np.concatenate([dpre_r, dpre_z, dnh], axis=-1)
        if x_gates.requires_grad:
            x_gates._accumulate(np.concatenate([dpre_r, dpre_z, dpre_n], axis=-1))
        if h.requires_grad:
            h._accumulate(grad * z + dgh @ weight_hh.data.T)
        if weight_hh.requires_grad:
            weight_hh._accumulate(h.data.T @ dgh)
        if bias_hh.requires_grad:
            bias_hh._accumulate(dgh.sum(axis=0))

    return Tensor._make(out_data, (x_gates, h, weight_hh, bias_hh), "gru_step", backward)


def lstm_step(x_gates: Tensor, h: Tensor, c: Tensor, weight_hh: Tensor, bias_hh: Tensor) -> Tensor:
    """One fused LSTM timestep.

    ``x_gates`` is ``x_t @ W_ih + b_ih`` of shape (B, 4H); ``h``/``c`` are
    the previous states (B, H).  Returns (B, 2H) with the new hidden state
    in ``[..., :H]`` and the new cell state in ``[..., H:]`` so the whole
    step stays a single tape node.
    """
    hidden = h.shape[-1]
    gates = x_gates.data + h.data @ weight_hh.data + bias_hh.data
    i = sp_special.expit(gates[:, :hidden])
    f = sp_special.expit(gates[:, hidden : 2 * hidden])
    g = np.tanh(gates[:, 2 * hidden : 3 * hidden])
    o = sp_special.expit(gates[:, 3 * hidden :])
    c_new = f * c.data + i * g
    tc = np.tanh(c_new)
    out_data = np.concatenate([o * tc, c_new], axis=-1)

    def backward(grad: np.ndarray) -> None:
        dh = grad[:, :hidden]
        dc_new = dh * o * (1.0 - tc * tc) + grad[:, hidden:]
        do = dh * tc
        dgates = np.concatenate(
            [
                dc_new * g * i * (1.0 - i),
                dc_new * c.data * f * (1.0 - f),
                dc_new * i * (1.0 - g * g),
                do * o * (1.0 - o),
            ],
            axis=-1,
        )
        if x_gates.requires_grad:
            x_gates._accumulate(dgates)
        if h.requires_grad:
            h._accumulate(dgates @ weight_hh.data.T)
        if c.requires_grad:
            c._accumulate(dc_new * f)
        if weight_hh.requires_grad:
            weight_hh._accumulate(h.data.T @ dgates)
        if bias_hh.requires_grad:
            bias_hh._accumulate(dgates.sum(axis=0))

    return Tensor._make(out_data, (x_gates, h, c, weight_hh, bias_hh), "lstm_step", backward)


def gru_sequence(x_proj: Tensor, h0: Tensor, weight_hh: Tensor, bias_hh: Tensor) -> Tensor:
    """Scan a whole GRU layer as ONE tape node.

    ``x_proj`` is the input projection for every timestep, (B, L, 3H);
    ``h0`` the initial hidden state (B, H).  Returns all hidden states
    (B, L, H).  The backward is a hand-written truncated-free BPTT over
    saved gate activations.

    One loop serves training, ``no_grad`` and ``inference_mode``: each
    per-step kernel writes ``out=`` into the activations the backward
    reads, so no step allocates, and every gate a step reads is
    contiguous — reset and update gates side by side in ``rz_all``
    (L, 2, B, H), hidden states in ``h_all`` (L+1, B, H).
    """
    batch, length, three_h = x_proj.shape
    hidden = three_h // 3
    w_hh = weight_hh.data
    b_hh = bias_hh.data
    xp = x_proj.data
    dt = np.result_type(xp.dtype, w_hh.dtype, b_hh.dtype, h0.data.dtype)
    # saved activations for backward: reset|update gates, the recurrent
    # pre-activations h @ W_hh + b_hh, candidate states, every hidden state
    rz_all = np.empty((length, 2, batch, hidden), dtype=dt)
    gh_all = np.empty((length, batch, three_h), dtype=dt)
    n_all = np.empty((length, batch, hidden), dtype=dt)
    h_all = np.empty((length + 1, batch, hidden), dtype=dt)
    h_all[0] = h0.data
    # (L, 3, B, H) views: per step, the [reset | update | candidate] blocks
    gx_gates = xp.reshape(batch, length, 3, hidden).transpose(1, 2, 0, 3)
    gh_gates = gh_all.reshape(length, batch, 3, hidden).transpose(0, 2, 1, 3)
    steps = zip(h_all[:-1], h_all[1:], gh_all, gx_gates, gh_gates, rz_all, n_all)
    for h_prev, h, gh, gx, gh3, rz, n in steps:
        np.dot(h_prev, w_hh, out=gh)
        gh += b_hh
        np.add(gx[:2], gh3[:2], out=rz)
        sp_special.expit(rz, out=rz)
        np.multiply(rz[0], gh3[2], out=n)
        n += gx[2]
        np.tanh(n, out=n)
        # h = n + z * (h_prev - n)
        np.subtract(h_prev, n, out=h)
        h *= rz[1]
        h += n
    out = np.ascontiguousarray(h_all[1:].transpose(1, 0, 2))
    # a NaN born mid-scan is invisible in the single fused tape node;
    # report the first offending timestep before _make files a generic one
    _engine.emit_sequence("gru_sequence", out)

    def backward(grad: np.ndarray) -> None:
        w_hh_t = w_hh.T
        dgh_all = np.empty((length, batch, 3 * hidden), dtype=grad.dtype)
        dxp = np.empty_like(xp) if x_proj.requires_grad else None
        dh_next = np.zeros((batch, hidden), dtype=grad.dtype)
        for t in range(length - 1, -1, -1):
            dh = grad[:, t] + dh_next
            (r, z), n, nh, h_prev = rz_all[t], n_all[t], gh_all[t, :, 2 * hidden :], h_all[t]
            dpre_n = dh * (1.0 - z) * (1.0 - n * n)
            dgh = dgh_all[t]
            dgh[:, :hidden] = dpre_n * nh * r * (1.0 - r)
            dgh[:, hidden : 2 * hidden] = dh * (h_prev - n) * z * (1.0 - z)
            dgh[:, 2 * hidden :] = dpre_n * r
            if dxp is not None:
                dxp_t = dxp[:, t]
                dxp_t[:, : 2 * hidden] = dgh[:, : 2 * hidden]
                dxp_t[:, 2 * hidden :] = dpre_n
            dh_next = dh * z + dgh @ w_hh_t
        if dxp is not None:
            x_proj._accumulate(dxp)
        if h0.requires_grad:
            h0._accumulate(dh_next)
        if weight_hh.requires_grad:
            weight_hh._accumulate(
                np.einsum("tbh,tbk->hk", h_all[:length], dgh_all, optimize=True)
            )
        if bias_hh.requires_grad:
            bias_hh._accumulate(dgh_all.sum(axis=(0, 1)))

    return Tensor._make(out, (x_proj, h0, weight_hh, bias_hh), "gru_sequence", backward)


def lstm_sequence(x_proj: Tensor, h0: Tensor, c0: Tensor, weight_hh: Tensor, bias_hh: Tensor) -> Tensor:
    """Scan a whole LSTM layer as ONE tape node.

    ``x_proj`` is (B, L, 4H); returns (B, L, 2H) with hidden states in
    ``[..., :H]`` and cell states in ``[..., H:]`` (both needed so the
    final ``(h, c)`` tuple stays differentiable).  One loop for every
    mode, as in :func:`gru_sequence`: activated gates in ``gates_all``
    (L, 4, B, H), states in ``hc_all`` (L+1, 2, B, H).
    """
    batch, length, four_h = x_proj.shape
    hidden = four_h // 4
    w_hh = weight_hh.data
    b_hh = bias_hh.data
    xp = x_proj.data
    dt = np.result_type(xp.dtype, w_hh.dtype, b_hh.dtype, h0.data.dtype, c0.data.dtype)
    # saved activations for backward: input|forget|cell|output gates,
    # tanh of every cell state, and every (hidden, cell) state pair
    gates_all = np.empty((length, 4, batch, hidden), dtype=dt)
    tc_all = np.empty((length, batch, hidden), dtype=dt)
    hc_all = np.empty((length + 1, 2, batch, hidden), dtype=dt)
    hc_all[0, 0], hc_all[0, 1] = h0.data, c0.data
    gh = np.empty((batch, four_h), dtype=dt)  # h @ W_hh + b_hh, one step's worth
    gh_gates = gh.reshape(batch, 4, hidden).transpose(1, 0, 2)
    gx_gates = xp.reshape(batch, length, 4, hidden).transpose(1, 2, 0, 3)
    steps = zip(hc_all[:-1], hc_all[1:], gx_gates, gates_all, tc_all)
    for (h_prev, c_prev), (h, c), gx, gates, tc in steps:
        np.dot(h_prev, w_hh, out=gh)
        gh += b_hh
        np.add(gx, gh_gates, out=gates)
        i, f, g, o = gates
        sp_special.expit(gates[:2], out=gates[:2])
        np.tanh(g, out=g)
        sp_special.expit(o, out=o)
        # c = f * c_prev + i * g;  h = o * tanh(c)
        np.multiply(f, c_prev, out=c)
        np.multiply(i, g, out=tc)
        c += tc
        np.tanh(c, out=tc)
        np.multiply(o, tc, out=h)
    out = hc_all[1:].transpose(2, 0, 1, 3).reshape(batch, length, 2 * hidden)
    _engine.emit_sequence("lstm_sequence", out)

    def backward(grad: np.ndarray) -> None:
        w_hh_t = w_hh.T
        dgates_all = np.empty((length, batch, 4 * hidden), dtype=grad.dtype)
        dh_next = np.zeros((batch, hidden), dtype=grad.dtype)
        dc_next = np.zeros((batch, hidden), dtype=grad.dtype)
        for t in range(length - 1, -1, -1):
            (i, f, g, o), tc, c_prev = gates_all[t], tc_all[t], hc_all[t, 1]
            dh = grad[:, t, :hidden] + dh_next
            dc_new = dh * o * (1.0 - tc * tc) + grad[:, t, hidden:] + dc_next
            dgates = dgates_all[t]
            dgates[:, :hidden] = dc_new * g * i * (1.0 - i)
            dgates[:, hidden : 2 * hidden] = dc_new * c_prev * f * (1.0 - f)
            dgates[:, 2 * hidden : 3 * hidden] = dc_new * i * (1.0 - g * g)
            dgates[:, 3 * hidden :] = dh * tc * o * (1.0 - o)
            dc_next = dc_new * f
            dh_next = dgates @ w_hh_t
        if x_proj.requires_grad:
            x_proj._accumulate(np.ascontiguousarray(dgates_all.transpose(1, 0, 2)))
        if h0.requires_grad:
            h0._accumulate(dh_next)
        if c0.requires_grad:
            c0._accumulate(dc_next)
        if weight_hh.requires_grad:
            weight_hh._accumulate(
                np.einsum("tbh,tbk->hk", hc_all[:length, 0], dgates_all, optimize=True)
            )
        if bias_hh.requires_grad:
            bias_hh._accumulate(dgates_all.sum(axis=(0, 1)))

    return Tensor._make(out, (x_proj, h0, c0, weight_hh, bias_hh), "lstm_sequence", backward)


# ----------------------------------------------------------------------
# shape manipulation
# ----------------------------------------------------------------------
def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [ensure_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                t._accumulate(grad[tuple(index)])

    return Tensor._make(out_data, tuple(tensors), "concat", backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [ensure_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        slices = np.moveaxis(grad, axis, 0)
        for t, piece in zip(tensors, slices):
            if t.requires_grad:
                t._accumulate(piece)

    return Tensor._make(out_data, tuple(tensors), "stack", backward)


def _pad_axis(x: Tensor, axis: int, before: int, after: int, mode: str) -> Tensor:
    """Pad a single axis; backward folds padded gradients onto sources."""
    width = [(0, 0)] * x.ndim
    width[axis] = (before, after)
    out_data = np.pad(x.data, width, mode=mode)
    length = x.shape[axis]

    def _sel(start, stop):
        index = [slice(None)] * x.ndim
        index[axis] = slice(start, stop)
        return tuple(index)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        core = grad[_sel(before, before + length)].copy()
        if mode == "constant" or (before == 0 and after == 0):
            x._accumulate(core)
            return
        if mode == "edge":
            if before:
                core[_sel(0, 1)] += grad[_sel(0, before)].sum(axis=axis, keepdims=True)
            if after:
                core[_sel(length - 1, length)] += grad[_sel(before + length, before + length + after)].sum(
                    axis=axis, keepdims=True
                )
        elif mode == "wrap":
            if before:
                core[_sel(length - before, length)] += grad[_sel(0, before)]
            if after:
                core[_sel(0, after)] += grad[_sel(before + length, before + length + after)]
        else:
            raise NotImplementedError(f"pad backward not implemented for mode={mode!r}")
        x._accumulate(core)

    return Tensor._make(out_data, (x,), f"pad[{mode}]", backward)


def pad(x: Tensor, pad_width: Sequence[Tuple[int, int]], mode: str = "constant") -> Tensor:
    """Differentiable numpy-style pad. Supports constant/edge/wrap modes."""
    out = x
    for axis, (before, after) in enumerate(pad_width):
        if before or after:
            out = _pad_axis(out, axis, before, after, mode)
    return out


def split(x: Tensor, sections: int, axis: int = 0) -> list:
    """Split into equal sections along ``axis`` (np.split semantics)."""
    size = x.shape[axis]
    if size % sections:
        raise ValueError(f"cannot split axis of size {size} into {sections} equal parts")
    step = size // sections
    pieces = []
    for i in range(sections):
        index = [slice(None)] * x.ndim
        index[axis] = slice(i * step, (i + 1) * step)
        pieces.append(x[tuple(index)])
    return pieces


# ----------------------------------------------------------------------
# convolution & pooling (1-D, batch-first: (B, L, C) layout)
# ----------------------------------------------------------------------
def _sliding_windows(data: np.ndarray, kernel: int) -> np.ndarray:
    """Return a (B, L_out, kernel, C) view of (B, L, C) data."""
    return np.lib.stride_tricks.sliding_window_view(data, kernel, axis=1).transpose(0, 1, 3, 2)


def conv1d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    padding: int = 0,
    padding_mode: str = "constant",
) -> Tensor:
    """1-D convolution over (B, L, C_in) with weight (K, C_in, C_out)."""
    kernel = weight.shape[0]
    if padding:
        x_padded = pad(x, ((0, 0), (padding, padding), (0, 0)), mode=padding_mode)
    else:
        x_padded = x
    windows = _sliding_windows(x_padded.data, kernel)  # (B, L_out, K, C_in)
    out_data = np.einsum("blkc,kco->blo", windows, weight.data, optimize=True)
    if bias is not None:
        out_data = out_data + bias.data

    b_out, l_out = out_data.shape[0], out_data.shape[1]
    l_in = x_padded.shape[1]

    def backward(grad: np.ndarray) -> None:
        if weight.requires_grad:
            weight._accumulate(np.einsum("blkc,blo->kco", windows, grad, optimize=True))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 1)))
        if x_padded.requires_grad:
            grad_x = np.zeros((b_out, l_in, x_padded.shape[2]), dtype=grad.dtype)
            contrib = np.einsum("blo,kco->blkc", grad, weight.data, optimize=True)
            for k in range(kernel):
                grad_x[:, k : k + l_out, :] += contrib[:, :, k, :]
            x_padded._accumulate(grad_x)

    return Tensor._make(out_data, (x_padded, weight) + ((bias,) if bias is not None else ()), "conv1d", backward)


def avg_pool1d(x: Tensor, kernel: int, stride: int = 1, pad_edges: bool = True) -> Tensor:
    """Moving-average pooling over the time axis of (B, L, C).

    With ``pad_edges`` the series is edge-padded so the output keeps length
    L — exactly the moving-average trend extractor of Autoformer/Conformer
    (Eq. 9 in the paper).
    """
    if pad_edges:
        left = (kernel - 1) // 2
        right = kernel - 1 - left
        x = pad(x, ((0, 0), (left, right), (0, 0)), mode="edge")
    windows = _sliding_windows(x.data, kernel)  # (B, L_out, K, C)
    windows = windows[:, ::stride]
    out_data = windows.mean(axis=2)
    l_in = x.shape[1]

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            grad_x = np.zeros((grad.shape[0], l_in, grad.shape[2]), dtype=grad.dtype)
            scaled = grad / kernel
            for j in range(grad.shape[1]):
                start = j * stride
                grad_x[:, start : start + kernel, :] += scaled[:, j : j + 1, :]
            x._accumulate(grad_x)

    return Tensor._make(out_data, (x,), "avg_pool1d", backward)


def max_pool1d(x: Tensor, kernel: int, stride: int) -> Tensor:
    """Max pooling over the time axis of (B, L, C)."""
    windows = _sliding_windows(x.data, kernel)[:, ::stride]  # (B, L_out, K, C)
    out_data = windows.max(axis=2)
    argmax = windows.argmax(axis=2)  # (B, L_out, C)
    l_in = x.shape[1]

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            grad_x = np.zeros((grad.shape[0], l_in, grad.shape[2]), dtype=grad.dtype)
            b_idx, j_idx, c_idx = np.indices(argmax.shape)
            np.add.at(grad_x, (b_idx, j_idx * stride + argmax, c_idx), grad)
            x._accumulate(grad_x)

    return Tensor._make(out_data, (x,), "max_pool1d", backward)


# ----------------------------------------------------------------------
# losses
# ----------------------------------------------------------------------
def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    target = ensure_tensor(target)
    diff = prediction - target.detach()
    return mean(diff * diff)


def mae_loss(prediction: Tensor, target: Tensor) -> Tensor:
    target = ensure_tensor(target)
    return mean(abs(prediction - target.detach()))


def huber_loss(prediction: Tensor, target: Tensor, delta: float = 1.0) -> Tensor:
    target = ensure_tensor(target)
    diff = prediction - target.detach()
    absdiff = abs(diff)
    quadratic = 0.5 * diff * diff
    linear = delta * absdiff - 0.5 * delta * delta
    return mean(where(absdiff.data <= delta, quadratic, linear))


# ----------------------------------------------------------------------
# dropout
# ----------------------------------------------------------------------
def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    if not training or p <= 0.0:
        return x
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep).astype(x.data.dtype) / keep

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * mask)

    return Tensor._make(x.data * mask, (x,), "dropout", backward)
