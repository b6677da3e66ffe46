"""The attention zoo.

Every mechanism the paper exercises (Table VI, Fig. 5):

- :class:`FullAttention` — Vaswani scaled dot-product, O(L^2).
- :class:`SlidingWindowAttention` — Conformer's windowed attention; each
  point attends to w/2 neighbours on each side.  Implemented with strided
  neighbour gathers so cost is genuinely O(w * L), which is what makes the
  Fig. 5 complexity curves reproducible.
- :class:`ProbSparseAttention` — Informer's query-sparsity mechanism.
- :class:`LSHAttention` — Reformer's hashing attention (chunked buckets).
- :class:`LogSparseAttention` — LogTrans exponential-step mask.
- :class:`AutoCorrelation` — Autoformer's FFT-based delay aggregation.

All mechanisms share the signature ``forward(q, k, v, mask=None)`` with
``q, k, v`` shaped ``(B, H, L, d_head)`` and return the same shape.
:class:`MultiHeadAttention` wraps a mechanism with input/output
projections on ``(B, L, d_model)``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional

import numpy as np

from repro.analysis.contracts.spec import shape_contract
from repro.nn.layers import Dropout, Linear
from repro.nn.module import Module
from repro.tensor import Tensor, functional as F, get_default_dtype, plan_cache

_NEG_INF = -1e9

#: Shared contract for every mechanism: heads-split inputs, same-shape output.
_MECHANISM_CONTRACT = dict(
    inputs={"q": "B N Lq Dh", "k": "B N Lk Dh", "v": "B N Lk Dh"},
    output="B N Lq Dh",
)


def causal_mask(length: int) -> np.ndarray:
    """Boolean (L, L) mask; True marks *disallowed* (future) positions.

    Cached by length (read-only — copy before mutating).
    """

    def build() -> np.ndarray:
        mask = np.triu(np.ones((length, length), dtype=bool), k=1)
        mask.setflags(write=False)
        return mask

    return plan_cache().get(("causal_mask", length), build)


def _window_plan(length: int, half: int, causal: bool):
    """Cached (idx, invalid) neighbour-gather plan for windowed attention.

    ``idx`` is the (L, w+1) clipped neighbour index map; ``invalid`` the
    matching boolean mask of out-of-range (or future, when causal)
    positions, or None when every slot is valid.  Keyed by the full
    geometry, so a sequence-length change rebuilds instead of reusing a
    stale plan.
    """

    def build():
        offsets = np.arange(-half, half + 1)
        positions = np.arange(length)[:, None] + offsets[None, :]
        idx = np.clip(positions, 0, length - 1)  # (L, w+1)
        invalid = (positions < 0) | (positions >= length)
        if causal:
            invalid = invalid | (offsets[None, :] > 0)
        idx.setflags(write=False)
        if not np.any(invalid):
            return idx, None
        invalid.setflags(write=False)
        return idx, invalid

    return plan_cache().get(("window_plan", length, half, causal), build)


class AttentionMechanism(Module):
    """Base class so the registry and MHA wrapper can type-check."""

    def forward(self, q: Tensor, k: Tensor, v: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        raise NotImplementedError


class FullAttention(AttentionMechanism):
    """Standard scaled dot-product attention (quadratic)."""

    def __init__(self, dropout: float = 0.0, causal: bool = False) -> None:
        super().__init__()
        self.dropout = Dropout(dropout)
        self.causal = causal

    @shape_contract(**_MECHANISM_CONTRACT)
    def forward(self, q: Tensor, k: Tensor, v: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        d_head = q.shape[-1]
        scores = (q @ k.swapaxes(-1, -2)) / math.sqrt(d_head)
        l_q, l_k = q.shape[-2], k.shape[-2]
        if self.causal and l_q == l_k:
            block = causal_mask(l_q)
            mask = block if mask is None else (mask | block)
        # fused mask+softmax: no (B, H, L, L) constant tensor is materialised
        weights = self.dropout(F.softmax_masked(scores, mask, axis=-1))
        return weights @ v


class SlidingWindowAttention(AttentionMechanism):
    """Conformer's windowed attention: O(w * L) time and memory.

    Each query position attends to the ``window // 2`` neighbours on each
    side (plus itself).  Keys/values are edge-padded and gathered into
    per-position neighbourhoods with a strided view, so no L x L matrix is
    ever materialized.
    """

    def __init__(self, window: int = 2, dropout: float = 0.0, causal: bool = False) -> None:
        super().__init__()
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.half = window // 2
        self.dropout = Dropout(dropout)
        self.causal = causal

    def _neighbourhoods(self, x: Tensor, length: int) -> Tensor:
        """Gather (B, H, L, w+1, d) neighbour windows via a cached index map."""
        idx, _ = _window_plan(length, self.half, self.causal)
        return x[:, :, idx, :]  # fancy index on axis 2 -> (B, H, L, w+1, d)

    @shape_contract(**_MECHANISM_CONTRACT)
    def forward(self, q: Tensor, k: Tensor, v: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        if k.shape[-2] != q.shape[-2]:
            raise ValueError("sliding-window attention requires self-attention (L_q == L_k)")
        batch, heads, length, d_head = q.shape
        k_windows = self._neighbourhoods(k, length)  # (B, H, L, w+1, d)
        v_windows = self._neighbourhoods(v, length)
        scale = math.sqrt(d_head)
        _, invalid_mask = _window_plan(length, self.half, self.causal)

        if F.fused_ops_enabled():
            # contracted matmul + fused masked softmax: 3 tape nodes total
            scores = F.einsum("bhld,bhlwd->bhlw", q, k_windows) * (1.0 / scale)
            weights = self.dropout(F.softmax_masked(scores, invalid_mask, axis=-1))
            return F.einsum("bhlw,bhlwd->bhld", weights, v_windows)
        return self._forward_unfused(q, k_windows, v_windows, invalid_mask, scale)

    def _forward_unfused(self, q, k_windows, v_windows, invalid_mask, scale):
        """Broadcast-multiply-sum scores (benchmark baseline / reference)."""
        q_expanded = q.expand_dims(3)  # (B, H, L, 1, d)
        scores = (q_expanded * k_windows).sum(axis=-1) / scale  # (B, H, L, w+1)
        if invalid_mask is not None:
            scores = F.where(
                np.broadcast_to(invalid_mask, scores.shape), Tensor(np.full(scores.shape, _NEG_INF)), scores
            )
        weights = self.dropout(F.softmax(scores, axis=-1))  # (B, H, L, w+1)
        return (weights.expand_dims(-1) * v_windows).sum(axis=3)


class GlobalWindowAttention(AttentionMechanism):
    """Longformer's full pattern: sliding window + global tokens.

    A fixed set of ``n_global`` evenly-spaced positions attends to (and is
    attended by) every position; all other positions use the local window.
    Cost is O(L * (w + g) + g * L) — linear in L for fixed window and
    global budget, matching Longformer's "task-motivated global attention"
    (§V-A2 of the paper).
    """

    def __init__(self, window: int = 8, n_global: int = 4, dropout: float = 0.0) -> None:
        super().__init__()
        if n_global < 1:
            raise ValueError("n_global must be >= 1")
        self.local = SlidingWindowAttention(window=window, dropout=dropout)
        self.window = window
        self.n_global = n_global
        self.dropout = Dropout(dropout)

    def _global_indices(self, length: int) -> np.ndarray:
        count = min(self.n_global, length)
        return np.unique(np.linspace(0, length - 1, count).astype(np.int64))

    def _plan(self, length: int, dt):
        """Cached geometry: window index map, combined invalid mask, global
        token indices, and the one-hot scatter matrices (built in the
        active compute dtype so no per-call casts are needed)."""

        def build():
            glob = self._global_indices(length)
            g = len(glob)
            idx, invalid_local = _window_plan(length, self.window // 2, False)
            if invalid_local is None:
                invalid_local = np.zeros(idx.shape, dtype=bool)
            invalid = np.concatenate([invalid_local, np.zeros((length, g), dtype=bool)], axis=1)
            onehot = np.zeros((length, g), dtype=dt)
            onehot[glob, np.arange(g)] = 1.0
            not_global = 1.0 - onehot.sum(axis=1, keepdims=True)  # (L, 1)
            for arr in (glob, invalid, onehot, not_global):
                arr.setflags(write=False)
            return glob, invalid, onehot, not_global

        return plan_cache().get(("global_plan", length, self.window, self.n_global, str(dt)), build)

    @shape_contract(**_MECHANISM_CONTRACT)
    def forward(self, q: Tensor, k: Tensor, v: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        if k.shape[-2] != q.shape[-2]:
            raise ValueError("global-window attention requires self-attention (L_q == L_k)")
        batch, heads, length, d_head = q.shape
        glob, invalid, onehot, not_global = self._plan(length, get_default_dtype())
        g = len(glob)
        scale = math.sqrt(d_head)

        # ----- non-global queries: window neighbours + the global tokens -----
        idx, _ = _window_plan(length, self.window // 2, False)
        k_local = k[:, :, idx, :]  # (B, H, L, w+1, d)
        v_local = v[:, :, idx, :]
        k_glob = k[:, :, glob, :].expand_dims(2).broadcast_to((batch, heads, length, g, d_head))
        v_glob = v[:, :, glob, :].expand_dims(2).broadcast_to((batch, heads, length, g, d_head))
        keys = F.concat([k_local, k_glob], axis=3)  # (B, H, L, w+1+g, d)
        values = F.concat([v_local, v_glob], axis=3)

        if F.fused_ops_enabled():
            scores = F.einsum("bhld,bhlwd->bhlw", q, keys) * (1.0 / scale)  # (B, H, L, w+1+g)
            weights = self.dropout(F.softmax_masked(scores, invalid, axis=-1))
            local_out = F.einsum("bhlw,bhlwd->bhld", weights, values)  # (B, H, L, d)
        else:
            scores = (q.expand_dims(3) * keys).sum(axis=-1) / scale
            scores = F.where(
                np.broadcast_to(invalid, scores.shape), Tensor(np.full(scores.shape, _NEG_INF)), scores
            )
            weights = self.dropout(F.softmax(scores, axis=-1))
            local_out = (weights.expand_dims(-1) * values).sum(axis=3)

        # ----- global queries: full rows over every position -----
        q_glob = q[:, :, glob, :]  # (B, H, g, d)
        glob_scores = (q_glob @ k.swapaxes(-1, -2)) / scale  # (B, H, g, L)
        glob_weights = self.dropout(F.softmax(glob_scores, axis=-1))
        glob_out = glob_weights @ v  # (B, H, g, d)

        # scatter the global rows over the local output with a one-hot mix
        return local_out * Tensor(not_global) + Tensor(onehot) @ glob_out


@lru_cache(maxsize=64)
def _log_sparse_mask(l_q: int, l_k: int, sub_len: int) -> np.ndarray:
    """Cached O(L^2) LogTrans mask; True marks disallowed positions.

    Rebuilding this Python-looped mask on every forward dominated
    LogSparseAttention's runtime; the geometry only depends on
    ``(l_q, l_k, sub_len)`` so it is built once and frozen.
    """
    allowed = np.zeros((l_q, l_k), dtype=bool)
    for i in range(l_q):
        allowed[i, max(0, i - sub_len + 1) : i + 1] = True  # local window
        step = 1
        while i - step >= 0:
            allowed[i, i - step] = True
            step *= 2
    mask = ~allowed
    mask.setflags(write=False)  # shared across instances — keep it immutable
    return mask


class LogSparseAttention(AttentionMechanism):
    """LogTrans: each point attends to itself and exponentially-spaced
    previous points (1, 2, 4, ... steps back), plus ``sub_len`` immediate
    neighbours."""

    def __init__(self, sub_len: int = 1, dropout: float = 0.0) -> None:
        super().__init__()
        self.sub_len = sub_len
        self.dropout = Dropout(dropout)
        self.inner = FullAttention(dropout=0.0)

    def log_mask(self, l_q: int, l_k: int) -> np.ndarray:
        """True marks disallowed positions (cached per (l_q, l_k, sub_len))."""
        return _log_sparse_mask(l_q, l_k, self.sub_len)

    @shape_contract(**_MECHANISM_CONTRACT)
    def forward(self, q: Tensor, k: Tensor, v: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        block = self.log_mask(q.shape[-2], k.shape[-2])
        combined = block if mask is None else (mask | block)
        return self.inner(q, k, v, mask=combined)


class ProbSparseAttention(AttentionMechanism):
    """Informer's ProbSparse attention.

    Queries are ranked by the sparsity measure
    ``M(q) = max_j(q k_j / sqrt(d)) - mean_j(q k_j / sqrt(d))`` estimated on
    a sampled subset of keys; only the top ``u = factor * ln(L)`` queries
    attend, the rest output the mean of V (or the cumulative mean when
    causal).
    """

    def __init__(self, factor: int = 5, dropout: float = 0.0, causal: bool = False, seed: int = 0) -> None:
        super().__init__()
        self.factor = factor
        self.dropout = Dropout(dropout)
        self.causal = causal
        self._rng = np.random.default_rng(seed)

    @shape_contract(**_MECHANISM_CONTRACT)
    def forward(self, q: Tensor, k: Tensor, v: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        batch, heads, l_q, d_head = q.shape
        l_k = k.shape[-2]
        u_keys = min(l_k, max(1, int(self.factor * math.ceil(math.log1p(l_k)))))
        u_queries = min(l_q, max(1, int(self.factor * math.ceil(math.log1p(l_q)))))

        # --- rank queries on sampled keys (selection is non-differentiable,
        # exactly like Informer's argsort) ---
        sample_idx = self._rng.choice(l_k, size=u_keys, replace=False)
        scores_sample = q.data @ np.swapaxes(k.data[:, :, sample_idx, :], -1, -2) / math.sqrt(d_head)
        sparsity = scores_sample.max(axis=-1) - scores_sample.mean(axis=-1)  # (B, H, L_q)
        top = np.argsort(-sparsity, axis=-1)[:, :, :u_queries]  # (B, H, u)

        b_idx = np.arange(batch)[:, None, None]
        h_idx = np.arange(heads)[None, :, None]
        q_top = q[b_idx, h_idx, top]  # (B, H, u, d)

        scores = (q_top @ k.swapaxes(-1, -2)) / math.sqrt(d_head)  # (B, H, u, L_k)
        blocked: Optional[np.ndarray] = None
        if self.causal and l_q == l_k:
            blocked = np.arange(l_k)[None, None, None, :] > top[..., None]
        if mask is not None:
            gathered = np.broadcast_to(mask, (batch, heads, l_q, l_k))[b_idx, h_idx, top]
            blocked = gathered if blocked is None else (blocked | gathered)
        weights = self.dropout(F.softmax_masked(scores, blocked, axis=-1))
        attended = weights @ v  # (B, H, u, d)

        # --- lazy queries output the (cumulative) mean of V ---
        if self.causal and l_q == l_k:
            # differentiable cumulative mean via a constant lower-triangular
            # mix (cached: it only depends on length and compute dtype)
            dt = get_default_dtype()

            def build_tri() -> np.ndarray:
                tri = np.tril(np.ones((l_k, l_k), dtype=dt)) / np.arange(1, l_k + 1, dtype=dt)[:, None]
                tri.setflags(write=False)
                return tri

            tri = plan_cache().get(("probsparse_tri", l_k, str(dt)), build_tri)
            baseline = Tensor(tri) @ v  # (B, H, L, d)
        else:
            baseline = v.mean(axis=2, keepdims=True).broadcast_to((batch, heads, l_q, d_head))

        # scatter attended rows over the baseline with a constant one-hot mix
        # (advanced indexing over (B, H, u) — no Python-level batch/head loops)
        onehot = np.zeros((batch, heads, l_q, u_queries))
        onehot[b_idx, h_idx, top, np.arange(u_queries)] = 1.0
        selected_rows = onehot.sum(axis=-1, keepdims=True)  # (B, H, L_q, 1), 0/1
        scattered = Tensor(onehot) @ attended  # (B, H, L_q, d)
        return scattered + baseline * Tensor(1.0 - selected_rows)


class LSHAttention(AttentionMechanism):
    """Reformer-style locality-sensitive-hashing attention.

    Queries/keys are bucketed by random rotations; attention is computed
    within equal-size chunks of the bucket-sorted sequence (plus the
    previous chunk, as in the paper).  Hashing and sorting are
    non-differentiable bookkeeping; the attention itself is differentiable
    through gather/scatter by permutation.
    """

    def __init__(self, bucket_length: int = 24, n_rounds: int = 1, dropout: float = 0.0, seed: int = 0) -> None:
        super().__init__()
        self.bucket_length = bucket_length
        self.n_rounds = n_rounds
        self.dropout = Dropout(dropout)
        self._rng = np.random.default_rng(seed)
        self.inner = FullAttention(dropout=dropout)

    @shape_contract(**_MECHANISM_CONTRACT)
    def forward(self, q: Tensor, k: Tensor, v: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        batch, heads, length, d_head = q.shape
        chunk = min(self.bucket_length, length)
        if length % chunk != 0:
            # fall back to full attention on awkward lengths (rare; tests cover it)
            return self.inner(q, k, v, mask=mask)
        n_chunks = length // chunk
        n_buckets = max(2, 2 * n_chunks)

        outputs = []
        for _ in range(self.n_rounds):
            rotations = self._rng.normal(size=(d_head, n_buckets // 2))
            rotated = q.data @ rotations  # (B, H, L, n_buckets/2)
            buckets = np.argmax(np.concatenate([rotated, -rotated], axis=-1), axis=-1)  # (B, H, L)
            order = np.argsort(buckets + np.arange(length) / (length * 10.0), axis=-1, kind="stable")
            inverse = np.argsort(order, axis=-1)

            b_idx = np.arange(batch)[:, None, None]
            h_idx = np.arange(heads)[None, :, None]
            q_sorted = q[b_idx, h_idx, order]
            k_sorted = k[b_idx, h_idx, order]
            v_sorted = v[b_idx, h_idx, order]

            # chunked attention: each chunk attends to itself + previous chunk
            q_chunks = q_sorted.reshape(batch, heads, n_chunks, chunk, d_head)
            k_chunks = k_sorted.reshape(batch, heads, n_chunks, chunk, d_head)
            v_chunks = v_sorted.reshape(batch, heads, n_chunks, chunk, d_head)
            prev = np.concatenate([[0], np.arange(n_chunks - 1)])  # chunk i looks back at i-1 (chunk 0 at itself)
            k_ctx = F.concat([k_chunks, k_chunks[:, :, prev]], axis=3)  # (B, H, C, 2*chunk, d)
            v_ctx = F.concat([v_chunks, v_chunks[:, :, prev]], axis=3)
            scores = (q_chunks @ k_ctx.swapaxes(-1, -2)) / math.sqrt(d_head)
            weights = self.dropout(F.softmax(scores, axis=-1))
            out_sorted = (weights @ v_ctx).reshape(batch, heads, length, d_head)
            outputs.append(out_sorted[b_idx, h_idx, inverse])
        result = outputs[0]
        for extra in outputs[1:]:
            result = result + extra
        return result * (1.0 / len(outputs))


class AutoCorrelation(AttentionMechanism):
    """Autoformer's auto-correlation mechanism.

    Series-wise correlation R(tau) between queries and keys is estimated
    with FFT (fast, used only for *selecting* the top-k delays — selection
    is non-differentiable in the original too).  The k selected correlation
    values are then recomputed differentiably in the time domain, softmaxed,
    and used to aggregate time-rolled values.
    """

    def __init__(self, factor: int = 1, dropout: float = 0.0) -> None:
        super().__init__()
        self.factor = factor
        self.dropout = Dropout(dropout)

    @shape_contract(**_MECHANISM_CONTRACT)
    def forward(self, q: Tensor, k: Tensor, v: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        batch, heads, length, d_head = q.shape
        if k.shape[-2] != length:  # align key/value length to queries (as Autoformer does)
            if k.shape[-2] > length:
                k = k[:, :, :length, :]
                v = v[:, :, :length, :]
            else:
                pad_len = length - k.shape[-2]
                zeros = Tensor(np.zeros((batch, heads, pad_len, d_head), dtype=k.data.dtype))
                k = F.concat([k, zeros], axis=2)
                v = F.concat([v, zeros], axis=2)

        top_k = max(1, int(self.factor * math.ceil(math.log1p(length))))
        top_k = min(top_k, length)

        # -- FFT-based correlation for delay selection (detached) --
        q_fft = np.fft.rfft(q.data, axis=2)
        k_fft = np.fft.rfft(k.data, axis=2)
        corr = np.fft.irfft(q_fft * np.conj(k_fft), n=length, axis=2)  # (B, H, L, d)
        mean_corr = corr.mean(axis=(1, 3))  # (B, L): average over heads & channels
        delays = np.argsort(-mean_corr, axis=-1)[:, :top_k]  # (B, top_k)

        # -- differentiable re-computation of the selected correlations --
        weights_list = []
        rolled_values = []
        for j in range(top_k):
            tau = delays[:, j]  # (B,)
            rolled_k = _roll_time(k, tau)
            corr_val = (q * rolled_k).mean(axis=(1, 2, 3))  # (B,)
            weights_list.append(corr_val)
            rolled_values.append(_roll_time(v, tau))
        weights = F.softmax(F.stack(weights_list, axis=1), axis=1)  # (B, top_k)
        out = None
        for j in range(top_k):
            w = weights[:, j].reshape(batch, 1, 1, 1)
            term = rolled_values[j] * w
            out = term if out is None else out + term
        return self.dropout(out)


def _roll_time(x: Tensor, shifts: np.ndarray) -> Tensor:
    """Roll each batch element of (B, H, L, d) along time by its own shift."""
    batch, _, length, _ = x.shape
    idx = (np.arange(length)[None, :] + shifts[:, None]) % length  # (B, L)
    b_idx = np.arange(batch)[:, None, None]
    h_idx = np.arange(x.shape[1])[None, :, None]
    return x[b_idx, h_idx, idx[:, None, :]]


class MultiHeadAttention(Module):
    """Input/output projections around a pluggable attention mechanism."""

    def __init__(
        self,
        d_model: int,
        n_heads: int,
        mechanism: Optional[AttentionMechanism] = None,
        dropout: float = 0.0,
        rng=None,
    ) -> None:
        super().__init__()
        if d_model % n_heads:
            raise ValueError(f"d_model={d_model} not divisible by n_heads={n_heads}")
        self.d_model = d_model
        self.n_heads = n_heads
        self.d_head = d_model // n_heads
        self.mechanism = mechanism if mechanism is not None else FullAttention(dropout=dropout)
        self.w_q = Linear(d_model, d_model, rng=rng)
        self.w_k = Linear(d_model, d_model, rng=rng)
        self.w_v = Linear(d_model, d_model, rng=rng)
        self.w_o = Linear(d_model, d_model, rng=rng)
        self.dropout = Dropout(dropout)

    def _split_heads(self, x: Tensor) -> Tensor:
        batch, length, _ = x.shape
        return x.reshape(batch, length, self.n_heads, self.d_head).transpose(0, 2, 1, 3)

    def _merge_heads(self, x: Tensor) -> Tensor:
        batch, heads, length, d_head = x.shape
        return x.transpose(0, 2, 1, 3).reshape(batch, length, heads * d_head)

    @shape_contract(
        inputs={"query": "B Lq Dm", "key": "B Lk Dm", "value": "B Lk Dm"},
        output="B Lq Dm",
    )
    def forward(
        self,
        query: Tensor,
        key: Optional[Tensor] = None,
        value: Optional[Tensor] = None,
        mask: Optional[np.ndarray] = None,
    ) -> Tensor:
        key = query if key is None else key
        value = key if value is None else value
        q = self._split_heads(self.w_q(query))
        k = self._split_heads(self.w_k(key))
        v = self._split_heads(self.w_v(value))
        out = self.mechanism(q, k, v, mask=mask)
        return self.dropout(self.w_o(self._merge_heads(out)))


_MECHANISMS = {
    "full": FullAttention,
    "sliding_window": SlidingWindowAttention,
    "global_window": GlobalWindowAttention,
    "prob_sparse": ProbSparseAttention,
    "lsh": LSHAttention,
    "log_sparse": LogSparseAttention,
    "auto_correlation": AutoCorrelation,
}


def get_attention(name: str, **kwargs) -> AttentionMechanism:
    """Instantiate an attention mechanism by registry name."""
    try:
        cls = _MECHANISMS[name]
    except KeyError:
        raise ValueError(f"unknown attention {name!r}; choose from {sorted(_MECHANISMS)}") from None
    return cls(**kwargs)


def available_attentions() -> list:
    """Names of all registered attention mechanisms."""
    return sorted(_MECHANISMS)
