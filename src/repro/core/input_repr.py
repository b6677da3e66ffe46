"""Conformer's input-representation block (Eqs. 1-6, §IV-A).

Two ingredients are fused:

- **Multivariate correlation** ``W^R`` (Eqs. 1-2): FFT auto-correlation of
  the series highlights which variables carry informative rhythm; a
  softmax over variables turns this into per-timestep variable weights.
  As in the attention zoo, the FFT score computation is treated as
  data-derived weighting (the gradient flows through the weighted series
  ``W^R * X``, not through the FFT itself).
- **Multiscale dynamics** ``Gamma_bar^S`` (Eqs. 3-4): calendar features at
  K temporal resolutions are embedded into d_model and combined by
  per-scale learned time-mixing matrices ``W_k^S`` (L x L).

Eq. (5) then embeds the correlation-weighted series with a convolution
and Eq. (6) adds the multiscale term.  All six ablation variants of
Table V and the four alternative fusion methods of Table VIII are
implemented behind config switches.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import Conv1d, Linear, Module, ModuleList, Parameter, init
from repro.tensor import Tensor, functional as F

VARIANTS = ("full", "-gamma", "-r", "-r-gamma", "-x", "-x-gamma")


def multivariate_correlation_weights(x: np.ndarray) -> np.ndarray:
    """Eqs. (1)-(2): softmax over variables of the FFT auto-correlation.

    Parameters
    ----------
    x: (B, L, D) raw series values.

    Returns
    -------
    (B, L, D) non-negative weights summing to 1 over the variable axis.
    """
    spectrum = np.fft.rfft(x, axis=1)
    corr = np.fft.irfft(spectrum * np.conj(spectrum), n=x.shape[1], axis=1)
    # softmax in place on the fresh irfft output: no further temporaries
    corr /= max(x.shape[1], 1)
    corr -= corr.max(axis=-1, keepdims=True)
    np.exp(corr, out=corr)
    corr /= corr.sum(axis=-1, keepdims=True)
    return corr


class MultiscaleDynamics(Module):
    """Eqs. (3)-(4): per-resolution embedding + learned L x L time mixing."""

    def __init__(self, n_scales: int, seq_len: int, d_model: int, rng=None) -> None:
        super().__init__()
        self.n_scales = n_scales
        self.seq_len = seq_len
        self.embeddings = ModuleList([Linear(1, d_model, rng=rng) for _ in range(n_scales)])
        # W^S in R^{L x L x K}: one time-mixing matrix per scale, near-identity init
        mixers = []
        for _ in range(n_scales):
            mixers.append(Parameter(np.eye(seq_len) / n_scales + init.normal(seq_len, seq_len, std=0.01, rng=rng)))
        self.mixers = mixers
        for i, m in enumerate(mixers):
            self.register_parameter(f"mixer_{i}", m)
        self.bias = Parameter(init.zeros(seq_len, d_model))

    def forward(self, marks: Tensor) -> Tensor:
        """marks: (B, L, K) calendar features -> (B, L, d_model)."""
        if marks.shape[1] != self.seq_len:
            raise ValueError(f"expected sequence length {self.seq_len}, got {marks.shape[1]}")
        if marks.shape[2] < self.n_scales:
            raise ValueError(f"need at least {self.n_scales} mark columns, got {marks.shape[2]}")
        out: Optional[Tensor] = None
        for k in range(self.n_scales):
            column = marks[:, :, k : k + 1]  # (B, L, 1)
            embedded = self.embeddings[k](column)  # (B, L, d)
            mixed = self.mixers[k] @ embedded  # (L, L) @ (B, L, d) -> (B, L, d)
            out = mixed if out is None else out + mixed
        return out + self.bias


class InputRepresentation(Module):
    """The full Eq. (6) block with Table V variants and Table VIII fusions.

    variant:
        ``full``     X^v + Gamma;  X^v = Conv(W^R X + X)
        ``-gamma``   X^v only
        ``-r``       Conv(X) + Gamma
        ``-r-gamma`` Conv(X)
        ``-x``       Conv(W^R X) + Gamma
        ``-x-gamma`` Conv(W^R X)
    fusion_method (overrides variant when nonzero, Table VIII;
    ``W^Gamma = Softmax(Gamma_bar^S)`` projected back onto variables):
        1  Conv(W^Gamma W^R X + X)
        2  Conv(W^R X + W^Gamma X)
        3  Conv(W^R X + W^Gamma X + X)
        4  Conv(W^R X + X) * W^Gamma
    """

    def __init__(
        self,
        d_x: int,
        d_model: int,
        seq_len: int,
        n_scales: int = 4,
        variant: str = "full",
        fusion_method: int = 0,
        rng=None,
    ) -> None:
        super().__init__()
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
        if fusion_method not in {0, 1, 2, 3, 4}:
            raise ValueError("fusion_method must be 0..4")
        self.variant = variant
        self.fusion_method = fusion_method
        self.conv = Conv1d(d_x, d_model, kernel_size=3, padding="same", padding_mode="circular", rng=rng)
        self.needs_gamma = fusion_method != 0 or variant in ("full", "-r", "-x")
        if self.needs_gamma:
            self.multiscale = MultiscaleDynamics(n_scales, seq_len, d_model, rng=rng)
        if fusion_method != 0:
            # project Gamma weights back onto the variable space for W^Gamma X
            self.gamma_proj = Linear(d_model, d_x, rng=rng)

    def _gamma_weights(self, gamma: Tensor) -> Tensor:
        """W^Gamma: softmax over variables of the projected multiscale term."""
        return F.softmax(self.gamma_proj(gamma), axis=-1)

    def forward(self, x: Tensor, marks: Tensor) -> Tensor:
        """x: (B, L, d_x) scaled values; marks: (B, L, K) calendar features."""
        w_r = Tensor(multivariate_correlation_weights(x.data))
        gamma = self.multiscale(marks) if self.needs_gamma else None

        if self.fusion_method:
            w_gamma = self._gamma_weights(gamma)
            if self.fusion_method == 1:
                mixed = w_gamma * (w_r * x) + x
                return self.conv(mixed)
            if self.fusion_method == 2:
                return self.conv(w_r * x + w_gamma * x)
            if self.fusion_method == 3:
                return self.conv(w_r * x + w_gamma * x + x)
            # method 4: scale the embedded output by softmax(Gamma) channelwise
            embedded = self.conv(w_r * x + x)
            return embedded * F.softmax(gamma, axis=-1)

        if self.variant == "full":
            return self.conv(w_r * x + x) + gamma
        if self.variant == "-gamma":
            return self.conv(w_r * x + x)
        if self.variant == "-r":
            return self.conv(x) + gamma
        if self.variant == "-r-gamma":
            return self.conv(x)
        if self.variant == "-x":
            return self.conv(w_r * x) + gamma
        # "-x-gamma"
        return self.conv(w_r * x)
