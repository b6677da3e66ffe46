"""In-memory series store: the data side of the serving runtime.

Forecast requests name a ``series_id`` and a horizon; the model needs the
Informer-style input tuple (``x_enc``, ``x_mark``, ``x_dec``, ``y_mark``)
built from that series' most recent window.  The store owns exactly that
translation:

- :meth:`ingest` appends new observations (the streaming write path —
  the server invalidates cached forecasts for the series on every call);
- :meth:`window` assembles one request's model inputs from the tail of
  the series, mirroring :class:`repro.data.windows.WindowedDataset`'s
  convention (last ``label_len`` known values + zero-padded placeholders
  in the decoder input).

Calendar marks are a pure function of the *absolute observation index*
(``mark_fn``), so future decoder marks are known in advance — the same
property real calendar features have — and a window assembled for a
batched forward is bit-identical to the one assembled for a lone request.
All methods are thread-safe: worker threads read windows while producer
threads ingest.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["cyclic_marks", "SeriesStore", "RequestWindow"]

#: default mark periods — hourly-data shaped (day, week, month-ish, season-ish)
_MARK_PERIODS = (24, 168, 720, 8760)


def cyclic_marks(d_time: int = 4, periods: Tuple[int, ...] = _MARK_PERIODS) -> Callable:
    """A ``mark_fn``: absolute indices -> (n, d_time) phase features.

    Feature ``j`` is the phase of index within ``periods[j]``, scaled to
    [-0.5, 0.5] — the same range :mod:`repro.data.timefeatures` produces.
    """
    if d_time > len(periods):
        raise ValueError(f"need {d_time} periods, got {len(periods)}")

    def mark_fn(indices: np.ndarray) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.float64)[:, None]
        spans = np.asarray(periods[:d_time], dtype=np.float64)[None, :]
        return np.mod(idx, spans) / spans - 0.5

    return mark_fn


class RequestWindow:
    """One request's assembled model inputs (single sample, unbatched),
    plus the series ``length`` they were read at."""

    __slots__ = ("x_enc", "x_mark", "x_dec", "y_mark", "length")

    def __init__(self, x_enc, x_mark, x_dec, y_mark, length: int) -> None:
        self.x_enc = x_enc
        self.x_mark = x_mark
        self.x_dec = x_dec
        self.y_mark = y_mark
        self.length = length


class SeriesStore:
    """Per-series observation history plus window assembly."""

    def __init__(self, n_dims: int, mark_fn: Optional[Callable] = None, d_time: int = 4) -> None:
        self.n_dims = int(n_dims)
        self.d_time = int(d_time)
        self.mark_fn = mark_fn if mark_fn is not None else cyclic_marks(d_time)
        self._values: Dict[str, np.ndarray] = {}
        self._lock = threading.RLock()
        self.ingested = 0

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def ingest(self, series_id: str, values: np.ndarray) -> int:
        """Append observations ``(n, n_dims)`` (or ``(n_dims,)`` for one
        step); returns the new series length."""
        block = np.atleast_2d(np.asarray(values, dtype=np.float64))
        if block.shape[1] != self.n_dims:
            raise ValueError(f"expected {self.n_dims} dims, got {block.shape[1]}")
        with self._lock:
            held = self._values.get(series_id)
            self._values[series_id] = block.copy() if held is None else np.concatenate([held, block], axis=0)
            self.ingested += len(block)
            return len(self._values[series_id])

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def window(self, series_id: str, input_len: int, label_len: int, pred_len: int) -> RequestWindow:
        """Model inputs from the series tail (encoder window ends at T)."""
        with self._lock:
            values = self._values.get(series_id)
            if values is None:
                raise KeyError(f"unknown series {series_id!r}")
            if len(values) < input_len:
                raise ValueError(
                    f"series {series_id!r} has {len(values)} points; window needs {input_len}"
                )
            end = len(values)
            x_enc = values[end - input_len : end].copy()
            label = values[end - label_len : end].copy()
        enc_idx = np.arange(end - input_len, end)
        dec_idx = np.arange(end - label_len, end + pred_len)
        x_dec = np.concatenate([label, np.zeros((pred_len, self.n_dims))], axis=0)
        return RequestWindow(
            x_enc=x_enc,
            x_mark=self.mark_fn(enc_idx),
            x_dec=x_dec,
            y_mark=self.mark_fn(dec_idx),
            length=end,
        )

    def length(self, series_id: str) -> int:
        with self._lock:
            values = self._values.get(series_id)
            return 0 if values is None else len(values)

    def series_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._values)

    def __contains__(self, series_id: str) -> bool:
        with self._lock:
            return series_id in self._values

    def __len__(self) -> int:
        with self._lock:
            return len(self._values)
