"""LRU forecast cache keyed by (model_version, series_id, horizon, history_len).

A forecast is a pure function of (model weights, series history, horizon)
— so the key names all three.  The history is named by its length: a
series only grows, so the length it was read at identifies it, and a
forecast computed from a window read *before* an ingest lands under the
old length, where no later lookup (made at the new length) can hit it.
That makes a slow forward that finishes after an ingest harmless without
any lock around the forward.  Stale entries are also dropped eagerly, by
two explicit invalidation events rather than TTL guesswork:

- :meth:`invalidate_series` — new observations arrived for a series
  (:meth:`ForecastServer.ingest`), every horizon for that series is stale;
- :meth:`invalidate_version` — a model version was hot-swapped out, its
  entries can never be served again and are dropped eagerly rather than
  left to age out of the LRU ring.

Cached arrays are frozen read-only (the plan-cache convention from
:mod:`repro.tensor.cache`): a hit hands back a *shared* array, and an
accidental in-place write downstream must raise instead of corrupting
every later hit.  All methods are thread-safe — cache lookups happen on
submitting threads while worker threads fill entries.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

#: (model_version, series_id, horizon, history_len)
CacheKey = Tuple[str, str, int, int]


class ForecastCache:
    """Bounded thread-safe LRU of frozen forecast arrays."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[CacheKey, np.ndarray]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def get(self, version: str, series_id: str, horizon: int, history_len: int) -> Optional[np.ndarray]:
        """The cached forecast, refreshed to most-recently-used, or None."""
        key = (version, series_id, int(horizon), int(history_len))
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(
        self, version: str, series_id: str, horizon: int, history_len: int, forecast: np.ndarray
    ) -> np.ndarray:
        """Insert (a frozen copy of) a forecast; evicts LRU past capacity.

        Returns the stored read-only array so callers can hand out the
        same shared object a later :meth:`get` would.
        """
        frozen = np.array(forecast, copy=True)
        frozen.setflags(write=False)
        key = (version, series_id, int(horizon), int(history_len))
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = frozen
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        return frozen

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def invalidate_series(self, series_id: str) -> int:
        """Drop every horizon/version entry for one series (ingestion)."""
        return self._invalidate(lambda key: key[1] == series_id)

    def invalidate_version(self, version: str) -> int:
        """Drop every entry served by one model version (hot-swap)."""
        return self._invalidate(lambda key: key[0] == version)

    def clear(self) -> int:
        return self._invalidate(lambda key: True)

    def _invalidate(self, doomed) -> int:
        with self._lock:
            keys = [key for key in self._entries if doomed(key)]
            for key in keys:
                del self._entries[key]
            self.invalidations += len(keys)
            return len(keys)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        with self._lock:
            entries = len(self._entries)
        return {
            "entries": entries,
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate(),
        }
