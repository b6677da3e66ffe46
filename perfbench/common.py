"""Shared pieces of the three workloads: statistics, memory, results."""

from __future__ import annotations

import resource
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: the tail percentile: a 40-s run leaves at least ten samples beyond it
#: on every workload, and a fixed percentile keeps fast and slow runs
#: comparable
TAIL = 95


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: the probe's median time on the reference machine (a 2-vCPU Xeon VM at
#: 2.0 GHz, one BLAS thread, neighbours idle); calibrated times are in
#: milliseconds at that machine's speed
PROBE_REF_MS = 3.0


class Probe:
    """A fixed computation timed before and after every unit of work.

    The host's speed drifts by a third within minutes on a shared
    machine.  A unit's time divided by the probe's time on either side
    of it cancels most of that drift, so runs made minutes apart agree.
    The probe mixes what the engine spends its time on: a recurrent scan
    of small matrix products in float64 and float32, an FFT, an attention
    einsum and plain interpreter work.  It never calls the program, but
    it runs in the program's process right after each unit, on the same
    cores, caches and heap: calibration assumes the program does not
    change the probe's speed.  The run's median probe time and every
    uncalibrated value are printed beside the result, so a change that
    slows the probe shows there.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        # (steps, batch, d_model) inputs and GRU-shaped weights, float64 and float32
        self.scans = [
            (rng.standard_normal((32, 32, 16)).astype(dtype),
             (rng.standard_normal((16, 48)) * 0.1).astype(dtype),
             (rng.standard_normal((16, 48)) * 0.1).astype(dtype))
            for dtype in (np.float64, np.float32)
        ]
        self.y = rng.standard_normal((32, 64, 16)).astype(np.float32)
        self.table = {key: key for key in range(64)}

    def _scan(self, x, w, u) -> np.ndarray:
        h = np.zeros(x.shape[1:], dtype=x.dtype)
        for xt in x:
            g, r = xt @ w, h @ u
            z = 1.0 / (1.0 + np.exp(-(g[:, :16] + r[:, :16])))
            n = np.tanh(g[:, 32:] + z * r[:, 32:])
            h = (1.0 - z) * n + z * h
        return h

    def __call__(self) -> float:
        """Run the probe once; returns its wall time in milliseconds."""
        start = perf_counter()
        for x, w, u in self.scans:
            self._scan(x, w, u)
        np.fft.irfft(np.fft.rfft(self.y, axis=1), axis=1)
        np.einsum("bld,bmd->blm", self.y, self.y)
        acc = 0
        for i in range(3000):
            acc += self.table[(i * 7) & 63]
        return (perf_counter() - start) * 1e3


def calibrated(raw_ms: Sequence[float], probe_ms: Sequence[float]) -> List[float]:
    """Each unit's time at the reference machine's speed.

    ``probe_ms`` has one more entry than ``raw_ms``: a probe before the
    first unit and one after each.  Unit ``i`` is scaled by the mean of
    the probes on either side of it.
    """
    return [
        raw * 2 * PROBE_REF_MS / (before + after)
        for raw, before, after in zip(raw_ms, probe_ms, probe_ms[1:])
    ]


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``e2e`` holds the generic end-to-end metrics of ``BENCHMARK.json``
    and ``raw`` the same metrics uncalibrated; ``probe_ms`` is the run's
    median probe time (0 when the workload is not calibrated); ``named``
    holds the same figures under the workload's own names as
    ``(value, unit, samples, uncalibrated value)`` for the human-readable
    report; ``layers`` holds the per-layer metrics of a traced run as
    ``(value, unit)`` and ``bases`` the counts behind each of its ratios.
    """

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    e2e: Dict[str, float] = field(default_factory=dict)
    raw: Dict[str, float] = field(default_factory=dict)
    probe_ms: float = 0.0
    named: Dict[str, Tuple[float, str, int, float]] = field(default_factory=dict)
    layers: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    bases: Dict[str, str] = field(default_factory=dict)

    def fail(self, message: str, count: int = 1) -> None:
        """Count ``count`` wrong or failed operations (keeps a few messages)."""
        self.failed += count
        if len(self.errors) < 10:
            self.errors.append(message)

    def timing(self, prefix: str, raw_ms: Sequence[float], probe_ms: Sequence[float]) -> float:
        """Calibrated p50 and tail of per-unit times as e2e and named
        metrics; returns the calibrated p50."""
        cal = calibrated(raw_ms, probe_ms)
        n = len(cal)
        p50, tail = percentile(cal, 50), percentile(cal, TAIL)
        self.e2e["latency_p50_ms"] = p50
        self.e2e["latency_tail_ms"] = tail
        self.raw["latency_p50_ms"] = percentile(raw_ms, 50)
        self.raw["latency_tail_ms"] = percentile(raw_ms, TAIL)
        self.probe_ms = percentile(probe_ms, 50)
        self.named[f"{prefix}_p50"] = (p50, "ms", n, self.raw["latency_p50_ms"])
        self.named[f"{prefix}_p{TAIL}"] = (tail, "ms", n, self.raw["latency_tail_ms"])
        self.named["host_slowdown"] = (self.probe_ms / PROBE_REF_MS, "ratio", n, self.probe_ms / PROBE_REF_MS)
        return p50

    def throughput(self, name: str, count: int, raw_ms: Sequence[float], probe_ms: Sequence[float]) -> None:
        """``count`` items over the calibrated time of the units that made them."""
        rate = 1e3 * count / sum(calibrated(raw_ms, probe_ms))
        self.e2e["throughput_per_s"] = rate
        self.raw["throughput_per_s"] = 1e3 * count / sum(raw_ms)
        self.named[name] = (rate, "1/s", len(raw_ms), self.raw["throughput_per_s"])
