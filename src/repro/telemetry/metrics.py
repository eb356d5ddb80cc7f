"""Process-wide metrics: counters, gauges, histograms.

The registry is the numeric half of the telemetry layer (the tracer in
:mod:`repro.telemetry.core` is the event half).  Everything is plain
Python and allocation-light so that instrumented hot paths — the
profiler measures ~20 ms a block, the scheduler prices thousands of
micro-ops per run — pay only a dict lookup and an integer add.

Naming convention (see docs/observability.md for the full catalogue):
dotted, lowercase, ``<layer>.<what>`` — e.g. ``profiler.blocks_total``,
``machine.simulated_cycles``, ``cache.hits``.  Span durations land in
histograms named ``span.<span name>`` (milliseconds).
"""

from __future__ import annotations

import random
import threading
import zlib
from typing import Dict, List, Optional

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """A monotonically increasing count (blocks profiled, cache hits)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value (corpus size, current unroll factor)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A distribution with exact count/sum/min/max and sampled quantiles.

    Values beyond ``max_samples`` are reservoir-sampled (deterministic
    per-histogram RNG, seeded from a CRC-32 of the name, never from
    ``hash()``) so percentiles stay representative at corpus scale
    without unbounded memory.
    """

    __slots__ = ("name", "count", "total", "min", "max",
                 "_samples", "_max_samples", "_rng")

    def __init__(self, name: str, max_samples: int = 8192):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._samples: List[float] = []
        self._max_samples = max_samples
        self._rng = random.Random(
            0x5EED ^ zlib.crc32(name.encode()) & 0xFFFF)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self._samples) < self._max_samples:
            self._samples.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self._max_samples:
                self._samples[slot] = value

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def percentile(self, q: float) -> Optional[float]:
        """Nearest-rank percentile over the retained samples, q in [0, 100]."""
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        rank = max(0, min(len(ordered) - 1,
                          int(round(q / 100.0 * (len(ordered) - 1)))))
        return ordered[rank]

    @property
    def p50(self) -> Optional[float]:
        return self.percentile(50)

    @property
    def p95(self) -> Optional[float]:
        return self.percentile(95)

    @property
    def p99(self) -> Optional[float]:
        return self.percentile(99)

    def summary(self) -> Dict[str, Optional[float]]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }


class MetricsRegistry:
    """All metrics for one process (or one isolated test)."""

    def __init__(self):
        self._lock = threading.Lock()
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- accessors (create on first use) -------------------------------

    def counter(self, name: str) -> Counter:
        metric = self.counters.get(name)
        if metric is None:
            with self._lock:
                metric = self.counters.setdefault(name, Counter(name))
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self.gauges.get(name)
        if metric is None:
            with self._lock:
                metric = self.gauges.setdefault(name, Gauge(name))
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self.histograms.get(name)
        if metric is None:
            with self._lock:
                metric = self.histograms.setdefault(name, Histogram(name))
        return metric

    # -- bulk operations ------------------------------------------------

    def reset(self) -> None:
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.histograms.clear()

    def snapshot(self) -> Dict[str, Dict]:
        """Plain-JSON view of every metric (stable key order)."""
        return {
            "counters": {name: c.value
                         for name, c in sorted(self.counters.items())},
            "gauges": {name: g.value
                       for name, g in sorted(self.gauges.items())},
            "histograms": {name: h.summary()
                           for name, h in sorted(self.histograms.items())},
        }
