"""Serve-side windowed health metrics.

CORTEX's benchmarking methodology (SNIPPETS.md) is the operational
contract: per-window **p50/p95/p99 latency**, **jitter**, and
**deadline-miss rate** are the headline health numbers a profiling
service is judged by.  :class:`ServeWindows` folds every finished
request (completed, shed, or deadline-missed) into a fixed-size
window; when a window fills it emits one ``serve.window`` telemetry
event carrying the whole summary, bumps the matching counters, and
starts the next window.  Windows are keyed by *request count*, not
wall clock, so a replayed request stream produces the same window
boundaries.

Also here: the ``serve`` cache-stats provider — request-level dedup
(answers replayed from the request journal without touching the
engine) surfaces in the run report's unified ``caches`` section next
to the result store's own hit rate.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.telemetry import cachestats
from repro.telemetry import core as telemetry

#: Counter names for the request-level dedup memo (journal replays).
SERVE_CACHE = "serve"

cachestats.register_provider(
    SERVE_CACHE, lambda: cachestats.registry_stats(SERVE_CACHE))


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile over a sorted copy (no numpy needed)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


class ServeWindows:
    """Fixed-size request windows of latency/deadline-miss health."""

    def __init__(self, window: int = 32):
        self.window = max(1, window)
        self.index = 0
        self._latencies: List[float] = []
        self._misses = 0
        self._sheds = 0
        self._errors = 0
        self._completed = 0
        #: Most recent closed window summary (health endpoint).
        self.last: Optional[Dict] = None

    # ------------------------------------------------------------------

    def observe_completed(self, latency_ms: float) -> None:
        telemetry.count("serve.requests")
        telemetry.observe("serve.latency_ms", latency_ms)
        self._latencies.append(latency_ms)
        self._completed += 1
        self._maybe_close()

    def observe_deadline_miss(self) -> None:
        telemetry.count("serve.requests")
        telemetry.count("serve.deadline_miss")
        self._misses += 1
        self._maybe_close()

    def observe_shed(self) -> None:
        # Sheds count toward window size (they are finished requests)
        # but not toward the deadline-miss rate: the client was told to
        # back off, nothing was silently lost.
        telemetry.count("serve.requests")
        self._sheds += 1
        self._maybe_close()

    def observe_error(self) -> None:
        telemetry.count("serve.requests")
        telemetry.count("serve.errors")
        self._errors += 1
        self._maybe_close()

    # ------------------------------------------------------------------

    def _size(self) -> int:
        return (len(self._latencies) + self._misses + self._sheds
                + self._errors)

    def _maybe_close(self) -> None:
        if self._size() >= self.window:
            self.close_window()

    def close_window(self, final: bool = False) -> Optional[Dict]:
        """Summarise and emit the current window (no-op when empty)."""
        size = self._size()
        if not size:
            return self.last if final else None
        lat = self._latencies
        mean = sum(lat) / len(lat) if lat else 0.0
        jitter = 0.0
        if len(lat) > 1:
            jitter = (sum((v - mean) ** 2 for v in lat)
                      / (len(lat) - 1)) ** 0.5
        summary = {
            "index": self.index,
            "size": size,
            "completed": self._completed,
            "deadline_misses": self._misses,
            "shed": self._sheds,
            "errors": self._errors,
            "deadline_miss_rate": round(self._misses / size, 4),
            "latency_ms": {
                "mean": round(mean, 3),
                "jitter": round(jitter, 3),
                "p50": round(_percentile(lat, 0.50), 3),
                "p95": round(_percentile(lat, 0.95), 3),
                "p99": round(_percentile(lat, 0.99), 3),
            },
        }
        telemetry.event("serve.window", final=final, **summary)
        telemetry.count("serve.windows")
        self.last = summary
        self.index += 1
        self._latencies = []
        self._misses = 0
        self._sheds = 0
        self._errors = 0
        self._completed = 0
        return summary


def count_replay_hit() -> None:
    """A request answered from the journal memo (no engine work)."""
    telemetry.count(cachestats.counter_name(SERVE_CACHE, "hits"))


def count_replay_miss() -> None:
    """A request that had to run through the engine."""
    telemetry.count(cachestats.counter_name(SERVE_CACHE, "misses"))
