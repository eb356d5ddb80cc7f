"""Process resource telemetry: the peak-RSS gauge and stream depth.

The streamed pipeline's whole point is that peak memory stays flat as
the corpus grows (``benchmarks/bench_streaming.py`` enforces it); this
module makes that claim observable in every run report instead of only
in the bench.  ``sample_peak_rss`` records the process high-water RSS
into the ``resources.peak_rss_kb`` gauge, and the report builder adds
a ``resources`` section combining it with the streamed engine's
``stream.*`` counters (shards submitted/folded, in-flight queue depth
distribution and its high-water mark).

``ru_maxrss`` is a whole-process high-water mark — it never goes down
— so comparing configurations (e.g. streamed scale S vs 10 S) needs
one process per configuration; the bench does exactly that.
"""

from __future__ import annotations

import sys
from typing import Dict, Optional

from repro.telemetry import core

__all__ = ["peak_rss_kb", "sample_peak_rss", "resources_section"]


def peak_rss_kb() -> Optional[int]:
    """The process's peak resident set size in KiB, or ``None``.

    ``getrusage`` reports KiB on Linux and bytes on macOS; platforms
    without the ``resource`` module (Windows) read as ``None`` and the
    report section simply omits the gauge.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS units
        peak //= 1024
    return int(peak)


def sample_peak_rss() -> Optional[int]:
    """Record the current high-water RSS into the telemetry gauge."""
    peak = peak_rss_kb()
    if peak is not None:
        core.set_gauge("resources.peak_rss_kb", peak)
    return peak


def resources_section(snapshot: Dict) -> Dict:
    """The run report's ``resources`` section from a registry snapshot.

    Always carries ``peak_rss_kb`` (sampled live at report-build time,
    falling back to the gauge a finished run recorded); the ``stream``
    sub-section appears only when the engine submitted or folded a
    shard in this process.
    """
    gauges = snapshot.get("gauges", {})
    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})
    peak = peak_rss_kb()
    if peak is None:
        gauge = gauges.get("resources.peak_rss_kb")
        peak = int(gauge) if gauge else None
    section: Dict = {"peak_rss_kb": peak}
    submitted = counters.get("stream.submitted", 0)
    folded = counters.get("stream.folded", 0)
    if submitted or folded:
        depth = histograms.get("stream.queue_depth") or {}
        section["stream"] = {
            "submitted": submitted,
            "folded": folded,
            "max_queue_depth":
                int(gauges.get("stream.max_queue_depth", 0)),
            "queue_depth_mean": depth.get("mean"),
            "queue_depth_p95": depth.get("p95"),
        }
    return section
