"""Run reports: one JSON + one human-readable summary per pipeline run.

The report is the repo's analogue of the paper's Table I filtering
funnel: of every block the harness saw, how many were accepted and how
many were dropped, broken down by :class:`FailureReason` — plus
per-stage wall times (from spans), cache behaviour, and the raw metric
snapshot so nothing the registry collected is lost.

Reports land under ``reports/`` (override with ``REPRO_REPORT_DIR``)
as ``<name>.json`` and ``<name>.txt``.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.telemetry import cachestats, profiling, resources, window
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["build_run_report", "render_summary", "write_run_report",
           "default_report_dir", "funnel_from_counters"]

#: Counter prefix the profiler uses for per-reason drop counts.
FAILURE_PREFIX = "profiler.failure."


def default_report_dir() -> str:
    return os.environ.get("REPRO_REPORT_DIR", "reports")


#: Informational funnel tallies: surfaced alongside the accept/drop
#: rows but never counted into them, so ``accepted + dropped == total``
#: holds regardless of which optimisations were active.
INFO_COUNTERS = {
    "fastpath_extrapolated": "profiler.fastpath_extrapolated",
    "blockplan_compiled": "profiler.blockplan_compiled",
    "chaos_block_poison": "profiler.chaos_block_poison",
    "step_budget_exceeded": "profiler.step_budget_exceeded",
}

#: Counter prefix the chaos layer uses for injected-fault tallies.
FAULT_PREFIX = "resilience.fault_injected."


def funnel_from_counters(counters: Dict[str, int]) -> Dict:
    """Derive the accept/drop funnel from the profiler's counters.

    The funnel's accounting buckets come straight from accept/failure
    counters; purely informational tallies (``fastpath_extrapolated``,
    ``blockplan_compiled``) ride along under an ``info`` key and never
    change the accepted/dropped totals.
    """
    dropped = {
        name[len(FAILURE_PREFIX):]: value
        for name, value in counters.items()
        if name.startswith(FAILURE_PREFIX) and value
    }
    accepted = counters.get("profiler.blocks_accepted", 0)
    total = counters.get("profiler.blocks_total",
                         accepted + sum(dropped.values()))
    funnel = {"total": total, "accepted": accepted, "dropped": dropped}
    info = {name: counters[counter]
            for name, counter in INFO_COUNTERS.items()
            if counters.get(counter)}
    if info:
        funnel["info"] = info
    return funnel


def _stage_rows(histograms: Dict[str, Dict]) -> List[Dict]:
    """Span histograms -> per-stage timing rows, slowest first."""
    rows = []
    for name, summary in histograms.items():
        if not name.startswith("span."):
            continue
        rows.append({
            "stage": name[len("span."):],
            "count": summary["count"],
            "total_ms": round(summary["total"], 3),
            "mean_ms": round(summary["mean"], 3)
            if summary["mean"] is not None else None,
            "p95_ms": round(summary["p95"], 3)
            if summary["p95"] is not None else None,
        })
    rows.sort(key=lambda r: -(r["total_ms"] or 0.0))
    return rows


def _resilience_section(counters: Dict[str, int],
                        histograms: Dict[str, Dict],
                        funnel: Dict) -> Dict:
    """The run's fault-injection / degradation accounting.

    ``faults_injected`` merges the chaos layer's own counters (points
    that fire in the parent, or whose deterministic decision the
    parent mirrors for crashed workers) with the funnel's
    ``chaos_block_poison`` info tally — the one point whose count must
    ride the cached funnel to survive the worker boundary.
    """
    backoff = histograms.get("resilience.backoff_ms")
    faults = {
        name[len(FAULT_PREFIX):]: value
        for name, value in counters.items()
        if name.startswith(FAULT_PREFIX) and value
    }
    poison = (funnel.get("info") or {}).get("chaos_block_poison", 0)
    if poison:
        faults["block_poison"] = int(poison)
    return {
        "retries": counters.get("resilience.retries", 0),
        "backoff_ms": round(backoff["total"], 3) if backoff else 0.0,
        "quarantined_blocks":
            counters.get("resilience.quarantined.blocks", 0),
        "quarantined_cache_files":
            counters.get("resilience.quarantined.cache_files", 0),
        "cache_write_failures":
            counters.get("resilience.cache_write_failures", 0),
        "torn_tails_truncated":
            counters.get("resilience.torn_tails_truncated", 0),
        "faults_injected": faults,
    }


#: Caches whose provider counts *outside* the telemetry registry
#: (plain attributes / ``cache_info``): stitched worker counters are
#: folded on top.  Registry-backed providers already see stitched
#: counts and must not be merged twice.
_MERGE_COUNTER_CACHES = frozenset({"decode"})


def _caches_section(counters: Dict[str, int]) -> Dict[str, Dict]:
    """The unified cache section: one entry per registered cache.

    Caches that counted into the registry (``cache.<name>.*``) but
    never registered a provider in this process — e.g. counters
    stitched in from pool workers — still get a row, built from the
    counters alone.
    """
    stats = {s.name: s for s in cachestats.snapshot()}
    counted = {name.split(".", 2)[1] for name in counters
               if name.startswith("cache.") and name.count(".") >= 2}
    for name in counted - set(stats) - {"hits", "misses", "writes"}:
        stats[name] = cachestats.registry_stats(name)
    return {
        name: (cachestats.merge_counter_stats(stat, counters)
               if name in _MERGE_COUNTER_CACHES else stat).as_dict()
        for name, stat in sorted(stats.items())
    }


def build_run_report(registry: MetricsRegistry, name: str,
                     meta: Optional[Dict] = None,
                     funnel: Optional[Dict] = None) -> Dict:
    """Assemble the report dict from a registry snapshot.

    ``funnel`` overrides the counter-derived funnel — the pipeline
    passes the breakdown stored alongside cached measurements so a
    cache-hit run still reports full coverage.
    """
    snap = registry.snapshot()
    counters = snap["counters"]
    compile_ms = snap["histograms"].get("cache.blockplan.compile_ms")
    funnel_doc = funnel if funnel is not None \
        else funnel_from_counters(counters)
    report = {
        "report": name,
        "generated_by": "repro.telemetry",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "meta": dict(meta or {}),
        "stages": _stage_rows(snap["histograms"]),
        "funnel": funnel_doc,
        "resilience": _resilience_section(counters, snap["histograms"],
                                          funnel_doc),
        "cache": {
            "hits": counters.get("cache.hits", 0),
            "misses": counters.get("cache.misses", 0),
            "writes": counters.get("cache.writes", 0),
        },
        "executor": {
            "plan_cache_hits":
                counters.get("cache.blockplan.hits", 0),
            "plan_cache_misses":
                counters.get("cache.blockplan.misses", 0),
            "plan_compile_ms":
                round(compile_ms["total"], 3) if compile_ms else 0.0,
        },
        "caches": _caches_section(counters),
        "resources": resources.resources_section(snap),
        "windows": window.runs(),
        "metrics": snap,
    }
    phase_profiles = profiling.profiles()
    if phase_profiles:
        report["profile"] = phase_profiles
    return report


# ---------------------------------------------------------------------------
# Human-readable rendering
# ---------------------------------------------------------------------------
# (Local formatter, not eval.reporting's: telemetry must stay
# importable from every layer without touching eval.)

def _table(headers: Sequence[str],
           rows: Sequence[Sequence[object]]) -> List[str]:
    cells = [[("-" if value is None else str(value)) for value in row]
             for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells
              else len(h) for i, h in enumerate(headers)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*headers), fmt.format(*("-" * w for w in widths))]
    lines.extend(fmt.format(*row) for row in cells)
    return lines


def render_summary(report: Dict) -> str:
    """The ``.txt`` half of the report."""
    lines: List[str] = [f"run report: {report['report']}",
                        f"generated:  {report['generated_at']}"]
    meta = report.get("meta") or {}
    if meta:
        lines.append("meta:       "
                     + "  ".join(f"{k}={v}" for k, v in meta.items()))

    funnel = report.get("funnel") or {}
    total = funnel.get("total", 0)
    accepted = funnel.get("accepted", 0)
    dropped: Dict[str, int] = funnel.get("dropped", {})
    lines += ["", f"coverage funnel ({total} blocks seen)"]
    rows: List[Tuple[str, int, str]] = [
        ("accepted", accepted,
         f"{accepted / total:.1%}" if total else "-")]
    for reason, n in sorted(dropped.items(), key=lambda kv: -kv[1]):
        rows.append((f"dropped: {reason}", n,
                     f"{n / total:.1%}" if total else "-"))
    info: Dict[str, int] = funnel.get("info") or {}
    for name, n in sorted(info.items()):
        rows.append((f"info: {name}", n,
                     f"{n / total:.1%}" if total else "-"))
    lines += _table(["outcome", "blocks", "share"], rows)
    if info:
        lines.append("(info rows are informational; accepted + dropped"
                     " still sum to total)")

    stages = report.get("stages") or []
    if stages:
        lines += ["", "stage timings"]
        lines += _table(
            ["stage", "calls", "total ms", "mean ms", "p95 ms"],
            [(s["stage"], s["count"], s["total_ms"], s["mean_ms"],
              s["p95_ms"]) for s in stages])

    cache = report.get("cache") or {}
    lines += ["", "measurement cache: "
              f"{cache.get('hits', 0)} hits, "
              f"{cache.get('misses', 0)} misses, "
              f"{cache.get('writes', 0)} writes"]

    executor = report.get("executor") or {}
    if executor.get("plan_cache_hits") or \
            executor.get("plan_cache_misses"):
        lines += ["block plans: "
                  f"{executor.get('plan_cache_misses', 0)} compiled "
                  f"({executor.get('plan_compile_ms', 0.0)} ms), "
                  f"{executor.get('plan_cache_hits', 0)} cache hits"]

    caches = report.get("caches") or {}
    live = {name: c for name, c in caches.items()
            if c.get("hits") or c.get("misses") or c.get("evictions")}
    if live:
        lines += ["", "caches"]
        lines += _table(
            ["cache", "hits", "misses", "evictions", "size", "hit rate"],
            [(name, c["hits"], c["misses"], c["evictions"], c["size"],
              f"{c['hit_rate']:.1%}"
              if c.get("hit_rate") is not None else "-")
             for name, c in sorted(live.items())])

    res = report.get("resources") or {}
    if res.get("peak_rss_kb") or res.get("stream"):
        bits = []
        if res.get("peak_rss_kb"):
            bits.append(f"peak rss {res['peak_rss_kb'] / 1024:.1f} MiB")
        stream = res.get("stream") or {}
        if stream:
            bits.append(f"streamed {stream.get('folded', 0)} shards "
                        f"(max {stream.get('max_queue_depth', 0)} "
                        f"in flight)")
        lines += ["", "resources: " + ", ".join(bits)]

    windows = report.get("windows") or {}
    window_lines = []
    for label, series in sorted(windows.items()):
        if not series:
            continue
        p95s = [w["p95"] for w in series if w.get("p95") is not None]
        rates = [w["sim_rate"] for w in series
                 if w.get("sim_rate") is not None]
        bits = [f"{len(series)} windows"]
        if p95s:
            bits.append(f"p95 {min(p95s):.2f}..{max(p95s):.2f} cyc")
        if rates:
            bits.append("sim_rate "
                        f"{sum(rates) / len(rates):.2f} blk/kcyc")
        window_lines.append((label, ", ".join(bits)))
    if window_lines:
        lines += ["", "windowed series"]
        lines += _table(["run", "summary"], window_lines)

    for name, data in sorted((report.get("profile") or {}).items()):
        lines += ["", f"profile: {name} ({data['total_ms']} ms, "
                  f"top {len(data['top'])} by cumulative time)"]
        lines += _table(
            ["function", "calls", "cum ms"],
            [(r["function"], r["calls"], r["cumtime_ms"])
             for r in data["top"][:5]])

    resilience = report.get("resilience") or {}
    if any(resilience.get(k) for k in
           ("retries", "quarantined_blocks", "quarantined_cache_files",
            "cache_write_failures", "torn_tails_truncated",
            "faults_injected")):
        lines += ["", "resilience"]
        rows = [(k, resilience.get(k, 0)) for k in
                ("retries", "backoff_ms", "quarantined_blocks",
                 "quarantined_cache_files", "cache_write_failures",
                 "torn_tails_truncated")
                if resilience.get(k)]
        rows += [(f"fault injected: {point}", n) for point, n in
                 sorted((resilience.get("faults_injected")
                         or {}).items())]
        lines += _table(["event", "count"], rows)

    counters = report.get("metrics", {}).get("counters", {})
    interesting = {k: v for k, v in counters.items()
                   if not k.startswith(FAILURE_PREFIX)}
    if interesting:
        lines += ["", "counters"]
        lines += _table(["counter", "value"],
                        sorted(interesting.items()))
    return "\n".join(lines)


def write_run_report(report: Dict,
                     directory: Optional[str] = None) -> Tuple[str, str]:
    """Persist ``<name>.json`` + ``<name>.txt``; returns both paths."""
    directory = directory or default_report_dir()
    os.makedirs(directory, exist_ok=True)
    base = os.path.join(directory, report["report"])
    json_path, txt_path = base + ".json", base + ".txt"
    tmp = json_path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=str)
    os.replace(tmp, json_path)
    with open(txt_path, "w") as fh:
        fh.write(render_summary(report) + "\n")
    return json_path, txt_path
