"""Unified cache telemetry: every cache, one protocol, one section.

The repo has five caches, each of which used to report ad hoc or
not at all:

* the **result store** (``parallel/shard_cache.py``, reported as
  ``shard``) — on-disk, one record per (uarch, block text);
* the **block-plan cache** (``runtime/plan.py``) — compiled symbolic
  plans plus per-executor bound plans;
* the **decode intern table** (``isa/parser.py``) — the simcore
  ``lru_cache`` over instruction texts;
* the **dedup memo** (``profiler/harness.py``) — content-addressed
  block-profile memoisation;
* the **page cache** (``runtime/memory.py``) — the last-translated
  virtual page fast path.

Each registers a provider here — a zero-argument callable returning a
:class:`CacheStats` snapshot — and the run report renders them all in
one ``caches`` section.  Providers are *pull*-based: nothing is
computed until a report asks, so hot paths pay nothing beyond the
plain integer increments they already do (the decode intern table pays
literally nothing — its numbers come from ``lru_cache.cache_info()``).

Stitched worker runs fold their counters into the parent through
:func:`merge_counter_stats`, so pooled runs report pool-wide cache
behaviour, not just the parent's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.telemetry import core

__all__ = ["CacheStats", "register_provider", "snapshot",
           "merge_counter_stats", "counter_name", "registry_stats"]


@dataclass
class CacheStats:
    """One cache's lifetime-to-date numbers.

    ``hits``/``misses``/``evictions`` are cumulative; ``size`` and
    ``capacity`` are point-in-time (``capacity=None`` means unbounded).
    """

    name: str
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    capacity: Optional[int] = None

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> Optional[float]:
        if not self.lookups:
            return None
        return self.hits / self.lookups

    def as_dict(self) -> Dict:
        rate = self.hit_rate
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "capacity": self.capacity,
            "hit_rate": round(rate, 4) if rate is not None else None,
        }


#: name -> zero-arg provider returning a CacheStats snapshot.
_PROVIDERS: Dict[str, Callable[[], CacheStats]] = {}


def register_provider(name: str,
                      provider: Callable[[], CacheStats]) -> None:
    """Register (or replace) the stats provider for cache ``name``."""
    _PROVIDERS[name] = provider


def counter_name(cache: str, field: str) -> str:
    """The registry counter a cache uses for ``field``.

    The convention every instrumented cache follows:
    ``cache.<name>.<hits|misses|evictions>``.  Worker stitching relies
    on this prefix to know which counters are cache telemetry.
    """
    return f"cache.{cache}.{field}"


def merge_counter_stats(stats: CacheStats,
                        counters: Dict[str, int]) -> CacheStats:
    """Fold stitched-in registry counters into a provider snapshot.

    Providers that count through the telemetry registry (result store,
    block-plan cache, dedup memo) read the parent registry, which —
    after stitching — already includes worker counts.  Providers that
    keep plain attribute counters (page cache, decode table) only see
    the parent process; this helper lets the report add the workers'
    ``cache.<name>.*`` counters on top.
    """
    prefix = f"cache.{stats.name}."
    return CacheStats(
        name=stats.name,
        hits=stats.hits + counters.get(prefix + "hits", 0),
        misses=stats.misses + counters.get(prefix + "misses", 0),
        evictions=stats.evictions
        + counters.get(prefix + "evictions", 0),
        size=stats.size,
        capacity=stats.capacity,
    )


def snapshot() -> List[CacheStats]:
    """Current stats from every registered cache, name-sorted."""
    return [_PROVIDERS[name]() for name in sorted(_PROVIDERS)]


def registry_stats(name: str, size: int = 0,
                   capacity: Optional[int] = None) -> CacheStats:
    """Build stats for a cache that counts via the telemetry registry."""
    counters = core.registry().snapshot()["counters"]
    return CacheStats(
        name=name,
        hits=counters.get(counter_name(name, "hits"), 0),
        misses=counters.get(counter_name(name, "misses"), 0),
        evictions=counters.get(counter_name(name, "evictions"), 0),
        size=size,
        capacity=capacity,
    )
