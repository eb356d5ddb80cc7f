"""Pipeline integration: route, revalidate, journal, train.

``prepare_triage`` runs inside ``profile_many`` *before* the
profiling loop: for each first-occurrence block with a journaled
cached measurement, the surrogate predicts throughput, and when
prediction and cached value agree within tolerance the exact journaled
bytes are seeded into the profiler's dedup memo as a finished
:class:`~repro.profiler.result.ProfileResult` — the loop then finds a
memo hit and never simulates the block.
Everything else — novel blocks, disagreements, chaos
``block_poison`` targets, malformed rows — simply is not seeded and
falls through to the full pipeline unchanged.  Triage can only fall
back, never alter bytes: a revalidated result replays the journaled
measurement byte for byte, including its informational ``extra``
flags, plus the ``triage_revalidated`` marker.

``absorb_results`` journals freshly measured blocks after the scalar
loop, and ``publish_weights`` retrains the surrogate from the full
journal once per run (parent process only), so repeated runs get
sharper routing.  Both degrade on any failure — triage state is an
accelerator, never a correctness dependency.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.profiler.result import Measurement, ProfileResult
from repro.resilience import chaos
from repro.simcore import config as simcore
from repro.telemetry import cachestats
from repro.telemetry import core as telemetry
from repro.triage import config
from repro.triage import store as storemod
from repro.triage import surrogate as surrogatemod
from repro.triage.store import TriageStore

#: Store directory -> loaded store (one journal read per process).
_STORES: Dict[str, TriageStore] = {}

#: Most recently used store, for the cache-stats size snapshot.
_LAST_STORE: Optional[TriageStore] = None


def _active() -> bool:
    """Triage rides the dedup memo, which only exists under simcore."""
    return config.enabled() and simcore.enabled()


def _count(name: str, value: int = 1) -> None:
    if value and telemetry.is_enabled():
        telemetry.count(name, value)


def _fingerprint(profiler_config) -> str:
    from repro.profiler.harness import ProfilerConfig
    from repro.runtime import blockplan
    cfg = profiler_config if profiler_config is not None \
        else ProfilerConfig()
    return storemod.config_fingerprint(
        cfg, fastpath=simcore.enabled(), blockplan=blockplan.enabled())


def store_for(uarch: str, seed: int, profiler_config) -> TriageStore:
    """The (process-cached) store for one execution configuration."""
    global _LAST_STORE
    directory = storemod.store_dir(uarch, seed,
                                   _fingerprint(profiler_config))
    st = _STORES.get(directory)
    if st is None:
        st = TriageStore(directory)
        _STORES[directory] = st
    _LAST_STORE = st
    return st


# ---------------------------------------------------------------------------
# Row <-> result
# ---------------------------------------------------------------------------

def _num(value):
    """JSON-safe scalar (numpy scalars carry an ``item`` method)."""
    item = getattr(value, "item", None)
    return item() if callable(item) else value


def _row_for_result(digest: str, result: ProfileResult) -> dict:
    return {
        "digest": digest,
        "text": result.block_text,
        "throughput": _num(result.throughput),
        "measurements": [
            [_num(m.unroll), _num(m.cycles), _num(m.clean_runs),
             _num(m.total_runs), _num(m.l1d_read_misses),
             _num(m.l1d_write_misses), _num(m.l1i_misses),
             _num(m.misaligned_refs)]
            for m in result.measurements],
        "pages_mapped": _num(result.pages_mapped),
        "num_faults": _num(result.num_faults),
        "subnormal_events": _num(result.subnormal_events),
        "extra": {key: _num(value)
                  for key, value in result.extra.items()
                  if key != "triage_revalidated"},
    }


def _result_from_row(uarch: str, text: str,
                     row: dict) -> Optional[ProfileResult]:
    """Rebuild the exact journaled result; ``None`` on a malformed row.

    A row that does not reconstruct cleanly is treated like a
    disagreement: the block falls through and gets re-journaled from a
    fresh measurement.
    """
    try:
        throughput = row["throughput"]
        if not isinstance(throughput, (int, float)) \
                or isinstance(throughput, bool) or throughput <= 0:
            return None
        measurements = tuple(
            Measurement(unroll=m[0], cycles=m[1], clean_runs=m[2],
                        total_runs=m[3], l1d_read_misses=m[4],
                        l1d_write_misses=m[5], l1i_misses=m[6],
                        misaligned_refs=m[7])
            for m in row["measurements"])
        extra = dict(row.get("extra") or {})
        extra["triage_revalidated"] = 1.0
        return ProfileResult(
            text, uarch,
            throughput=float(throughput),
            measurements=measurements,
            pages_mapped=int(row["pages_mapped"]),
            num_faults=int(row["num_faults"]),
            subnormal_events=int(row["subnormal_events"]),
            extra=extra)
    except (KeyError, TypeError, ValueError, IndexError):
        return None


def decide(model: Optional[surrogatemod.Surrogate], block,
           cached: float, tol: float) -> bool:
    """The routing predicate: revalidate this cached value?

    A pure function of (block content, cached value, tolerance) for a
    fixed model — no ``hash()``, no ambient state, no order
    dependence; ``tests/triage`` pins this with a hypothesis property.
    Absent model or failed featurisation routes to full simulation.
    """
    if model is None:
        return False
    if not isinstance(cached, (int, float)) or isinstance(cached, bool):
        return False
    phi = surrogatemod.featurize(block)
    if phi is None:
        return False
    predicted = model.predict(phi)
    return abs(predicted - cached) <= tol * max(abs(cached), 1.0)


# ---------------------------------------------------------------------------
# profile_many hooks
# ---------------------------------------------------------------------------

def prepare_triage(profiler, items: Sequence) -> None:
    """Seed ``profiler._memo`` with revalidated cached measurements.

    Runs before the profiling loop, which finds each seeded text as
    a memo hit.  Chaos ``block_poison`` targets are never revalidated —
    the poison must reach the scalar path and quarantine exactly as it
    would with triage off, or the funnel would change.
    """
    if not _active():
        return
    st = store_for(profiler.machine.name, profiler.machine.seed,
                   profiler.config)
    model = st.surrogate() if st.rows else None
    tol = config.tolerance()
    uarch = profiler.machine.name
    seen: set = set()
    routed = revalidated = disagreed = novel = 0
    for block in items:
        text = block.text()
        if text in seen or text in profiler._memo:
            continue
        seen.add(text)
        if chaos.should_fire("block_poison", text):
            continue
        routed += 1
        row = st.rows.get(storemod.block_digest(text))
        if row is None:
            novel += 1
            continue
        result = None
        if decide(model, block, row.get("throughput"), tol):
            result = _result_from_row(uarch, text, row)
        if result is None:
            disagreed += 1
            continue
        profiler._memo[text] = result
        revalidated += 1
    _count("triage.routed", routed)
    _count("triage.novel", novel)
    _count("triage.disagreed", disagreed)
    _count("triage.revalidated", revalidated)
    _count(cachestats.counter_name("triage", "hits"), revalidated)
    _count(cachestats.counter_name("triage", "misses"),
           novel + disagreed)


def absorb_results(profiler, items: Sequence,
                   results: Sequence[ProfileResult]) -> None:
    """Journal this run's fresh measurements for future revalidation.

    Accepted, freshly simulated (not revalidated), first-occurrence
    blocks not already journaled.  Append-only and crash/concurrency
    tolerant (see :class:`repro.triage.store.TriageStore`); pool
    workers journal their own shards' blocks directly.
    """
    if not _active():
        return
    st = store_for(profiler.machine.name, profiler.machine.seed,
                   profiler.config)
    seen: set = set()
    fresh: List[dict] = []
    for result in results:
        text = result.block_text
        if text in seen:
            continue
        seen.add(text)
        if not result.ok or not result.throughput \
                or result.extra.get("triage_revalidated"):
            continue
        digest = storemod.block_digest(text)
        if digest in st.rows:
            continue
        fresh.append(_row_for_result(digest, result))
    written = st.append(fresh)
    _count("triage.journaled_rows", written)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def publish_weights(uarch: str, seed: int, profiler_config) -> None:
    """Retrain the surrogate from the full journal and publish it.

    Called once per run from the parent process — the sharded engine
    after its merge, the serial path after ``profile_corpus_detailed``
    — never from pool workers (their appended rows are picked up by
    the parent's reload here).  Idempotent: when the journal census
    matches the published artifact's, nothing is refitted.  Any
    failure degrades silently; training is an optimisation, not a
    correctness step.
    """
    if not _active() or chaos.in_worker():
        return
    try:
        from repro.isa.parser import parse_block
        st = store_for(uarch, seed, profiler_config)
        st.reload()
        if not st.rows:
            return
        pairs = [(digest, row["throughput"])
                 for digest, row in st.rows.items()
                 if isinstance(row.get("throughput"), (int, float))
                 and not isinstance(row.get("throughput"), bool)]
        if not pairs:
            return
        census = surrogatemod.census_of(pairs)
        current = st.surrogate()
        if current is not None and current.census == census:
            return
        rows = []
        for digest, throughput in pairs:
            try:
                block = parse_block(st.rows[digest]["text"])
            except Exception:
                continue
            rows.append((digest, block, float(throughput)))
        model = surrogatemod.fit_rows(rows)
        if model is None:
            return
        # Idempotence keys on the *journal* census (including rows the
        # featuriser had to drop), not the fitted subset's.
        model.census = census
        if st.publish(model) is not None:
            _count("triage.trained")
            _count("triage.train_rows", model.rows)
            if telemetry.is_enabled():
                telemetry.event("triage.trained", rows=model.rows,
                                census=census, uarch=uarch)
    except Exception as exc:
        if telemetry.is_enabled():
            telemetry.event("triage.train_error",
                            error=type(exc).__name__,
                            detail=str(exc)[:200])


# ---------------------------------------------------------------------------
# Cache telemetry
# ---------------------------------------------------------------------------

def _triage_cache_stats() -> cachestats.CacheStats:
    """Unified-telemetry provider for the triage revalidation cache."""
    stats = cachestats.registry_stats("triage")
    if _LAST_STORE is not None:
        stats.size = len(_LAST_STORE.rows)
    return stats


cachestats.register_provider("triage", _triage_cache_stats)
