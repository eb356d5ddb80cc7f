"""The work-sharded profiling engine.

One engine path, the parallel counterpart of
``repro.eval.validation.profile_corpus_detailed``: same inputs, same
output, bit-for-bit — the determinism suite under ``tests/parallel``
holds it to that.  :func:`profile_corpus_streamed` consumes its source
once — generate → digest → shard → profile → fold → discard.  Each
deterministic shard (:mod:`repro.parallel.sharding`) is profiled by a
worker that rebuilds its own simulated machine from a picklable
:class:`~repro.uarch.descriptor.MachineDescriptor` (no shared mutable
simulator state), and the per-shard profiles — funnel buckets
included — fold into the merged result in shard-index order as they
complete.  At most :data:`PREFETCH_PER_JOB` × jobs shards are in
flight and profilers drop their retained state every
:data:`EPOCH_BLOCKS` profiled blocks, so memory is bounded on every
run.  :func:`profile_corpus_sharded` is the entry for a materialised
corpus: it cuts the shards and streams them through the same loop.

The result store (:class:`~repro.parallel.shard_cache.ShardCache`)
is block-keyed: each arriving shard's blocks are looked up by (uarch,
text), only the misses are profiled, the parent alone writes their
entries (and the ones timed for sibling uarches), and hits and fresh
entries fold in record order through
:func:`~repro.profiler.harness.fold_entries` — so a shard's profile
is the same whichever of its blocks the store already held.

Robustness: a worker that dies (``BrokenProcessPool``) or exceeds the
per-shard timeout does not poison the run.  A dead worker breaks its
whole pool, so every shard that was in flight there runs once more in
a one-worker pool of its own; a shard whose own worker dies again, or
raises, or times out, is retried serially in the parent under the
bounded :class:`repro.resilience.RetryPolicy` (deterministic jittered
backoff); if every attempt fails, its blocks are recorded under the
``worker_failure`` funnel bucket so coverage still accounts for every
block.  Only successfully profiled blocks are written to the store.
On ``KeyboardInterrupt`` or any other fatal error the pool is
hard-stopped and its workers reaped, so no orphan processes or
half-written records outlive the run.

Crash-safe resume needs nothing more: every record is one appended
line, self-checked on load, and a torn last line is never served, so a
run killed at any point resumes from the records it wrote, as store
hits, to byte-identical output.

Chaos: the ``worker_crash`` / ``worker_hang`` fault points
(:mod:`repro.resilience.chaos`) fire here, in pool workers only —
keyed by the digest of the shard's misses (the shard's own digest
when nothing hit), so the parent can mirror the (deterministic)
decision into the run report's resilience section even though the
worker's own telemetry dies with it.

Workers are handed module-level functions so everything crossing the
process boundary pickles; the ``worker_fn`` / ``serial_fn`` hooks
exist so the fault-injection tests can substitute crashing or hanging
stand-ins without touching the engine's control flow.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
import uuid
from collections import deque
from concurrent.futures import (FIRST_COMPLETED, ProcessPoolExecutor,
                                wait as futures_wait)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from itertools import chain
from typing import (Callable, Deque, Dict, Iterable, Iterator, List,
                    Optional, Sequence, Tuple, Union)

from repro.corpus.dataset import BlockRecord, Corpus
from repro.profiler.harness import (BasicBlockProfiler, ProfilerConfig,
                                    fold_entries, result_entry)
from repro.profiler.result import CorpusProfile, FailureReason
from repro.parallel.shard_cache import ShardCache
from repro.parallel.sharding import (DEFAULT_SHARD_SIZE, ProfileFolder,
                                     Shard, shard_corpus, shard_digest,
                                     stream_shards)
from repro.resilience import chaos
from repro.resilience import policy as resilience
from repro.telemetry import core as telemetry
from repro.telemetry import resources
from repro.telemetry import window
from repro.uarch.descriptor import MachineDescriptor

#: Ceiling on how long one shard may take in a worker before the
#: parent gives up on it and falls back to the serial retry
#: (``REPRO_SHARD_TIMEOUT`` overrides).
DEFAULT_SHARD_TIMEOUT = 600.0

#: Shards that may be in flight (pending, submitted to the pool, or
#: completed but not yet foldable because an earlier shard is still
#: running) per job.  2 keeps every worker busy while the parent folds.
PREFETCH_PER_JOB = 2

#: Blocks a profiler may retain dedup/plan state for before the engine
#: drops and rebuilds it.  Profile results and compiled plans are pure
#: functions of (block text, machine, config), so the reset never
#: changes bytes — it only bounds the per-run caches that would
#: otherwise grow linearly with corpus length.
EPOCH_BLOCKS = 512


def default_jobs() -> int:
    """``REPRO_JOBS`` if set, else every core the host offers."""
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def default_shard_timeout() -> float:
    """``REPRO_SHARD_TIMEOUT`` if set, else the 600 s default."""
    env = os.environ.get("REPRO_SHARD_TIMEOUT", "").strip()
    if env:
        return max(0.1, float(env))
    return DEFAULT_SHARD_TIMEOUT


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

#: Per-worker-process profiler cache: building the scheduler/decomposer
#: once per (descriptor, config, siblings) and reusing it across shards
#: matches the in-process path, where one profiler walks the corpus
#: (both drop theirs every :data:`EPOCH_BLOCKS` blocks).
_WORKER_PROFILERS: Dict[Tuple, BasicBlockProfiler] = {}


def _init_worker(trace_dir: Optional[str] = None,
                 trace_id: Optional[str] = None) -> None:
    """Worker initialiser: drop telemetry state inherited via fork.

    Forked workers would otherwise double-count into the parent's
    registry snapshot and interleave writes into its NDJSON sink fd.
    Also flags the process as a worker so the worker-only chaos fault
    points (``worker_crash`` / ``worker_hang``) may fire here — and
    never in the parent.

    When the parent run is traced, each worker gets its own NDJSON
    side-channel file under ``trace_dir`` (autoflushed per record so a
    crashed worker leaves complete lines), stamped with the run's
    trace ID and this worker's pid; the parent stitches the files back
    into its own trace in shard-index order after the pool drains.
    """
    telemetry.reset()
    chaos.mark_worker()
    if trace_dir is not None:
        hub = telemetry.get_telemetry()
        path = os.path.join(trace_dir,
                            f"worker_{os.getpid()}.ndjson")
        hub.enable(telemetry.NdjsonSink(path, autoflush=True))
        hub.trace_id = trace_id
        hub.context = {"worker": os.getpid()}


def _maybe_worker_chaos(records: tuple) -> None:
    """Fire worker-process chaos faults for this shard, if armed.

    Keyed by the shard's content digest so the parent — which knows
    the digests — can mirror the decision for accounting.  Crash wins
    over hang when both would fire (the parent mirrors the same
    precedence).
    """
    policy = chaos.active()
    if policy is None or not chaos.in_worker():
        return
    digest = shard_digest(records)
    if policy.should_fire("worker_crash", digest):
        os._exit(chaos.CRASH_EXIT_CODE)
    if policy.should_fire("worker_hang", digest):
        time.sleep(policy.hang_seconds)


def _worker_profiler(descriptor: MachineDescriptor,
                     config: Optional[ProfilerConfig],
                     siblings: Tuple[str, ...]) -> BasicBlockProfiler:
    key = (descriptor, config, siblings)
    profiler = _WORKER_PROFILERS.get(key)
    if profiler is None:
        profiler = BasicBlockProfiler(
            descriptor.build(), config,
            siblings=[replace(descriptor, uarch=name).build()
                      for name in siblings])
        _WORKER_PROFILERS[key] = profiler
    return profiler


#: Blocks this worker has profiled since it last dropped its retained
#: state (profilers + compiled plans).
_WORKER_SINCE_RESET = [0]


def _profile_entries(profiler: BasicBlockProfiler,
                     records: Sequence[BlockRecord]) -> List[Dict]:
    """Profile ``records`` in order; one store entry per record."""
    return [result_entry(result) for result in
            profiler.profile_many([record.block for record in records])]


def _shared_entries(profiler: BasicBlockProfiler
                    ) -> List[Tuple[str, str, Dict]]:
    """(uarch, text, entry) of each result the profiler timed for a
    sibling since it was last asked."""
    return [(result.uarch, result.block_text, result_entry(result))
            for result in profiler.take_shared()]


def profile_shard_worker(descriptor: MachineDescriptor,
                         config: Optional[ProfilerConfig],
                         index: int, records: tuple,
                         siblings: Tuple[str, ...]
                         ) -> Tuple[int, List[Dict], List]:
    """Profile one shard's store misses in a worker process (must
    stay picklable).

    Returns the shard index, one entry per record, and the
    (uarch, text, entry) of every result timed on ``siblings``, for
    the parent to write to the store.

    Every :data:`EPOCH_BLOCKS` profiled blocks the worker drops its
    profiler cache and the compiled-plan cache, so its RSS tracks the
    epoch, not the corpus; the bytes are unchanged.
    """
    from repro.runtime.plan import clear_plan_cache
    _maybe_worker_chaos(records)
    if _WORKER_SINCE_RESET[0] >= EPOCH_BLOCKS:
        _WORKER_PROFILERS.clear()
        clear_plan_cache()
        _WORKER_SINCE_RESET[0] = 0
    _WORKER_SINCE_RESET[0] += len(records)
    hub = telemetry.get_telemetry()
    traced = hub.enabled and descriptor.trace is not None
    if traced:
        # Per-shard counter window: the registry is wiped so the
        # summary event below carries exactly this shard's counts —
        # the parent merges them per shard, in shard-index order.
        hub.registry.reset()
        hub.context["shard"] = index
    profiler = _worker_profiler(descriptor, config, siblings)
    with telemetry.span("worker.shard", shard=index,
                        blocks=len(records)):
        entries = _profile_entries(profiler, records)
    if traced:
        _export_decode_delta()
        counters = dict(hub.registry.snapshot()["counters"])
        telemetry.event("worker.shard_summary", shard=index,
                        counters=counters)
    return index, entries, _shared_entries(profiler)


#: Decode-table cache_info() totals already exported by this worker
#: (hits, misses, evictions) — cache_info is cumulative per process
#: but shard summaries must carry per-shard deltas.
_DECODE_EXPORTED = [0, 0, 0]


def _export_decode_delta() -> None:
    """Fold decode-table activity since the last shard into counters.

    The decode intern table counts through ``lru_cache.cache_info()``
    (zero instrumentation cost), not the telemetry registry, so worker
    decode activity would otherwise be invisible to the parent's
    stitched ``caches`` section.
    """
    from repro.isa.parser import decode_cache_stats
    from repro.telemetry import cachestats
    stats = decode_cache_stats()
    current = (stats.hits, stats.misses, stats.evictions)
    for field, now, before in zip(("hits", "misses", "evictions"),
                                  current, _DECODE_EXPORTED):
        if now > before:
            telemetry.count(cachestats.counter_name("decode", field),
                            now - before)
    _DECODE_EXPORTED[:] = current


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

#: The entry of a block whose shard failed in the pool and in every
#: serial rescue; never written to the store.
_WORKER_FAILURE_ENTRY = {"reason": FailureReason.WORKER_FAILURE.value}


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Hard-stop a pool that may contain hung workers, and reap them.

    ``shutdown(wait=True)`` would block forever on a worker stuck in a
    pathological block, so terminate the processes first, then join
    each one (escalating to ``kill`` for anything that survives
    SIGTERM) so no orphan or zombie processes outlive the run.  The
    pool's manager thread is joined last, so no thread of it is alive
    when the next worker forks.
    """
    processes = list(getattr(pool, "_processes", {}).values())
    for process in processes:
        process.terminate()
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        process.join(timeout=5.0)
        if process.is_alive():
            process.kill()
            process.join(timeout=5.0)
    manager = getattr(pool, "_executor_manager_thread", None)
    if manager is not None:
        manager.join(timeout=5.0)


def _replicate_profiler_counters(profile: CorpusProfile) -> None:
    """Mirror the profile of a worker's fresh entries into the
    parent's counters.

    Workers keep their own (reset) telemetry, so the per-block
    ``profiler.*`` counters they would have bumped are lost to the
    parent; re-derive them from the funnel (and the informational
    ``info`` tallies, e.g. ``fastpath_extrapolated``) so run reports
    built from counters read as a serial run's.
    """
    funnel = profile.funnel
    telemetry.count("profiler.blocks_total", funnel["total"])
    if funnel["accepted"]:
        telemetry.count("profiler.blocks_accepted", funnel["accepted"])
    for reason, dropped in funnel["dropped"].items():
        telemetry.count(f"profiler.failure.{reason}", dropped)
    for name, value in (profile.info or {}).items():
        if value:
            telemetry.count(f"profiler.{name}", value)


#: Worker counters the parent must NOT merge during stitching: these
#: are re-derived from each landed shard's fresh entries by
#: ``_replicate_profiler_counters``, or counted from its sibling
#: results as they land, so merging them again would double-count.
_STITCH_EXCLUDED = frozenset({
    "profiler.blocks_total", "profiler.blocks_accepted",
    "profiler.fastpath_extrapolated", "profiler.blockplan_compiled",
    "profiler.chaos_block_poison", "profiler.step_budget_exceeded",
    "profiler.sibling_runs",
})


def _stitchable(name: str) -> bool:
    return name not in _STITCH_EXCLUDED \
        and not name.startswith("profiler.failure.")


def _read_ndjson_lenient(path: str) -> List[Dict]:
    """Worker-trace loader tolerating a torn final line.

    A worker killed mid-write (crash chaos, pool termination) can
    leave one truncated line at the tail; every complete line before
    it is still good and must be stitched.
    """
    records: List[Dict] = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except ValueError:
                    break  # torn tail; everything before it counts
    except OSError:
        pass
    return records


def _stitch_worker_traces(trace_dir: str) -> None:
    """Merge the pool's side-channel traces into the parent's.

    Records are re-emitted verbatim (worker pid, shard, and per-worker
    ``seq`` preserved, run trace ID already stamped) in deterministic
    order: by shard index, then worker, then sequence.  Each shard's
    ``worker.shard_summary`` counters are folded into the parent
    registry — excluding the funnel-replicated counters — and worker
    span durations feed the parent's ``span.*`` histograms so pooled
    stage timings show up next to the parent's own.
    """
    hub = telemetry.get_telemetry()
    records: List[Dict] = []
    try:
        names = sorted(os.listdir(trace_dir))
    except OSError:
        return
    for name in names:
        if name.endswith(".ndjson"):
            records.extend(
                _read_ndjson_lenient(os.path.join(trace_dir, name)))
    records.sort(key=lambda r: (r.get("shard", -1),
                                r.get("worker", 0),
                                r.get("seq", 0)))
    stitched = 0
    for record in records:
        if record.get("kind") == "event" \
                and record.get("name") == "worker.shard_summary":
            for counter, value in sorted(
                    (record.get("counters") or {}).items()):
                if value and _stitchable(counter):
                    telemetry.count(counter, value)
            continue
        if record.get("kind") == "span" \
                and record.get("dur_ms") is not None:
            telemetry.observe(f"span.{record['name']}",
                              record["dur_ms"])
        hub.sink.emit(record)
        stitched += 1
    if stitched:
        telemetry.count("parallel.stitched_records", stitched)


def _feed_windows(aggregator: Optional[window.WindowAggregator],
                  starts: Optional[Dict[int, int]], shard: Shard,
                  profile: CorpusProfile) -> None:
    """Feed one shard's per-block cycles into the window aggregator.

    Runs at every point a shard result lands (store hit, serial,
    pool, serial rescue, worker-failure bucket), so serial and pooled
    runs observe the same (index, value) pairs; the aggregator's
    arrival-order independence does the rest.  Dropped blocks feed
    ``None`` — they advance window completeness without contributing
    a sample.
    """
    if aggregator is None:
        return
    base = starts[shard.index]
    throughputs = profile.throughputs
    for offset, record in enumerate(shard.records):
        aggregator.observe(base + offset,
                           throughputs.get(record.block_id))


def profile_corpus_sharded(corpus: Corpus, uarch: str, seed: int = 0,
                           *, jobs: Optional[int] = None,
                           config: Optional[ProfilerConfig] = None,
                           shard_size: int = DEFAULT_SHARD_SIZE,
                           shard_timeout: Optional[float] = None,
                           shards: Optional[Sequence[Shard]] = None,
                           cache: Optional[ShardCache] = None,
                           worker_fn=None, serial_fn=None,
                           retry: Optional[resilience.RetryPolicy] = None,
                           stats: Optional[Dict] = None,
                           run_label: Optional[str] = None,
                           siblings: Sequence[str] = (),
                           on_shard: Optional[Callable[[Shard,
                                                        CorpusProfile],
                                                       None]] = None
                           ) -> CorpusProfile:
    """Profile a materialised corpus, bit-identical to serial.

    The list entry to :func:`profile_corpus_streamed`: it cuts
    ``corpus`` into shards (unless ``shards`` are given) and hands the
    engine the known block and shard totals for the live layer.

    ``jobs=1`` (or a corpus that fits the first prefetch window with a
    single pending shard) profiles in-process with no pool at all.
    ``cache`` is the result store: blocks it holds on ``uarch`` are
    read instead of profiled, and fresh entries are appended to it,
    so a killed run resumes from what it wrote.
    ``stats``, if given, is filled with run accounting (shard counts,
    store hits, retries, failures).  ``siblings`` and ``on_shard``
    are passed through (see :func:`profile_corpus_streamed`).
    """
    if shards is None:
        shards = shard_corpus(corpus, shard_size)
    return profile_corpus_streamed(
        iter(shards), uarch, seed=seed, jobs=jobs, config=config,
        shard_timeout=shard_timeout, cache=cache,
        worker_fn=worker_fn, serial_fn=serial_fn, retry=retry,
        stats=stats, run_label=run_label,
        total_blocks=sum(len(shard) for shard in shards),
        total_shards=len(shards), on_shard=on_shard,
        siblings=siblings)


def _as_shard_stream(source: Union[Iterable[BlockRecord],
                                   Iterable[Shard]],
                     shard_size: int) -> Iterator[Shard]:
    """Normalise a streamed source into an iterator of shards.

    Accepts either block records (lazily cut into shards via
    :func:`stream_shards`) or pre-built shards (passed through) — the
    distinction is made by peeking at the first item, so a generator
    source is never materialised.
    """
    iterator = iter(source)
    try:
        first = next(iterator)
    except StopIteration:
        return iter(())
    rest = chain([first], iterator)
    if isinstance(first, Shard):
        return rest
    return stream_shards(rest, shard_size)


def profile_corpus_streamed(source: Union[Iterable[BlockRecord],
                                          Iterable[Shard]],
                            uarch: str, seed: int = 0, *,
                            jobs: Optional[int] = None,
                            config: Optional[ProfilerConfig] = None,
                            shard_size: int = DEFAULT_SHARD_SIZE,
                            shard_timeout: Optional[float] = None,
                            cache: Optional[ShardCache] = None,
                            worker_fn=None, serial_fn=None,
                            retry: Optional[resilience.RetryPolicy] = None,
                            stats: Optional[Dict] = None,
                            run_label: Optional[str] = None,
                            total_blocks: Optional[int] = None,
                            total_shards: Optional[int] = None,
                            on_shard: Optional[Callable[[Shard,
                                                         "CorpusProfile"],
                                                        None]] = None,
                            siblings: Sequence[str] = ()
                            ) -> CorpusProfile:
    """Profile a record or shard source in bounded memory.

    The engine loop, serial and pooled alike.  ``source`` is an
    *iterator* of block records (or pre-built shards, which is how
    :func:`profile_corpus_sharded` feeds it) that is consumed exactly
    once — generate →
    digest → shard → profile → fold → discard.  At most
    :data:`PREFETCH_PER_JOB` × ``jobs`` shards are outstanding (pending,
    in a worker, or completed but not yet foldable) at a time, so
    generation overlaps profiling in the pool workers while the
    bounded window provides backpressure: peak RSS is a function of
    ``jobs`` and ``shard_size``, never of corpus length
    (``benchmarks/bench_streaming.py`` enforces this).

    Results fold incrementally into a :class:`ProfileFolder` in
    arrival order — the same fold ``merge_profiles`` performs over the
    index-sorted pair list — so the returned profile is byte-identical
    to a serial walk of the same records.

    Each arriving shard's blocks are looked up in ``cache`` (the
    result store) first; a shard every block of which hits is folded
    at once, and only the misses of the rest are profiled.  ``jobs=1``
    profiles them in-process as they arrive.  A pooled run holds its
    misses until the first window fills or the source ends.  A source
    that ends inside that window with one pending shard profiles it
    in-process with no pool at all; with more, the pool forks no more
    workers than there are pending shards.  A worker that dies breaks
    its pool: the pool is joined, a shard that finished before the
    break lands as usual, and every other shard that was in flight
    runs once more in a one-worker pool of its own, so the crash costs
    only its own shard a rescue; the next submit starts a fresh pool.
    A worker exception or per-shard timeout, or a second death in a
    shard's own pool, escalates to a bounded serial rescue in the
    parent; a shard that still fails lands in the ``worker_failure``
    bucket (or raises under strict mode).

    ``total_blocks``/``total_shards`` (when known) size the window
    aggregator and the ``run.start`` event; ``None`` means unknown —
    the live layer then reports blocks-so-far and rate instead of an
    ETA.  ``on_shard(shard, profile)`` fires after each fold, in shard
    order — the hook streaming writers (``repro corpus --stream``)
    attach to emit rows incrementally.

    ``siblings`` (uarch names) make each profiled block timed on them
    too, in-process or in the worker that profiles it (see
    :class:`~repro.profiler.harness.BasicBlockProfiler`); the parent
    writes those results to ``cache``, where the siblings' own runs
    find them.  Without a store there is nowhere to keep them, so no
    sibling is timed.  The serial rescue times none either, so a
    rescued shard's blocks are profiled fresh in their own sibling
    runs.
    """
    from repro.runtime.plan import clear_plan_cache
    jobs = default_jobs() if jobs is None else max(1, jobs)
    if shard_timeout is None:
        shard_timeout = default_shard_timeout()
    worker_fn = worker_fn or profile_shard_worker
    serial_fn = serial_fn or _serial_shard
    retry = retry or resilience.default_retry_policy(seed)
    max_inflight = PREFETCH_PER_JOB * jobs

    shard_iter = _as_shard_stream(source, shard_size)

    hub = telemetry.get_telemetry()
    trace_id: Optional[str] = None
    aggregator: Optional[window.WindowAggregator] = None
    starts: Optional[Dict[int, int]] = None
    label = run_label or uarch
    if hub.enabled:
        if hub.trace_id is None:
            hub.trace_id = uuid.uuid4().hex[:12]
        trace_id = hub.trace_id
        starts = {}
        aggregator = window.WindowAggregator(
            label, total_blocks,
            on_window=lambda summary: telemetry.event(
                "window", label=label, **summary))
        telemetry.event("run.start", label=label, uarch=uarch,
                        seed=seed, jobs=jobs, shards=total_shards,
                        blocks=total_blocks,
                        window_size=aggregator.window_size)

    descriptor = MachineDescriptor(uarch=uarch, seed=seed,
                                   trace=trace_id)
    # Sibling results reach their own runs only through the store.
    siblings = tuple(siblings) if cache is not None else ()

    folder = ProfileFolder()
    run_stats = {"shards": 0, "cache_hits": 0, "hits": 0,
                 "profiled": 0, "retried": 0, "failed": 0,
                 "written": 0, "sibling_runs": 0, "max_queue_depth": 0}
    offset = 0                        # global index of the next block
    order: Deque[int] = deque()       # arrived, not yet folded
    held: List[Tuple] = []            # (shard, entries, work) for a pool
    inflight: Dict[int, Tuple] = {}   # index -> (future, shard, entries,
                                      #           work, t0, pool)
    ready: Dict[int, Tuple] = {}      # index -> (shard, profile)
    exhausted = hung = interrupted = pooled = False
    pool: Optional[ProcessPoolExecutor] = None
    workers = jobs
    trace_dir: Optional[str] = None
    profiler: Optional[BasicBlockProfiler] = None
    since_reset = 0

    def lookup(shard: Shard) -> Tuple[List[Optional[Dict]],
                                      Optional[Shard]]:
        # The store's entry for each block (None for a miss) and the
        # shard of the misses still to profile (None when all hit).
        if cache is None:
            return [None] * len(shard), shard
        entries = [cache.load(uarch, record.block.text())
                   for record in shard.records]
        misses = tuple(record for record, entry
                       in zip(shard.records, entries) if entry is None)
        hits = len(shard) - len(misses)
        run_stats["hits"] += hits
        if hits:
            telemetry.count("cache.shard.hits", hits)
        if misses:
            telemetry.count("cache.shard.misses", len(misses))
        if not misses:
            return entries, None
        if hits == 0:
            return entries, shard
        return entries, Shard(index=shard.index, records=misses,
                              digest=shard_digest(misses))

    def finish(shard: Shard, entries: List[Optional[Dict]],
               work: Shard, fresh: List[Dict],
               shared: Sequence[Tuple[str, str, Dict]] = (),
               keep: bool = True) -> CorpusProfile:
        # Write the fresh entries (``keep``) and the siblings' to the
        # store, then fold hits and fresh entries in record order.
        if cache is not None and keep:
            for record, entry in zip(work.records, fresh):
                _store(cache, uarch, record.block.text(), entry,
                       run_stats)
            for name, text, entry in shared:
                if (name, text) not in cache:  # else stored by its own run
                    _store(cache, name, text, entry, run_stats)
        run_stats["sibling_runs"] += len(shared)
        fresh_iter = iter(fresh)
        return fold_entries(
            (record.block_id,
             entry if entry is not None else next(fresh_iter))
            for record, entry in zip(shard.records, entries))

    def profile_here(shard: Shard, entries: List[Optional[Dict]],
                     work: Shard) -> CorpusProfile:
        # One profiler across in-process misses — one walk of the
        # corpus — dropped with the plan cache every EPOCH_BLOCKS.
        nonlocal profiler, since_reset
        if since_reset >= EPOCH_BLOCKS:
            profiler = None
            clear_plan_cache()
            since_reset = 0
        if profiler is None:
            profiler = BasicBlockProfiler(
                descriptor.build(), config,
                siblings=[replace(descriptor, uarch=name).build()
                          for name in siblings])
        fresh = _profile_entries(profiler, work.records)
        since_reset += len(work)
        run_stats["profiled"] += 1
        return finish(shard, entries, work, fresh,
                      _shared_entries(profiler))

    def ensure_pool() -> ProcessPoolExecutor:
        nonlocal pool, trace_dir
        if pool is None:
            if hub.enabled and trace_dir is None:
                trace_dir = tempfile.mkdtemp(prefix="repro-trace-")
            pool = ProcessPoolExecutor(max_workers=workers,
                                       initializer=_init_worker,
                                       initargs=(trace_dir, trace_id))
        return pool

    def submit(shard: Shard, entries: List[Optional[Dict]],
               work: Shard) -> None:
        _account_planned_worker_faults(work)
        args = (descriptor, config, work.index, work.records, siblings)
        executor = ensure_pool()
        try:
            future = executor.submit(worker_fn, *args)
        except BrokenProcessPool:
            # A worker died since the last wait: land the broken
            # pool's shards, then retry once in a fresh pool; a second
            # failure is fatal and propagates.
            drain(executor)
            executor = ensure_pool()
            future = executor.submit(worker_fn, *args)
        inflight[shard.index] = (future, shard, entries, work,
                                 time.monotonic(), executor)

    def drain(executor: ProcessPoolExecutor) -> None:
        # A dead worker broke ``executor``.  Once it is joined, each of
        # its futures is done: a shard that finished before the break
        # lands as usual, and every other one runs once more in a pool
        # of its own, so only a shard whose own worker dies again is
        # rescued.  Joining first keeps the pool's threads from living
        # across the forks of those one-worker pools.
        nonlocal pool
        executor.shutdown(wait=True)
        if executor is pool:
            pool = None
        for index in sorted(index for index, job in inflight.items()
                            if job[-1] is executor):
            future, shard, entries, work = inflight.pop(index)[:4]
            if isinstance(future.exception(), BrokenProcessPool):
                telemetry.event("parallel.shard_error",
                                shard=shard.index,
                                error="BrokenProcessPool")
                ready[index] = (shard, isolate(shard, entries, work))
            else:
                ready[index] = (shard, land(future, shard, entries, work))

    def isolate(shard: Shard, entries: List[Optional[Dict]],
                work: Shard) -> CorpusProfile:
        # The shard's planned chaos faults were accounted when it was
        # first submitted: this run repeats the same decision.
        own = ProcessPoolExecutor(max_workers=1, initializer=_init_worker,
                                  initargs=(trace_dir, trace_id))
        try:
            future = own.submit(worker_fn, descriptor, config, work.index,
                                work.records, siblings)
            done, _ = futures_wait([future], timeout=shard_timeout)
        except BaseException:
            _terminate_pool(own)
            raise
        if not done:
            _terminate_pool(own)
            telemetry.event("parallel.shard_error", shard=shard.index,
                            error="TimeoutError")
            return rescue(shard, entries, work)
        own.shutdown(wait=True)
        return land(future, shard, entries, work)

    def rescue(shard: Shard, entries: List[Optional[Dict]],
               work: Shard) -> CorpusProfile:
        # Escalate pool -> serial: bounded retries in the parent; a
        # shard that still fails is bucketed, never allowed to poison
        # the run or the store.  The rescue runs in-parent, so the
        # profiler's own counters record it — no replication.
        run_stats["retried"] += 1
        telemetry.count("parallel.worker_retries")
        telemetry.count("resilience.retries")
        telemetry.event("parallel.worker_retry", shard=shard.index,
                        digest=work.digest)
        try:
            fresh = retry.run(
                lambda attempt: serial_fn(descriptor, config, work),
                key=f"serial_rescue|{work.digest}",
                retry_on=(Exception,))
        except Exception as exc:
            run_stats["failed"] += 1
            telemetry.count("parallel.worker_failures")
            telemetry.event("parallel.worker_failure",
                            shard=shard.index,
                            error=type(exc).__name__)
            resilience.quarantine_or_raise(
                f"shard {shard.index} failed in the pool and in "
                f"{retry.max_attempts} serial attempts",
                type(exc).__name__)
            return finish(shard, entries, work,
                          [_WORKER_FAILURE_ENTRY] * len(work),
                          keep=False)
        run_stats["profiled"] += 1
        return finish(shard, entries, work, fresh)

    def land(future, shard: Shard, entries: List[Optional[Dict]],
             work: Shard) -> CorpusProfile:
        try:
            _, fresh, shared = future.result(timeout=0)
        except Exception as exc:  # what the worker raised, or a death
            # in the shard's own pool — rescued serially.
            telemetry.event("parallel.shard_error", shard=shard.index,
                            error=type(exc).__name__)
            return rescue(shard, entries, work)
        run_stats["profiled"] += 1
        _replicate_profiler_counters(fold_entries(enumerate(fresh)))
        if shared:
            telemetry.count("profiler.sibling_runs", len(shared))
        return finish(shard, entries, work, fresh, shared)

    with telemetry.span("parallel.profile_corpus", uarch=uarch,
                        jobs=jobs) as span:
        try:
            while True:
                # Fill: pull from the source only while the window of
                # outstanding shards has room.
                while not exhausted and len(order) < max_inflight:
                    shard = next(shard_iter, None)
                    if shard is None:
                        exhausted = True
                        break
                    # Shards arrive in index order, so global block
                    # offsets are running prefix sums.
                    run_stats["shards"] += 1
                    telemetry.count("parallel.shards_total")
                    if starts is not None:
                        starts[shard.index] = offset
                    offset += len(shard)
                    order.append(shard.index)
                    entries, work = lookup(shard)
                    if work is None:
                        run_stats["cache_hits"] += 1
                        telemetry.count("parallel.shard_cache_hits")
                        ready[shard.index] = (shard, fold_entries(
                            zip(shard.block_ids, entries)))
                    else:
                        telemetry.count("stream.submitted")
                        if jobs <= 1:
                            ready[shard.index] = (
                                shard, profile_here(shard, entries, work))
                        elif not pooled:
                            held.append((shard, entries, work))
                        else:
                            submit(shard, entries, work)
                    if len(order) > run_stats["max_queue_depth"]:
                        run_stats["max_queue_depth"] = len(order)
                        telemetry.set_gauge("stream.max_queue_depth",
                                            len(order))
                    telemetry.observe("stream.queue_depth", len(order))
                # The first window is full or the source ended: start
                # the pool, sized to the work when the source ended
                # inside this window.  A lone pending shard never
                # forks.
                if held:
                    if exhausted and len(held) == 1:
                        shard = held[0][0]
                        ready[shard.index] = (shard,
                                              profile_here(*held[0]))
                    else:
                        if exhausted:
                            workers = min(jobs, len(held))
                        pooled = True
                        for job in held:
                            submit(*job)
                    held = []
                # Fold the completed frontier in arrival order (this
                # is what keeps every run's bytes equal to serial).
                while order and order[0] in ready:
                    shard, profile = ready.pop(order.popleft())
                    folder.add(shard, profile)
                    _feed_windows(aggregator, starts, shard, profile)
                    if starts is not None:
                        del starts[shard.index]
                    telemetry.count("stream.folded")
                    if on_shard is not None:
                        on_shard(shard, profile)
                if not inflight:
                    if exhausted:
                        break
                    continue  # window was all store hits; pull more
                # Wait for a completion, bounded by the oldest
                # in-flight shard's remaining timeout budget.
                now = time.monotonic()
                oldest = min(job[4] for job in inflight.values())
                futures_wait([job[0] for job in inflight.values()],
                             timeout=max(0.0,
                                         oldest + shard_timeout - now),
                             return_when=FIRST_COMPLETED)
                now = time.monotonic()
                for index in sorted(inflight):
                    if index not in inflight:
                        continue  # landed by a drain below
                    future, shard, entries, work, t0, executor = \
                        inflight[index]
                    if future.done():
                        if isinstance(future.exception(),
                                      BrokenProcessPool):
                            drain(executor)
                            continue
                        del inflight[index]
                        ready[index] = (shard, land(future, shard,
                                                    entries, work))
                    elif now - t0 > shard_timeout:
                        hung = True
                        future.cancel()
                        del inflight[index]
                        telemetry.event("parallel.shard_error",
                                        shard=shard.index,
                                        error="TimeoutError")
                        ready[index] = (shard, rescue(shard, entries,
                                                      work))
        except BaseException:
            # KeyboardInterrupt / fatal error: hard-stop the pool,
            # reap every worker, and let the interrupt propagate.
            interrupted = True
            raise
        finally:
            if pool is not None:
                if hung or interrupted:
                    _terminate_pool(pool)
                else:
                    pool.shutdown(wait=True, cancel_futures=True)
            if trace_dir is not None:
                try:
                    if not interrupted:
                        _stitch_worker_traces(trace_dir)
                finally:
                    shutil.rmtree(trace_dir, ignore_errors=True)
        span.annotate(shards=run_stats["shards"],
                      profiled=run_stats["profiled"],
                      cache_hits=run_stats["cache_hits"],
                      hits=run_stats["hits"],
                      failed=run_stats["failed"])

    if stats is not None:
        stats.update(run_stats)
    merged = folder.result()
    if aggregator is not None:
        series = aggregator.finish()
        window.deposit_run(label, series)
        telemetry.event("run.end", label=label, uarch=uarch,
                        total=merged.funnel["total"],
                        accepted=merged.funnel["accepted"],
                        windows=len(series))
    resources.sample_peak_rss()
    return merged


def _serial_shard(descriptor: MachineDescriptor,
                  config: Optional[ProfilerConfig],
                  shard: Shard) -> List[Dict]:
    profiler = BasicBlockProfiler(descriptor.build(), config)
    return _profile_entries(profiler, shard.records)


def _store(cache: ShardCache, uarch: str, text: str, entry: Dict,
           run_stats: Dict) -> None:
    if cache.store(uarch, text, entry):
        run_stats["written"] += 1
    # else degraded: the write failed, the run continues unstored


def _account_planned_worker_faults(shard: Shard) -> None:
    """Mirror worker-side chaos decisions into the parent's telemetry.

    A crashing or hanging worker takes its registry with it, so the
    parent — which can evaluate the same deterministic predicate —
    accounts the injection.  Mirrors ``_maybe_worker_chaos`` exactly,
    including crash-beats-hang precedence.
    """
    policy = chaos.active()
    if policy is None:
        return
    if policy.should_fire("worker_crash", shard.digest):
        chaos.account("worker_crash", shard.digest)
    elif policy.should_fire("worker_hang", shard.digest):
        chaos.account("worker_hang", shard.digest)

