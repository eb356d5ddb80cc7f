"""The synchronous heart of the service: validate, dedup, execute.

:class:`ProfilingService` owns everything that does not need an event
loop — request validation, content addressing, the request journal,
the circuit breaker, per-seed result stores, and the batch execution
path — so the whole robustness surface is testable in-process with
plain function calls.  The asyncio daemon
(:mod:`repro.serve.daemon`) is a thin transport around it.

Execution model: every distinct block in a batch becomes its own
**one-block shard**, and the shards run through
:func:`repro.parallel.profile_corpus_sharded` against the result store
(:mod:`repro.parallel.shard_cache`), which keys each result by
(uarch, block text).  Because measurement is a pure function of
(block text, uarch, seed) — even simulated noise is seeded from the
text — two clients sending the same block hit the same record, so
dedup across clients is free and responses are byte-stable across
restarts, replays, and serial/pooled backends alike.  Each block's
answer comes from its shard's folded profile as the engine hands it
over, never from a re-read of the store, so a failed store write
cannot lose a drop reason.

A request every block of which the store already holds (or cannot
parse) needs no batch: :meth:`ProfilingService.store_answer_steps`
reads those entries and journals the answer, one block a step, and
the daemon steps it on its event loop before admission, so such a
request never waits behind a batch that is profiling and never takes
a thread hop.  Both paths build each block's answer from its entry
through one :meth:`ProfilingService._assemble`, so they cannot
diverge.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from typing import (Callable, Dict, Generator, Iterator, List, Optional,
                    Set, Tuple)

from repro.corpus.dataset import BlockRecord, Corpus
from repro.errors import ReproError
from repro.isa.instruction import BasicBlock
from repro.isa.parser import parse_block
from repro.parallel.engine import profile_corpus_sharded
from repro.parallel.shard_cache import ShardCache, store_directory
from repro.parallel.sharding import Shard, shard_digest
from repro.serve import metrics
from repro.serve.breaker import CircuitBreaker
from repro.serve.config import ServeConfig
from repro.serve.metrics import ServeWindows
from repro.serve.requestlog import REQUEST_LOG_NAME, RequestJournal
from repro.telemetry import core as telemetry

#: Microarchitectures the service accepts (the paper's three).
SERVE_UARCHES = ("ivybridge", "haswell", "skylake")

#: Hard caps keeping a single hostile request from exhausting memory.
MAX_BLOCKS_PER_REQUEST = 4096
MAX_BLOCK_BYTES = 65536


class RequestError(ReproError):
    """A request the service refuses; carries an HTTP status."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


def request_digest(uarch: str, seed: int, blocks: List[str]) -> str:
    """Process-stable content address of one profiling request."""
    h = hashlib.blake2b(digest_size=12)
    h.update(f"{uarch}|{seed}|".encode())
    for text in blocks:
        data = text.encode()
        h.update(f"{len(data)}:".encode())
        h.update(data)
    return h.hexdigest()


@dataclass
class ProfileRequest:
    """One validated, content-addressed profiling request."""

    blocks: List[str]
    uarch: str
    seed: int
    client: str
    deadline_ms: float
    digest: str
    #: Monotonic admission timestamp (daemon clock).
    admitted_at: float = 0.0

    def body(self) -> Dict:
        """The canonical journalable form (replay re-parses this)."""
        return {"blocks": list(self.blocks), "uarch": self.uarch,
                "seed": self.seed, "client": self.client,
                "deadline_ms": self.deadline_ms}

    def expired(self, now: float) -> bool:
        return (self.deadline_ms > 0
                and (now - self.admitted_at) * 1000.0
                >= self.deadline_ms)


def parse_profile_request(payload: Dict,
                          config: ServeConfig) -> ProfileRequest:
    """Validate a decoded request body; raise :class:`RequestError`.

    Block *syntax* is not validated here — an unparsable block is a
    per-block ``parse_error`` result, not a request-level 400, so one
    bad block in a batch of 100 does not cost the client the other 99.
    """
    if not isinstance(payload, dict):
        raise RequestError(400, "request body must be a JSON object")
    blocks = payload.get("blocks")
    if not isinstance(blocks, list) or not blocks:
        raise RequestError(400, "'blocks' must be a non-empty list")
    if len(blocks) > MAX_BLOCKS_PER_REQUEST:
        raise RequestError(
            413, f"too many blocks (max {MAX_BLOCKS_PER_REQUEST})")
    for i, text in enumerate(blocks):
        if not isinstance(text, str):
            raise RequestError(400, f"blocks[{i}] must be a string")
        if len(text.encode()) > MAX_BLOCK_BYTES:
            raise RequestError(
                413, f"blocks[{i}] exceeds {MAX_BLOCK_BYTES} bytes")
    uarch = payload.get("uarch", "haswell")
    if uarch not in SERVE_UARCHES:
        raise RequestError(
            400, f"unknown uarch {uarch!r} "
                 f"(expected one of {', '.join(SERVE_UARCHES)})")
    seed = payload.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise RequestError(400, "'seed' must be an integer")
    client = payload.get("client", "default")
    if not isinstance(client, str) or len(client) > 120:
        raise RequestError(400, "'client' must be a short string")
    deadline_ms = payload.get("deadline_ms", config.deadline_ms)
    if not isinstance(deadline_ms, (int, float)) \
            or isinstance(deadline_ms, bool) or deadline_ms < 0:
        raise RequestError(400, "'deadline_ms' must be >= 0")
    return ProfileRequest(
        blocks=[str(t) for t in blocks], uarch=uarch, seed=seed,
        client=client, deadline_ms=float(deadline_ms),
        digest=request_digest(uarch, seed, blocks))


def _parse_distinct(requests: List[ProfileRequest],
                    parse_errors: Dict[str, str]
                    ) -> Iterator[Tuple[str, Optional[BasicBlock]]]:
    """Each distinct block text of ``requests``, in order, with its
    parsed block; a text that does not parse comes with ``None``, and
    goes into ``parse_errors`` with its message."""
    seen: Set[str] = set()
    for request in requests:
        for text in request.blocks:
            if text in seen:
                continue
            seen.add(text)
            try:
                block = parse_block(text, source="serve")
            except ReproError as exc:
                parse_errors[text] = str(exc)
                block = None
            yield text, block


class ProfilingService:
    """Validation, journaling, dedup, and batch execution — no I/O loop."""

    def __init__(self, config: ServeConfig,
                 clock: Callable[[], float] = time.monotonic,
                 worker_fn=None, serial_fn=None):
        self.config = config
        self.clock = clock
        #: Test hooks forwarded to the engine (fault injection).
        self.worker_fn = worker_fn
        self.serial_fn = serial_fn
        self.breaker = CircuitBreaker(config.breaker_threshold,
                                      config.breaker_cooldown_s,
                                      clock=clock)
        self.windows = ServeWindows(config.window)
        self.journal = RequestJournal(
            os.path.join(config.state_dir, REQUEST_LOG_NAME))
        self._stores: Dict[int, ShardCache] = {}
        #: Filled by :meth:`recover`; daemon replays before serving.
        self.recovered: Dict[str, Dict] = {}

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> None:
        os.makedirs(self.config.state_dir, exist_ok=True)
        self.open_stores()
        self.recovered = self.journal.open()
        if self.recovered:
            telemetry.count("serve.recovered_requests",
                            len(self.recovered))
            telemetry.event("serve.recovery",
                            pending=len(self.recovered))

    def recover(self) -> int:
        """Replay journaled requests that never got a ``done`` record.

        Runs before the listener opens: a SIGKILLed daemon's in-flight
        work is re-executed (deterministically — content addressing
        plus the result store make the results byte-identical to what
        the dead process would have produced) and journaled as done,
        so clients polling by request digest can still collect it.
        """
        replayed = 0
        for digest, body in sorted(self.recovered.items()):
            try:
                request = parse_profile_request(body, self.config)
            except RequestError:
                self.journal.record_dropped(digest, "unreplayable")
                continue
            request.admitted_at = self.clock()
            results, _ = self.execute([request], journal=False)
            self.journal.record_done(digest, results[0])
            telemetry.count("serve.replayed_requests")
            replayed += 1
        self.recovered = {}
        return replayed

    def close(self) -> None:
        self.journal.close()

    # ------------------------------------------------------------------
    # stores

    def open_stores(self) -> None:
        """Read the logs of every result store under the state
        directory into their indexes, so that a lookup while serving
        is a dictionary probe and never the first read of a log."""
        for name in sorted(os.listdir(self.config.state_dir)):
            try:
                seed = int(name.rpartition("_")[2])
            except ValueError:
                continue
            if store_directory(self.config.state_dir, seed) \
                    == os.path.join(self.config.state_dir, name):
                self.store_for(seed).build_indexes()

    def store_for(self, seed: int) -> ShardCache:
        """The result store of ``seed`` under the state directory: one
        instance, shared by the batch thread and the store lane."""
        store = self._stores.get(seed)
        if store is None:
            store = self._stores.setdefault(seed, ShardCache(
                store_directory(self.config.state_dir, seed)))
        return store

    # ------------------------------------------------------------------
    # execution

    def lookup_memo(self, request: ProfileRequest) -> Optional[List]:
        """Journal-memo hit: identical request already answered."""
        results = self.journal.completed.get(request.digest)
        if results:
            metrics.count_replay_hit()
            return results
        metrics.count_replay_miss()
        return None

    def store_answer_steps(self, request: ProfileRequest
                           ) -> Generator[None, None, Optional[List]]:
        """The request's results from the result store alone, or
        ``None`` when a block it can parse is not stored, one block a
        step: a generator that yields between two distinct texts it
        parses and loads, and returns the results, or ``None``, as its
        ``StopIteration`` value.  The daemon steps it on its event
        loop, so no request, however many blocks it carries, holds the
        loop for longer than one block's parse and read, plus the
        final ``done`` append; a two-block request yields once.  Each
        lookup is a dictionary probe, since :meth:`start` read every
        stored log into its index.

        Answers what :meth:`execute` would for the same blocks, built
        by the same :meth:`_assemble`, and counts what it counts
        (``cache.shard.hits``, ``serve.parse_errors``) plus
        ``serve.store_answers``; the ``done`` record is written before
        the results return.  A miss stops the lookup, and the lane
        then counts and writes nothing, so the request's queued run
        counts its blocks once.  A block the index does not hold
        misses before any record is read.
        Never profiles, never writes the store, never touches the
        pool or the breaker.
        """
        store = self.store_for(request.seed)
        by_text: Dict[str, int] = {}
        entries: Dict[int, Dict] = {}
        parse_errors: Dict[str, str] = {}
        for i, (text, block) in enumerate(
                _parse_distinct([request], parse_errors)):
            if i:
                yield
            if block is None:
                continue
            entry = store.load(request.uarch, block.text())
            if entry is None:
                return None
            by_text[text] = block_id = len(entries)
            entries[block_id] = entry
        if entries:
            telemetry.count("cache.shard.hits", len(entries))
        if parse_errors:
            telemetry.count("serve.parse_errors", len(parse_errors))
        results = self._assemble(request, by_text, entries,
                                 parse_errors)
        self.journal.record_done(request.digest, results)
        telemetry.count("serve.store_answers")
        return results

    def execute(self, requests: List[ProfileRequest],
                journal: bool = True) -> Tuple[List[List], Dict]:
        """Run a coalesced batch; one result list per request.

        All requests in a batch share (uarch, seed) — the daemon
        groups before calling.  Blocks dedup across the whole batch:
        each distinct text parses once, profiles once (or hits the
        result store), and fans back out to every requesting position.
        Returns the per-request results plus the engine stats.
        """
        assert requests, "empty batch"
        uarch = requests[0].uarch
        seed = requests[0].seed
        assert all(r.uarch == uarch and r.seed == seed
                   for r in requests), "mixed batch"

        if journal:
            for request in requests:
                self.journal.record_request(request.digest,
                                            request.body())

        # Parse + dedup: one shard per distinct block text.
        shards: List[Shard] = []
        by_text: Dict[str, int] = {}       # text -> block_id
        parse_errors: Dict[str, str] = {}  # text -> message
        for text, block in _parse_distinct(requests, parse_errors):
            if block is None:
                continue
            block_id = len(shards)
            record = BlockRecord(block=block, application="serve",
                                 frequency=1, block_id=block_id)
            shards.append(Shard(index=block_id, records=(record,),
                                digest=shard_digest((record,))))
            by_text[text] = block_id
        if parse_errors:
            telemetry.count("serve.parse_errors", len(parse_errors))

        stats: Dict = {}
        entries: Dict[int, Dict] = {}  # block_id -> its store entry

        def note_entry(shard: Shard, profile) -> None:
            # A one-block shard's profile holds one entry: its block's
            # throughput, or the one reason it was dropped under.
            if shard.index in profile.throughputs:
                entries[shard.index] = {
                    "throughput": profile.throughputs[shard.index]}
            for reason in profile.funnel["dropped"]:
                entries[shard.index] = {"reason": reason}

        if shards:
            corpus = Corpus([s.records[0] for s in shards])
            pool_granted = self.breaker.allow_pool()
            jobs = self.config.jobs if pool_granted else 1
            if jobs != self.config.jobs:
                telemetry.count("serve.scalar_fallback_batches")
            profile_corpus_sharded(
                corpus, uarch, seed=seed, jobs=jobs, shards=shards,
                cache=self.store_for(seed), worker_fn=self.worker_fn,
                serial_fn=self.serial_fn, stats=stats,
                run_label=f"serve batch x{len(requests)}",
                on_shard=note_entry)
            troubled = bool(stats.get("retried")
                            or stats.get("failed"))
            # Only pool-granted batches inform the breaker: a scalar
            # fallback succeeding says nothing about pool health, and
            # letting it close the breaker would skip the half-open
            # probe entirely.
            if pool_granted and self.config.jobs > 1:
                if troubled:
                    self.breaker.record_failure()
                else:
                    self.breaker.record_success()

        results = [self._assemble(request, by_text, entries,
                                  parse_errors)
                   for request in requests]
        if journal:
            for request, result in zip(requests, results):
                self.journal.record_done(request.digest, result)
        return results, stats

    @staticmethod
    def _assemble(request: ProfileRequest, by_text: Dict[str, int],
                  entries: Dict[int, Dict],
                  parse_errors: Dict[str, str]) -> List:
        """One ordered result entry per block in the request, from
        each parsed block's store entry (a block with none reads as
        dropped for an ``unknown`` reason)."""
        results = []
        for text in request.blocks:
            if text in parse_errors:
                results.append({"status": "parse_error",
                                "detail": parse_errors[text]})
                continue
            entry = entries.get(by_text[text], {"reason": "unknown"})
            if "throughput" in entry:
                results.append({"status": "ok",
                                "throughput": entry["throughput"]})
            else:
                results.append({"status": "dropped",
                                "reason": entry["reason"]})
        return results

    # ------------------------------------------------------------------
    # health

    def health(self, queue_depth: int = 0,
               draining: bool = False) -> Dict:
        return {
            "status": "draining" if draining else "ok",
            "breaker": self.breaker.state,
            "queue_depth": queue_depth,
            "jobs": self.config.jobs,
            "window": self.windows.last,
            "pending_journal": len(self.journal.pending),
        }


def canonical_results_bytes(results: List) -> bytes:
    """The byte form the replay-identity tests compare."""
    return json.dumps(results, sort_keys=True).encode()
