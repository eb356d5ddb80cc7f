"""The asyncio daemon: transport, batching, deadlines, drain.

One accept loop, one batcher task.  Connections persist under the
HTTP/1.1 rules: each is answered request by request, in order, until
the client closes it or asks for ``Connection: close``, a framing
error (a 400 or 413 from the head or ``Content-Length``) loses the
stream position, or the daemon drains.  A profiling request every
block of which the result store already holds is answered from the
store at once; the others are queued and journaled durably, and the
batcher runs none of them before its ``req`` record is written.  When
it wakes, the batcher takes whatever is queued (up to ``batch_size``
requests) with no timed wait: requests that arrive while a batch runs
form the next batch, so concurrent clients' blocks still merge into
one content-addressed engine batch under load.  Batches execute
off-loop in a thread (:meth:`ProfilingService.execute` blocks on the
worker pool).  A store lookup runs on the loop, one block per loop
turn (:meth:`ProfilingService.store_answer_steps`), since a thread
hop would cost more than its reads, and every stored log is read
into its index at start, before the listener opens.

The robustness ladder, in request order:

1. ``serve_accept_error`` chaos: the connection dies at accept, once
   per connection, so a client that keeps its connection meets it
   only when it reconnects.
2. Draining (SIGTERM seen): profile requests get 503 + retry-after;
   health stays answerable so orchestrators can watch the drain.
3. Rate limit: per-client token bucket → 429 + retry-after.
4. Journal memo: an identical, already-answered request replays its
   recorded results with no queue and no engine work.
5. Result store: a request every block of which is stored (or
   unparsable) is answered from the store on the loop, one block per
   loop turn, its ``done`` record written first — no thread hop, no
   queue slot, no deadline, no ``req`` record, never behind a running
   batch.  A miss, or a lookup that raises, falls through to
   admission.
6. Admission: bounded queue → 429 + retry-after when full (or when
   ``serve_queue_full`` chaos forces the branch), then the durable
   ``req`` record; a journal write that fails answers 500 and the
   request never runs.
7. Deadline: work still queued when its deadline passes is cancelled
   *before* it reaches a worker, counted as a per-window miss, and
   answered 504 — never silently dropped.
8. Execution: circuit breaker picks pooled vs scalar; results are
   journaled ``done`` before the response bytes go out.
9. ``serve_slow_client`` chaos: the response write stalls
   ``hang_s`` seconds — the daemon must stay live throughout.

SIGTERM drains gracefully: stop accepting, close every connection
that is idle between requests, answer whatever is in flight with
``Connection: close``, let the batcher finish what it can inside
``drain_s``, journal the rest (the next start replays them), flush
telemetry, exit 0.
"""

from __future__ import annotations

import asyncio
import os
import signal
from typing import Dict, List, Optional, Set, Tuple

from repro.resilience import chaos
from repro.serve import http
from repro.serve.admission import AdmissionQueue, TokenBucket
from repro.serve.config import ServeConfig
from repro.serve.core import (ProfileRequest, ProfilingService,
                              RequestError, parse_profile_request)
from repro.telemetry import core as telemetry

#: Bytes read from a connection at a time.
READ_CHUNK = 65536
#: Bytes read without finding the end of a request head before the
#: daemon answers 413; a complete head is held to the tighter
#: :data:`http.MAX_HEADER_BYTES` by ``parse_head``.
HEAD_LIMIT = 65536


class _Pending:
    """One admitted request waiting for the batcher."""

    __slots__ = ("request", "future", "digest", "journaled")

    def __init__(self, request: ProfileRequest,
                 future: "asyncio.Future"):
        self.request = request
        self.future = future
        self.digest = request.digest
        #: Set once ``record_request`` has returned (or raised, in
        #: which case ``future`` already holds the 500).
        self.journaled = asyncio.Event()


class ServeDaemon:
    """Asyncio transport around a :class:`ProfilingService`."""

    def __init__(self, service: ProfilingService, config: ServeConfig):
        self.service = service
        self.config = config
        self.queue = AdmissionQueue(config.queue_size,
                                    clock=service.clock)
        self.bucket = TokenBucket(config.rate, config.burst,
                                  clock=service.clock)
        self.draining = False
        self._conn_count = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._wake = asyncio.Event()
        self._shutdown = asyncio.Event()
        self._batch_in_flight = 0
        self._lane_in_flight = 0
        #: Every open connection's handler task, and its writer.
        self._connections: Dict["asyncio.Task",
                                asyncio.StreamWriter] = {}
        #: Writers of the connections waiting for a request's first
        #: byte: the drain closes these at once.
        self._idle: Set[asyncio.StreamWriter] = set()

    # ------------------------------------------------------------------
    # lifecycle

    async def run(self) -> None:
        self.service.start()
        replayed = await asyncio.to_thread(self.service.recover)
        if replayed:
            telemetry.event("serve.recovery_replayed", count=replayed)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self._begin_drain,
                                        signal.Signals(sig).name)
            except (NotImplementedError, RuntimeError):
                pass
        batcher = asyncio.create_task(self._batch_loop())
        if self.config.socket:
            if os.path.exists(self.config.socket):
                os.unlink(self.config.socket)
            self._server = await asyncio.start_unix_server(
                self._handle, path=self.config.socket)
            where = self.config.socket
        else:
            self._server = await asyncio.start_server(
                self._handle, host=self.config.host,
                port=self.config.port or 0)
            where = "%s:%d" % self._server.sockets[0].getsockname()[:2]
        telemetry.event("serve.listening", address=where,
                        jobs=self.config.jobs)
        print(f"repro serve: listening on {where} "
              f"(jobs={self.config.jobs}, "
              f"queue={self.config.queue_size})", flush=True)

        await self._shutdown.wait()
        await self._drain(batcher)

    def _begin_drain(self, signame: str = "SIGTERM") -> None:
        if not self.draining:
            self.draining = True
            telemetry.event("serve.drain_begin", signal=signame)
            print(f"repro serve: {signame} received, draining",
                  flush=True)
            self._shutdown.set()
            self._wake.set()

    async def _drain(self, batcher: "asyncio.Task") -> None:
        """Finish or journal in-flight work, then stop everything."""
        if self._server is not None:
            self._server.close()
        for writer in list(self._idle):
            writer.close()  # its handler reads EOF and ends
        deadline = self.service.clock() + self.config.drain_s
        while (len(self.queue) or self._batch_in_flight
               or self._lane_in_flight) \
                and self.service.clock() < deadline:
            self._wake.set()
            await asyncio.sleep(0.02)
        # Whatever is still queued already has a durable ``req``
        # record: the next start replays it.  Tell waiting clients.
        leftovers = self.queue.pop_all()
        for pending in leftovers:
            self._resolve(pending, 503, http.error_body(
                503, "draining: request journaled for replay",
                request=pending.digest))
        batcher.cancel()
        try:
            await batcher
        except asyncio.CancelledError:
            pass
        await self._close_connections(deadline)
        if self.config.socket and os.path.exists(self.config.socket):
            try:
                os.unlink(self.config.socket)
            except OSError:
                pass
        self.service.windows.close_window(final=True)
        telemetry.event("serve.drain_end", journaled=len(leftovers))
        self.service.close()

    async def _close_connections(self, deadline: float) -> None:
        """Let each connection send its last response, until
        ``deadline``; then abort and cancel the rest.

        A connection left open would keep its handler pending past the
        loop's end; ``Server.wait_closed`` cannot be trusted to wait
        for handlers (on 3.11 it returns once the listener closes).
        """
        if self._connections:
            await asyncio.wait(
                list(self._connections),
                timeout=max(0.0, deadline - self.service.clock()))
        stuck = list(self._connections.items())
        for task, writer in stuck:
            writer.transport.abort()
            task.cancel()
        await asyncio.gather(*(task for task, _ in stuck),
                             return_exceptions=True)

    # ------------------------------------------------------------------
    # connection handling

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        """Answer the requests of one connection in order.

        The connection stays open until the client closes it or asks
        for ``Connection: close`` (HTTP/1.0: sends no ``keep-alive``),
        a framing error loses the stream position, or the daemon
        drains.  Every response says which in its ``Connection``
        header.
        """
        self._conn_count += 1
        telemetry.count("serve.connections")
        conn_key = f"conn-{self._conn_count}"
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            if chaos.fire("serve_accept_error", conn_key):
                telemetry.count("serve.accept_errors")
                return
            buffer = bytearray()  # bytes read past the last request
            while True:
                try:
                    request = await self._read_request(reader, writer,
                                                       buffer)
                except http.HttpError as exc:
                    await self._send(writer, exc.status,
                                     http.error_body(exc.status,
                                                     exc.message),
                                     keep_alive=False)
                    return
                if request is None:
                    return
                status, body, headers, slow_key = \
                    await self._route(request)
                if not await self._send(writer, status, body, headers,
                                        slow_key, request.keep_alive):
                    return
        except ConnectionError:
            pass
        finally:
            del self._connections[task]
            self._idle.discard(writer)
            try:
                writer.close()
            except Exception:
                pass

    async def _read_request(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter,
                            buffer: bytearray
                            ) -> Optional[http.HttpRequest]:
        """The next request on a connection, or ``None`` once it ends
        between requests: the peer closed it, or sent part of a
        request and then closed it, or the daemon drains.

        ``buffer`` holds the bytes read past the previous request, so
        pipelined requests are answered in order.  A connection that
        waits for the first byte of a request is idle: the drain
        closes it at once.
        """
        while True:
            end = buffer.find(b"\r\n\r\n")
            if end >= 0:
                break
            if len(buffer) > HEAD_LIMIT:
                raise http.HttpError(413, "header block too large")
            if buffer:
                chunk = await reader.read(READ_CHUNK)
            elif self.draining:
                return None
            else:
                self._idle.add(writer)
                try:
                    chunk = await reader.read(READ_CHUNK)
                finally:
                    self._idle.discard(writer)
            if not chunk:
                return None
            buffer += chunk
        method, path, version, headers = \
            http.parse_head(bytes(buffer[:end]))
        length = http.content_length(headers)
        start = end + 4
        while len(buffer) < start + length:
            chunk = await reader.read(max(READ_CHUNK,
                                          start + length - len(buffer)))
            if not chunk:
                return None
            buffer += chunk
        body = bytes(buffer[start:start + length])
        del buffer[:start + length]
        return http.HttpRequest(method, path, headers, body, version)

    async def _send(self, writer: asyncio.StreamWriter, status: int,
                    body: Dict,
                    headers: Optional[Dict[str, str]] = None,
                    slow_key: Optional[str] = None,
                    keep_alive: bool = False) -> bool:
        """Write one response; whether the connection stays open (the
        client allowed it and the daemon is not draining)."""
        if slow_key is not None:
            policy = chaos.active()
            if policy is not None and chaos.fire("serve_slow_client",
                                                 slow_key):
                telemetry.count("serve.slow_clients")
                await asyncio.sleep(policy.hang_seconds)
        keep = keep_alive and not self.draining
        writer.write(http.format_response(
            status, body, headers, "keep-alive" if keep else "close"))
        try:
            await writer.drain()
        except ConnectionError:
            return False
        return keep

    # ------------------------------------------------------------------
    # routing

    async def _route(self, request: http.HttpRequest
                     ) -> Tuple[int, Dict, Optional[Dict],
                                Optional[str]]:
        if request.path == "/v1/health":
            if request.method != "GET":
                return 405, http.error_body(405, "GET only"), \
                    None, None
            body = self.service.health(queue_depth=len(self.queue),
                                       draining=self.draining)
            return 200, body, None, None
        if request.path == "/v1/stats":
            if request.method != "GET":
                return 405, http.error_body(405, "GET only"), \
                    None, None
            return 200, self._stats_body(), None, None
        if request.path == "/v1/profile":
            if request.method != "POST":
                return 405, http.error_body(405, "POST only"), \
                    None, None
            return await self._profile(request)
        return 404, http.error_body(
            404, f"no route for {request.path}"), None, None

    def _stats_body(self) -> Dict:
        registry = telemetry.registry()
        # Copies: the batch thread creates counters meanwhile.
        counters = {name: counter.value
                    for name, counter in list(registry.counters.items())
                    if name.startswith(("serve.", "cache."))}
        histograms = {name: histogram.summary()
                      for name, histogram in list(
                          registry.histograms.items())
                      if name.startswith("serve.")}
        return {"counters": counters,
                "histograms": histograms,
                "window": self.service.windows.last,
                "breaker": self.service.breaker.state,
                "queue_depth": len(self.queue)}

    async def _profile(self, request: http.HttpRequest
                       ) -> Tuple[int, Dict, Optional[Dict],
                                  Optional[str]]:
        try:
            profile_request = parse_profile_request(
                request.json(), self.config)
        except http.HttpError as exc:
            self.service.windows.observe_error()
            return exc.status, http.error_body(exc.status,
                                               exc.message), \
                None, None
        except RequestError as exc:
            self.service.windows.observe_error()
            return exc.status, http.error_body(exc.status,
                                               exc.message), \
                None, None
        digest = profile_request.digest

        if self.draining:
            self.service.windows.observe_shed()
            return 503, http.error_body(
                503, "draining", request=digest,
                retry_after_ms=1000.0), \
                {"Retry-After": "1"}, digest

        decision = self.bucket.allow(profile_request.client)
        if not decision.admitted:
            self.service.windows.observe_shed()
            return 429, http.error_body(
                429, "rate limit exceeded", reason=decision.reason,
                retry_after_ms=round(decision.retry_after_ms, 1),
                request=digest), \
                self._retry_headers(decision.retry_after_ms), digest

        memo = self.service.lookup_memo(profile_request)
        if memo is not None:
            latency = 0.0
            self.service.windows.observe_completed(latency)
            return 200, self._result_body(profile_request, memo,
                                          cached=True), None, digest

        stored = await self._answer_from_store(profile_request)
        if stored is not None:
            return 200, self._result_body(profile_request, stored), \
                None, digest

        profile_request.admitted_at = self.service.clock()
        future: "asyncio.Future" = \
            asyncio.get_running_loop().create_future()
        pending = _Pending(profile_request, future)
        decision = self.queue.try_admit(pending)
        if not decision.admitted:
            self.service.windows.observe_shed()
            return 429, http.error_body(
                429, "admission queue full", reason=decision.reason,
                retry_after_ms=round(decision.retry_after_ms, 1),
                request=digest), \
                self._retry_headers(decision.retry_after_ms), digest

        # Queued first so a full queue sheds before anything is
        # journaled.  A batcher that is already awake may pop the
        # request during the write; it waits on ``journaled`` before
        # running it.  SIGKILL from here on replays.
        try:
            await asyncio.to_thread(self.service.journal.record_request,
                                    digest, profile_request.body())
        except Exception as exc:  # must not wedge the batcher
            telemetry.count("serve.journal_errors")
            telemetry.event("serve.journal_error",
                            error=type(exc).__name__)
            self.service.windows.observe_error()
            self._resolve(pending, 500, http.error_body(
                500, f"journal write failed: {type(exc).__name__}",
                request=digest))
        pending.journaled.set()
        self._wake.set()
        status, body = await future
        return status, body, None, digest

    async def _answer_from_store(self, request: ProfileRequest
                                 ) -> Optional[List]:
        """The store lane: results for a request the result store
        already answers, its ``done`` record written, or ``None``.

        Steps the lookup on the loop, one block per loop turn: no
        thread hop, and no request holds the other connections for
        more than one block's parse and read (plus the ``done``
        append, which waits for its fsync and for the journal lock
        when a batch thread is mid-append)."""
        started = self.service.clock()
        self._lane_in_flight += 1
        try:
            steps = self.service.store_answer_steps(request)
            while True:
                try:
                    next(steps)
                except StopIteration as done:
                    results = done.value
                    break
                await asyncio.sleep(0)
        except Exception as exc:  # the queued path still answers
            telemetry.event("serve.store_lane_error",
                            error=type(exc).__name__)
            return None
        finally:
            self._lane_in_flight -= 1
        if results is not None:
            self.service.windows.observe_completed(
                1000.0 * (self.service.clock() - started))
        return results

    @staticmethod
    def _retry_headers(retry_after_ms: float) -> Dict[str, str]:
        return {"Retry-After":
                str(max(1, int(round(retry_after_ms / 1000.0))))}

    def _result_body(self, request: ProfileRequest, results: List,
                     cached: bool = False) -> Dict:
        return {"request": request.digest, "uarch": request.uarch,
                "seed": request.seed, "results": results,
                "cached": cached}

    # ------------------------------------------------------------------
    # batching

    async def _batch_loop(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            if not len(self.queue):
                continue
            batch = self.queue.pop_batch(self.config.batch_size)
            if not batch:
                continue
            self._batch_in_flight += 1
            try:
                await self._run_batch(batch)
            finally:
                self._batch_in_flight -= 1
            if len(self.queue):
                self._wake.set()

    async def _run_batch(self, batch: List[_Pending]) -> None:
        popped = self.service.clock()
        telemetry.count("serve.batches")
        telemetry.count("serve.batched_requests", len(batch))
        for pending in batch:
            telemetry.observe(
                "serve.queue_wait_ms",
                1000.0 * (popped - pending.request.admitted_at))
            # Durable before any work: nothing runs ahead of its
            # ``req`` record.
            await pending.journaled.wait()
        now = self.service.clock()
        live: List[_Pending] = []
        for pending in batch:
            if pending.future.done():
                continue  # its journal write failed: answered 500
            if pending.request.expired(now):
                # Cancelled before it reaches a worker — journaled,
                # counted, answered; never silently dropped.
                await asyncio.to_thread(
                    self.service.journal.record_dropped,
                    pending.digest, "deadline")
                self.service.windows.observe_deadline_miss()
                self._resolve(pending, 504, http.error_body(
                    504, "deadline exceeded before execution",
                    request=pending.digest))
            else:
                live.append(pending)
        if not live:
            return
        groups: Dict[Tuple[str, int], List[_Pending]] = {}
        for pending in live:
            key = (pending.request.uarch, pending.request.seed)
            groups.setdefault(key, []).append(pending)
        for key in sorted(groups):
            group = groups[key]
            started = self.service.clock()
            try:
                results, _stats = await asyncio.to_thread(
                    self.service.execute,
                    [p.request for p in group], False)
            except Exception as exc:  # engine must not kill the loop
                telemetry.count("serve.batch_errors")
                telemetry.event("serve.batch_error",
                                error=type(exc).__name__)
                for pending in group:
                    self.service.windows.observe_error()
                    self._resolve(pending, 500, http.error_body(
                        500, f"batch failed: {type(exc).__name__}",
                        request=pending.digest))
                continue
            elapsed = self.service.clock() - started
            self.queue.observe_service_time(
                elapsed / max(1, len(group)))
            for pending, result in zip(group, results):
                await asyncio.to_thread(
                    self.service.journal.record_done,
                    pending.digest, result)
                latency_ms = 1000.0 * (self.service.clock()
                                       - pending.request.admitted_at)
                self.service.windows.observe_completed(latency_ms)
                self._resolve(pending, 200, self._result_body(
                    pending.request, result))

    @staticmethod
    def _resolve(pending: _Pending, status: int, body: Dict) -> None:
        if not pending.future.done():
            pending.future.set_result((status, body))


def run_daemon(config: ServeConfig,
               service: Optional[ProfilingService] = None) -> None:
    """Blocking entry point used by ``repro serve``."""
    service = service or ProfilingService(config)
    daemon = ServeDaemon(service, config)
    asyncio.run(daemon.run())
