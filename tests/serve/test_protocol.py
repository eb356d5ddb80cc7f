"""Wire-protocol tests: a real daemon on a Unix socket, in-process.

The daemon runs on its own event loop in a background thread; the
blocking :class:`ServeClient` talks to it over the socket exactly as
external tooling would.  Chaos policies are process-global, so forcing
one in the test thread arms the daemon thread too — overload and
fault behaviour is exercised deterministically, with no load
generation and no sleeps beyond the chaos hang itself.
"""

import asyncio
import json
import logging
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import telemetry
from repro.isa.parser import parse_block
from repro.parallel.shard_cache import ShardCache, store_directory
from repro.resilience import chaos
from repro.resilience.chaos import ChaosPolicy
from repro.resilience.journal import parse_journal_line
from repro.serve import daemon as daemon_module
from repro.serve import http
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.config import ServeConfig
from repro.serve.core import (ProfilingService, canonical_results_bytes,
                              parse_profile_request, request_digest)
from repro.serve.daemon import ServeDaemon
from repro.serve.requestlog import read_done_records
from tests.serve.helpers import DaemonHarness, wait_until

ADD = "addq %rax, %rbx"
MUL = "imulq %rcx, %rdx\naddq %rax, %rbx"
NOVEL = "addq $3, %rax\nimulq $2, %rcx"


class ExecuteSpy:
    """Stands in for ``service.execute``: records calls, can hold one.

    ``calls`` gets each call's request digests as the call begins, and
    ``unjournaled`` every digest that reached ``execute`` before its
    ``req`` record was on disk.  With ``hold_first`` the first call
    waits for ``release``, keeping the batcher busy on cue.
    """

    def __init__(self, service, hold_first=False):
        self.service = service
        self.execute = service.execute
        self.release = threading.Event()
        if not hold_first:
            self.release.set()
        self.calls = []
        self.unjournaled = []
        service.execute = self

    def __call__(self, requests, journal=True):
        with open(self.service.journal.path) as fh:
            records = [parse_journal_line(line)
                       for line in fh.read().splitlines()]
        written = {r["id"] for r in records
                   if r and r.get("kind") == "req"}
        self.unjournaled += [r.digest for r in requests
                             if r.digest not in written]
        self.calls.append([r.digest for r in requests])
        if len(self.calls) == 1:
            self.release.wait(timeout=60.0)
        return self.execute(requests, journal)


def _digest(blocks):
    return request_digest("haswell", 0, blocks)


@pytest.fixture
def harness(tmp_path):
    config = ServeConfig(socket=str(tmp_path / "serve.sock"), jobs=1,
                         window=4, state_dir=str(tmp_path / "state"))
    return DaemonHarness(config)


class TestRoutes:
    def test_health_profile_and_memo(self, harness):
        with harness as client:
            health = client.health()
            assert health.status == 200
            assert health.body["status"] == "ok"

            first = client.profile([ADD, MUL, "bogus %zz"])
            assert first.status == 200
            assert first.body["cached"] is False
            statuses = [r["status"] for r in first.body["results"]]
            assert statuses == ["ok", "ok", "parse_error"]

            again = client.profile([ADD, MUL, "bogus %zz"])
            assert again.status == 200
            assert again.body["cached"] is True
            assert again.body["results"] == first.body["results"]
            assert again.body["request"] == first.body["request"]

    def test_error_statuses(self, harness):
        with harness as client:
            assert client.request("GET", "/v1/nope").status == 404
            assert client.request("GET", "/v1/profile").status == 405
            assert client.request("POST", "/v1/health").status == 405
            assert client.profile([]).status == 400
            bad = client.profile([ADD], uarch="zen4")
            assert bad.status == 400
            assert "zen4" in bad.body["detail"]

    def test_malformed_json_is_a_clean_400(self, harness):
        with harness as client:
            body = b"{not json"
            head = (f"POST /v1/profile HTTP/1.1\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    f"Connection: close\r\n\r\n").encode()
            with socket.socket(socket.AF_UNIX,
                               socket.SOCK_STREAM) as sock:
                sock.settimeout(10.0)
                sock.connect(harness.config.socket)
                sock.sendall(head + body)
                raw = b""
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    raw += chunk
            assert b" 400 " in raw.split(b"\r\n", 1)[0]

    def test_stats_exposes_counters_and_queue(self, harness):
        with harness as client:
            client.profile([ADD])
            stats = client.stats()
            assert stats.status == 200
            assert stats.body["counters"]["serve.requests"] >= 1
            assert stats.body["breaker"] == "closed"
            assert isinstance(stats.body["queue_depth"], int)

    def test_stats_copies_counters_that_grow_while_it_reads(
            self, serve_config):
        # Another thread may create a counter while /v1/stats reads
        # them; here reading one counter's value creates the next.
        registry = telemetry.registry()

        class Growing:
            reads = 0

            @property
            def value(self):
                Growing.reads += 1
                registry.counter(f"serve.grown.{Growing.reads}")
                return Growing.reads

        registry.counters["serve.growing"] = Growing()
        daemon = ServeDaemon(ProfilingService(serve_config),
                             serve_config)
        counters = daemon._stats_body()["counters"]
        assert counters["serve.growing"] == 1
        assert "serve.grown.1" in registry.counters

    def test_stats_exposes_latency_and_queue_wait_histograms(
            self, harness):
        with harness as client:
            assert client.profile([ADD]).status == 200
            histograms = client.stats().body["histograms"]
        for name in ("serve.latency_ms", "serve.queue_wait_ms"):
            summary = histograms[name]
            assert summary["count"] >= 1
            assert 0 <= summary["p50"] <= summary["max"]


def _raw(harness):
    """A bare socket to the harness daemon."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(10.0)
    sock.connect(harness.config.socket)
    return sock


def _message(method, path, payload=None, head="", version="HTTP/1.1"):
    body = b"" if payload is None else json.dumps(payload).encode()
    return (f"{method} {path} {version}\r\n"
            f"Content-Length: {len(body)}\r\n{head}\r\n").encode() + body


def _read(stream):
    """One response off a socket file: status, headers, JSON body."""
    status = int(stream.readline().split()[1])
    headers = {}
    for line in iter(stream.readline, b"\r\n"):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, json.loads(
        stream.read(int(headers["content-length"])))


class TestKeepAlive:
    def test_requests_on_one_connection_answer_in_order(self, harness):
        with harness as client:
            before = client.stats().body["counters"]["serve.connections"]
            with _raw(harness) as sock, sock.makefile("rb") as stream:
                answers = []
                for message in (_message("POST", "/v1/profile",
                                         {"blocks": [ADD]}),
                                _message("POST", "/v1/profile",
                                         {"blocks": [ADD]}),
                                _message("GET", "/v1/stats")):
                    sock.sendall(message)
                    answers.append(_read(stream))
        first, memo, stats = answers
        assert [a[0] for a in answers] == [200, 200, 200]
        assert [a[1]["connection"] for a in answers] == ["keep-alive"] * 3
        assert first[2]["cached"] is False
        assert memo[2]["cached"] is True
        assert memo[2]["results"] == first[2]["results"]
        assert stats[2]["counters"]["serve.connections"] == before + 1

    @pytest.mark.parametrize("version,head,kept", [
        ("HTTP/1.1", "Connection: close\r\n", False),
        ("HTTP/1.0", "", False),
        ("HTTP/1.0", "Connection: keep-alive\r\n", True),
    ], ids=["close", "http10", "http10-keep-alive"])
    def test_close_is_answered_then_closed(self, harness, version,
                                           head, kept):
        with harness:
            with _raw(harness) as sock, sock.makefile("rb") as stream:
                sock.sendall(_message("GET", "/v1/health", head=head,
                                      version=version))
                status, headers, body = _read(stream)
                assert status == 200
                assert body["status"] == "ok"
                assert headers["connection"] == \
                    ("keep-alive" if kept else "close")
                if not kept:
                    assert stream.read(1) == b""
                else:
                    sock.sendall(_message("GET", "/v1/health"))
                    assert _read(stream)[0] == 200

    @pytest.mark.parametrize("head,status,detail", [
        (b"POST /v1/profile HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
         400, "Content-Length"),
        (b"GET /v1/health HTTP/1.1\r\nX: " + b"x" * 20_000
         + b"\r\n\r\n", 413, "header block too large"),
        # No end of head in sight: answered before any pipelined
        # request could end it.
        (b"GET /v1/health HTTP/1.1\r\nX: " + b"x" * 70_000,
         413, "header block too large"),
    ], ids=["bad-content-length", "long-head", "unterminated-head"])
    def test_framing_error_answers_and_closes(self, harness, head,
                                              status, detail):
        # The stream position is lost: a request pipelined behind is
        # never read.
        with harness:
            with _raw(harness) as sock, sock.makefile("rb") as stream:
                if b"\r\n\r\n" in head:
                    head += _message("GET", "/v1/health")
                sock.sendall(head)
                answer = _read(stream)
                assert answer[0] == status
                assert detail in answer[2]["detail"]
                assert answer[1]["connection"] == "close"
                assert stream.read(1) == b""

    def test_pipelined_requests_answer_in_order(self, harness):
        # A novel block takes a batch and a store write; the bad JSON
        # and the health check behind it wait their turn, and a bad
        # body keeps the connection (its framing was sound).
        with harness:
            with _raw(harness) as sock, sock.makefile("rb") as stream:
                bad = (b"POST /v1/profile HTTP/1.1\r\n"
                       b"Content-Length: 5\r\n\r\n{nope")
                sock.sendall(_message("POST", "/v1/profile",
                                      {"blocks": [NOVEL]})
                             + bad + _message("GET", "/v1/health"))
                answers = [_read(stream) for _ in range(3)]
        assert [a[0] for a in answers] == [200, 400, 200]
        assert [a[1]["connection"] for a in answers] == ["keep-alive"] * 3
        assert answers[0][2]["results"][0]["status"] == "ok"
        assert answers[2][2]["status"] == "ok"

    def test_request_arriving_during_the_drain_is_shed_and_closed(
            self, harness):
        daemon = harness.daemon
        with harness as client:
            client.close()
            with _raw(harness) as sock, sock.makefile("rb") as stream:
                sock.sendall(_message("GET", "/v1/health"))
                assert _read(stream)[1]["connection"] == "keep-alive"
                assert wait_until(lambda: len(daemon._connections) == 1
                                  and len(daemon._idle) == 1)
                # The head arrives before the drain, the body after.
                message = _message("POST", "/v1/profile",
                                   {"blocks": [ADD]})
                cut = message.index(b"\r\n\r\n") + 4
                sock.sendall(message[:cut])
                assert wait_until(lambda: not daemon._idle)
                harness.loop.call_soon_threadsafe(daemon._begin_drain,
                                                  "TEST")
                assert wait_until(lambda: daemon.draining)
                sock.sendall(message[cut:])
                status, headers, body = _read(stream)
                assert status == 503
                assert body["detail"] == "draining"
                assert headers["connection"] == "close"
                assert headers["retry-after"] == "1"
                assert stream.read(1) == b""

    def test_drain_closes_an_idle_kept_connection_at_once(self,
                                                          tmp_path):
        config = ServeConfig(socket=str(tmp_path / "serve.sock"), jobs=1,
                             drain_s=5.0,
                             state_dir=str(tmp_path / "state"))
        harness = DaemonHarness(config)
        with harness:
            with _raw(harness) as sock, sock.makefile("rb") as stream:
                sock.sendall(_message("GET", "/v1/health"))
                assert _read(stream)[1]["connection"] == "keep-alive"
                # This one and the harness client's.
                assert wait_until(lambda: len(harness.daemon._idle) == 2)
                started = time.monotonic()
                harness.drain()
                elapsed = time.monotonic() - started
                assert stream.read(1) == b""
        # Idle connections close at once: nothing waits out drain_s.
        assert elapsed < config.drain_s / 2
        assert not harness.daemon._connections


class TestChaos:
    def test_queue_full_chaos_sheds_429(self, harness):
        with harness as client:
            policy = ChaosPolicy(seed=7,
                                 rates={"serve_queue_full": 1.0})
            with chaos.forced(policy):
                shed = client.profile([ADD])
            assert shed.status == 429
            assert shed.body["reason"] == "queue_full"
            assert shed.body["retry_after_ms"] > 0
            assert shed.retry_after_s >= 1
            # Retrying after the (chaos-shaped) overload succeeds.
            assert client.profile([ADD]).status == 200

    def test_accept_error_chaos_drops_the_connection(self, harness):
        with harness as client:
            fresh = ServeClient(socket_path=harness.config.socket,
                                timeout=30.0)
            policy = ChaosPolicy(seed=7,
                                 rates={"serve_accept_error": 1.0})
            with chaos.forced(policy):
                with pytest.raises(ServeClientError):
                    fresh.profile([ADD])
                # The fault fires per connection: a kept one is past
                # its accept.
                assert client.profile([ADD]).status == 200
            # The daemon survives its own chaos: the next request
            # reconnects and works.
            assert fresh.profile([ADD]).status == 200
            fresh.close()
            counters = client.stats().body["counters"]
        assert counters["serve.accept_errors"] == 1

    def test_slow_client_chaos_stalls_but_serves(self, harness):
        with harness as client:
            policy = ChaosPolicy(seed=7,
                                 rates={"serve_slow_client": 1.0},
                                 hang_seconds=0.3)
            with chaos.forced(policy):
                started = time.monotonic()
                response = client.profile([ADD])
                elapsed = time.monotonic() - started
            assert response.status == 200
            assert elapsed >= 0.3
            assert client.health().status == 200


class TestDeadlines:
    def test_expired_in_queue_is_504_and_journaled(self, tmp_path):
        # A first request holds the batcher inside execute for about
        # 0.3 s, so the 1ms deadline of the second expires while it is
        # still queued — cancelled pre-worker.
        config = ServeConfig(socket=str(tmp_path / "serve.sock"),
                             jobs=1, state_dir=str(tmp_path / "state"))
        harness = DaemonHarness(config)
        spy = ExecuteSpy(harness.service, hold_first=True)
        with harness as client, ThreadPoolExecutor(1) as pool:
            occupier = pool.submit(client.profile, [MUL])
            assert wait_until(lambda: spy.calls)
            threading.Timer(0.3, spy.release.set).start()
            missed = client.profile([ADD], deadline_ms=1)
            assert missed.status == 504
            assert "deadline" in missed.body["detail"]
            stats = client.stats()
            assert stats.body["counters"]["serve.deadline_miss"] == 1
            # The drop is closed out, not memoized: the same blocks
            # with a sane deadline compute fresh and succeed.
            ok = client.profile([ADD], deadline_ms=60_000)
            assert ok.status == 200
            assert ok.body["cached"] is False
            occupier.result()


class TestBatcher:
    def test_zero_batch_size_still_answers_a_deadlined_request(
            self, tmp_path):
        # ``--batch 0`` is raised to 1: a batch that pops nothing would
        # leave the request queued past its deadline, never answered.
        config = ServeConfig.from_env(
            socket=str(tmp_path / "serve.sock"), jobs=1, batch_size=0,
            state_dir=str(tmp_path / "state"))
        with DaemonHarness(config):
            client = ServeClient(socket_path=config.socket, timeout=10.0)
            response = client.profile([ADD], deadline_ms=100)
        assert response.status in (200, 504)

    def test_requests_queued_behind_a_batch_form_the_next_one(
            self, harness, tmp_path):
        spy = ExecuteSpy(harness.service, hold_first=True)
        blocks = [f"addq ${i}, %rax" for i in range(5)]
        with harness as client, ThreadPoolExecutor(5) as pool:
            first = pool.submit(client.profile, [blocks[0]])
            assert wait_until(lambda: spy.calls)
            rest = [pool.submit(client.profile, [text])
                    for text in blocks[1:]]
            assert wait_until(lambda: len(harness.daemon.queue) == 4)
            spy.release.set()
            answers = [f.result() for f in [first, *rest]]
        assert [a.status for a in answers] == [200] * 5
        assert len(spy.calls) == 2
        assert sorted(spy.calls[1]) == \
            sorted(_digest([text]) for text in blocks[1:])
        # Batching never changes an answer: each request alone on a
        # fresh daemon gets the same bytes.
        alone = DaemonHarness(ServeConfig(
            socket=str(tmp_path / "alone.sock"), jobs=1,
            state_dir=str(tmp_path / "alone")))
        with alone as client:
            for text, answer in zip(blocks, answers):
                single = client.profile([text])
                assert canonical_results_bytes(single.body["results"]) \
                    == canonical_results_bytes(answer.body["results"])

    def test_lone_request_reaches_execute_without_a_timer(
            self, harness, monkeypatch):
        spy = ExecuteSpy(harness.service)
        early_sleeps = []
        sleep = asyncio.sleep

        async def spy_sleep(delay, *args, **kwargs):
            if not spy.calls:
                early_sleeps.append(delay)
            return await sleep(delay, *args, **kwargs)

        monkeypatch.setattr(daemon_module.asyncio, "sleep", spy_sleep)
        with harness as client:
            assert client.profile([ADD]).status == 200
        assert spy.calls == [[_digest([ADD])]]
        assert early_sleeps == []

    def test_nothing_runs_before_its_req_record(self, harness):
        spy = ExecuteSpy(harness.service, hold_first=True)
        journal = harness.service.journal
        record_request = journal.record_request
        write = threading.Event()

        def slow_record_request(digest, body):
            if digest == _digest([MUL]):
                write.wait(timeout=60.0)
            record_request(digest, body)

        journal.record_request = slow_record_request
        with harness as client, ThreadPoolExecutor(2) as pool:
            first = pool.submit(client.profile, [ADD])
            assert wait_until(lambda: spy.calls)
            second = pool.submit(client.profile, [MUL])
            # MUL is queued; its ``req`` write is held.
            assert wait_until(lambda: len(harness.daemon.queue) == 1)
            spy.release.set()
            # A batcher that ignored the journal would run MUL now;
            # give it the chance before letting the write finish.
            wait_until(lambda: len(spy.calls) > 1, timeout=0.5)
            write.set()
            assert first.result().status == 200
            assert second.result().status == 200
        assert spy.calls == [[_digest([ADD])], [_digest([MUL])]]
        assert spy.unjournaled == []

    def test_failed_journal_write_answers_500_and_never_runs(
            self, harness):
        spy = ExecuteSpy(harness.service)
        journal = harness.service.journal
        record_request = journal.record_request

        def failing_record_request(digest, body):
            if digest == _digest([ADD]):
                raise OSError(28, "No space left on device")
            record_request(digest, body)

        journal.record_request = failing_record_request
        with harness as client:
            lost = client.profile([ADD])
            assert lost.status == 500
            assert "journal write failed" in lost.body["detail"]
            # The batcher is not wedged: the next request is served.
            assert client.profile([MUL]).status == 200
            counters = client.stats().body["counters"]
            assert counters["serve.journal_errors"] == 1
        assert spy.calls == [[_digest([MUL])]]


class TestStoreLane:
    def test_stored_request_answers_while_a_batch_is_held(self,
                                                          harness):
        with harness as client:
            singles = [client.profile([text]) for text in (ADD, MUL)]
            assert [s.status for s in singles] == [200, 200]
            spy = ExecuteSpy(harness.service, hold_first=True)
            quick = ServeClient(socket_path=harness.config.socket,
                                timeout=5.0)
            with ThreadPoolExecutor(1) as pool:
                novel = pool.submit(client.profile, [NOVEL])
                try:
                    assert wait_until(lambda: spy.calls)
                    # The novel batch is held inside execute: a
                    # request for stored blocks must not wait on it.
                    pair = quick.profile([ADD, MUL])
                    memo = quick.profile([ADD])
                    assert spy.calls == [[_digest([NOVEL])]]
                finally:
                    spy.release.set()
                assert novel.result().status == 200
            assert pair.status == 200
            assert pair.body["cached"] is False
            assert pair.body["results"] == \
                singles[0].body["results"] + singles[1].body["results"]
            assert memo.status == 200
            assert memo.body["cached"] is True
            again = client.profile([ADD, MUL])
            assert again.body["cached"] is True
            assert again.body["results"] == pair.body["results"]
            counters = client.stats().body["counters"]
        assert counters["serve.store_answers"] == 1
        assert counters["serve.batches"] == 3  # the singles and NOVEL
        assert spy.calls == [[_digest([NOVEL])]]

    def test_stored_request_answers_under_a_full_queue(self, harness):
        with harness as client:
            for text in (ADD, MUL):
                assert client.profile([text]).status == 200
            policy = ChaosPolicy(seed=7,
                                 rates={"serve_queue_full": 1.0})
            with chaos.forced(policy):
                stored = client.profile([ADD, MUL])
                shed = client.profile([NOVEL])
        assert stored.status == 200
        assert stored.body["cached"] is False
        assert shed.status == 429
        assert shed.body["reason"] == "queue_full"

    def test_drain_waits_for_a_store_answer_in_flight(self, harness):
        with harness as client:
            for text in (ADD, MUL):
                assert client.profile([text]).status == 200
            lane = harness.service.store_answer_steps
            entered, release = threading.Event(), threading.Event()

            def held_lane(request):
                # Held between its first two steps: the loop keeps
                # turning, so the drain can begin meanwhile.
                steps = lane(request)
                next(steps)
                entered.set()
                while not release.is_set():
                    yield
                return (yield from steps)

            harness.service.store_answer_steps = held_lane
            with ThreadPoolExecutor(1) as pool:
                pair = pool.submit(client.profile, [ADD, MUL])
                try:
                    assert entered.wait(timeout=30.0)
                    harness.loop.call_soon_threadsafe(
                        harness.daemon._begin_drain, "TEST")
                    # A drain that ignored the lookup would close the
                    # journal under it and stop the daemon now.
                    assert not wait_until(
                        lambda: not harness._thread.is_alive(),
                        timeout=0.5)
                finally:
                    release.set()
                answer = pair.result()
        assert answer.status == 200
        assert answer.body["cached"] is False
        done = dict(read_done_records(harness.service.journal.path))
        assert done[_digest([ADD, MUL])] == answer.body["results"]

    def test_stored_request_takes_no_thread_hop(self, harness,
                                                monkeypatch):
        hops = []
        to_thread = asyncio.to_thread

        async def spy_to_thread(fn, *args, **kwargs):
            hops.append(getattr(fn, "__name__", fn))
            return await to_thread(fn, *args, **kwargs)

        monkeypatch.setattr(daemon_module.asyncio, "to_thread",
                            spy_to_thread)
        with harness as client:
            singles = [client.profile([text]) for text in (ADD, MUL)]
            assert hops  # the queued singles journal and run off-loop
            del hops[:]
            pair = client.profile([ADD, MUL])
            assert client.stats().body["counters"][
                "serve.store_answers"] == 1
        assert pair.status == 200
        assert pair.body["cached"] is False
        assert pair.body["results"] == \
            singles[0].body["results"] + singles[1].body["results"]
        assert hops == []

    def test_a_large_stored_request_never_holds_the_loop(
            self, tmp_path, caplog):
        # One block per loop turn: 2,000 stored blocks in one request
        # take about 0.1 s to look up, but no single callback may hold
        # the loop for 50 ms.  Another process wrote the store's
        # 10,000-line log (about 0.1 s to read): the daemon reads it
        # into its index before it listens, not at the first lookup.
        config = ServeConfig(socket=str(tmp_path / "serve.sock"), jobs=1,
                             state_dir=str(tmp_path / "state"))
        writer = ShardCache(store_directory(config.state_dir, 0))
        for i in range(10000):
            assert writer.store(
                "haswell",
                parse_block(f"addq ${i}, %rax", source="test").text(),
                {"throughput": i + 0.25})
        texts = [f"addq ${i}, %rax" for i in range(2000)]
        harness = DaemonHarness(config, slow_callback_s=0.05)
        with caplog.at_level(logging.WARNING, logger="asyncio"):
            with harness as client:
                caplog.clear()  # start-up: no connection waited on it
                answer = client.profile(texts)
                counters = client.stats().body["counters"]
        assert answer.status == 200
        assert answer.body["results"] == [
            {"status": "ok", "throughput": i + 0.25}
            for i in range(len(texts))]
        assert counters["serve.store_answers"] == 1
        assert "serve.batches" not in counters
        slow = [r.getMessage() for r in caplog.records
                if r.name == "asyncio" and "took" in r.getMessage()]
        assert slow == []

    def test_draining_daemon_sheds_a_stored_request(self,
                                                    serve_config):
        service = ProfilingService(serve_config)
        service.start()
        add = service.execute([parse_profile_request(
            {"blocks": [ADD]}, serve_config)])[0][0]
        assert add[0]["status"] == "ok"
        daemon = ServeDaemon(service, serve_config)
        daemon.draining = True
        request = http.HttpRequest(
            "POST", "/v1/profile", {},
            json.dumps({"blocks": [ADD, ADD]}).encode())
        status, body, headers, _ = asyncio.run(daemon._route(request))
        service.close()
        assert status == 503
        assert headers["Retry-After"] == "1"
        assert _digest([ADD, ADD]) not in dict(read_done_records(
            service.journal.path))


class TestRateLimit:
    def test_over_rate_client_sheds_with_retry_after(self, tmp_path):
        config = ServeConfig(socket=str(tmp_path / "serve.sock"),
                             jobs=1, rate=0.001, burst=1,
                             state_dir=str(tmp_path / "state"))
        with DaemonHarness(config) as client:
            assert client.profile([ADD], client="greedy").status == 200
            shed = client.profile([MUL], client="greedy")
            assert shed.status == 429
            assert shed.body["reason"] == "rate_limited"
            assert shed.retry_after_s >= 1
            # Another client is unaffected.
            assert client.profile([MUL], client="polite").status == 200


class TestDraining:
    def test_draining_daemon_sheds_profile_but_answers_health(
            self, serve_config):
        service = ProfilingService(serve_config)
        service.start()
        daemon = ServeDaemon(service, serve_config)
        daemon.draining = True
        request = http.HttpRequest(
            "POST", "/v1/profile", {},
            json.dumps({"blocks": [ADD]}).encode())
        status, body, headers, _ = asyncio.run(daemon._route(request))
        assert status == 503
        assert headers["Retry-After"] == "1"
        health = http.HttpRequest("GET", "/v1/health", {}, b"")
        status, body, _, _ = asyncio.run(daemon._route(health))
        assert status == 200
        assert body["status"] == "draining"
        service.close()
