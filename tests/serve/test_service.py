"""ProfilingService: validation, dedup, recovery, breaker fallback.

Everything here runs in-process — the service deliberately owns the
whole robustness surface without an event loop, so these tests are
plain function calls against real result stores in a tmpdir.
"""

import asyncio
import json
import os

import pytest

from repro import telemetry
from repro.resilience import chaos, parse_journal_line
from repro.resilience.chaos import ChaosPolicy
from repro.serve import core, http
from repro.serve.config import ServeConfig
from repro.serve.core import (MAX_BLOCKS_PER_REQUEST, ProfilingService,
                              RequestError, canonical_results_bytes,
                              parse_profile_request, request_digest)
from repro.serve.daemon import ServeDaemon
from repro.serve.requestlog import REQUEST_LOG_NAME, read_done_records

ADD = "addq %rax, %rbx"
MUL = "imulq %rcx, %rdx\naddq %rax, %rbx"
BAD = "bogus %zz"


def _config(tmp_path, name="state", **kw):
    kw.setdefault("jobs", 1)
    return ServeConfig(socket=str(tmp_path / "s.sock"),
                       state_dir=str(tmp_path / name), **kw)


def _request(config, blocks, uarch="haswell", seed=0):
    return parse_profile_request({"blocks": blocks, "uarch": uarch,
                                  "seed": seed}, config)


def _service(config, **kw):
    service = ProfilingService(config, **kw)
    service.start()
    return service


# --- picklable failing worker (pool imports this module by reference)

def worker_raises(descriptor, config, index, records, siblings):
    raise RuntimeError("injected worker exception")


class TestValidation:
    def test_defaults_applied(self, serve_config):
        request = parse_profile_request({"blocks": [ADD]}, serve_config)
        assert request.uarch == "haswell"
        assert request.seed == 0
        assert request.client == "default"
        assert request.deadline_ms == serve_config.deadline_ms
        assert request.digest == request_digest("haswell", 0, [ADD])

    @pytest.mark.parametrize("payload,status", [
        ([], 400),                                   # not an object
        ({"blocks": []}, 400),
        ({"blocks": "addq"}, 400),
        ({"blocks": [7]}, 400),
        ({"blocks": [ADD] * (MAX_BLOCKS_PER_REQUEST + 1)}, 413),
        ({"blocks": ["x" * 70_000]}, 413),
        ({"blocks": [ADD], "uarch": "zen4"}, 400),
        ({"blocks": [ADD], "seed": True}, 400),
        ({"blocks": [ADD], "seed": "0"}, 400),
        ({"blocks": [ADD], "client": "c" * 200}, 400),
        ({"blocks": [ADD], "deadline_ms": -1}, 400),
    ])
    def test_rejections_carry_http_status(self, serve_config, payload,
                                          status):
        with pytest.raises(RequestError) as excinfo:
            parse_profile_request(payload, serve_config)
        assert excinfo.value.status == status

    def test_digest_is_order_and_boundary_sensitive(self):
        base = request_digest("haswell", 0, ["ab", "c"])
        assert request_digest("haswell", 0, ["a", "bc"]) != base
        assert request_digest("haswell", 0, ["c", "ab"]) != base
        assert request_digest("skylake", 0, ["ab", "c"]) != base
        assert request_digest("haswell", 1, ["ab", "c"]) != base
        assert request_digest("haswell", 0, ["ab", "c"]) == base


class TestExecute:
    def test_results_are_ordered_and_per_block(self, tmp_path):
        service = _service(_config(tmp_path))
        request = _request(service.config, [ADD, BAD, MUL])
        (results,), stats = service.execute([request])
        assert [r["status"] for r in results] == \
            ["ok", "parse_error", "ok"]
        assert results[0]["throughput"] > 0
        assert "bogus" in results[1]["detail"]
        assert stats["shards"] == 2  # the bad block never sharded
        service.close()

    def test_duplicate_blocks_profile_once(self, tmp_path):
        service = _service(_config(tmp_path))
        a = _request(service.config, [ADD, MUL])
        b = _request(service.config, [MUL, ADD, MUL])
        (ra, rb), stats = service.execute([a, b])
        assert stats["shards"] == 2  # two distinct texts in the batch
        assert ra[0] == rb[1]  # same text, same entry
        assert ra[1] == rb[0] == rb[2]
        service.close()

    def test_shared_cache_dedups_across_requests(self, tmp_path):
        service = _service(_config(tmp_path))
        first = _request(service.config, [ADD, MUL])
        (r1,), _ = service.execute([first])
        stats = {}
        second = _request(service.config, [MUL, ADD])
        (r2,), stats = service.execute([second])
        assert stats["cache_hits"] == 2  # both blocks already cached
        assert r2 == [r1[1], r1[0]]
        service.close()

    def test_colliding_texts_keep_their_own_results(self, tmp_path):
        """Two blocks whose one-block shard digests collide: each is
        answered with its own throughput, in either order."""
        first = ("addq $2060508356, %r8\naddq $897546329, %rsi\n"
                 "addq $1684414767, %r8")
        second = ("xorq %rdi, %rcx\naddq $704860517, %rdi\n"
                  "imulq %rdx, %rbx\naddq $343455681, %rsi\n"
                  "leaq 251237(%rcx,%rdx,4), %rbx")
        service = _service(_config(tmp_path))
        answers = [service.execute([_request(service.config, [text])])
                   [0][0][0] for text in (first, second)]
        service.close()
        assert answers == [{"status": "ok", "throughput": 2.0},
                           {"status": "ok", "throughput": 2.0625}]
        alone = _service(_config(tmp_path, "alone"))
        (only,), _ = alone.execute([_request(alone.config, [second])])
        alone.close()
        assert only == [answers[1]]

    def test_failed_store_write_keeps_the_drop_reason(self, tmp_path):
        blocks = ["rdtsc", ADD]
        service = _service(_config(tmp_path))
        with chaos.forced(ChaosPolicy.parse("3:disk_full=1.0")):
            (results,), stats = service.execute(
                [_request(service.config, blocks)])
        assert stats["written"] == 0
        service.close()
        clean = _service(_config(tmp_path, "clean"))
        (expected,), _ = clean.execute([_request(clean.config, blocks)])
        clean.close()
        assert results[0] == {"status": "dropped",
                              "reason": "unsupported_instruction"}
        assert results == expected

    def test_one_store_per_seed_shared_by_uarches(self, tmp_path):
        service = _service(_config(tmp_path))
        for seed in (0, 1):
            service.execute([_request(service.config, [ADD, MUL],
                                      uarch="skylake", seed=seed)])
        service.execute([_request(service.config, [ADD])])
        service.close()
        state = tmp_path / "state"
        assert sorted(p.name for p in state.iterdir() if p.is_dir()) \
            == ["results_0", "results_1"]
        records = []
        for name in os.listdir(state / "results_0"):
            with open(state / "results_0" / name) as fh:
                records += [name[:-len(".log")]] * len(fh.readlines())
        assert sorted(records) == ["haswell", "skylake", "skylake"]

    def test_reexecution_is_byte_identical_across_services(self,
                                                           tmp_path):
        blocks = [ADD, MUL, BAD]
        one = _service(_config(tmp_path, "one"))
        (r1,), _ = one.execute([_request(one.config, blocks)])
        one.close()
        two = _service(_config(tmp_path, "two"))
        (r2,), _ = two.execute([_request(two.config, blocks)])
        two.close()
        assert canonical_results_bytes(r1) == \
            canonical_results_bytes(r2)

    def test_memo_answers_identical_requests(self, tmp_path):
        service = _service(_config(tmp_path))
        request = _request(service.config, [ADD])
        assert service.lookup_memo(request) is None
        (results,), _ = service.execute([request])
        assert service.lookup_memo(request) == results
        service.close()
        # The memo survives a restart: it is read back from the journal.
        fresh = _service(_config(tmp_path))
        assert fresh.lookup_memo(
            _request(fresh.config, [ADD])) == results
        fresh.close()


def _journal_kinds(service, digest):
    """The kinds of the journal records of ``digest``, in order."""
    with open(service.journal.path, "rb") as fh:
        records = [parse_journal_line(line) for line in fh]
    return [r["kind"] for r in records if r and r.get("id") == digest]


def _counters(*names):
    counters = telemetry.registry().snapshot()["counters"]
    return [counters.get(name, 0) for name in names]


def _stepped(service, request):
    """The stepped lookup run step by step, as the daemon runs it:
    its results and the number of steps it yielded."""
    steps = service.store_answer_steps(request)
    taken = 0
    while True:
        try:
            next(steps)
        except StopIteration as done:
            return done.value, taken
        taken += 1


class TestStoreLane:
    """``store_answer_steps``: a stored request answered without a
    batch, exactly as ``execute`` answers it."""

    def test_answers_equal_execute_on_a_fresh_service(self, tmp_path):
        blocks = [ADD, "rdtsc", BAD, ADD]
        telemetry.enable()
        warm = _service(_config(tmp_path))
        warm.execute([_request(warm.config, [ADD, "rdtsc"])])
        before = _counters("cache.shard.hits", "serve.parse_errors")
        request = _request(warm.config, blocks)
        lane, steps = _stepped(warm, request)
        # Three distinct texts: a step between each two.
        assert steps == 2
        after = _counters("cache.shard.hits", "serve.parse_errors")
        warm.close()
        fresh = _service(_config(tmp_path, "fresh"))
        (expected,), _ = fresh.execute([_request(fresh.config, blocks)])
        fresh.close()
        assert lane[1] == {"status": "dropped",
                           "reason": "unsupported_instruction"}
        assert canonical_results_bytes(lane) == \
            canonical_results_bytes(expected)
        # The same ``done`` record as the batch's.
        assert dict(read_done_records(warm.journal.path))[
            request.digest] == dict(read_done_records(
                fresh.journal.path))[request.digest] == expected
        # Counted as execute counts a warm batch of the same blocks.
        assert [a - b for a, b in zip(after, before)] == [2, 1]
        assert _counters("serve.store_answers") == [1]

    def test_an_unstored_block_misses_and_profiles_nothing(
            self, tmp_path, monkeypatch):
        telemetry.enable()
        service = _service(_config(tmp_path))
        service.execute([_request(service.config, [ADD])])
        log = os.path.join(service.store_for(0).directory,
                           "haswell.log")
        with open(log, "rb") as fh:
            stored = fh.read()
        before = _counters("cache.shard.hits", "cache.shard.misses",
                           "serve.parse_errors")
        profiled = []
        monkeypatch.setattr(core, "profile_corpus_sharded",
                            lambda *a, **kw: profiled.append(a))
        request = _request(service.config, [ADD, BAD, MUL])
        assert _stepped(service, request)[0] is None
        assert profiled == []
        assert _journal_kinds(service, request.digest) == []
        assert _counters("cache.shard.hits", "cache.shard.misses",
                         "serve.parse_errors") == before
        assert _counters("serve.store_answers") == [0]
        with open(log, "rb") as fh:
            assert fh.read() == stored
        service.close()

    def test_a_corrupt_line_misses_and_the_queued_path_reprofiles(
            self, tmp_path):
        telemetry.enable()
        service = _service(_config(tmp_path))
        (first,), _ = service.execute([_request(service.config, [ADD])])
        store = service.store_for(0)
        log = store.log_path("haswell")
        with open(log, "rb") as fh:
            data = bytearray(fh.read())
        data[data.index(b"%rax")] ^= 0x01
        with open(log, "wb") as fh:
            fh.write(bytes(data))
        request = _request(service.config, [ADD, ADD])
        assert _stepped(service, request)[0] is None
        (again,), stats = service.execute([request])
        assert stats["profiled"] == 1
        assert again == [first[0], first[0]]
        assert len(store.quarantined_files()) == 1
        assert _counters("resilience.quarantined.cache_files") == [1]
        # The re-profiled record is a hit again.
        assert _stepped(service, _request(
            service.config, [ADD, ADD, ADD]))[0] == first * 3
        assert len(store.quarantined_files()) == 1
        service.close()

    def test_an_answer_appends_done_and_no_req(self, tmp_path):
        service = _service(_config(tmp_path))
        service.execute([_request(service.config, [ADD, MUL])])
        request = _request(service.config, [MUL, ADD])
        results, _ = _stepped(service, request)
        assert _journal_kinds(service, request.digest) == ["done"]
        assert service.lookup_memo(request) == results
        service.close()

    def test_done_twice_for_one_digest_reloads_as_one_memo_entry(
            self, tmp_path):
        # The lane answers a request while a batch holding the same
        # request is finishing: both write ``done`` for its digest.
        service = _service(_config(tmp_path))
        service.execute([_request(service.config, [ADD])])
        request = _request(service.config, [ADD, ADD])
        lane, _ = _stepped(service, request)
        (batch,), _ = service.execute([request])
        service.close()
        assert batch == lane
        assert _journal_kinds(service, request.digest) == \
            ["done", "req", "done"]
        reopened = _service(_config(tmp_path))
        assert reopened.journal.pending == {}
        assert reopened.journal.completed[request.digest] == lane
        assert reopened.recover() == 0
        reopened.close()

    def test_a_lane_that_raises_falls_back_to_the_queued_path(
            self, tmp_path):
        config = _config(tmp_path)
        service = _service(config)
        service.execute([_request(config, [ADD])])
        executed = []
        execute = service.execute

        def lane_raises(request):
            yield  # one step, then a failing one
            raise OSError(5, "injected lookup failure")

        def spy_execute(requests, journal=True):
            executed.append([r.digest for r in requests])
            return execute(requests, journal)

        service.store_answer_steps = lane_raises
        service.execute = spy_execute
        daemon = ServeDaemon(service, config)
        payload = {"blocks": [ADD, ADD]}

        async def route():
            batcher = asyncio.create_task(daemon._batch_loop())
            try:
                return await daemon._route(http.HttpRequest(
                    "POST", "/v1/profile", {},
                    json.dumps(payload).encode()))
            finally:
                batcher.cancel()

        status, body, _, digest = asyncio.run(route())
        service.close()
        assert status == 200
        assert body["cached"] is False
        assert body["results"][0] == body["results"][1]
        assert executed == [[digest]]
        assert _journal_kinds(service, digest) == ["req", "done"]


class TestRecovery:
    def test_pending_requests_replay_byte_identically(self, tmp_path):
        blocks = [ADD, MUL]
        # Baseline: an uninterrupted service in its own state dir.
        clean = _service(_config(tmp_path, "clean"))
        request = _request(clean.config, blocks)
        (baseline,), _ = clean.execute([request])
        clean.close()

        # Crash shape: a req record with no done — exactly what a
        # SIGKILLed daemon leaves after admitting but before answering.
        crashed = _service(_config(tmp_path, "crashed"))
        crashed.journal.record_request(request.digest, request.body())
        crashed.close()

        recovering = _service(_config(tmp_path, "crashed"))
        assert request.digest in recovering.recovered
        assert recovering.recover() == 1
        assert recovering.journal.pending == {}
        recovering.close()

        done = read_done_records(
            str(tmp_path / "crashed" / REQUEST_LOG_NAME))
        replayed = dict(done)[request.digest]
        assert canonical_results_bytes(replayed) == \
            canonical_results_bytes(baseline)

    def test_unreplayable_body_is_dropped_not_looped(self, tmp_path):
        crashed = _service(_config(tmp_path))
        crashed.journal.record_request("dbad", {"blocks": []})
        crashed.close()
        recovering = _service(_config(tmp_path))
        assert recovering.recover() == 0
        assert recovering.journal.pending == {}
        recovering.close()
        # A second restart does not see it again.
        again = _service(_config(tmp_path))
        assert again.recovered == {}
        again.close()


class TestBreakerFallback:
    def test_scalar_fallback_after_trip_is_byte_identical(self,
                                                          tmp_path):
        """A misbehaving pool trips the breaker; results never change.

        The injected worker raises on every shard, so each pooled
        batch is rescued serially (correct bytes, ``retried`` > 0 =
        worker trouble).  After ``breaker_threshold`` troubled batches
        the breaker opens and the next batch runs with ``jobs=1`` —
        the pool (and the failing worker_fn) is never consulted.
        """
        config = _config(tmp_path, "flaky", jobs=2,
                         breaker_threshold=2, breaker_cooldown_s=600.0)
        flaky = _service(config, worker_fn=worker_raises)
        # Two fresh blocks per batch: a single pending shard would run
        # in-process and never engage the (failing) pool.
        batches = [[f"addq ${i}, %rax", f"imulq ${i}, %rcx"]
                   for i in range(3)]
        outputs = []
        for i, blocks in enumerate(batches):
            stats = {}
            (results,), stats = flaky.execute(
                [_request(config, blocks)])
            outputs.append(results)
            if i < 2:
                assert stats["retried"] == 2  # pool tried and failed
            else:
                # Breaker open: scalar path, no pool, no rescue —
                # and the scalar success does NOT close the breaker
                # (only a half-open pool probe may).
                assert flaky.breaker.state == "open"
                assert stats["retried"] == 0
        assert flaky.breaker.state == "open"
        flaky.close()

        clean = _service(_config(tmp_path, "clean"))
        for blocks, flaky_results in zip(batches, outputs):
            (clean_results,), _ = clean.execute(
                [_request(clean.config, blocks)])
            assert canonical_results_bytes(flaky_results) == \
                canonical_results_bytes(clean_results)
        clean.close()


class TestAssembly:
    def test_missing_throughput_reads_drop_reason(self, tmp_path):
        service = _service(_config(tmp_path))
        request = _request(service.config, [ADD])
        block_id = 0
        results = service._assemble(
            request, {ADD: block_id}, {block_id: {"reason": "step_budget"}},
            {})
        assert results == [{"status": "dropped",
                            "reason": "step_budget"}]
        service.close()

    def test_health_shape(self, tmp_path):
        service = _service(_config(tmp_path))
        health = service.health(queue_depth=2, draining=False)
        assert health["status"] == "ok"
        assert health["breaker"] == "closed"
        assert health["queue_depth"] == 2
        assert json.dumps(health)  # JSON-serializable as a whole
        assert service.health(draining=True)["status"] == "draining"
        service.close()
