"""The result store: record format, block keying, defensive loads.

One self-checked record per (uarch, block text), a line in that
uarch's append-only log: what a lookup returns is exactly the entry
the profiler's fold reads, for that text and no other, and a store
one run filled serves every other caller with the same seed without
profiling a block.  Torn tails, concurrent writers and lines damaged
after the index was built are covered at the end.
"""

import json
import os
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro import cli, simcore, telemetry
from repro.corpus.dataset import BlockRecord, build_application
from repro.errors import StrictModeViolation
from repro.eval.pipeline import UARCHES, Experiment
from repro.isa.parser import parse_block
from repro.parallel import ShardCache, profile_corpus_sharded
from repro.parallel import shard_cache
from repro.parallel.shard_cache import cache_root, result_store
from repro.parallel.sharding import shard_digest
from repro.profiler.harness import BasicBlockProfiler
from repro.profiler.result import FailureReason
from repro.resilience import (chaos, journal_line, parse_journal_line,
                              policy)
from repro.serve.config import default_state_dir

#: Two blocks whose one-block shard digests collide (``946955f8-1``):
#: a store keyed by that digest answered the second with the first's
#: throughput.
COLLIDING = (
    "addq $2060508356, %r8\naddq $897546329, %rsi\n"
    "addq $1684414767, %r8",
    "xorq %rdi, %rcx\naddq $704860517, %rdi\nimulq %rdx, %rbx\n"
    "addq $343455681, %rsi\nleaq 251237(%rcx,%rdx,4), %rbx",
)

ENTRIES = [
    {"throughput": 2.0625},
    {"throughput": 1.0 / 3.0, "extra": ["fastpath_extrapolated",
                                        "blockplan_compiled"]},
    {"reason": "zero_throughput"},
    {"reason": "quarantined", "extra": ["chaos_block_poison"]},
]


@pytest.fixture()
def store(tmp_path):
    return ShardCache(str(tmp_path))


@pytest.fixture(scope="module")
def corpus():
    return build_application("llvm", count=12, seed=6)


def _payload(profile):
    return json.dumps({"t": profile.throughputs, "f": profile.funnel,
                       "i": profile.info})


def _rewrite(store, uarch, text, record):
    """Append ``record`` as the (uarch, text) line, self-check intact."""
    with open(store.log_path(uarch), "a") as fh:
        fh.write(journal_line(record) + "\n")


def _replace_line(store, uarch, text, new):
    """Put the bytes ``new`` in place of the (uarch, text) line."""
    path = store.log_path(uarch)
    with open(path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    (at,) = [i for i, line in enumerate(lines)
             if (parse_journal_line(line) or {}).get("text") == text]
    lines[at] = new + b"\n"
    with open(path, "wb") as fh:
        fh.write(b"".join(lines))


def _flip_byte(path, needle, nth=0):
    """Flip the low bit of the first byte of the ``nth`` ``needle``
    in the file, in place."""
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    at = -1
    for _ in range(nth + 1):
        at = data.index(needle.encode(), at + 1)
    data[at] ^= 0x01
    with open(path, "wb") as fh:
        fh.write(bytes(data))


class TestRoundTrip:
    def test_store_load_identity(self, store):
        for i, entry in enumerate(ENTRIES):
            for uarch in UARCHES:
                assert store.store(uarch, f"block {i}", entry)
        for i, entry in enumerate(ENTRIES):
            for uarch in UARCHES:
                assert store.load(uarch, f"block {i}") == entry
        assert len(store) == len(ENTRIES) * len(UARCHES)

    def test_text_keying_survives_id_shifts(self, corpus, store):
        """Same blocks under other ids (and other shard cuts): every
        block is a hit, remapped to its new id."""
        first = profile_corpus_sharded(corpus.records, "haswell",
                                       jobs=1, shard_size=4,
                                       cache=store)
        shifted = [BlockRecord(block=r.block, application=r.application,
                               frequency=r.frequency,
                               block_id=r.block_id + 100)
                   for r in corpus.records]
        stats = {}
        again = profile_corpus_sharded(shifted, "haswell", jobs=1,
                                       shard_size=5, cache=store,
                                       stats=stats)
        if chaos.active() is None:
            assert stats["hits"] == len(shifted)
            assert stats["profiled"] == 0
        assert again.throughputs == {
            block_id + 100: value
            for block_id, value in first.throughputs.items()}
        assert again.funnel == first.funnel

    def test_no_temp_files_after_store(self, store, tmp_path):
        for i, entry in enumerate(ENTRIES):
            store.store("skylake", f"block {i}", entry)
        assert not any(name.endswith(".tmp")
                       for name in os.listdir(tmp_path))


class TestDefensiveLoads:
    def test_missing_is_none(self, store):
        assert store.load("haswell", "add %rbx, %rax") is None
        assert store.quarantined_files() == []

    def test_truncated_json_is_a_miss(self, store):
        store.store("haswell", "nop", {"throughput": 0.25})
        with open(store.log_path("haswell"), "rb") as fh:
            line = fh.read()
        _replace_line(store, "haswell", "nop", line[:20])
        assert store.load("haswell", "nop") is None
        assert len(store.quarantined_files()) == 1

    def test_wrong_version_is_a_miss(self, store):
        _rewrite(store, "haswell", "nop",
                 {"version": 0, "uarch": "haswell", "text": "nop",
                  "entry": {"throughput": 0.25}})
        assert store.load("haswell", "nop") is None
        assert len(store.quarantined_files()) == 1

    def test_incoherent_entry_is_a_miss(self, store):
        _rewrite(store, "haswell", "nop",
                 {"version": 1, "uarch": "haswell", "text": "nop",
                  "entry": {"throughput": 0.25, "reason": "sigfpe"}})
        assert store.load("haswell", "nop") is None
        assert len(store.quarantined_files()) == 1


class TestRecordFormat:
    @given(value=st.floats(min_value=1e-9, max_value=1e9))
    @settings(max_examples=40, deadline=None)
    def test_exact_float_round_trip(self, tmp_path_factory, value):
        store = ShardCache(str(tmp_path_factory.mktemp("floats")))
        store.store("ivybridge", "add %rbx, %rax", {"throughput": value})
        loaded = store.load("ivybridge", "add %rbx, %rax")["throughput"]
        assert loaded == value and repr(loaded) == repr(value)

    def test_every_failure_reason_round_trips(self, store):
        reasons = [reason.value for reason in FailureReason] \
            + ["zero_throughput"]
        for reason in reasons:
            store.store("haswell", reason, {"reason": reason})
        assert [store.load("haswell", r) for r in reasons] == \
            [{"reason": r} for r in reasons]

    def test_extra_keys_keep_their_order(self, store):
        entry = {"throughput": 1.5,
                 "extra": ["fastpath_extrapolated", "blockplan_compiled",
                           "step_budget_exceeded"]}
        store.store("skylake", "nop", entry)
        assert store.load("skylake", "nop")["extra"] == entry["extra"]

    def test_flipped_byte_is_quarantined_and_counted(self, store):
        store.store("haswell", "nop", {"throughput": 0.25})
        path = store.log_path("haswell")
        _flip_byte(path, "0.25")
        telemetry.enable()
        try:
            assert store.load("haswell", "nop") is None
            counters = telemetry.registry().snapshot()["counters"]
        finally:
            telemetry.reset()
        assert counters["resilience.quarantined.cache_files"] == 1
        assert counters["cache.shard.evictions"] == 1
        assert ("haswell", "nop") not in store
        assert len(store.quarantined_files()) == 1

    def test_strict_mode_raises_on_a_flipped_byte(self, store):
        store.store("haswell", "nop", {"throughput": 0.25})
        _flip_byte(store.log_path("haswell"), "0.25")
        with policy.forced_strict(True):
            with pytest.raises(StrictModeViolation):
                store.load("haswell", "nop")
        # Strict mode quarantines nothing.
        assert store.quarantined_files() == []

    def test_flipped_byte_reprofiles_to_the_same_bytes(self, corpus,
                                                       store):
        clean = profile_corpus_sharded(corpus.records, "skylake",
                                       jobs=1, shard_size=4,
                                       cache=store)
        text = corpus.records[5].block.text()
        path = store.log_path("skylake")
        with open(path, "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
        (written,) = [line for line in lines
                      if parse_journal_line(line)["text"] == text]
        _flip_byte(path, 'entry', nth=lines.index(written))
        stats = {}
        healed = profile_corpus_sharded(corpus.records, "skylake",
                                        jobs=1, shard_size=4,
                                        cache=store, stats=stats)
        assert _payload(healed) == _payload(clean)
        assert len(store.quarantined_files()) == 1
        if chaos.active() is None:
            assert stats["hits"] == len(corpus) - 1
            with open(path, "rb") as fh:
                assert fh.read().endswith(written)

    def test_colliding_texts_keep_their_own_records(self, store):
        texts = [parse_block(t).text() for t in COLLIDING]
        records = [(BlockRecord(block=parse_block(t), application="x",
                                frequency=1, block_id=0),)
                   for t in COLLIDING]
        assert shard_digest(records[0]) == shard_digest(records[1])
        store.store("haswell", texts[0], {"throughput": 2.0})
        assert store.load("haswell", texts[1]) is None
        store.store("haswell", texts[1], {"throughput": 2.0625})
        assert store.load("haswell", texts[0]) == {"throughput": 2.0}
        assert store.load("haswell", texts[1]) == {"throughput": 2.0625}
        # One text's record where the index puts the other's is caught
        # by the text check, not served (the shorter line is re-read
        # whole).
        with open(store.log_path("haswell"), "rb") as fh:
            first, second = fh.read().splitlines(keepends=True)
        assert len(first) < len(second)
        with open(store.log_path("haswell"), "wb") as fh:
            fh.write(first + first)
        assert store.load("haswell", texts[1]) is None
        assert len(store.quarantined_files()) == 1


class TestEngineLookups:
    def test_partial_hits_fold_in_record_order(self, corpus, store,
                                               tmp_path):
        """Every other block stored beforehand: a shard mixes hits and
        fresh entries and still folds to the bytes of a fresh run."""
        fresh = profile_corpus_sharded(corpus.records, "ivybridge",
                                       jobs=1, shard_size=4)
        half = ShardCache(str(tmp_path / "half"))
        profile_corpus_sharded(corpus.records[::2], "ivybridge",
                               jobs=1, cache=half)
        stats = {}
        mixed = profile_corpus_sharded(corpus.records, "ivybridge",
                                       jobs=2, shard_size=4, cache=half,
                                       stats=stats)
        assert _payload(mixed) == _payload(fresh)
        if chaos.active() is None:
            assert stats["hits"] == len(corpus.records[::2])
            assert stats["cache_hits"] == 0

    def test_siblings_are_stored_for_their_own_runs(self, corpus,
                                                    store):
        # Forced on: siblings are a fast-path layer.
        stats, bare = {}, {}
        with simcore.forced(True):
            profile_corpus_sharded(corpus.records, "ivybridge", jobs=1,
                                   cache=store, siblings=("haswell",),
                                   stats=stats)
            # Without a store there is nowhere to keep them: none
            # timed.
            profile_corpus_sharded(corpus.records, "ivybridge", jobs=1,
                                   siblings=("haswell",), stats=bare)
        assert stats["sibling_runs"] > 0
        assert sum(("haswell", record.block.text()) in store
                   for record in corpus.records) \
            == stats["sibling_runs"]
        assert bare["sibling_runs"] == 0

    def test_caches_section_counts_records(self, corpus, store):
        from repro.telemetry import cachestats
        telemetry.enable()
        try:
            profile_corpus_sharded(corpus.records, "skylake", jobs=1,
                                   cache=store)
            profile_corpus_sharded(corpus.records, "skylake", jobs=1,
                                   cache=store)
            (row,) = [stats for stats in cachestats.snapshot()
                      if stats.name == "shard"]
        finally:
            telemetry.reset()
        assert row.size == len(store) == len(corpus)
        if chaos.active() is None:
            assert (row.hits, row.misses) == (len(corpus), len(corpus))


class TestSharedStore:
    def test_filled_store_serves_other_shard_sizes_and_the_stream(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "cache"))
        filled = Experiment(scale=0.0002, seed=0, jobs=1)
        expected = {u: (filled.measured(u), filled.funnel(u),
                        filled.info(u)) for u in UARCHES}
        if chaos.active() is not None:
            return  # an injected write failure leaves a hole to fill

        def no_profiling(self, blocks):
            raise AssertionError("the store should have held every block")

        monkeypatch.setattr(BasicBlockProfiler, "profile_many",
                            no_profiling)
        recut = Experiment(scale=0.0002, seed=0, jobs=1, shard_size=7)
        assert {u: (recut.measured(u), recut.funnel(u), recut.info(u))
                for u in UARCHES} == expected
        out = tmp_path / "stream.csv"
        assert cli.main(["corpus", "--scale", "0.0002", "--seed", "0",
                         "--measure", "--stream", "--jobs", "1",
                         "--uarch", "haswell", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = fh.read().splitlines()
        assert len(rows) == len(expected["haswell"][0])


class TestCacheRoot:
    def test_a_blank_repro_cache_is_the_default_root(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        default = cache_root()
        assert os.path.isabs(default)
        assert os.path.basename(default) == ".cache"
        for blank in ("", "  "):
            monkeypatch.setenv("REPRO_CACHE", blank)
            assert cache_root() == default

    def test_the_daemon_state_defaults_under_the_cache_root(
            self, tmp_path, monkeypatch):
        # From any working directory, not only the checkout's root.
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_SERVE_STATE", raising=False)
        for value in (None, "", str(tmp_path / "cache")):
            if value is None:
                monkeypatch.delenv("REPRO_CACHE", raising=False)
            else:
                monkeypatch.setenv("REPRO_CACHE", value)
            assert default_state_dir() == \
                os.path.join(cache_root(), "serve")

    def test_the_pipeline_opens_this_modules_store(self):
        from repro.eval import pipeline
        assert pipeline.result_store is result_store


_WRITER = """
import os, sys, time
from repro.parallel import ShardCache
store_dir, signal_dir, name = sys.argv[1:4]
store = ShardCache(store_dir)
open(os.path.join(signal_dir, name + ".ready"), "w").close()
while not os.path.exists(os.path.join(signal_dir, "go")):
    time.sleep(0.001)
for i in range(int(sys.argv[4])):
    assert store.store("haswell", f"{name} {i}", {"throughput": i + 0.5})
"""


class TestAppendOnlyLog:
    def test_torn_tail_is_no_hit_and_is_cut_by_the_next_store(
            self, tmp_path):
        first = ShardCache(str(tmp_path))
        for i in range(5):
            first.store("haswell", f"block {i}", {"throughput": i + 0.5})
        torn = journal_line({"version": 1, "uarch": "haswell",
                             "text": "block 5",
                             "entry": {"throughput": 5.5}})
        with open(first.log_path("haswell"), "a") as fh:
            fh.write(torn[:len(torn) // 2])  # a writer killed mid-write
        telemetry.enable()
        try:
            reopened = ShardCache(str(tmp_path))
            assert reopened.load("haswell", "block 5") is None
            assert [reopened.load("haswell", f"block {i}")
                    for i in range(5)] == \
                [{"throughput": i + 0.5} for i in range(5)]
            assert reopened.quarantined_files() == []
            assert reopened.store("haswell", "block 5",
                                  {"throughput": 5.5})
            counters = telemetry.registry().snapshot()["counters"]
        finally:
            telemetry.reset()
        assert counters["resilience.torn_tails_truncated"] == 1
        assert "resilience.quarantined.cache_files" not in counters
        with open(first.log_path("haswell"), "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
        assert len(lines) == 6
        assert all(parse_journal_line(line) is not None
                   for line in lines)
        last = ShardCache(str(tmp_path))
        assert [last.load("haswell", f"block {i}") for i in range(6)] \
            == [{"throughput": i + 0.5} for i in range(6)]
        assert last.quarantined_files() == []

    def test_writers_in_several_processes_share_one_log(self, tmp_path):
        # More writers than a 2-core host has cores.
        names, store_dir, count = ("left", "middle", "right"), \
            tmp_path / "store", 300
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "..", "src"),
             env.get("PYTHONPATH", "")])
        env.pop("REPRO_CHAOS", None)
        writers = [subprocess.Popen(
            [sys.executable, "-c", _WRITER, str(store_dir),
             str(tmp_path), name, str(count)], env=env)
            for name in names]
        try:
            deadline = time.monotonic() + 60
            while not all((tmp_path / f"{name}.ready").exists()
                          for name in names):
                assert all(w.poll() is None for w in writers)
                assert time.monotonic() < deadline, "writers never ready"
                time.sleep(0.01)
            (tmp_path / "go").touch()
            assert [w.wait(timeout=120) for w in writers] == \
                [0] * len(names)
        finally:
            for writer in writers:
                if writer.poll() is None:
                    writer.kill()
                    writer.wait()
        store = ShardCache(str(store_dir))
        with open(store.log_path("haswell"), "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
        assert len(lines) == len(names) * count
        assert all(line.endswith(b"\n")
                   and parse_journal_line(line) is not None
                   for line in lines)
        for name in names:
            assert [store.load("haswell", f"{name} {i}")
                    for i in range(count)] == \
                [{"throughput": i + 0.5} for i in range(count)]
        assert store.quarantined_files() == []
        assert os.listdir(store_dir) == ["haswell.log"]

    def test_records_another_store_appends_later_are_hits(self,
                                                            tmp_path):
        ours, theirs = ShardCache(str(tmp_path)), ShardCache(str(tmp_path))
        ours.store("haswell", "own", {"throughput": 1.0})
        assert ours.load("haswell", "their") is None  # index built
        assert theirs.store("haswell", "their", {"throughput": 2.0})
        assert ("haswell", "their") in ours
        # An own append after theirs is read back by the next catch-up,
        # harmlessly.
        ours.store("haswell", "own 2", {"throughput": 3.0})
        assert theirs.store("haswell", "their 2", {"throughput": 4.0})
        assert [ours.load("haswell", text) for text in
                ("own", "their", "own 2", "their 2")] == \
            [{"throughput": value} for value in (1.0, 2.0, 3.0, 4.0)]
        assert theirs.load("haswell", "own 2") == {"throughput": 3.0}
        assert len(ours) == len(theirs) == 4
        with open(ours.log_path("haswell"), "rb") as fh:
            assert len(fh.read().splitlines()) == 4
        assert ours.quarantined_files() == []

    def test_line_damaged_after_the_scan_is_quarantined_by_its_load(
            self, tmp_path):
        ShardCache(str(tmp_path)).store("haswell", "nop",
                                        {"throughput": 0.25})
        store = ShardCache(str(tmp_path))
        assert store.load("haswell", "nop") == {"throughput": 0.25}
        _flip_byte(store.log_path("haswell"), "0.25")
        telemetry.enable()
        try:
            assert store.load("haswell", "nop") is None
            # A later scan finds the copy and skips the line.
            assert ShardCache(str(tmp_path)).load("haswell",
                                                  "nop") is None
            counters = telemetry.registry().snapshot()["counters"]
        finally:
            telemetry.reset()
        assert counters["resilience.quarantined.cache_files"] == 1
        assert len(store.quarantined_files()) == 1


class TestThreads:
    """One instance shared by threads, as ``repro serve`` shares one
    between its store lane and its batch thread."""

    def test_readers_beside_writers_in_one_instance(self, tmp_path):
        # More threads than a 2-core host has cores, switching often.
        store, count = ShardCache(str(tmp_path)), 150
        texts = {name: [f"{name} {i}" for i in range(count)]
                 for name in ("left", "right")}
        writing = [threading.Event() for _ in texts]
        wrong, hits = [], set()

        def write(name, done):
            try:
                for i, text in enumerate(texts[name]):
                    store.store("haswell", text, {"throughput": i + 0.5})
            finally:
                done.set()

        def read():
            passes = 0
            while passes < 2:
                passes += all(done.is_set() for done in writing)
                for name, names in texts.items():
                    for i, text in enumerate(names):
                        entry = store.load("haswell", text)
                        if entry is None:
                            continue
                        hits.add(text)
                        if entry != {"throughput": i + 0.5}:
                            wrong.append((text, entry))

        threads = [threading.Thread(target=write, args=(name, done),
                                    daemon=True)
                   for name, done in zip(texts, writing)]
        threads += [threading.Thread(target=read, daemon=True)
                    for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert hits == {text for names in texts.values()
                        for text in names}
        # No index update was lost: the shared index is what a fresh
        # instance's scan of the log builds.
        fresh = ShardCache(str(tmp_path))
        assert store._index("haswell") == fresh._index("haswell")
        assert len(fresh._index("haswell")) == 2 * count
        assert store.quarantined_files() == []

    def test_a_load_after_a_store_hits_without_a_rescan(self, tmp_path,
                                                        monkeypatch):
        store = ShardCache(str(tmp_path))
        store.store("haswell", "first", {"throughput": 1.0})
        scans = []
        scan = store._scan
        monkeypatch.setattr(store, "_scan",
                            lambda uarch: (scans.append(uarch),
                                           scan(uarch)))
        assert store.store("haswell", "second", {"throughput": 2.0})
        assert store.load("haswell", "second") == {"throughput": 2.0}
        assert store.load("haswell", "first") == {"throughput": 1.0}
        assert scans == []

    def test_two_threads_loading_one_damaged_line_both_miss(
            self, tmp_path, monkeypatch):
        store = ShardCache(str(tmp_path))
        store.store("haswell", "nop", {"throughput": 0.25})
        _flip_byte(store.log_path("haswell"), "0.25")
        # Each load that finds the line damaged waits for the other;
        # under the store's lock the second never gets that far, and
        # the first goes on once the wait times out.
        meet = threading.Barrier(2)
        parse = shard_cache.parse_journal_line

        def parse_and_meet(line):
            record = parse(line)
            if record is None:
                try:
                    meet.wait(timeout=0.5)
                except threading.BrokenBarrierError:
                    pass
            return record

        monkeypatch.setattr(shard_cache, "parse_journal_line",
                            parse_and_meet)
        loads, errors = [], []

        def load():
            try:
                loads.append(store.load("haswell", "nop"))
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=load, daemon=True)
                   for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert errors == []
        assert loads == [None, None]
        assert len(store.quarantined_files()) == 1
