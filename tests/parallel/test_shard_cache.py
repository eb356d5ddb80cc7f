"""The result store: record format, block keying, defensive loads.

One self-checked record per (uarch, block text): what a lookup
returns is exactly the entry the profiler's fold reads, for that text
and no other, and a store one run filled serves every other caller
with the same seed without profiling a block.
"""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro import cli, simcore, telemetry
from repro.corpus.dataset import BlockRecord, build_application
from repro.errors import StrictModeViolation
from repro.eval.pipeline import UARCHES, Experiment
from repro.isa.parser import parse_block
from repro.parallel import ShardCache, profile_corpus_sharded
from repro.parallel.sharding import shard_digest
from repro.profiler.harness import BasicBlockProfiler
from repro.profiler.result import FailureReason
from repro.resilience import chaos, journal_line, policy

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
    """Replace a record with ``record``, self-check intact."""
    with open(store.path_for(uarch, text), "w") as fh:
        fh.write(journal_line(record))


def _flip_byte(path, needle):
    """Flip the low bit of the first byte of ``needle`` in the file."""
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    at = data.index(needle.encode())
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
        assert len(store.record_files()) == len(ENTRIES) * len(UARCHES)

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
        path = store.path_for("haswell", "nop")
        with open(path, "r+") as fh:
            fh.truncate(20)
        assert store.load("haswell", "nop") is None
        assert store.quarantined_files() == [os.path.basename(path)]

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
        path = store.path_for("haswell", "nop")
        _flip_byte(path, "0.25")
        telemetry.enable()
        try:
            assert store.load("haswell", "nop") is None
            counters = telemetry.registry().snapshot()["counters"]
        finally:
            telemetry.reset()
        assert counters["resilience.quarantined.cache_files"] == 1
        assert counters["cache.shard.evictions"] == 1
        assert not os.path.exists(path)
        assert store.quarantined_files() == [os.path.basename(path)]

    def test_strict_mode_raises_on_a_flipped_byte(self, store):
        store.store("haswell", "nop", {"throughput": 0.25})
        path = store.path_for("haswell", "nop")
        _flip_byte(path, "0.25")
        with policy.forced_strict(True):
            with pytest.raises(StrictModeViolation):
                store.load("haswell", "nop")
        assert os.path.exists(path)  # strict mode does not move it

    def test_flipped_byte_reprofiles_to_the_same_bytes(self, corpus,
                                                       store):
        clean = profile_corpus_sharded(corpus.records, "skylake",
                                       jobs=1, shard_size=4,
                                       cache=store)
        text = corpus.records[5].block.text()
        path = store.path_for("skylake", text)
        with open(path, "rb") as fh:
            written = fh.read()
        _flip_byte(path, 'entry')
        stats = {}
        healed = profile_corpus_sharded(corpus.records, "skylake",
                                        jobs=1, shard_size=4,
                                        cache=store, stats=stats)
        assert _payload(healed) == _payload(clean)
        assert len(store.quarantined_files()) == 1
        if chaos.active() is None:
            assert stats["hits"] == len(corpus) - 1
            with open(path, "rb") as fh:
                assert fh.read() == written

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
        # One text's record under the other's name is caught by the
        # text check, not served.
        os.replace(store.path_for("haswell", texts[0]),
                   store.path_for("haswell", texts[1]))
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
        assert sum(name.startswith("haswell-")
                   for name in store.record_files()) \
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
        assert row.size == len(store.record_files()) == len(corpus)
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
                         "--measure", "--stream", "--resume", "--jobs",
                         "1", "--uarch", "haswell", "--out",
                         str(out)]) == 0
        with open(out) as fh:
            rows = fh.read().splitlines()
        assert len(rows) == len(expected["haswell"][0])
