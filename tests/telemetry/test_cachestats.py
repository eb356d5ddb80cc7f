"""Unified cache telemetry: one protocol, one report section."""

import pytest

from repro import telemetry
from repro.telemetry import cachestats
from repro.telemetry.cachestats import CacheStats

#: The five caches the unified section must always cover.
FIVE = {"shard", "blockplan", "decode", "dedup", "page"}


class TestCacheStats:
    def test_hit_rate_and_lookups(self):
        stats = CacheStats("x", hits=3, misses=1)
        assert stats.lookups == 4
        assert stats.hit_rate == 0.75
        assert CacheStats("x").hit_rate is None

    def test_as_dict(self):
        d = CacheStats("x", hits=1, misses=2, evictions=3, size=4,
                       capacity=5).as_dict()
        assert d == {"hits": 1, "misses": 2, "evictions": 3,
                     "size": 4, "capacity": 5,
                     "hit_rate": pytest.approx(0.3333)}

    def test_merge_counter_stats(self):
        base = CacheStats("page", hits=10, misses=5, size=1)
        merged = cachestats.merge_counter_stats(base, {
            "cache.page.hits": 7, "cache.page.evictions": 2,
            "cache.other.hits": 99,
        })
        assert (merged.hits, merged.misses, merged.evictions) \
            == (17, 5, 2)
        assert merged.size == 1

    def test_counter_name_convention(self):
        assert cachestats.counter_name("dedup", "hits") \
            == "cache.dedup.hits"


class TestProviders:
    def test_register_and_snapshot_sorted(self):
        cachestats.register_provider(
            "zz_test", lambda: CacheStats("zz_test", hits=1))
        try:
            names = [s.name for s in cachestats.snapshot()]
            assert names == sorted(names)
            assert "zz_test" in names
        finally:
            cachestats._PROVIDERS.pop("zz_test", None)

    def test_registry_stats_reads_counters(self):
        telemetry.enable()
        telemetry.count("cache.demo.hits", 4)
        telemetry.count("cache.demo.misses", 1)
        stats = cachestats.registry_stats("demo", size=9, capacity=16)
        assert (stats.hits, stats.misses) == (4, 1)
        assert (stats.size, stats.capacity) == (9, 16)


class TestFiveCachesInReport:
    def test_all_five_present(self):
        # Importing the instrumented layers registers the providers.
        import repro.isa.parser  # noqa: F401
        import repro.parallel.shard_cache  # noqa: F401
        import repro.profiler.harness  # noqa: F401
        import repro.runtime.memory  # noqa: F401
        import repro.runtime.plan  # noqa: F401
        report = telemetry.build_run_report(telemetry.registry(),
                                            name="caches")
        assert FIVE <= set(report["caches"])
        for stats in report["caches"].values():
            assert {"hits", "misses", "evictions", "size",
                    "capacity", "hit_rate"} <= set(stats)

    def test_decode_provider_tracks_parser(self):
        from repro.isa.parser import decode_cache_stats, \
            parse_instruction
        from repro.simcore import config as simcore
        with simcore.forced(True):
            before = decode_cache_stats()
            parse_instruction("addq %rax, %rbx")
            parse_instruction("addq %rax, %rbx")
            after = decode_cache_stats()
        assert after.lookups >= before.lookups + 2
        assert after.hits >= before.hits + 1

    def test_stitched_counters_fill_missing_provider(self):
        telemetry.enable()
        telemetry.count("cache.phantom.hits", 5)
        telemetry.count("cache.phantom.misses", 5)
        report = telemetry.build_run_report(telemetry.registry(),
                                            name="stitched")
        assert report["caches"]["phantom"]["hits"] == 5
        assert report["caches"]["phantom"]["hit_rate"] == 0.5

    def test_page_cache_drained_by_harness(self):
        from repro.corpus.dataset import build_application
        from repro.eval.validation import profile_corpus_detailed
        from repro.runtime import blockplan
        telemetry.enable()
        corpus = build_application("llvm", count=6, seed=3)
        # Page-cache stats only accrue on the block-plan fast path;
        # force it on so an ambient REPRO_NO_FASTPATH can't starve
        # the counters.
        with blockplan.forced(True):
            profile_corpus_detailed(corpus, "haswell", seed=3)
        report = telemetry.build_run_report(telemetry.registry(),
                                            name="drained")
        page = report["caches"]["page"]
        dedup = report["caches"]["dedup"]
        assert page["hits"] + page["misses"] > 0
        assert dedup["misses"] > 0
