"""End-to-end chaos: every fault survives, reconciles, and is visible.

The acceptance run arms all seven fault points at once over a pooled
profiling run.  Because every chaos decision is a pure function of
``(seed, point, key)``, the test recomputes the exact fault plan from
the policy itself and holds the run report's resilience section to it
— no sleeps, no flakiness, same plan every run.

Also here: the transparent-chaos differential (injected faults must
not change output bytes), quarantine-based healing on the next run,
pool teardown on ``KeyboardInterrupt``, and the resilience section of
the telemetry run report.
"""

import json
import multiprocessing
import os
import time

import pytest

from repro import telemetry
from repro.corpus.dataset import build_application
from repro.eval.validation import profile_corpus_detailed
from repro.parallel import (ShardCache, profile_corpus_sharded,
                            shard_corpus)
from repro.parallel import engine
from repro.parallel.shard_cache import record_key
from repro.profiler.result import FailureReason
from repro.resilience import chaos
from repro.resilience.chaos import PIPELINE_FAULT_POINTS, ChaosPolicy
from repro.resilience.policy import RetryPolicy

#: All seven points armed; rates picked (with ``hang_s`` kept tiny so
#: hung workers recover within the test) so that every point fires at
#: least once for this corpus — ``_fault_plan`` asserts that, so a
#: corpus-generator change that invalidates the seed fails loudly.
ALL_FAULTS_SPEC = ("3:worker_crash=0.25,worker_hang=0.3,"
                   "cache_truncate=0.3,cache_garbage=0.3,"
                   "write_oserror=0.3,disk_full=0.2,"
                   "block_poison=0.1,hang_s=0.1")

#: Same plan minus the two points that legitimately change the output
#: (poisoned blocks are dropped; hangs only cost time, but keeping the
#: differential spec lean keeps the run fast).
TRANSPARENT_SPEC = ("3:worker_crash=0.25,cache_truncate=0.3,"
                    "cache_garbage=0.3,write_oserror=0.3,"
                    "disk_full=0.2")


@pytest.fixture(scope="module")
def corpus():
    return build_application("llvm", count=24, seed=3)


@pytest.fixture(scope="module")
def shards(corpus):
    return shard_corpus(corpus, 4)


@pytest.fixture(scope="module")
def baseline(corpus):
    """Clean serial ground truth for the byte-identity checks."""
    return profile_corpus_detailed(corpus, "haswell", seed=0)


def _bytes(profile):
    return json.dumps({"t": profile.throughputs, "f": profile.funnel})


def _fault_plan(policy, shards, corpus):
    """Recompute the exact expected injection counts from the policy.

    Mirrors the engine's semantics: crash beats hang per shard (keyed
    by shard digest); the write points are keyed by record key, one
    record per block; ``write_oserror`` raises before the
    ``disk_full`` check on attempt 0, so a record with both counts
    only the former; post-write corruption needs a successful write
    (no ``disk_full``), truncate beats garbage.
    """
    digests = [s.digest for s in shards]
    crash = {d for d in digests if policy.should_fire("worker_crash", d)}
    hang = {d for d in digests
            if policy.should_fire("worker_hang", d) and d not in crash}
    names = [record_key("haswell", r.block.text()) for r in corpus]
    oserr = {n for n in names if policy.should_fire("write_oserror", n)}
    disk = {n for n in names if policy.should_fire("disk_full", n)}
    trunc = {n for n in names
             if policy.should_fire("cache_truncate", n)
             and n not in disk}
    garb = {n for n in names
            if policy.should_fire("cache_garbage", n)
            and n not in trunc and n not in disk}
    poison = [r for r in corpus
              if policy.should_fire("block_poison", r.block.text())]
    plan = {"worker_crash": len(crash), "worker_hang": len(hang),
            "write_oserror": len(oserr), "disk_full": len(disk - oserr),
            "cache_truncate": len(trunc), "cache_garbage": len(garb),
            "block_poison": len(poison)}
    assert all(plan.values()), f"seed no longer covers every point: {plan}"
    return plan, disk


class TestAllFaultsAcceptance:
    def test_run_completes_reconciles_and_reports(self, corpus, shards,
                                                  tmp_path,
                                                  monkeypatch):
        telemetry.enable()
        monkeypatch.setenv(chaos.ENV_VAR, ALL_FAULTS_SPEC)
        plan, disk = _fault_plan(ChaosPolicy.parse(ALL_FAULTS_SPEC),
                                 shards, corpus)
        cache = ShardCache(str(tmp_path / "cache"))
        stats = {}
        profile = profile_corpus_sharded(
            corpus, "haswell", seed=0, jobs=2, shards=shards,
            cache=cache, stats=stats)

        # The funnel accounts for every block despite seven concurrent
        # failure modes: poisoned blocks land in the quarantined
        # bucket, everything else is accepted or dropped as usual.
        funnel = profile.funnel
        assert funnel["total"] == len(corpus)
        assert funnel["accepted"] + sum(funnel["dropped"].values()) \
            == funnel["total"]
        quarantined = funnel["dropped"][FailureReason.QUARANTINED.value]
        assert quarantined == plan["block_poison"]
        assert profile.info.get("chaos_block_poison") == quarantined

        # Every fault point is visible in the run report, with the
        # exact deterministic injection counts.
        report = telemetry.build_run_report(
            telemetry.registry(), name="chaos_acceptance",
            funnel={**funnel, "info": dict(profile.info)})
        resilience = report["resilience"]
        assert resilience["faults_injected"] == plan
        assert set(resilience["faults_injected"]) == set(PIPELINE_FAULT_POINTS)
        # Crashed shards escalated pool -> serial; transient write
        # errors were retried with backoff.
        assert resilience["retries"] >= \
            plan["worker_crash"] + plan["write_oserror"]
        assert resilience["backoff_ms"] > 0
        assert resilience["cache_write_failures"] == len(disk)
        assert stats["failed"] == 0

        # Next run, chaos off: corrupted survivors are quarantined and
        # healed, nothing crashes, the funnel still reconciles.
        monkeypatch.delenv(chaos.ENV_VAR)
        healed = profile_corpus_sharded(corpus, "haswell", seed=0,
                                        jobs=1, shards=shards,
                                        cache=cache)
        assert healed.funnel["total"] == len(corpus)
        assert healed.funnel["accepted"] + \
            sum(healed.funnel["dropped"].values()) == len(corpus)
        assert len(cache.quarantined_files()) == \
            plan["cache_truncate"] + plan["cache_garbage"]
        assert all(("haswell", r.block.text()) in cache for r in corpus)


class TestTransparentChaos:
    def test_output_bytes_are_unchanged(self, corpus, shards, baseline,
                                        tmp_path, monkeypatch):
        monkeypatch.setenv(chaos.ENV_VAR, TRANSPARENT_SPEC)
        cache = ShardCache(str(tmp_path / "cache"))
        pooled = profile_corpus_sharded(corpus, "haswell", seed=0,
                                        jobs=2, shards=shards,
                                        cache=cache)
        assert _bytes(pooled) == _bytes(baseline)

    def test_serial_run_is_also_unchanged(self, corpus, shards,
                                          baseline, tmp_path,
                                          monkeypatch):
        monkeypatch.setenv(chaos.ENV_VAR, TRANSPARENT_SPEC)
        cache = ShardCache(str(tmp_path / "cache"))
        serial = profile_corpus_sharded(corpus, "haswell", seed=0,
                                        jobs=1, shards=shards,
                                        cache=cache)
        assert _bytes(serial) == _bytes(baseline)


# ---------------------------------------------------------------------------
# Pool teardown (KeyboardInterrupt must reap every worker)
# ---------------------------------------------------------------------------

def worker_fast_then_hang(descriptor, config, index, records, siblings):
    """Picklable stub: first shard returns, the rest hang."""
    if index > 0:
        time.sleep(120)
    return index, [{"reason": "worker_failure"}] * len(records), []


class TestPoolTeardown:
    def test_keyboard_interrupt_reaps_the_pool(self, corpus,
                                               monkeypatch):
        def interrupt(profile):
            raise KeyboardInterrupt
        monkeypatch.setattr(engine, "_replicate_profiler_counters",
                            interrupt)
        with pytest.raises(KeyboardInterrupt):
            profile_corpus_sharded(corpus, "haswell", seed=0, jobs=2,
                                   shard_size=4,
                                   worker_fn=worker_fast_then_hang,
                                   shard_timeout=60.0)
        # The hung workers were terminated and reaped, not orphaned.
        deadline = time.time() + 15.0
        while multiprocessing.active_children() \
                and time.time() < deadline:
            time.sleep(0.05)
        assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# Resilience section of the run report (satellite: telemetry)
# ---------------------------------------------------------------------------

class TestResilienceReporting:
    def test_counters_flow_into_the_report(self):
        telemetry.enable()
        RetryPolicy(max_attempts=3).run(
            lambda attempt: "ok" if attempt else (_ for _ in ()).throw(
                OSError("transient")),
            key="shard-x", sleep=lambda s: None)
        telemetry.count("resilience.quarantined.blocks", 3)
        telemetry.count("resilience.quarantined.cache_files", 2)
        telemetry.count("resilience.torn_tails_truncated")
        report = telemetry.build_run_report(telemetry.registry(),
                                            name="resilience_report")
        resilience = report["resilience"]
        assert resilience["retries"] == 1
        assert resilience["backoff_ms"] > 0
        assert resilience["quarantined_blocks"] == 3
        assert resilience["quarantined_cache_files"] == 2
        assert resilience["torn_tails_truncated"] == 1

    def test_fault_counters_are_namespaced(self):
        telemetry.enable()
        chaos.account("disk_full", "shard-1")
        chaos.account("disk_full", "shard-2")
        chaos.account("worker_crash", "shard-3")
        report = telemetry.build_run_report(telemetry.registry(),
                                            name="faults")
        assert report["resilience"]["faults_injected"] == \
            {"disk_full": 2, "worker_crash": 1}

    def test_summary_renders_only_when_nonzero(self):
        telemetry.enable()
        quiet = telemetry.build_run_report(telemetry.registry(),
                                           name="quiet")
        assert "resilience" not in telemetry.render_summary(quiet)
        telemetry.count("resilience.retries", 2)
        chaos.account("write_oserror", "k")
        loud = telemetry.build_run_report(telemetry.registry(),
                                          name="loud")
        summary = telemetry.render_summary(loud)
        assert "resilience" in summary
        assert "write_oserror" in summary
