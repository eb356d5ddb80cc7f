"""Differential triage suite: routing is invisible in the bytes.

The learned triage stage promises the same contract every other
performance layer in this repo honours: with triage **off** the
pipeline is byte-identical to a build without the subsystem, and with
triage **on** the only observable differences are informational (the
``triage_revalidated`` info tally and ``triage.*`` telemetry) — every
measured throughput, every funnel count, every drop reason is
byte-equal, serially and through the worker pool, on every
microarchitecture, warm cache or cold.
"""

import glob
import json
import os

import pytest

from repro.corpus.dataset import build_application
from repro.eval.validation import profile_corpus_detailed
from repro.parallel import profile_corpus_sharded
from repro.resilience import chaos
from repro.resilience.journal import journal_line, parse_journal_line
from repro.triage import config

UARCHES = ("ivybridge", "haswell", "skylake")


def _payload(profile) -> str:
    """Canonical bytes of a profile: order-sensitive on purpose."""
    return json.dumps({"throughputs": profile.throughputs,
                       "funnel": profile.funnel})


def _conserved(profile) -> bool:
    return profile.funnel["accepted"] \
        + sum(profile.funnel["dropped"].values()) \
        == profile.funnel["total"]


@pytest.mark.parametrize("uarch", UARCHES)
def test_serial_byte_identical_cold_and_warm(triage_cache, uarch):
    corpus = build_application("llvm", count=18, seed=5)
    with config.forced(False):
        base = profile_corpus_detailed(corpus, uarch, seed=5)
    with config.forced(True):
        cold = profile_corpus_detailed(corpus, uarch, seed=5)
        warm = profile_corpus_detailed(corpus, uarch, seed=5)
    assert _payload(base) == _payload(cold) == _payload(warm)
    # Cold run: empty journal, no model -> nothing revalidated;
    # the run itself trains the surrogate for the warm one.
    assert "triage_revalidated" not in base.info
    assert "triage_revalidated" not in cold.info
    assert warm.info["triage_revalidated"] \
        == warm.funnel["accepted"]
    for profile in (base, cold, warm):
        assert _conserved(profile)
    # Apart from the marker, the info funnel is untouched.
    stripped = {k: v for k, v in warm.info.items()
                if k != "triage_revalidated"}
    assert stripped == base.info


def test_pool_byte_identical_cold_and_warm(triage_cache, monkeypatch):
    """Workers journal, the parent trains after the merge; a second
    pooled run revalidates through the same store."""
    corpus = build_application("llvm", count=24, seed=6)
    with config.forced(False):
        base = profile_corpus_detailed(corpus, "haswell", seed=6)
    monkeypatch.setenv("REPRO_TRIAGE", "1")  # workers must inherit
    config.set_enabled(None)
    cold = profile_corpus_sharded(corpus, "haswell", seed=6,
                                  jobs=2, shard_size=8)
    warm = profile_corpus_sharded(corpus, "haswell", seed=6,
                                  jobs=2, shard_size=8)
    assert _payload(base) == _payload(cold) == _payload(warm)
    assert warm.info.get("triage_revalidated") \
        == warm.funnel["accepted"]
    assert _conserved(cold) and _conserved(warm)


@pytest.mark.parametrize("uarch", ("ivybridge", "haswell"))
def test_vector_corpus_identical(triage_cache, uarch):
    """Vector blocks (and Ivy Bridge's AVX2 drop path): drops are
    never journaled, never revalidated, and never move."""
    corpus = build_application("openblas", count=14, seed=9)
    with config.forced(False):
        base = profile_corpus_detailed(corpus, uarch, seed=9)
    with config.forced(True):
        profile_corpus_detailed(corpus, uarch, seed=9)
        warm = profile_corpus_detailed(corpus, uarch, seed=9)
    assert _payload(base) == _payload(warm)
    assert warm.info.get("triage_revalidated", 0) \
        == warm.funnel["accepted"]


def test_off_mode_ignores_a_warm_store(triage_cache):
    """A populated store must be completely inert with triage off —
    the differential guarantee is against the *flag*, not the disk."""
    corpus = build_application("llvm", count=12, seed=7)
    with config.forced(True):
        profile_corpus_detailed(corpus, "haswell", seed=7)
        profile_corpus_detailed(corpus, "haswell", seed=7)  # warm
    with config.forced(False):
        off = profile_corpus_detailed(corpus, "haswell", seed=7)
    assert "triage_revalidated" not in off.info
    with config.forced(True):
        warm = profile_corpus_detailed(corpus, "haswell", seed=7)
    assert _payload(off) == _payload(warm)


def test_corrupted_journal_row_falls_through(triage_cache):
    """A tampered cached value re-simulates instead of replaying.

    The surrogate learned the true measurement, so a drifted journal
    row disagrees, triage declines it, and the block's fresh
    simulation restores the exact baseline bytes.
    """
    from repro.triage import stage
    corpus = build_application("llvm", count=12, seed=8)
    with config.forced(False):
        base = profile_corpus_detailed(corpus, "haswell", seed=8)
    with config.forced(True):
        profile_corpus_detailed(corpus, "haswell", seed=8)  # journal+train
    (journal,) = glob.glob(
        os.path.join(triage_cache, "triage_*", "blocks.ndjson"))
    with open(journal) as fh:
        rows = [parse_journal_line(line) for line in fh.read().splitlines()]
    assert rows and all(r is not None for r in rows)
    rows[0]["throughput"] *= 10.0  # drift one cached value
    with open(journal, "w") as fh:
        fh.writelines(journal_line(r) + "\n" for r in rows)
    stage._STORES.clear()  # force a reload from the tampered file
    with config.forced(True):
        warm = profile_corpus_detailed(corpus, "haswell", seed=8)
    assert _payload(base) == _payload(warm)
    assert warm.info["triage_revalidated"] \
        == warm.funnel["accepted"] - 1


def test_chaos_poison_funnel_identical(triage_cache):
    """Poisoned blocks quarantine identically with triage on or off —
    revalidation must never shadow an injected fault."""
    corpus = build_application("llvm", count=16, seed=4)
    policy = chaos.ChaosPolicy.parse("42:block_poison=0.4")
    with config.forced(False), chaos.forced(policy):
        base = profile_corpus_detailed(corpus, "haswell", seed=4)
    assert base.funnel["dropped"], "poison rate chose no victims"
    with config.forced(True), chaos.forced(policy):
        cold = profile_corpus_detailed(corpus, "haswell", seed=4)
        warm = profile_corpus_detailed(corpus, "haswell", seed=4)
    assert _payload(base) == _payload(cold) == _payload(warm)
    assert _conserved(warm)
