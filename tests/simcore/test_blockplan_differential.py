"""Differential block-plan suite: compilation invisible in the bytes.

Block-compiled execution plans (``repro.runtime.plan``) promise the
same contract as the simulation-core fast path: *bit-for-bit*
identical profiles, only produced faster.  The same corpora are
profiled with plans forced on and forced off — serially and through
the 2-worker pool (forked workers inherit ``blockplan.forced``) — on
every microarchitecture, and compared after JSON serialisation.

The informational ``blockplan_compiled`` tally is deliberately
*excluded* from the comparison payload (it reports that plans were
active, so it legitimately differs between modes) and separately
pinned to never leak into accepted/dropped accounting.
"""

import json

import pytest

from repro.corpus.dataset import build_application
from repro.eval.validation import profile_corpus_detailed
from repro.parallel import profile_corpus_sharded
from repro.runtime import blockplan
from repro.simcore import config as simcore

UARCHES = ("ivybridge", "haswell", "skylake")


def _payload(profile) -> str:
    """Canonical bytes of a profile: order-sensitive on purpose."""
    return json.dumps({"throughputs": profile.throughputs,
                       "funnel": profile.funnel})


@pytest.mark.parametrize("uarch", UARCHES)
def test_blockplan_bit_identical_serial_and_pool(uarch):
    corpus = build_application("llvm", count=18, seed=5)
    with blockplan.forced(False):
        interpreted = profile_corpus_detailed(corpus, uarch, seed=5)
        pool_off = profile_corpus_sharded(corpus, uarch, seed=5,
                                          jobs=2, shard_size=8)
    with blockplan.forced(True):
        compiled = profile_corpus_detailed(corpus, uarch, seed=5)
        pool_on = profile_corpus_sharded(corpus, uarch, seed=5,
                                         jobs=2, shard_size=8)
    assert _payload(interpreted) == _payload(compiled) \
        == _payload(pool_off) == _payload(pool_on)
    assert interpreted.funnel["dropped"] == compiled.funnel["dropped"]
    # The informational tally never counts into the funnel: with
    # plans off it is absent, and either way accepted + dropped
    # still covers every block.
    assert "blockplan_compiled" not in interpreted.info
    assert "blockplan_compiled" not in pool_off.info
    assert compiled.info.get("blockplan_compiled", 0) > 0
    for profile in (interpreted, compiled, pool_off, pool_on):
        assert profile.funnel["accepted"] \
            + sum(profile.funnel["dropped"].values()) \
            == profile.funnel["total"]


@pytest.mark.parametrize("uarch", UARCHES)
def test_vector_corpus_identical(uarch):
    """Vector-heavy blocks (and the Ivy Bridge AVX2 drop path) too."""
    corpus = build_application("openblas", count=16, seed=9)
    with blockplan.forced(False):
        interpreted = profile_corpus_detailed(corpus, uarch, seed=9)
    with blockplan.forced(True):
        compiled = profile_corpus_detailed(corpus, uarch, seed=9)
    assert _payload(interpreted) == _payload(compiled)


def test_blockplan_identical_with_fastpath_off():
    """Plans are orthogonal to the simcore fast path: with full
    simulation forced, flipping plans still changes no byte."""
    corpus = build_application("gzip", count=10, seed=3)
    with simcore.forced(False):
        with blockplan.forced(False):
            interpreted = profile_corpus_detailed(corpus, "haswell",
                                                  seed=3)
        with blockplan.forced(True):
            compiled = profile_corpus_detailed(corpus, "haswell",
                                               seed=3)
    assert _payload(interpreted) == _payload(compiled)

