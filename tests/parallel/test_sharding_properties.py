"""Property-based tests for shard split/merge.

Three algebraic properties the engine's safety proof leans on:

* sharding any corpus is a **partition** — no record lost, none
  duplicated, order preserved;
* **merge is order-independent** — any permutation of per-shard
  profiles merges to the same bytes;
* per-shard **digests are process-stable** — they survive
  ``PYTHONHASHSEED`` changes and fresh interpreters, so cache keys
  computed by different workers agree.

Uses hypothesis when available; otherwise a seeded random fallback
walks the same properties over a fixed sample of cases.
"""

import json
import random
import subprocess
import sys

import pytest

from repro.corpus.dataset import BlockRecord
from repro.eval.validation import CorpusProfile
from repro.isa.parser import parse_block
from repro.parallel import (merge_profiles, partition_check,
                            shard_corpus, shard_digest)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - environment-dependent
    HAVE_HYPOTHESIS = False

#: A small pool of distinct parsed blocks; records draw from it so
#: corpora are cheap to build but digests still vary with content.
BLOCK_POOL = [parse_block(text) for text in (
    "add %rax, %rbx",
    "xor %edx, %edx\ndiv %ecx",
    "mov 0x8(%rsp), %rcx\nadd %rcx, %rax",
    "mulps %xmm1, %xmm2\naddps %xmm2, %xmm3",
    "imul $3, %rdi, %rsi\nsub %rsi, %rdx",
    "lea 0x4(%rdi,%rsi,2), %rax",
)]


def make_records(choices):
    return [BlockRecord(block=BLOCK_POOL[c % len(BLOCK_POOL)],
                        application="test", frequency=1, block_id=i)
            for i, c in enumerate(choices)]


def fake_profile(shard) -> CorpusProfile:
    """A deterministic stand-in profile: content-derived, no simulator."""
    throughputs = {r.block_id: float(r.block_id % 7) + 0.5
                   for r in shard.records if r.block_id % 3}
    accepted = len(throughputs)
    dropped = {}
    missing = len(shard.records) - accepted
    if missing:
        dropped = {"sigfpe": (missing + 1) // 2,
                   "unstable_timing": missing // 2}
        dropped = {k: v for k, v in dropped.items() if v}
    return CorpusProfile(
        throughputs=throughputs,
        funnel={"total": len(shard.records), "accepted": accepted,
                "dropped": dropped})


# ---------------------------------------------------------------------------
# The properties (parameterised by (choices, shard_size, permutation seed))
# ---------------------------------------------------------------------------

def check_partition(choices, shard_size):
    records = make_records(choices)
    shards = shard_corpus(records, shard_size)
    flat_ids = [r.block_id for s in shards for r in s.records]
    assert flat_ids == [r.block_id for r in records]  # no loss, no dup
    assert len(set(flat_ids)) == len(flat_ids)
    assert all(len(s) <= shard_size for s in shards)
    if records:
        from repro.corpus.dataset import Corpus
        partition_check(Corpus(records), shards)


def check_merge_order_independent(choices, shard_size, perm_seed):
    records = make_records(choices)
    shards = shard_corpus(records, shard_size)
    pairs = [(s, fake_profile(s)) for s in shards]
    shuffled = list(pairs)
    random.Random(perm_seed).shuffle(shuffled)
    a = merge_profiles(pairs)
    b = merge_profiles(shuffled)
    assert json.dumps({"t": a.throughputs, "f": a.funnel}) \
        == json.dumps({"t": b.throughputs, "f": b.funnel})
    assert a.funnel["total"] == len(records)
    assert a.funnel["accepted"] + sum(a.funnel["dropped"].values()) \
        == len(records)


def check_digest_deterministic(choices, shard_size):
    records = make_records(choices)
    first = [s.digest for s in shard_corpus(records, shard_size)]
    second = [s.digest for s in shard_corpus(make_records(choices),
                                             shard_size)]
    assert first == second
    # Digests depend on content: different block choices differ
    # (unless the draw happens to repeat the same sequence).
    if records:
        bumped = make_records([c + 1 for c in choices])
        if [r.block.text() for r in bumped] \
                != [r.block.text() for r in records]:
            assert [s.digest for s in shard_corpus(bumped, shard_size)] \
                != first


if HAVE_HYPOTHESIS:
    corpora = st.lists(st.integers(min_value=0, max_value=5),
                       max_size=60)
    sizes = st.integers(min_value=1, max_value=12)

    @settings(max_examples=40, deadline=None)
    @given(choices=corpora, shard_size=sizes)
    def test_sharding_is_a_partition(choices, shard_size):
        check_partition(choices, shard_size)

    @settings(max_examples=40, deadline=None)
    @given(choices=corpora, shard_size=sizes,
           perm_seed=st.integers(min_value=0, max_value=2**16))
    def test_merge_is_order_independent(choices, shard_size, perm_seed):
        check_merge_order_independent(choices, shard_size, perm_seed)

    @settings(max_examples=25, deadline=None)
    @given(choices=corpora, shard_size=sizes)
    def test_digests_are_deterministic(choices, shard_size):
        check_digest_deterministic(choices, shard_size)
else:  # pragma: no cover - seeded fallback
    def _cases(n=40, seed=1234):
        rng = random.Random(seed)
        for _ in range(n):
            yield ([rng.randrange(6)
                    for _ in range(rng.randrange(61))],
                   rng.randint(1, 12), rng.randrange(2**16))

    def test_sharding_is_a_partition():
        for choices, size, _ in _cases():
            check_partition(choices, size)

    def test_merge_is_order_independent():
        for choices, size, perm in _cases():
            check_merge_order_independent(choices, size, perm)

    def test_digests_are_deterministic():
        for choices, size, _ in _cases(25):
            check_digest_deterministic(choices, size)


# ---------------------------------------------------------------------------
# Process stability: cache keys must not depend on PYTHONHASHSEED
# ---------------------------------------------------------------------------

_DIGEST_SCRIPT = """
import sys
from repro.corpus.dataset import build_application, Corpus
from repro.parallel import shard_corpus
from repro.parallel.shard_cache import record_name

corpus = build_application("llvm", count=24, seed=5)
digests = [s.digest for s in shard_corpus(corpus, 7)]
names = [record_name("haswell", r.block.text()) for r in corpus]
print(*digests, *names)
"""


def _digests_under_hashseed(hashseed: str) -> str:
    import os
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) \
        + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT],
                         env=env, capture_output=True, text=True,
                         check=True)
    return out.stdout.strip()


def test_digests_stable_across_processes_and_hash_seeds():
    """Shard digests and store record names are pure functions of
    content — a randomised ``hash()`` sneaking in would make keys
    disagree between parent and workers, which this catches."""
    a = _digests_under_hashseed("0")
    b = _digests_under_hashseed("4242")
    assert a == b
    assert a  # non-empty: the script really produced digests
