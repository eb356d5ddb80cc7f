"""Differential fast-path suite: optimisations invisible in the bytes.

The simulation-core fast path (steady-state extrapolation, combined
two-factor runs, decode/parse caching, corpus-level dedup) promises
*bit-for-bit* identical output to full simulation.  This suite holds
it to that: the same corpora are profiled with the fast path forced on
and forced off — serially and through the 2-worker pool — on every
microarchitecture, and the results are compared byte-for-byte after
JSON serialisation: throughputs (values *and* insertion order), the
accept/drop funnel, and per-unroll counter tuples.

The informational ``fastpath_extrapolated`` tally is deliberately
*excluded* from the comparison payload (it reports how often the fast
path fired, so it legitimately differs between modes) and separately
pinned to never leak into accepted/dropped accounting.
"""

import json

import pytest

from repro.corpus.dataset import build_application
from repro.eval.validation import profile_corpus_detailed
from repro.parallel import profile_corpus_sharded
from repro.profiler.harness import BasicBlockProfiler, ProfilerConfig
from repro.runtime import blockplan
from repro.simcore import config as simcore
from repro.uarch.machine import Machine

UARCHES = ("ivybridge", "haswell", "skylake")


def _payload(profile) -> str:
    """Canonical bytes of a profile: order-sensitive on purpose."""
    return json.dumps({"throughputs": profile.throughputs,
                       "funnel": profile.funnel})


def _fingerprint(result):
    """Every observable field of one block's profile."""
    return (
        result.ok,
        None if result.failure is None else result.failure.value,
        result.throughput,
        tuple((m.unroll, m.cycles, m.clean_runs, m.total_runs,
               m.l1d_read_misses, m.l1d_write_misses, m.l1i_misses,
               m.misaligned_refs) for m in result.measurements),
    )


@pytest.mark.parametrize("uarch", UARCHES)
def test_fastpath_bit_identical_serial_and_pool(uarch):
    corpus = build_application("llvm", count=18, seed=5)
    with simcore.forced(False):
        slow = profile_corpus_detailed(corpus, uarch, seed=5)
    with simcore.forced(True):
        fast = profile_corpus_detailed(corpus, uarch, seed=5)
        pool = profile_corpus_sharded(corpus, uarch, seed=5,
                                      jobs=2, shard_size=8)
    assert _payload(slow) == _payload(fast) == _payload(pool)
    assert slow.funnel["dropped"] == fast.funnel["dropped"]
    # The informational tally never counts into the funnel: with the
    # fast path off it never fires, and either way accepted + dropped
    # still covers every block.  (Other layers' info rows — e.g.
    # blockplan_compiled — may legitimately be present in both modes.)
    assert "fastpath_extrapolated" not in slow.info
    for profile in (slow, fast, pool):
        assert profile.funnel["accepted"] \
            + sum(profile.funnel["dropped"].values()) \
            == profile.funnel["total"]


@pytest.mark.parametrize("uarch", UARCHES)
def test_vector_corpus_identical(uarch):
    """Vector-heavy blocks (and the Ivy Bridge AVX2 drop path) too."""
    corpus = build_application("openblas", count=16, seed=9)
    with simcore.forced(False):
        slow = profile_corpus_detailed(corpus, uarch, seed=9)
    with simcore.forced(True):
        fast = profile_corpus_detailed(corpus, uarch, seed=9)
    assert _payload(slow) == _payload(fast)


def test_paper_unroll_factors_identical_per_measurement():
    """At the paper's unroll 100/200 every per-unroll counter agrees.

    This exercises the executor's steady-state extrapolation and the
    combined two-factor run with its u1 checkpoint at long unrolls.
    Every page sits on one physical frame here, so the L1D cannot
    evict and each checkpoint is certified without the LRU; traces
    that can evict take both LRU passes and no checkpoint, and
    ``test_no_eviction.py::TestEvictableTraces`` holds
    them to the oracle.
    """
    import os
    path = os.path.join(os.path.dirname(__file__), "..", "data",
                        "golden_corpus.json")
    with open(path) as fh:
        texts = [b["text"] for b in json.load(fh)["blocks"]]
    config = ProfilerConfig(base_factor=100)

    def run(fast):
        with simcore.forced(fast):
            profiler = BasicBlockProfiler(Machine("haswell", seed=0),
                                          config)
            return [_fingerprint(profiler.profile(t)) for t in texts]

    assert run(True) == run(False)


def test_dedup_returns_identical_results_for_repeats():
    """Corpus-level dedup: repeated text -> one simulation, same bytes."""
    text = "add %rax, %rbx\nimul %rcx, %rbx"
    with simcore.forced(True):
        profiler = BasicBlockProfiler(Machine("haswell", seed=0))
        first = profiler.profile(text)
        second = profiler.profile(text)
    assert second is first  # memoised, not re-simulated
    with simcore.forced(False):
        profiler = BasicBlockProfiler(Machine("haswell", seed=0))
        slow_a = profiler.profile(text)
        slow_b = profiler.profile(text)
    assert slow_a is not slow_b
    assert _fingerprint(first) == _fingerprint(slow_a) \
        == _fingerprint(slow_b)


def test_env_var_disables_fastpath(monkeypatch):
    """``REPRO_NO_FASTPATH`` is the one oracle switch: with no
    override it turns off the fast path and block plans alike.  The
    plan tier's own reading of it is pinned in
    ``tests/runtime/test_blockplan.py``."""
    monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
    assert not simcore.enabled()
    assert not blockplan.enabled()
    monkeypatch.setenv("REPRO_NO_FASTPATH", "0")
    assert simcore.enabled()
    monkeypatch.delenv("REPRO_NO_FASTPATH")
    assert simcore.enabled()


def test_env_var_reaches_pool_workers(monkeypatch):
    """Forked workers inherit the switch: a pooled profile under it
    runs no compiled plan."""
    monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
    corpus = build_application("llvm", count=10, seed=5)
    pooled = profile_corpus_sharded(corpus, "haswell", seed=5, jobs=2,
                                    shard_size=5)
    assert pooled.funnel["accepted"] > 0
    assert "blockplan_compiled" not in pooled.info
    assert "fastpath_extrapolated" not in pooled.info


def test_cli_flag_exports_env(monkeypatch, tmp_path, capsys):
    """``--no-fastpath`` exports the env var so workers inherit it,
    and runs the reference: same throughput, no tier in ``extra``."""
    import repro.profiler
    from repro.cli import main
    monkeypatch.delenv("REPRO_NO_FASTPATH", raising=False)
    block = tmp_path / "block.s"
    block.write_text("add %rax, %rbx\nimul %rcx, %rbx\n")
    extras = []
    profile_block = repro.profiler.profile_block

    def spy(*args, **kwargs):
        result = profile_block(*args, **kwargs)
        extras.append(result.extra)
        return result

    monkeypatch.setattr(repro.profiler, "profile_block", spy)
    import os
    assert main(["profile", str(block), "--no-fastpath"]) == 0
    assert os.environ.get("REPRO_NO_FASTPATH") == "1"
    # Plain pop, not monkeypatch.delenv: the CLI set this var *during*
    # the test, so delenv here would record "1" as the original value
    # and leak it back into the environment at teardown.
    os.environ.pop("REPRO_NO_FASTPATH", None)
    assert main(["profile", str(block)]) == 0
    assert "REPRO_NO_FASTPATH" not in os.environ
    oracle, fast = capsys.readouterr().out.split("throughput:")[1:]
    assert oracle.split()[0] == fast.split()[0]
    assert extras[0] == {}
    assert extras[1] == {"fastpath_extrapolated": 1.0,
                         "blockplan_compiled": 1.0}
