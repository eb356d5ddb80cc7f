"""Block-compiled execution plans: speedup and bit-identity.

Profiles the golden corpus (the 22-block fixture under ``tests/data``)
at the paper's unroll factors (100/200) with block plans on and off,
and enforces two claims:

* **Identity** — compilation is invisible in the output bytes: for
  every block, on every microarchitecture, serially and through the
  2-worker pool, the profile is identical to the run with plans forced
  off (``blockplan.forced(False)``; no flag or variable turns off
  plans alone, ``--no-fastpath`` turns off every tier).
* **Speed** — with the simulation-core fast path forced *off* on both
  sides (so every dynamic instruction is actually executed and the
  comparison isolates the dispatch loop; the plans-off side is the
  oracle ``--no-fastpath`` runs), compiled plans must win by
  at least ``SPEEDUP_FLOOR`` (2x) over the interpreted loop.  The
  composed speedup with the fast path on is also measured and
  reported, but not asserted (extrapolation already skips most
  iterations there, so the margin is workload-dependent).

Timing is best-of-``REPEATS`` per mode with fresh profilers per run,
so neither mode sees the other's bound plans or memos (the module
symbolic-plan cache is cleared between runs too).  Results land in
``reports/blockplan.{txt,json}`` plus a repo-root
``BENCH_blockplan.json`` for the dashboard.
"""

import json
import os
import time

from repro.corpus.dataset import build_application
from repro.eval.reporting import format_table
from repro.eval.validation import profile_corpus_detailed
from repro.parallel import profile_corpus_sharded
from repro.profiler.harness import BasicBlockProfiler, ProfilerConfig
from repro.runtime import blockplan
from repro.runtime import plan as planmod
from repro.simcore import config as simcore
from repro.uarch.machine import Machine

from conftest import REPORT_DIR

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "tests", "data",
                      "golden_corpus.json")
ROOT_JSON = os.path.join(os.path.dirname(__file__), "..",
                         "BENCH_blockplan.json")

UARCH = os.environ.get("REPRO_BENCH_BLOCKPLAN_UARCH", "haswell")
BASE_FACTOR = 100  # two-factor plan: unroll 100 / 200
SPEEDUP_FLOOR = 2.0
REPEATS = int(os.environ.get("REPRO_BENCH_BLOCKPLAN_REPEATS", "2"))
UARCHES = ("ivybridge", "haswell", "skylake")


def _golden_texts():
    # Application blocks only: the same-shape "lanes" families grafted
    # onto the fixture stay out, so this bench keeps measuring the
    # dispatch loop on the workload its BENCH numbers were taken on.
    with open(GOLDEN) as fh:
        doc = json.load(fh)
    return [b["text"] for b in doc["blocks"]
            if b["application"] != "lanes"]


def _fingerprint(result):
    """Everything observable about one profile, as comparable bytes."""
    return (
        result.ok,
        None if result.failure is None else result.failure.value,
        result.throughput,
        tuple((m.unroll, m.cycles, m.clean_runs, m.total_runs,
               m.l1d_read_misses, m.l1d_write_misses, m.l1i_misses,
               m.misaligned_refs) for m in result.measurements),
        result.pages_mapped, result.num_faults,
        result.subnormal_events, result.detail,
    )


def _profile_run(texts, compiled, fastpath):
    """Profile ``texts`` with a fresh profiler; returns (secs, prints)."""
    planmod.clear_plan_cache()
    with simcore.forced(fastpath), blockplan.forced(compiled):
        profiler = BasicBlockProfiler(
            Machine(UARCH, seed=0),
            ProfilerConfig(base_factor=BASE_FACTOR))
        start = time.perf_counter()
        results = [profiler.profile(text) for text in texts]
        elapsed = time.perf_counter() - start
    return elapsed, [_fingerprint(r) for r in results]


def _best_of(texts, compiled, fastpath):
    best, prints = None, None
    for _ in range(REPEATS):
        elapsed, fps = _profile_run(texts, compiled, fastpath)
        if best is None or elapsed < best:
            best = elapsed
        prints = fps
    return best, prints


def _identity_sweep():
    """Serialized profiles identical, plans on vs off, serial + pool."""
    corpus = build_application("llvm", count=14, seed=5)
    for uarch in UARCHES:
        with blockplan.forced(False):
            off = profile_corpus_detailed(corpus, uarch, seed=5)
        with blockplan.forced(True):
            on = profile_corpus_detailed(corpus, uarch, seed=5)
            pool = profile_corpus_sharded(corpus, uarch, seed=5,
                                          jobs=2, shard_size=8)
        off_doc = json.dumps({"throughputs": off.throughputs,
                              "funnel": off.funnel})
        on_doc = json.dumps({"throughputs": on.throughputs,
                             "funnel": on.funnel})
        pool_doc = json.dumps({"throughputs": pool.throughputs,
                               "funnel": pool.funnel})
        assert off_doc == on_doc == pool_doc, \
            f"block plans changed serialized measurements on {uarch}"


def test_blockplan(report):
    texts = _golden_texts()

    # Full-simulation comparison: the gate.  Both sides execute every
    # dynamic instruction; only the dispatch strategy differs.
    full_on, full_on_fp = _best_of(texts, compiled=True,
                                   fastpath=False)
    full_off, full_off_fp = _best_of(texts, compiled=False,
                                     fastpath=False)
    assert full_on_fp == full_off_fp, \
        "compiled plans diverged from the interpreter (full simulation)"

    # Composed with the fast path: informational.
    fast_on, fast_on_fp = _best_of(texts, compiled=True, fastpath=True)
    fast_off, fast_off_fp = _best_of(texts, compiled=False,
                                     fastpath=True)
    assert fast_on_fp == fast_off_fp, \
        "compiled plans diverged from the interpreter (fast path on)"

    _identity_sweep()

    full_speedup = full_off / full_on
    fast_speedup = fast_off / fast_on
    rows = [
        ("full simulation", len(texts), round(full_off, 3),
         round(full_on, 3), f"{full_speedup:.2f}x",
         f">= {SPEEDUP_FLOOR}x enforced"),
        ("simcore fast path on", len(texts), round(fast_off, 3),
         round(fast_on, 3), f"{fast_speedup:.2f}x", "recorded"),
    ]
    title = (f"{UARCH}, unroll {BASE_FACTOR}/{2 * BASE_FACTOR}, "
             f"best of {REPEATS}; outputs bit-identical in all runs "
             f"(3-uarch serial+pool sweep included)")
    report("blockplan", format_table(
        ["workload", "profiles", "interp s", "compiled s", "speedup",
         "gate"], rows, title=title))

    doc = {"uarch": UARCH, "base_factor": BASE_FACTOR,
           "repeats": REPEATS, "floor": SPEEDUP_FLOOR,
           "identical_outputs": True,
           "full_simulation": {"profiles": len(texts),
                               "interpreted_s": full_off,
                               "compiled_s": full_on,
                               "speedup": full_speedup},
           "fastpath_on": {"profiles": len(texts),
                           "interpreted_s": fast_off,
                           "compiled_s": fast_on,
                           "speedup": fast_speedup}}
    for path in (os.path.join(REPORT_DIR, "blockplan.json"),
                 ROOT_JSON):
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")

    assert full_speedup >= SPEEDUP_FLOOR, (
        f"compiled plans {full_speedup:.2f}x < {SPEEDUP_FLOOR}x over "
        f"the interpreted loop on full simulation — pre-binding or "
        f"the step loop regressed")
