"""Simulation-core fast path: speedup and bit-identity on the corpus.

Profiles the golden corpus (the 22-block fixture under ``tests/data``)
at the paper's unroll factors (100/200) with the fast path on and off,
and enforces two claims:

* **Identity** — the fast path is invisible in the output bytes: for
  every block, throughput, per-unroll cycle counts, miss counters and
  accept/fail status are identical to the run with the fast path
  forced off.  Compiled block plans stay on in both modes
  (``blockplan.forced(True)``), so the speedup is the fast path's
  alone; ``--no-fastpath`` turns plans off as well, and
  ``bench_blockplan.py`` times that tier.
* **Speed** — on the paper-shaped workload (blocks replicated by their
  sampled execution frequency, which is what corpus-level dedup
  exploits: BHive's 2M+ samples contain ~300k unique blocks) the fast
  path must win by at least ``SPEEDUP_FLOOR`` (3x).  The unique-corpus
  speedup (no dedup leverage, pure extrapolation + caching) is also
  measured and reported, but only the composed number is asserted.

Timing is best-of-``REPEATS`` per mode with fresh profilers per run,
so neither mode sees the other's caches.  Results land in
``reports/simcore_fastpath.{txt,json}`` plus a repo-root
``BENCH_simcore.json`` for the dashboard.

Note on the micro-optimisation satellites measured here implicitly:
the per-event trace records (``InstrEvent``, ``MemAccess``,
``InstrAnnotation``, ``UopRecord``) carry ``__slots__``, and the
executor's dispatch loop binds its hot lookups (handler plan, event
append) to locals — both land inside the "slow" baseline too, so the
speedups below are attributable to the fast path alone.
"""

import json
import os
import time

from repro.eval.reporting import format_table
from repro.profiler.harness import BasicBlockProfiler, ProfilerConfig
from repro.runtime import blockplan
from repro.simcore import config as simcore
from repro.uarch.machine import Machine

from conftest import REPORT_DIR

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "tests", "data",
                      "golden_corpus.json")
ROOT_JSON = os.path.join(os.path.dirname(__file__), "..",
                         "BENCH_simcore.json")

UARCH = os.environ.get("REPRO_BENCH_FASTPATH_UARCH", "haswell")
BASE_FACTOR = 100  # two-factor plan: unroll 100 / 200
SPEEDUP_FLOOR = 3.0
REPEATS = int(os.environ.get("REPRO_BENCH_FASTPATH_REPEATS", "2"))
#: Replicated-corpus size (profiles per run).  Frequencies are scaled
#: down proportionally so the workload shape matches the paper's
#: heavy-tailed sample distribution without taking minutes.
REPLICA_TARGET = int(os.environ.get("REPRO_BENCH_FASTPATH_REPLICAS",
                                    "120"))


def _golden_blocks():
    # Application blocks only: the same-shape "lanes" families grafted
    # onto the fixture stay out, so this bench keeps measuring the
    # fast path on the workload its BENCH numbers were taken on.
    with open(GOLDEN) as fh:
        doc = json.load(fh)
    return [(b["text"], b["frequency"]) for b in doc["blocks"]
            if b["application"] != "lanes"]


def _replicated(blocks):
    """Frequency-proportional replication, deterministically ordered."""
    total = sum(freq for _, freq in blocks)
    out = []
    for text, freq in blocks:
        copies = max(1, round(freq / total * REPLICA_TARGET))
        out.extend([text] * copies)
    return out


def _fingerprint(result):
    """Everything observable about one profile, as comparable bytes."""
    return (
        result.ok,
        None if result.failure is None else result.failure.value,
        result.throughput,
        tuple((m.unroll, m.cycles, m.clean_runs, m.total_runs,
               m.l1d_read_misses, m.l1d_write_misses, m.l1i_misses,
               m.misaligned_refs) for m in result.measurements),
    )


def _profile_run(texts, fast):
    """Profile ``texts`` with a fresh profiler; returns (secs, prints)."""
    with simcore.forced(fast), blockplan.forced(True):
        profiler = BasicBlockProfiler(
            Machine(UARCH, seed=0),
            ProfilerConfig(base_factor=BASE_FACTOR))
        start = time.perf_counter()
        results = [profiler.profile(text) for text in texts]
        elapsed = time.perf_counter() - start
    return elapsed, [_fingerprint(r) for r in results]


def _best_of(texts, fast):
    best, prints = None, None
    for _ in range(REPEATS):
        elapsed, fps = _profile_run(texts, fast)
        if best is None or elapsed < best:
            best = elapsed
        prints = fps
    return best, prints


def test_simcore_fastpath(report):
    blocks = _golden_blocks()
    unique = [text for text, _ in blocks]
    replicated = _replicated(blocks)

    uniq_fast, uniq_fast_fp = _best_of(unique, fast=True)
    uniq_slow, uniq_slow_fp = _best_of(unique, fast=False)
    assert uniq_fast_fp == uniq_slow_fp, \
        "fast path diverged from full simulation on the unique corpus"

    rep_fast, rep_fast_fp = _best_of(replicated, fast=True)
    rep_slow, rep_slow_fp = _best_of(replicated, fast=False)
    assert rep_fast_fp == rep_slow_fp, \
        "fast path diverged from full simulation on the replicated run"

    uniq_speedup = uniq_slow / uniq_fast
    rep_speedup = rep_slow / rep_fast
    rows = [
        ("unique corpus", len(unique), round(uniq_slow, 3),
         round(uniq_fast, 3), f"{uniq_speedup:.2f}x", "recorded"),
        ("frequency-replicated", len(replicated), round(rep_slow, 3),
         round(rep_fast, 3), f"{rep_speedup:.2f}x",
         f">= {SPEEDUP_FLOOR}x enforced"),
    ]
    title = (f"{UARCH}, unroll {BASE_FACTOR}/{2 * BASE_FACTOR}, "
             f"best of {REPEATS}; outputs bit-identical in all runs")
    report("simcore_fastpath", format_table(
        ["workload", "profiles", "slow s", "fast s", "speedup",
         "gate"], rows, title=title))

    doc = {"uarch": UARCH, "base_factor": BASE_FACTOR,
           "repeats": REPEATS, "floor": SPEEDUP_FLOOR,
           "identical_outputs": True,
           "unique": {"profiles": len(unique), "slow_s": uniq_slow,
                      "fast_s": uniq_fast, "speedup": uniq_speedup},
           "replicated": {"profiles": len(replicated),
                          "slow_s": rep_slow, "fast_s": rep_fast,
                          "speedup": rep_speedup}}
    for path in (os.path.join(REPORT_DIR, "simcore_fastpath.json"),
                 ROOT_JSON):
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")

    assert rep_speedup >= SPEEDUP_FLOOR, (
        f"fast path {rep_speedup:.2f}x < {SPEEDUP_FLOOR}x on the "
        f"frequency-replicated corpus — extrapolation, caching, or "
        f"dedup regressed")
