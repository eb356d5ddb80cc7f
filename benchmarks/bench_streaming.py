"""Streamed profiling: constant peak RSS, list speed, list bytes.

The engine has one path, but two sources: a materialised corpus
(``profile_corpus_sharded``, the "batch" leaves below) and a lazy
generator (``profile_corpus_streamed`` over ``iter_corpus``, the
"stream" leaves).  This bench enforces the generator run's contract
on real subprocess measurements (``ru_maxrss`` is a whole-process
high-water mark that never goes down, so every configuration gets its
own interpreter):

* **Memory** — the generator run's peak RSS stays flat (within
  ``RSS_RATIO``, 1.2x) while the corpus grows ``GROWTH``x (10x).  The
  list run, which holds the whole corpus, is reported alongside for
  context.
* **Speed** — the generator run's wall time at the base scale is
  within ``SPEEDUP_FLOOR`` (0.9x) of the list run's.  The headline
  ``speedup`` leaf (list seconds / generator seconds) feeds the CI
  perf gate (``repro bench check``).
* **Identity** — both runs' merged profiles serialise to the same
  bytes, at both scales (CRC-compared across the subprocess
  boundary).

Results land in ``reports/streaming.{txt,json}`` plus a repo-root
``BENCH_streaming.json`` for the dashboard and the perf gate.
"""

import json
import os
import subprocess
import sys
import time

from repro.eval.reporting import format_table

from conftest import REPORT_DIR

ROOT = os.path.join(os.path.dirname(__file__), "..")
ROOT_JSON = os.path.join(ROOT, "BENCH_streaming.json")

UARCH = os.environ.get("REPRO_BENCH_STREAM_UARCH", "haswell")
SCALE = float(os.environ.get("REPRO_BENCH_STREAM_SCALE", "0.001"))
GROWTH = 10
RSS_RATIO = 1.2
SPEEDUP_FLOOR = 0.9
REPEATS = int(os.environ.get("REPRO_BENCH_STREAM_REPEATS", "2"))

#: One measured configuration per interpreter: profile the corpus
#: (materialised list or lazy generator), print blocks / wall seconds / peak RSS / the
#: CRC of the canonical profile bytes as JSON on stdout.
_DRIVER = r"""
import json, resource, sys, time, zlib
mode, uarch, scale, seed = (sys.argv[1], sys.argv[2],
                            float(sys.argv[3]), int(sys.argv[4]))
from repro.corpus.dataset import build_corpus
from repro.corpus.streaming import iter_corpus
from repro.parallel import (profile_corpus_sharded,
                            profile_corpus_streamed)
start = time.perf_counter()
if mode == "list":
    corpus = build_corpus(scale=scale, seed=seed)
    profile = profile_corpus_sharded(corpus, uarch, seed=seed, jobs=1)
else:
    profile = profile_corpus_streamed(
        iter_corpus(scale=scale, seed=seed), uarch, seed=seed, jobs=1)
elapsed = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
if sys.platform == "darwin":
    peak //= 1024
payload = json.dumps({"throughputs": profile.throughputs,
                      "funnel": profile.funnel})
print(json.dumps({"blocks": profile.funnel["total"],
                  "seconds": elapsed, "peak_rss_kb": int(peak),
                  "crc": zlib.crc32(payload.encode())}))
"""


def _measure(mode: str, scale: float, seed: int = 0) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _DRIVER, mode, UARCH, repr(scale),
         str(seed)],
        env=env, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


def _best_of(mode: str, scale: float) -> dict:
    runs = [_measure(mode, scale) for _ in range(REPEATS)]
    best = min(runs, key=lambda r: r["seconds"])
    assert len({r["crc"] for r in runs}) == 1, \
        f"{mode} runs disagree with themselves"
    return best


def test_streaming(report):
    big = SCALE * GROWTH
    list_small = _best_of("list", SCALE)
    gen_small = _best_of("generator", SCALE)
    gen_big = _measure("generator", big)
    list_big = _measure("list", big)

    # Identity across the subprocess boundary, both scales.
    assert gen_small["crc"] == list_small["crc"], \
        "generator bytes diverged from the list run at the base scale"
    assert gen_big["crc"] == list_big["crc"], \
        "generator bytes diverged from the list run at the grown scale"

    rss_ratio = gen_big["peak_rss_kb"] / gen_small["peak_rss_kb"]
    speedup = list_small["seconds"] / gen_small["seconds"]

    def row(name, m, gate="-"):
        return (name, m["blocks"], round(m["seconds"], 3),
                round(m["peak_rss_kb"] / 1024, 1), gate)

    rows = [
        row(f"list {SCALE:g}", list_small, "baseline"),
        row(f"generator {SCALE:g}", gen_small,
            f"{speedup:.2f}x (>= {SPEEDUP_FLOOR}x)"),
        row(f"list {big:g}", list_big, "context"),
        row(f"generator {big:g}", gen_big,
            f"rss {rss_ratio:.2f}x (<= {RSS_RATIO}x)"),
    ]
    title = (f"{UARCH}, serial, best of {REPEATS} at scale {SCALE:g}; "
             f"corpus grows {GROWTH}x, generator peak RSS "
             f"{rss_ratio:.2f}x; bytes identical at both scales")
    report("streaming", format_table(
        ["run", "blocks", "seconds", "peak rss MiB", "gate"], rows,
        title=title))

    doc = {"uarch": UARCH, "scale": SCALE, "growth": GROWTH,
           "repeats": REPEATS, "identical_outputs": True,
           "rss_ratio": rss_ratio, "rss_ratio_bound": RSS_RATIO,
           "floor": SPEEDUP_FLOOR,
           "stream": {"blocks": gen_small["blocks"],
                      "batch_s": list_small["seconds"],
                      "stream_s": gen_small["seconds"],
                      "speedup": speedup,
                      "peak_rss_kb": gen_small["peak_rss_kb"],
                      "grown_blocks": gen_big["blocks"],
                      "grown_peak_rss_kb": gen_big["peak_rss_kb"],
                      "grown_batch_peak_rss_kb":
                          list_big["peak_rss_kb"]}}
    for path in (os.path.join(REPORT_DIR, "streaming.json"),
                 ROOT_JSON):
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")

    assert rss_ratio <= RSS_RATIO, (
        f"generator peak RSS grew {rss_ratio:.2f}x on a {GROWTH}x "
        f"corpus — the constant-memory contract regressed "
        f"(epoch resets or the prefetch bound broke)")
    assert speedup >= SPEEDUP_FLOOR, (
        f"generator throughput {speedup:.2f}x of the list run "
        f"< {SPEEDUP_FLOOR}x — the generator source got slow")
