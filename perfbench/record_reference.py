"""Record ``perfbench/reference.json`` from the current sources.

Usage, from the root of the repository::

    python3 perfbench/record_reference.py

Re-record only for a change that is meant to alter the pipeline's
output, and say so in that change: the benchmark's output check
compares every run with this file exactly.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run as bench

#: serve-mixed draws its blocks from this corpus, profiled on UARCH
#: with measurement seed 0 (the daemon's default).
POOL_SCALE = 0.0005
POOL_SEED = 2
UARCH = "haswell"


def serve_reference() -> dict:
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]   # before repro reads them at import
    reference = {"pool_scale": POOL_SCALE, "pool_seed": POOL_SEED,
                 "uarch": UARCH}
    texts = bench.serve_pool(reference)
    from repro.profiler.harness import BasicBlockProfiler
    from repro.uarch.machine import Machine
    results = BasicBlockProfiler(Machine(UARCH, seed=0)).profile_many(texts)
    blocks = {}
    for text, result in zip(texts, results):
        if result.ok and result.throughput > 0:
            entry = repr(result.throughput)
        else:   # the reason repro.serve reports for a dropped block
            entry = "dropped:" + ("zero_throughput" if result.failure is None
                                  else result.failure.value)
        blocks[bench.serveload.block_key(text)] = entry
    if len(blocks) != len(texts):
        raise SystemExit("block-key collision in the serve pool")
    return {**reference, "blocks": blocks}


def main() -> int:
    os.makedirs(bench.RUNS_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="record-", dir=bench.RUNS_DIR)
    try:
        run = bench.Run(seed=0, seconds=0.0, trace=False, reference={},
                        scratch=scratch)
        doc = bench.run_child(run, run.mkdir("store"), bench.SUITE,
                              jobs=1, traced=False)
        table5 = {str(p["corpus_seed"]): p["fingerprint"]
                  for p in doc["runs"]}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    env = {k: v for k, v in run.env_used.items() if k != "REPRO_CACHE"}
    reference = {"scale": bench.SCALE, "env": env,
                 "table5": table5, "serve": serve_reference()}
    with open(bench.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {bench.REFERENCE}: {len(table5)} corpora, "
          f"{len(reference['serve']['blocks'])} serve blocks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
