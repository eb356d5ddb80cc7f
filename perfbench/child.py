"""One Table V pipeline run in a fresh interpreter.

Runs ``Experiment(scale, seed, jobs).validation(uarch)`` for each
microarchitecture on each requested corpus seed, against whatever
result store ``$REPRO_CACHE`` names, and prints one JSON line: the
monotonic time the process became ready (imports done), the monotonic
start and end of each Table V row (a pipeline is its three rows), the
output fingerprint and, with ``--trace``, the per-layer self times.

Usage: ``python3 perfbench/child.py --scale 0.0003 --corpus-seeds 0,1
--jobs 1 [--trace]`` with ``PYTHONPATH`` naming the repo's ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def _quarantined(root: str) -> int:
    """Files the shard store moved aside as corrupt, under ``root``."""
    from repro.parallel.shard_cache import QUARANTINE_DIR
    count = 0
    for dirpath, _dirs, files in os.walk(root):
        if os.path.basename(dirpath) == QUARANTINE_DIR:
            count += len(files)
    return count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--corpus-seeds", required=True)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from repro.eval.pipeline import UARCHES, Experiment
    from repro.profiler.result import FailureReason
    from checks import uarch_fingerprint
    from tracer import Tracer, load_targets
    load_targets()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    ready = time.monotonic()

    runs = []
    for corpus_seed in (int(s) for s in args.corpus_seeds.split(",")):
        exp = Experiment(scale=args.scale, seed=corpus_seed,
                         jobs=args.jobs)
        rows = []
        for uarch in UARCHES:
            row_start = time.monotonic()
            exp.validation(uarch)
            rows.append([row_start, time.monotonic()])
        fingerprint, worker_failed = {}, 0
        for uarch in UARCHES:
            result = exp.validation(uarch)
            funnel = exp.funnel(uarch)
            worker_failed += funnel["dropped"].get(
                FailureReason.WORKER_FAILURE.value, 0)
            fingerprint[uarch] = uarch_fingerprint(
                exp.measured(uarch), funnel,
                {m: (result.overall_error(m),
                     result.weighted_overall_error(m),
                     result.kendall_tau(m))
                 for m in result.model_names})
        runs.append({"corpus_seed": corpus_seed,
                     "measurements": len(exp.corpus) * len(UARCHES),
                     "rows": rows,
                     "worker_failed": worker_failed,
                     "fingerprint": fingerprint})

    print(json.dumps({
        "ready": ready, "runs": runs,
        "quarantined": _quarantined(os.environ["REPRO_CACHE"]),
        "layers": tracer.totals() if tracer is not None else None}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
