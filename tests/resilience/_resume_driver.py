"""Subprocess driver for the SIGKILL -> resume determinism tests.

Run as a script (``python tests/resilience/_resume_driver.py
<cache_dir> <out_json> <uarch> <jobs>``): profiles a fixed small
corpus through the sharded engine against the result store in
``cache_dir``, then writes the merged profile as JSON.

The parent test launches this twice against the same store: once to
be SIGKILLed mid-run (``RESUME_DRIVER_SLEEP`` stretches each record
write so the kill reliably lands mid-flight), once to resume.  The
resumed run's output must be byte-identical to an uninterrupted run —
that comparison happens in the test, on the files this writes.
"""

import json
import os
import sys
import time


def main(argv):
    cache_dir, out_path, uarch, jobs = \
        argv[0], argv[1], argv[2], int(argv[3])
    store_sleep = float(os.environ.get("RESUME_DRIVER_SLEEP", "0"))

    from repro.corpus.dataset import build_application
    from repro.parallel import (ShardCache, profile_corpus_sharded,
                                profile_corpus_streamed)

    corpus = build_application("llvm", count=16, seed=3)

    class SlowStoreCache(ShardCache):
        """Stretch the completion timeline so a kill lands mid-run."""

        def store(self, uarch, text, entry):
            if store_sleep:
                time.sleep(store_sleep)
            return super().store(uarch, text, entry)

    cache = SlowStoreCache(cache_dir)
    stats = {}
    if os.environ.get("RESUME_DRIVER_STREAM") == "1":
        # The streamed leg: same records, but fed as a generator the
        # engine has never seen in full.
        profile = profile_corpus_streamed(
            iter(corpus.records), uarch, seed=0, jobs=jobs,
            shard_size=2, cache=cache, stats=stats)
    else:
        profile = profile_corpus_sharded(corpus, uarch, seed=0,
                                         jobs=jobs, shard_size=2,
                                         cache=cache, stats=stats)
    payload = {"throughputs": profile.throughputs,
               "funnel": profile.funnel,
               "info": profile.info}
    with open(out_path, "w") as fh:
        json.dump({"profile": payload, "stats": stats}, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
