"""Subprocess driver for the SIGKILL -> resume determinism tests.

Run as a script (``python tests/resilience/_resume_driver.py
<cache_dir> <out_json> <uarch> <jobs>``): profiles a fixed small
corpus through the sharded engine with the always-on run journal,
then writes the merged profile as JSON.

The parent test launches this twice against the same cache directory:
once to be SIGKILLed mid-run (``RESUME_DRIVER_SLEEP`` stretches each
shard store so the kill reliably lands mid-flight), once to resume.
The resumed run's output must be byte-identical to an uninterrupted
run — that comparison happens in the test, on the files this writes.
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
                                shard_corpus)
    from repro.resilience import JOURNAL_NAME, RunJournal

    corpus = build_application("llvm", count=16, seed=3)
    shards = shard_corpus(corpus, 2)

    class SlowStoreCache(ShardCache):
        """Stretch the completion timeline so a kill lands mid-run."""

        def store(self, shard, profile):
            if store_sleep:
                time.sleep(store_sleep)
            return super().store(shard, profile)

    cache = SlowStoreCache(cache_dir)
    journal = RunJournal(os.path.join(cache_dir, JOURNAL_NAME))
    stats = {}
    if os.environ.get("RESUME_DRIVER_STREAM") == "1":
        # The streamed leg: same records, but fed as a generator the
        # engine has never seen in full — journal identity is pinned
        # to a fixed spec tag instead of a corpus digest.
        from repro.parallel import profile_corpus_streamed
        profile = profile_corpus_streamed(
            iter(corpus.records), uarch, seed=0, jobs=jobs,
            shard_size=2, cache=cache, journal=journal,
            journal_meta={"uarch": uarch, "seed": 0,
                          "stream": "kill-resume-driver"},
            stats=stats)
    else:
        profile = profile_corpus_sharded(corpus, uarch, seed=0,
                                         jobs=jobs, shards=shards,
                                         cache=cache, journal=journal,
                                         stats=stats)
    payload = {"throughputs": profile.throughputs,
               "funnel": profile.funnel,
               "info": profile.info}
    with open(out_path, "w") as fh:
        json.dump({"profile": payload, "stats": stats}, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
