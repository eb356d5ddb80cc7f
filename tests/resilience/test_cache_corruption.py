"""Corrupt store records must quarantine, never crash.

Property tests feed truncated, garbage, and wrong-schema payloads to
the result store's loader (``ShardCache.load``) and assert one
contract: the load reads as a miss, the offending record lands in
``quarantine/`` (or raises under ``--strict``), and a subsequent run
re-profiles to a funnel that reconciles exactly.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

from repro import telemetry
from repro.corpus.dataset import build_application
from repro.errors import StrictModeViolation
from repro.parallel import ShardCache, profile_corpus_sharded
from repro.resilience import journal_line, policy

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - environment-dependent
    HAVE_HYPOTHESIS = False

needs_hypothesis = pytest.mark.skipif(not HAVE_HYPOTHESIS,
                                      reason="hypothesis not installed")

#: Hypothesis profile shared by the corruption properties: corruption
#: bytes are cheap to generate, but the store fixture is module-scoped
#: (profiling once is the expensive part), so the function-scoped
#: autouse isolation fixture triggers a health check we silence.
CORRUPTION_SETTINGS = dict(max_examples=25, deadline=None)
if HAVE_HYPOTHESIS:
    CORRUPTION_SETTINGS["suppress_health_check"] = \
        [HealthCheck.function_scoped_fixture]


@pytest.fixture(scope="module")
def corpus():
    return build_application("llvm", count=8, seed=3)


@pytest.fixture(scope="module")
def texts(corpus):
    return [record.block.text() for record in corpus]


@pytest.fixture(scope="module")
def seeded(corpus, tmp_path_factory):
    """A fully populated store directory plus its clean profile."""
    directory = str(tmp_path_factory.mktemp("seed-cache"))
    cache = ShardCache(directory)
    profile = profile_corpus_sharded(corpus, "haswell", seed=0, jobs=1,
                                     shard_size=4, cache=cache)
    return directory, profile


def _fresh_cache(template: str) -> ShardCache:
    """Copy the seeded store so each (hypothesis) example corrupts
    its own private directory."""
    directory = tempfile.mkdtemp(prefix="repro-corrupt-")
    for name in os.listdir(template):
        if name.endswith(".json"):
            shutil.copy(os.path.join(template, name),
                        os.path.join(directory, name))
    return ShardCache(directory)


def _assert_quarantined(cache: ShardCache, path: str) -> None:
    assert not os.path.exists(path)
    assert os.path.basename(path) in cache.quarantined_files()


# ---------------------------------------------------------------------------
# Record loader
# ---------------------------------------------------------------------------

@needs_hypothesis
class TestV3Corruption:
    @given(cut=st.floats(min_value=0.0, max_value=0.98))
    @settings(**CORRUPTION_SETTINGS)
    def test_truncation_reads_as_quarantined_miss(self, seeded, texts,
                                                  cut):
        cache = _fresh_cache(seeded[0])
        path = cache.path_for("haswell", texts[0])
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[:int(len(data) * cut)])
        assert cache.load("haswell", texts[0]) is None
        _assert_quarantined(cache, path)

    @given(noise=st.binary(max_size=80))
    @settings(**CORRUPTION_SETTINGS)
    def test_garbage_reads_as_quarantined_miss(self, seeded, texts,
                                               noise):
        cache = _fresh_cache(seeded[0])
        path = cache.path_for("haswell", texts[1])
        with open(path, "wb") as fh:
            fh.write(noise)
        assert cache.load("haswell", texts[1]) is None
        _assert_quarantined(cache, path)

    @given(mutation=st.sampled_from([
        "wrong_version", "wrong_uarch", "wrong_text", "not_a_dict",
        "entry_missing", "entry_empty", "entry_both",
    ]))
    @settings(**CORRUPTION_SETTINGS)
    def test_wrong_schema_reads_as_quarantined_miss(self, seeded,
                                                    texts, mutation):
        """Well-formed, self-check intact, and still not this block's
        record: the loader's own checks catch what the CRC cannot."""
        cache = _fresh_cache(seeded[0])
        path = cache.path_for("haswell", texts[0])
        with open(path) as fh:
            record = json.load(fh)["rec"]
        if mutation == "wrong_version":
            record["version"] = 2
        elif mutation == "wrong_uarch":
            record["uarch"] = "skylake"
        elif mutation == "wrong_text":
            record["text"] = texts[1]
        elif mutation == "not_a_dict":
            record = [record]
        elif mutation == "entry_missing":
            del record["entry"]
        elif mutation == "entry_empty":
            record["entry"] = {}
        elif mutation == "entry_both":
            record["entry"] = {"throughput": 1.0, "reason": "sigfpe"}
        with open(path, "w") as fh:
            fh.write(journal_line(record))
        assert cache.load("haswell", texts[0]) is None
        _assert_quarantined(cache, path)


class TestV3Recovery:
    def test_corruption_reprofiles_to_identical_bytes(self, seeded,
                                                      corpus, texts):
        directory, clean = seeded
        cache = _fresh_cache(directory)
        first = cache.path_for("haswell", texts[0])
        with open(first, "r+") as fh:
            fh.truncate(10)
        with open(cache.path_for("haswell", texts[5]), "w") as fh:
            fh.write("\x00 garbage {{{")
        profile = profile_corpus_sharded(corpus, "haswell", seed=0,
                                         jobs=1, shard_size=4,
                                         cache=cache)
        assert json.dumps(profile.throughputs) == \
            json.dumps(clean.throughputs)
        assert profile.funnel == clean.funnel
        funnel = profile.funnel
        assert funnel["total"] == len(corpus)
        assert funnel["accepted"] + sum(funnel["dropped"].values()) \
            == funnel["total"]
        assert len(cache.quarantined_files()) == 2
        # The store healed: both records were re-written.
        assert all(("haswell", text) in cache for text in texts)

    def test_strict_mode_raises_instead(self, seeded, texts):
        cache = _fresh_cache(seeded[0])
        path = cache.path_for("haswell", texts[0])
        with open(path, "w") as fh:
            fh.write("not json")
        with policy.forced_strict(True):
            with pytest.raises(StrictModeViolation):
                cache.load("haswell", texts[0])
        assert os.path.exists(path)  # strict mode does not move it

    def test_record_crc_mismatch_quarantines(self, seeded, texts):
        cache = _fresh_cache(seeded[0])
        path = cache.path_for("haswell", texts[0])
        assert cache.load("haswell", texts[0]) is not None
        # Corrupt the payload in a way that keeps the JSON
        # structurally valid — only the record's CRC can catch this.
        with open(path) as fh:
            doc = json.load(fh)
        doc["rec"]["entry"] = {"throughput": 1234.5}
        with open(path, "w") as fh:
            json.dump(doc, fh)
        telemetry.enable()
        assert cache.load("haswell", texts[0]) is None
        _assert_quarantined(cache, path)
        counters = telemetry.registry().snapshot()["counters"]
        assert counters["resilience.quarantined.cache_files"] == 1


# ---------------------------------------------------------------------------
# Stale temp sweep (crash debris)
# ---------------------------------------------------------------------------

class TestStaleTempSweep:
    def test_dead_writers_are_swept_live_ones_kept(self, tmp_path):
        telemetry.enable()
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        dead_pid = proc.pid  # reaped: guaranteed-dead pid
        directory = tmp_path / "cache"
        directory.mkdir()
        (directory / f"haswell-abc.json.{dead_pid}.tmp").write_text("x")
        (directory / "noise.tmp").write_text("x")  # unparsable name
        live = (directory / f"haswell-def.json.{os.getppid()}.tmp")
        live.write_text("x")
        ShardCache(str(directory))
        names = set(os.listdir(directory))
        assert f"haswell-abc.json.{dead_pid}.tmp" not in names
        assert "noise.tmp" not in names
        assert live.name in names  # another live writer's temp
        counters = telemetry.registry().snapshot()["counters"]
        assert counters["resilience.stale_temps_swept"] == 2

    def test_own_previous_incarnation_is_swept(self, tmp_path):
        directory = tmp_path / "cache"
        directory.mkdir()
        mine = directory / f"haswell-abc.json.{os.getpid()}.tmp"
        mine.write_text("x")
        ShardCache(str(directory))
        assert not mine.exists()
