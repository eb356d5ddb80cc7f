"""Corrupt store records must quarantine, never crash.

Property tests put truncated, garbage, and wrong-schema lines in place
of a record's line in the result store's log and assert one contract:
the load reads as a miss, a copy of the offending line lands in
``quarantine/`` (or the load raises under ``--strict``), and a
subsequent run re-profiles to a funnel that reconciles exactly.
"""

import contextlib
import json
import os
import shutil
import tempfile
from typing import Iterator

import pytest

from repro import telemetry
from repro.corpus.dataset import build_application
from repro.errors import StrictModeViolation
from repro.parallel import ShardCache, profile_corpus_sharded
from repro.resilience import journal_line, parse_journal_line, policy

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


@contextlib.contextmanager
def _fresh_cache(template: str) -> Iterator[ShardCache]:
    """Copy the seeded store so each (hypothesis) example corrupts
    its own private directory, removed when the example ends."""
    with tempfile.TemporaryDirectory(prefix="repro-corrupt-") as directory:
        for name in os.listdir(template):
            if name.endswith(".log"):
                shutil.copy(os.path.join(template, name),
                            os.path.join(directory, name))
        yield ShardCache(directory)


def _line(cache: ShardCache, text: str) -> bytes:
    """The haswell line holding the record of ``text``."""
    with open(cache.log_path("haswell"), "rb") as fh:
        (line,) = [line for line in fh
                   if (parse_journal_line(line) or {}).get("text")
                   == text]
    return line


def _replace_line(cache: ShardCache, text: str, new: bytes) -> None:
    """Put ``new`` in place of the haswell line of ``text``."""
    old = _line(cache, text)
    with open(cache.log_path("haswell"), "rb") as fh:
        data = fh.read()
    with open(cache.log_path("haswell"), "wb") as fh:
        fh.write(data.replace(old, new + b"\n"))


def _assert_quarantined(cache: ShardCache, text: str) -> None:
    assert ("haswell", text) not in cache
    assert cache.quarantined_files()


# ---------------------------------------------------------------------------
# Record loader
# ---------------------------------------------------------------------------

@needs_hypothesis
class TestV3Corruption:
    @given(cut=st.floats(min_value=0.0, max_value=0.98))
    @settings(**CORRUPTION_SETTINGS)
    def test_truncation_reads_as_quarantined_miss(self, seeded, texts,
                                                  cut):
        with _fresh_cache(seeded[0]) as cache:
            data = _line(cache, texts[0])[:-1]   # the record, no newline
            _replace_line(cache, texts[0], data[:int(len(data) * cut)])
            assert cache.load("haswell", texts[0]) is None
            _assert_quarantined(cache, texts[0])

    @given(noise=st.binary(max_size=80))
    @settings(**CORRUPTION_SETTINGS)
    def test_garbage_reads_as_quarantined_miss(self, seeded, texts,
                                               noise):
        with _fresh_cache(seeded[0]) as cache:
            _replace_line(cache, texts[1], noise)
            assert cache.load("haswell", texts[1]) is None
            _assert_quarantined(cache, texts[1])

    @given(mutation=st.sampled_from([
        "wrong_version", "wrong_uarch", "not_a_dict",
        "entry_missing", "entry_empty", "entry_both",
    ]))
    @settings(**CORRUPTION_SETTINGS)
    def test_wrong_schema_reads_as_quarantined_miss(self, seeded,
                                                    texts, mutation):
        """Well-formed, self-check intact, and still not this block's
        record: the loader's own checks catch what the CRC cannot."""
        with _fresh_cache(seeded[0]) as cache:
            record = parse_journal_line(_line(cache, texts[0]))
            if mutation == "wrong_version":
                record["version"] = 2
            elif mutation == "wrong_uarch":
                record["uarch"] = "skylake"
            elif mutation == "not_a_dict":
                record = [record]
            elif mutation == "entry_missing":
                del record["entry"]
            elif mutation == "entry_empty":
                record["entry"] = {}
            elif mutation == "entry_both":
                record["entry"] = {"throughput": 1.0, "reason": "sigfpe"}
            _replace_line(cache, texts[0], journal_line(record).encode())
            assert cache.load("haswell", texts[0]) is None
            _assert_quarantined(cache, texts[0])

    def test_record_under_another_text_serves_only_that_text(
            self, seeded, corpus, texts):
        """A well-formed line keyed by another block's text is that
        text's record: the original text misses and re-profiles."""
        directory, clean = seeded
        with _fresh_cache(directory) as cache:
            own = parse_journal_line(_line(cache, texts[1]))["entry"]
            record = parse_journal_line(_line(cache, texts[0]))
            record["text"] = texts[1]
            _replace_line(cache, texts[0], journal_line(record).encode())
            assert cache.load("haswell", texts[0]) is None
            # texts[1]'s own line comes later in the log, and the last good
            # line wins.
            assert cache.load("haswell", texts[1]) == own
            assert cache.quarantined_files() == []
            stats = {}
            profile = profile_corpus_sharded(corpus, "haswell", seed=0,
                                             jobs=1, shard_size=4,
                                             cache=cache, stats=stats)
            assert json.dumps(profile.throughputs) == \
                json.dumps(clean.throughputs)
            assert profile.funnel == clean.funnel
            assert stats["hits"] == len(corpus) - 1


class TestV3Recovery:
    def test_corruption_reprofiles_to_identical_bytes(self, seeded,
                                                      corpus, texts):
        directory, clean = seeded
        with _fresh_cache(directory) as cache:
            _replace_line(cache, texts[0], _line(cache, texts[0])[:10])
            _replace_line(cache, texts[5], b"\x00 garbage {{{")
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
        with _fresh_cache(seeded[0]) as cache:
            _replace_line(cache, texts[0], b"not json")
            with policy.forced_strict(True):
                with pytest.raises(StrictModeViolation):
                    cache.load("haswell", texts[0])
            # Strict mode copies nothing, and the log keeps the line.
            assert cache.quarantined_files() == []
            with open(cache.log_path("haswell"), "rb") as fh:
                assert b"not json\n" in fh.read()

    def test_record_crc_mismatch_quarantines(self, seeded, texts):
        with _fresh_cache(seeded[0]) as cache:
            assert cache.load("haswell", texts[0]) is not None
            # Corrupt the payload in a way that keeps the JSON
            # structurally valid — only the record's CRC can catch this.
            doc = json.loads(_line(cache, texts[0]))
            doc["rec"]["entry"] = {"throughput": 1234.5}
            _replace_line(cache, texts[0], json.dumps(doc).encode())
            cache = ShardCache(cache.directory)  # the log has moved
            telemetry.enable()
            assert cache.load("haswell", texts[0]) is None
            _assert_quarantined(cache, texts[0])
            counters = telemetry.registry().snapshot()["counters"]
            assert counters["resilience.quarantined.cache_files"] == 1
