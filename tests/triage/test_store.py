"""On-disk triage state: journal durability, artifact integrity."""

import json
import os
import zlib

from repro.profiler.harness import ProfilerConfig
from repro.triage import store as storemod
from repro.triage import surrogate
from repro.triage.store import TriageStore

from .test_surrogate import _rows


def _store(tmp_path):
    return TriageStore(str(tmp_path / "triage_haswell_0_deadbeef"))


def _row(digest, throughput=2.5):
    return {"digest": digest, "text": "add %rax, %rbx",
            "throughput": throughput, "measurements": [],
            "pages_mapped": 1, "num_faults": 0,
            "subnormal_events": 0, "extra": {}}


class TestDigests:
    def test_block_digest_stable(self):
        assert storemod.block_digest("add %rax, %rbx") \
            == f"{zlib.crc32(b'add %rax, %rbx'):08x}"

    def test_fingerprint_covers_switchboard(self):
        """Same profiler config, different switch state -> different
        store: stale informational extras can never cross modes."""
        cfg = ProfilerConfig()
        base = storemod.config_fingerprint(cfg, fastpath=True,
                                           blockplan=True)
        assert base != storemod.config_fingerprint(
            cfg, fastpath=False, blockplan=True)
        assert base != storemod.config_fingerprint(
            cfg, fastpath=True, blockplan=False)
        assert base != storemod.config_fingerprint(
            ProfilerConfig(base_factor=100), fastpath=True,
            blockplan=True)
        assert base == storemod.config_fingerprint(
            ProfilerConfig(), fastpath=True, blockplan=True)

    def test_cache_root_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        assert storemod.cache_root() == str(tmp_path)
        assert storemod.store_dir("haswell", 7, "abcd") \
            == str(tmp_path / "triage_haswell_7_abcd")


class TestJournal:
    def test_append_reload_roundtrip(self, tmp_path):
        st = _store(tmp_path)
        assert st.append([_row("aa"), _row("bb", 3.0)]) == 2
        fresh = TriageStore(st.directory)
        assert set(fresh.rows) == {"aa", "bb"}
        assert fresh.rows["bb"]["throughput"] == 3.0
        assert fresh.torn_rows == 0

    def test_last_intact_occurrence_wins(self, tmp_path):
        st = _store(tmp_path)
        st.append([_row("aa", 1.0)])
        st.append([_row("aa", 9.0)])
        fresh = TriageStore(st.directory)
        assert fresh.rows["aa"]["throughput"] == 9.0

    def test_torn_line_dropped_not_fatal(self, tmp_path):
        """A crash- or interleave-torn line loses one row, nothing
        else — its block simply re-simulates next run."""
        st = _store(tmp_path)
        st.append([_row("aa"), _row("bb")])
        with open(st.blocks_path) as fh:
            lines = fh.read().splitlines()
        lines[0] = lines[0][: len(lines[0]) // 2]
        with open(st.blocks_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        fresh = TriageStore(st.directory)
        assert set(fresh.rows) == {"bb"}
        assert fresh.torn_rows == 1

    def test_missing_journal_is_empty(self, tmp_path):
        st = _store(tmp_path)
        assert st.rows == {} and st.torn_rows == 0

    def test_append_nothing(self, tmp_path):
        st = _store(tmp_path)
        assert st.append([]) == 0
        assert not os.path.exists(st.blocks_path)


class TestWeights:
    def test_publish_and_load(self, tmp_path):
        st = _store(tmp_path)
        model = surrogate.fit_rows(_rows(count=6))
        name = st.publish(model)
        assert name is not None and name.startswith("weights_")
        fresh = TriageStore(st.directory)
        loaded = fresh.surrogate()
        assert loaded is not None
        assert loaded.census == model.census
        phi = surrogate.featurize(_rows(count=1)[0][1])
        assert loaded.predict(phi) == model.predict(phi)

    def test_republish_same_model_is_stable(self, tmp_path):
        st = _store(tmp_path)
        model = surrogate.fit_rows(_rows(count=6))
        assert st.publish(model) == st.publish(model)
        artifacts = [n for n in os.listdir(st.directory)
                     if n.startswith("weights_")]
        assert len(artifacts) == 1

    def test_absent_head_loads_none(self, tmp_path):
        assert _store(tmp_path).surrogate() is None

    def test_corrupt_artifact_rejected(self, tmp_path):
        st = _store(tmp_path)
        name = st.publish(surrogate.fit_rows(_rows(count=6)))
        path = os.path.join(st.directory, name)
        with open(path) as fh:
            wrapper = json.load(fh)
        wrapper["doc"]["intercept"] = 123.0  # payload no longer
        with open(path, "w") as fh:          # matches its CRC
            json.dump(wrapper, fh)
        assert TriageStore(st.directory).surrogate() is None

    def test_hostile_head_name_rejected(self, tmp_path):
        """HEAD is data read from disk — it must not become a path
        traversal primitive."""
        st = _store(tmp_path)
        os.makedirs(st.directory, exist_ok=True)
        for name in ("../outside.json", ".hidden", ""):
            with open(os.path.join(st.directory, "HEAD"), "w") as fh:
                fh.write(name + "\n")
            assert TriageStore(st.directory).surrogate() is None
