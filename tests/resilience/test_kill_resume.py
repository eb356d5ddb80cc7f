"""SIGKILL mid-run, then ``--resume``: byte-identical output.

The acceptance matrix for crash-safe resume: every microarchitecture,
serial and pooled, and the all-slow-paths configuration (fast path and
block plans disabled).  Each case runs the subprocess driver three
times — an uninterrupted baseline, a run SIGKILLed (whole process
group, so pool workers die too) once at least two shards are durably
journaled, and a resume over the killed run's cache+journal — and
compares the resumed output byte-for-byte against the baseline.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.resilience.journal import JOURNAL_NAME, parse_journal_line

ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
DRIVER = os.path.join(ROOT, "tests", "resilience", "_resume_driver.py")

#: 8 shards x this per-store sleep gives the parent a multi-second
#: window to observe two completed shards and kill the group.
STORE_SLEEP = "0.25"
SHARDS = 8

CASES = [
    pytest.param("ivybridge", 1, {}, id="ivybridge-serial"),
    pytest.param("haswell", 2, {}, id="haswell-pooled"),
    pytest.param("skylake", 2, {}, id="skylake-pooled"),
    pytest.param("haswell", 1,
                 {"REPRO_NO_FASTPATH": "1", "REPRO_NO_BLOCKPLAN": "1"},
                 id="haswell-serial-slowpaths"),
    # Streamed legs: the generator is killed mid-stream, and the
    # resumed streamed run must reproduce the baseline bytes from the
    # journal + cache alone (serial and pooled, all three uarches).
    pytest.param("ivybridge", 1, {"RESUME_DRIVER_STREAM": "1"},
                 id="ivybridge-serial-stream"),
    pytest.param("haswell", 2, {"RESUME_DRIVER_STREAM": "1"},
                 id="haswell-pooled-stream"),
    pytest.param("skylake", 2, {"RESUME_DRIVER_STREAM": "1"},
                 id="skylake-pooled-stream"),
]


def _env(extra, sleep="0"):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    env.pop("REPRO_CHAOS", None)
    env["RESUME_DRIVER_SLEEP"] = sleep
    env.update(extra)
    return env


def _launch(cache_dir, out, uarch, jobs, extra, sleep="0"):
    return subprocess.Popen(
        [sys.executable, DRIVER, str(cache_dir), str(out), uarch,
         str(jobs)],
        env=_env(extra, sleep), start_new_session=True)


def _run(cache_dir, out, uarch, jobs, extra):
    proc = _launch(cache_dir, out, uarch, jobs, extra)
    assert proc.wait(timeout=300) == 0
    with open(out) as fh:
        return json.load(fh)


def _shard_files(cache_dir):
    try:
        return [name for name in os.listdir(cache_dir)
                if name.startswith("shard_")
                and name.endswith(".json")]
    except OSError:
        return []


def _journaled_shards(cache_dir):
    """Intact ``shard`` records in the run journal.

    The engine writes a shard's cache file before it appends the
    journal record, and a resume counts only journaled shards, so the
    kill is timed on these records, not on the files.
    """
    try:
        with open(os.path.join(cache_dir, JOURNAL_NAME)) as fh:
            lines = fh.read().splitlines()
    except OSError:
        return 0
    return sum(1 for line in lines
               if (parse_journal_line(line) or {}).get("kind") == "shard")


def _kill_mid_run(cache_dir, out, uarch, jobs, extra):
    """Start a slowed run and SIGKILL its process group once at least
    two shards are durably journaled.  Returns journaled-shard count."""
    proc = _launch(cache_dir, out, uarch, jobs, extra,
                   sleep=STORE_SLEEP)
    deadline = time.time() + 120.0
    try:
        while time.time() < deadline:
            if _journaled_shards(cache_dir) >= 2:
                break
            if proc.poll() is not None:
                pytest.fail("driver finished before it could be "
                            "killed; raise STORE_SLEEP")
            time.sleep(0.02)
        os.killpg(proc.pid, signal.SIGKILL)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(timeout=30)
    completed = _journaled_shards(cache_dir)
    assert completed < SHARDS, "kill landed after the run finished"
    return completed


@pytest.mark.parametrize("uarch,jobs,extra", CASES)
def test_killed_run_resumes_to_identical_bytes(tmp_path, uarch, jobs,
                                               extra):
    baseline_cache = tmp_path / "baseline-cache"
    killed_cache = tmp_path / "killed-cache"
    baseline_out = tmp_path / "baseline.json"
    resumed_out = tmp_path / "resumed.json"

    baseline = _run(baseline_cache, baseline_out, uarch, jobs, extra)
    completed = _kill_mid_run(killed_cache, tmp_path / "ignored.json",
                              uarch, jobs, extra)

    resumed = _run(killed_cache, resumed_out, uarch, jobs, extra)

    # Byte-identical merged output, not merely equal numbers.
    assert json.dumps(resumed["profile"]) == \
        json.dumps(baseline["profile"])
    # The resume actually consumed the journal: every shard the killed
    # run completed was loaded back (checksum-verified), the rest were
    # profiled fresh.
    assert resumed["stats"]["resumed"] >= min(2, completed)
    assert resumed["stats"]["resumed"] + resumed["stats"]["profiled"] \
        == SHARDS
    assert len(_shard_files(killed_cache)) == SHARDS
