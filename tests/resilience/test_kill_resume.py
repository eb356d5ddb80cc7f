"""SIGKILL mid-run, then ``--resume``: byte-identical output.

The acceptance matrix for crash-safe resume: every microarchitecture,
serial and pooled, and the all-slow-paths configuration (fast path and
block plans disabled).  Each case runs the subprocess driver three
times — an uninterrupted baseline, a run SIGKILLed (whole process
group, so pool workers die too) once at least four records are in the
result store, and a resume over the killed run's store — and compares
the resumed output byte-for-byte against the baseline.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.resilience.journal import parse_journal_line


ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
DRIVER = os.path.join(ROOT, "tests", "resilience", "_resume_driver.py")

#: 16 records x this per-write sleep gives the parent a multi-second
#: window to observe four stored records and kill the group.
STORE_SLEEP = "0.25"
BLOCKS = 16

CASES = [
    pytest.param("ivybridge", 1, {}, id="ivybridge-serial"),
    pytest.param("haswell", 2, {}, id="haswell-pooled"),
    pytest.param("skylake", 2, {}, id="skylake-pooled"),
    pytest.param("haswell", 1,
                 {"REPRO_NO_FASTPATH": "1"},
                 id="haswell-serial-slowpaths"),
    # Streamed legs: the generator is killed mid-stream, and the
    # resumed streamed run must reproduce the baseline bytes from the
    # store alone (serial and pooled, all three uarches).
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


def _records(cache_dir):
    """Records in the result store: the intact lines of its logs.

    A torn tail (a kill mid-append) is not counted: it is no hit for
    the resumed run, which cuts it off before it appends.
    """
    try:
        names = [name for name in os.listdir(cache_dir)
                 if name.endswith(".log")]
    except OSError:
        return 0
    count = 0
    for name in names:
        with open(os.path.join(cache_dir, name), "rb") as fh:
            count += sum(1 for line in fh if line.endswith(b"\n")
                         and parse_journal_line(line) is not None)
    return count


def _kill_mid_run(cache_dir, out, uarch, jobs, extra):
    """Start a slowed run and SIGKILL its process group once at least
    four records are stored.  Returns the stored-record count."""
    proc = _launch(cache_dir, out, uarch, jobs, extra,
                   sleep=STORE_SLEEP)
    deadline = time.time() + 120.0
    try:
        while time.time() < deadline:
            if _records(cache_dir) >= 4:
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
    stored = _records(cache_dir)
    assert stored < BLOCKS, "kill landed after the run finished"
    return stored


@pytest.mark.parametrize("uarch,jobs,extra", CASES)
def test_killed_run_resumes_to_identical_bytes(tmp_path, uarch, jobs,
                                               extra):
    baseline_cache = tmp_path / "baseline-cache"
    killed_cache = tmp_path / "killed-cache"
    baseline_out = tmp_path / "baseline.json"
    resumed_out = tmp_path / "resumed.json"

    baseline = _run(baseline_cache, baseline_out, uarch, jobs, extra)
    stored = _kill_mid_run(killed_cache, tmp_path / "ignored.json",
                           uarch, jobs, extra)

    resumed = _run(killed_cache, resumed_out, uarch, jobs, extra)

    # Byte-identical merged output, not merely equal numbers.
    assert json.dumps(resumed["profile"]) == \
        json.dumps(baseline["profile"])
    # The resume actually read the store: every record the killed run
    # wrote was loaded back (self-checked), only the rest were
    # profiled, and the store now holds every block.
    assert resumed["stats"]["hits"] == stored >= 4
    assert baseline["stats"]["hits"] == 0
    assert resumed["stats"]["written"] == BLOCKS - stored
    assert _records(killed_cache) == BLOCKS
