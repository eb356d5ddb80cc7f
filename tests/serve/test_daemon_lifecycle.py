"""Daemon lifecycle: SIGTERM drains, SIGKILL replays, bytes match.

The acceptance matrix for the crash-safe service: on every
microarchitecture, serial and pooled, a daemon SIGKILLed after
admitting a request (journaled ``req``, no ``done``) must — on
restart — replay that request to results **byte-identical** to an
uninterrupted daemon's, before the listener even opens.  SIGTERM must
instead drain gracefully: exit 0, remove the socket, and (with
``--trace --heartbeat``) leave a final heartbeat snapshot plus a
``serve.drain_end`` event as the trace tail.

Real subprocesses throughout (``python -m repro serve``), killed by
process group exactly like the batch-pipeline kill/resume suite.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.serve.client import ServeClient, ServeClientError
from repro.serve.core import canonical_results_bytes, request_digest
from repro.serve.requestlog import REQUEST_LOG_NAME, read_done_records

ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))

BLOCKS = ["addq %rax, %rbx",
          "imulq %rcx, %rdx\naddq %rax, %rbx",
          "addq $3, %rax\nimulq $2, %rcx"]

CASES = [
    pytest.param("ivybridge", 1, id="ivybridge-serial"),
    pytest.param("haswell", 2, id="haswell-pooled"),
    pytest.param("skylake", 2, id="skylake-pooled"),
]


def _env(chaos=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    for var in ("REPRO_CHAOS", "REPRO_SERVE_STATE", "REPRO_TRACE"):
        env.pop(var, None)
    if chaos is not None:
        env["REPRO_CHAOS"] = chaos
    return env


class Daemon:
    """One ``repro serve`` subprocess on a Unix socket."""

    def __init__(self, tmp_path, state, name, jobs=1, chaos=None,
                 extra_args=()):
        self.socket_path = str(tmp_path / f"{name}.sock")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--socket", self.socket_path, "--state", str(state),
             "--jobs", str(jobs), *extra_args],
            env=_env(chaos), start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        self.client = ServeClient(socket_path=self.socket_path,
                                  timeout=60.0)
        try:
            self.client.wait_ready(deadline_s=60.0)
        except ServeClientError:
            self.kill()
            raise

    def sigterm(self, timeout=60.0) -> int:
        self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=timeout)

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait(timeout=30)


def _journal_has_req(state) -> bool:
    try:
        with open(os.path.join(str(state), REQUEST_LOG_NAME)) as fh:
            return '"kind": "req"' in fh.read()
    except OSError:
        return False


@pytest.mark.parametrize("uarch,jobs", CASES)
def test_sigkill_restart_replays_identical_bytes(tmp_path, uarch,
                                                 jobs):
    digest = request_digest(uarch, 0, BLOCKS)

    # 1. Baseline: an uninterrupted daemon answers the request.
    baseline_state = tmp_path / "baseline"
    daemon = Daemon(tmp_path, baseline_state, "baseline", jobs=jobs)
    try:
        response = daemon.client.profile(BLOCKS, uarch=uarch)
        assert response.status == 200
        assert response.body["request"] == digest
        baseline = canonical_results_bytes(response.body["results"])
    finally:
        assert daemon.sigterm() == 0

    # 2. Crash: the three blocks fork a two-worker pool whose workers
    #    hang, so the admitted (and durably journaled) request is
    #    still unanswered when the whole group is SIGKILLed.
    crash_state = tmp_path / "crash"
    daemon = Daemon(tmp_path, crash_state, "crash", jobs=2,
                    chaos="0:worker_hang=1,hang_s=120")
    try:
        errors = []

        def _doomed_request():
            try:
                daemon.client.profile(BLOCKS, uarch=uarch)
            except ServeClientError as exc:
                errors.append(exc)

        sender = threading.Thread(target=_doomed_request)
        sender.start()
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if _journal_has_req(crash_state):
                break
            time.sleep(0.02)
        else:
            pytest.fail("request never reached the journal")
    finally:
        daemon.kill()
    sender.join(timeout=30)
    assert errors, "client should have lost its connection"
    # The dead daemon journaled the request but never answered it.
    journal_path = os.path.join(str(crash_state), REQUEST_LOG_NAME)
    assert digest not in dict(read_done_records(journal_path))

    # 3. Restart over the crash state: recovery replays before the
    #    listener opens, so readiness implies the work is journaled.
    daemon = Daemon(tmp_path, crash_state, "restart", jobs=jobs)
    try:
        replayed = dict(read_done_records(journal_path))
        assert canonical_results_bytes(replayed[digest]) == baseline
        # A re-sent request answers from the journal memo with the
        # same bytes and no engine work.
        again = daemon.client.profile(BLOCKS, uarch=uarch)
        assert again.status == 200
        assert again.body["cached"] is True
        assert canonical_results_bytes(again.body["results"]) == \
            baseline
    finally:
        assert daemon.sigterm() == 0


@pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "pooled"])
def test_sigterm_drains_gracefully(tmp_path, jobs):
    state = tmp_path / "state"
    daemon = Daemon(tmp_path, state, "drain", jobs=jobs)
    try:
        assert daemon.client.profile(BLOCKS).status == 200
    finally:
        assert daemon.sigterm() == 0
    # The drain removed the socket and left no pending journal work.
    assert not os.path.exists(daemon.socket_path)
    journal_path = os.path.join(str(state), REQUEST_LOG_NAME)
    assert request_digest("haswell", 0, BLOCKS) in \
        dict(read_done_records(journal_path))


def test_sigterm_drains_with_a_kept_connection_open(tmp_path):
    state = tmp_path / "state"
    daemon = Daemon(tmp_path, state, "kept")
    client = daemon.client
    try:
        assert client.profile(BLOCKS[:1]).status == 200
        stats = client.stats().body
        # wait_ready's health, the profile and the stats share one
        # connection, and the client still holds it.
        assert stats["counters"]["serve.connections"] == 1
        assert len(client._idle) == 1
    finally:
        started = time.monotonic()
        assert daemon.sigterm() == 0
    # The drain closed the idle connection at once instead of waiting
    # out its deadline (REPRO_SERVE_DRAIN_S, 10 s by default).
    assert time.monotonic() - started < 5.0
    assert not os.path.exists(daemon.socket_path)
    client.close()


def test_sigterm_leaves_final_heartbeat_in_trace(tmp_path):
    trace = tmp_path / "trace.ndjson"
    state = tmp_path / "state"
    # A long interval guarantees the only beats are start-up timer
    # ticks (none) plus the final stop() snapshot.
    daemon = Daemon(tmp_path, state, "hb",
                    extra_args=("--trace", str(trace),
                                "--heartbeat", "600"))
    try:
        assert daemon.client.profile(BLOCKS).status == 200
    finally:
        assert daemon.sigterm() == 0
    records = [json.loads(line)
               for line in trace.read_text().splitlines() if line]
    beats = [r for r in records if r.get("name") == "heartbeat"]
    assert beats, "no heartbeat in the trace"
    assert beats[-1]["final"] is True
    names = [r.get("name") for r in records]
    assert "serve.drain_begin" in names
    assert "serve.drain_end" in names
    # The final beat is emitted after the drain completes: terminal
    # state, not the last timer tick.
    assert names.index("serve.drain_end") < \
        len(names) - 1 - names[::-1].index("heartbeat")
