"""Tests for the benchmark's own machinery.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import probe  # noqa: E402
import run as bench  # noqa: E402
import serveload  # noqa: E402
from tracer import Tracer  # noqa: E402


class FakeClock:
    """Advances one tick per reading, so every span has a known length."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

def _nested(tracer: Tracer):
    fns = {}

    def leaf():
        return "leaf"

    def inner():
        fns["leaf"]()
        fns["leaf"]()
        return None

    def outer():
        fns["inner"]()
        fns["leaf"]()
        return 1

    fns.update(leaf=tracer.wrap(leaf, "leaf"),
               inner=tracer.wrap(inner, "inner"),
               outer=tracer.wrap(outer, "outer"))
    return fns


def test_nested_self_times_sum_to_wrapped_wall_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    fns = _nested(tracer)
    fns["outer"]()
    # Five calls, two clock reads each: the outer span covers all ten.
    assert clock.now == 10.0
    wall = clock.now - 1.0
    totals = tracer.totals()
    assert sum(t["self_s"] for t in totals.values()) == wall
    assert {k: t["calls"] for k, t in totals.items()} == \
        {"outer": 1, "inner": 1, "leaf": 3}
    # Each call reads the clock twice; children cover inner ticks.
    assert totals["leaf"]["self_s"] == 3.0
    assert totals["inner"]["returned"] == 0
    assert totals["outer"]["returned"] == 1


def test_self_time_survives_exceptions_and_threads():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    wrapped = tracer.wrap(boom, "boom")
    outer = tracer.wrap(lambda: [pytest.raises(ValueError, wrapped)
                                 for _ in range(3)], "outer")
    threads = [threading.Thread(target=outer) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    totals = tracer.totals()
    assert totals["boom"]["calls"] == 12
    assert totals["outer"]["calls"] == 4
    assert all(t["self_s"] >= 0 for t in totals.values())


def test_schedule_time_splits_by_caller():
    tracer = Tracer(clock=FakeClock())
    from tracer import _schedule_label
    schedule = tracer.wrap(lambda: None, _schedule_label)
    tracer.wrap(schedule, "models.iaca.predict")()
    tracer.wrap(schedule, "profiler.profile")()
    assert set(tracer.totals()) == {
        "models.iaca.predict", "profiler.profile",
        "uarch.schedule.models", "uarch.schedule.profiler"}


def test_install_rebinds_aliases_and_uninstall_restores():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import repro.eval.pipeline as pipeline
    import repro.parallel.engine as engine
    original = engine.profile_corpus_sharded
    assert pipeline.profile_corpus_sharded is original
    tracer = Tracer()
    tracer.install()
    try:
        assert engine.profile_corpus_sharded is not original
        assert pipeline.profile_corpus_sharded is \
            engine.profile_corpus_sharded
    finally:
        tracer.uninstall()
    assert engine.profile_corpus_sharded is original
    assert pipeline.profile_corpus_sharded is original


# ---------------------------------------------------------------------------
# Percentile rule
# ---------------------------------------------------------------------------

def test_p99_needs_ten_samples_beyond_it():
    values = list(range(1, 1001))
    assert checks.tail_percentile(values, 0.99) == 990
    with pytest.raises(ValueError, match="need 10"):
        checks.tail_percentile(values[:-1], 0.99)
    with pytest.raises(ValueError):
        checks.tail_percentile(list(range(100)), 0.99)


# ---------------------------------------------------------------------------
# Output check
# ---------------------------------------------------------------------------

def _fingerprints(throughputs):
    funnel = {"total": 4, "accepted": 3, "dropped": {"segfault": 1}}
    table = {"IACA": (0.1, 0.2, 0.8), "llvm-mca": (0.3, 0.2, None)}
    return {"haswell": checks.uarch_fingerprint(throughputs, funnel,
                                                table)}


def test_output_check_fails_on_one_flipped_throughput():
    measured = {3: 1.5, 1: 2.25, 2: 4.0}
    reference = _fingerprints(measured)
    assert checks.compare(_fingerprints(dict(measured)), reference) == []
    flipped = {**measured, 2: 4.25}
    problems = checks.compare(_fingerprints(flipped), reference)
    assert len(problems) == 1 and "crc" in problems[0]


def test_output_check_fails_on_table5_row_or_missing_uarch():
    reference = _fingerprints({1: 1.0})
    changed = json.loads(json.dumps(reference))
    changed["haswell"]["table5"]["IACA"][0] = 0.11
    assert "IACA" in checks.compare(changed, reference)[0]
    assert "missing" in checks.compare({}, reference)[0]


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def test_env_scrub_drops_planted_repro_variables():
    base = {"PATH": "/bin", "REPRO_NO_FASTPATH": "1", "REPRO_JOBS": "8",
            "PYTHONHASHSEED": "random"}
    env = checks.scrub_env(base, {"REPRO_CACHE": "store"})
    assert "REPRO_NO_FASTPATH" not in env and "REPRO_JOBS" not in env
    assert env["REPRO_CACHE"] == "store" and env["PATH"] == "/bin"
    assert env["PYTHONHASHSEED"] == "0"
    assert "PATH" not in checks.recorded_env(env)


def test_env_scrub_covers_every_registered_variable():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.envvars import REGISTRY
    planted = {v.name: "1" for v in REGISTRY}
    assert not set(checks.scrub_env(planted, {})) & set(planted)


# ---------------------------------------------------------------------------
# Host-speed probes
# ---------------------------------------------------------------------------

def _planted_probes(tmp_path, samples):
    path = tmp_path / "planted.bin"
    torn_tail = b"\x00" * 5
    path.write_bytes(b"".join(probe.RECORD.pack(when, seconds)
                              for when, seconds in samples) + torn_tail)
    probes = probe.Probes([], str(tmp_path))
    probes.paths = {0: str(path)}
    return probes


def test_probe_speed_is_the_mean_speed_inside_the_window(tmp_path):
    ref = probe.REFERENCE_S
    probes = _planted_probes(tmp_path, [(1.0, ref), (2.0, ref / 2),
                                        (3.0, ref * 4)])
    assert probes.speed(0.5, 2.5) == 1.5
    # A window between two samples widens to the nearest one.
    assert probes.speed(2.96, 2.97) == 0.25
    with pytest.raises(RuntimeError, match="no probe sample"):
        probes.speed(10.0, 11.0)


def test_time_factor_is_one_at_reference_speed():
    assert probe.time_factor(1.0) == 1.0
    assert probe.time_factor(0.5) < 1.0 < probe.time_factor(2.0)


def test_probes_sample_their_cpu_and_stop_on_close(tmp_path):
    cpu = min(os.sched_getaffinity(0))
    probes = probe.Probes([cpu], str(tmp_path))
    start = time.monotonic()
    try:
        deadline = start + 30.0
        while (len(probe.read_samples(probes.paths[cpu])) < 3
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert probes.speed(start, time.monotonic()) > 0
    finally:
        probes.close()
    assert all(p.returncode is not None for p in probes.procs)


# ---------------------------------------------------------------------------
# Workload inputs and the benchmark contract
# ---------------------------------------------------------------------------

def test_request_stream_is_seeded_and_splits_paths_evenly():
    first = serveload.request_stream(51, seed=7)
    assert first == serveload.request_stream(51, seed=7)
    assert first != serveload.request_stream(51, seed=8)
    seen, sent, kinds = set(), set(), []
    for request in first:
        if tuple(request) in sent:
            kinds.append("memo")
        elif set(request) <= seen:
            kinds.append("store")
            assert len(request) == 2
        else:
            kinds.append("novel")
            assert len(request) == 1
        seen.update(request)
        sent.add(tuple(request))
    assert seen == set(range(51))
    assert [kinds.count(k) for k in ("novel", "store", "memo")] == [51] * 3


def test_every_store_and_memo_request_waits_for_what_it_reuses():
    requests = serveload.request_stream(40, seed=3)
    deps = serveload.dependencies(requests)
    seen = set()
    for i, (request, mine) in enumerate(zip(requests, deps)):
        assert all(j < i for j in mine)
        if set(request) <= seen:
            assert {b for j in mine for b in requests[j]} >= set(request)
        else:   # a novel request waits for nothing
            assert mine == []
        seen.update(request)


def test_benchmark_json_matches_what_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    for key, names in (("end_to_end", bench.END_TO_END),
                       ("per_layer", bench.PER_LAYER)):
        assert [m["name"] for m in spec[key]] == list(names)
        assert all(m["unit"] == bench.unit_of(m["name"])
                   for m in spec[key])


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table5-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
