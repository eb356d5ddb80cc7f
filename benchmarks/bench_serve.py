"""Service under concurrent load: warm hit rate, tail latency, misses.

A real ``repro serve`` daemon on a Unix socket, a cold warm-up pass,
then a timed pass of concurrent clients replaying the same requests.
Three service-level promises are enforced on the measurements:

* **Warm hit rate** — replayed requests answer from the request
  journal memo: the cached fraction of the timed pass must clear
  ``HIT_FLOOR`` (0.9).  Cross-client dedup is the service's whole
  economic argument, so this is the headline efficiency check.
* **Tail latency** — client-observed p99 of the timed pass stays
  under ``P99_CEILING_MS`` (kept deliberately generous: CI boxes are
  noisy, and the floor-gated headline is throughput, not latency).
* **Deadline misses** — with the default 30 s deadline nothing should
  expire in-queue: the daemon's ``serve.deadline_miss`` counter and
  any 504/429/5xx response fail the bench.

The headline ``throughput_kblocks_per_s`` (blocks answered per wall
second, warm) lands in ``BENCH_serve.json`` with a conservative
``floor`` for ``repro bench check``; details in
``reports/serve.{txt,json}``.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

from repro.eval.reporting import format_table
from repro.serve.client import ServeClient

from conftest import REPORT_DIR

ROOT = os.path.join(os.path.dirname(__file__), "..")
ROOT_JSON = os.path.join(ROOT, "BENCH_serve.json")

UARCH = os.environ.get("REPRO_BENCH_SERVE_UARCH", "haswell")
CLIENTS = int(os.environ.get("REPRO_BENCH_SERVE_CLIENTS", "4"))
ROUNDS = int(os.environ.get("REPRO_BENCH_SERVE_ROUNDS", "12"))
REQUESTS = 16        # distinct requests in the working set
BLOCKS_PER_REQ = 8

HIT_FLOOR = 0.9
P99_CEILING_MS = 2000.0
FLOOR = 0.5          # kblocks/s the warm service must sustain


def _blocks(request_index: int):
    """8 distinct-but-cheap blocks per request, distinct per request."""
    base = request_index * BLOCKS_PER_REQ
    return [f"addq ${base + i}, %rax\n"
            f"imulq %rcx, %rdx\n"
            f"addq %rbx, %rcx" for i in range(BLOCKS_PER_REQ)]


def _percentile(values, q):
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def _start_daemon(state_dir: str, socket_path: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    env.pop("REPRO_CHAOS", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--socket", socket_path, "--state", state_dir,
         "--jobs", "2"],
        env=env, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    client = ServeClient(socket_path=socket_path, timeout=120.0)
    client.wait_ready(deadline_s=120.0)
    return proc, client


def test_serve_under_load(report):
    workdir = tempfile.mkdtemp(prefix="repro-bench-serve-")
    proc, client = _start_daemon(
        os.path.join(workdir, "state"),
        os.path.join(workdir, "serve.sock"))
    try:
        # Cold pass: every distinct request computes once.
        for i in range(REQUESTS):
            response = client.profile(_blocks(i), uarch=UARCH)
            assert response.status == 200, response.body

        # Timed warm pass: CLIENTS threads replay the working set.
        latencies, bad = [], []
        lock = threading.Lock()

        def worker(worker_index: int):
            worker_client = ServeClient(
                socket_path=client.socket_path, timeout=120.0)
            for round_index in range(ROUNDS):
                i = (worker_index + round_index) % REQUESTS
                started = time.perf_counter()
                response = worker_client.profile(
                    _blocks(i), uarch=UARCH,
                    client=f"bench-{worker_index}")
                elapsed_ms = 1000.0 * (time.perf_counter() - started)
                with lock:
                    latencies.append(elapsed_ms)
                    if response.status != 200:
                        bad.append(response.status)
                    elif not response.body["cached"]:
                        bad.append("uncached")

        started = time.perf_counter()
        threads = [threading.Thread(target=worker, args=(w,))
                   for w in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_s = time.perf_counter() - started

        stats = client.stats().body
    finally:
        try:
            os.killpg(proc.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        proc.wait(timeout=60)

    total = len(latencies)
    hits = total - sum(1 for b in bad if b == "uncached")
    hit_rate = hits / total
    p50 = _percentile(latencies, 0.50)
    p99 = _percentile(latencies, 0.99)
    misses = stats["counters"].get("serve.deadline_miss", 0)
    throughput = total * BLOCKS_PER_REQ / wall_s / 1000.0

    rows = [
        ("clients", CLIENTS, ""),
        ("warm requests", total, ""),
        ("warm hit rate", round(hit_rate, 4), f">= {HIT_FLOOR}"),
        ("p50 ms", round(p50, 2), ""),
        ("p99 ms", round(p99, 2), f"<= {P99_CEILING_MS:g}"),
        ("deadline misses", misses, "== 0"),
        ("kblocks/s", round(throughput, 3), f">= {FLOOR} (floor)"),
    ]
    text = format_table(("metric", "value", "gate"), rows)
    report("serve", text)

    doc = {
        "uarch": UARCH,
        "clients": CLIENTS,
        "requests": total,
        "blocks_per_request": BLOCKS_PER_REQ,
        "hit_floor": HIT_FLOOR,
        "p99_ceiling_ms": P99_CEILING_MS,
        "floor": FLOOR,
        "serve": {
            "warm_hit_rate": round(hit_rate, 4),
            "p50_ms": round(p50, 3),
            "p99_ms": round(p99, 3),
            "deadline_misses": int(misses),
            "wall_s": round(wall_s, 3),
            "throughput_kblocks_per_s": round(throughput, 3),
        },
    }
    with open(os.path.join(REPORT_DIR, "serve.json"), "w") as fh:
        json.dump(doc, fh, indent=1)
    with open(ROOT_JSON, "w") as fh:
        json.dump(doc, fh, indent=1)

    failures = [b for b in bad if b != "uncached"]
    assert not failures, f"non-200 responses under load: {failures}"
    assert hit_rate >= HIT_FLOOR, \
        f"warm hit rate {hit_rate:.3f} below {HIT_FLOOR}"
    assert p99 <= P99_CEILING_MS, \
        f"p99 {p99:.1f} ms above {P99_CEILING_MS} ms"
    assert misses == 0, f"{misses} deadline misses with 30s deadlines"
    assert throughput >= FLOOR, \
        f"{throughput:.3f} kblocks/s below the {FLOOR} floor"
