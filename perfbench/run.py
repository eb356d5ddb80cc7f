"""End-to-end Table V benchmark: cold, warm, pooled and served workloads.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload table5-cold --seed 1 \\
        --seconds 22 --trace 0

Every workload runs the repository's own pipeline through its public
entry points, in fresh child interpreters whose result stores live in a
private directory under ``.perfbench_runs/`` (removed afterwards).  The
outputs are checked against ``perfbench/reference.json``.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, and with ``--trace 1`` the per-layer metrics of a traced
run next to an untraced one.  NOTES.md describes the workloads and what
each metric covers.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from statistics import median
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

import serveload  # noqa: E402
from checks import (compare, recorded_env, scrub_env,  # noqa: E402
                    tail_percentile)
from probe import Probes, time_factor  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
CHILD = os.path.join(HERE, "child.py")
SERVE_MAIN = os.path.join(HERE, "serve_main.py")
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")

#: Corpus scale of one Table V pipeline (121 blocks per corpus seed).
SCALE = 0.0002
#: The corpus seeds every table5 run covers.  A run covers all of them
#: (in a seeded order), so runs with different seeds do the same work:
#: single corpora at this scale differ by up to 60% in cost.
SUITE = (0, 1)
#: Seconds of ``--seconds`` per timed pass over the suite.  The pass
#: count follows from ``--seconds`` alone, never from how fast the host
#: or the code is, so every run with the same ``--seconds`` does the
#: same work.
PASS_SECONDS = 11.0
#: Daemon lifetimes per untraced serve-mixed run.
SERVE_SPAWNS = 6
#: The daemon profiles in-process: with a worker pool it forks one per
#: batch, and on a 2-core host that more than doubled the spread.
SERVE_JOBS = 1
#: Closed-loop client threads.
SERVE_CLIENTS = os.cpu_count() or 1
#: Half-width of the window whose probe speed scales one request.
SERVE_LOCAL_S = 0.25
#: A whole run, children included, must end within this many seconds.
BUDGET_S = 170.0

END_TO_END = ("setup_s", "wall_s", "peak_rss_mb", "ok_frac", "p50_ms",
              "p99_ms", "blocks_per_s")
PER_LAYER = (
    "corpus.build_s", "classify.lda_s",
    "profiler.profile_many_s", "profiler.profile_s",
    "profiler.profile_calls", "profiler.map_pages_s",
    "profiler.map_pages_calls", "profiler.fresh_frac",
    "runtime.execute_block_s", "runtime.execute_block_calls",
    "uarch.machine_run_s", "uarch.machine_run_calls",
    "uarch.schedule.profiler_s", "uarch.schedule.models_s",
    "uarch.schedule_calls",
    "models.iaca.predict_s", "models.llvm-mca.predict_s",
    "models.ithemal.predict_s", "models.osaca.predict_s",
    "models.ithemal.fit_s",
    "parallel.engine_s", "parallel.cache_load_s",
    "parallel.cache_hit_frac", "parallel.cache_store_s",
    "eval.validate_s",
    "serve.hit_frac", "serve.server_p50_ms", "serve.shed",
    "serve.scalar_fallback_batches",
    "trace_overhead_frac",
)
COUNTS = ("serve.shed", "serve.scalar_fallback_batches")


def unit_of(name: str) -> str:
    if name.endswith("_calls") or name in COUNTS:
        return "count"
    if name.endswith("_per_s"):
        return "1/s"
    for suffix, unit in (("_ms", "ms"), ("_mb", "MB"), ("_s", "s"),
                         ("_frac", "frac")):
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for {name}")


class BenchError(RuntimeError):
    """The benchmark could not run to the end."""


class Run:
    """State of one benchmark invocation: its budget, tallies, scratch."""

    def __init__(self, seed: int, seconds: float, trace: bool,
                 reference: Dict, scratch: str,
                 cpus: Optional[Sequence[int]] = None):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.reference = reference
        self.scratch = scratch
        self.deadline = time.monotonic() + BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.env_used: Dict[str, str] = {}
        #: Unscaled medians, printed next to the result.
        self.raw: Dict[str, float] = {}
        #: Children's TMPDIR: the engine makes trace directories there.
        self.tmpdir = self.mkdir("tmp")
        #: CPUs the measured children are pinned to, each with a probe.
        self.cpus = list(cpus) if cpus else None
        self.probes = Probes(self.cpus, self.mkdir("probe")) \
            if self.cpus else None
        #: Probe speed over each timed span, as measured.
        self.speeds: List[float] = []

    def mkdir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix, dir=self.scratch)

    def close(self) -> None:
        if self.probes is not None:
            self.probes.close()

    def factor(self, start: float, end: float) -> float:
        """Time factor of the children's CPUs over a span (1.0 unprobed)."""
        if self.probes is None:
            return 1.0
        speed = self.probes.speed(start, end)
        self.speeds.append(speed)
        return time_factor(speed)

    def factors(self, windows: Sequence[Tuple[float, float]]
                ) -> List[float]:
        """:meth:`factor` of many windows at once, not recorded."""
        if self.probes is None:
            return [1.0] * len(windows)
        return [time_factor(s) for s in self.probes.speeds(windows)]

    def scaled(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` at the probes' reference speed."""
        return (end - start) * self.factor(start, end)

    def env(self, cache_dir: str) -> Dict[str, str]:
        env = scrub_env(os.environ, {"PYTHONPATH": SRC,
                                     "REPRO_CACHE": cache_dir,
                                     "TMPDIR": self.tmpdir})
        self.env_used = recorded_env(env)
        return env

    def spawn(self, argv: List[str], env: Dict[str, str], cwd: str
              ) -> Tuple[subprocess.Popen, float, str, str]:
        """Start a child; returns it, its spawn time and output files."""
        out_fd, out = tempfile.mkstemp(suffix=".out", dir=self.scratch)
        err_fd, err = tempfile.mkstemp(suffix=".err", dir=self.scratch)
        with os.fdopen(out_fd, "w") as fo, os.fdopen(err_fd, "w") as fe:
            spawned = time.monotonic()
            proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=env,
                                    cwd=cwd)
        if self.cpus:   # pool workers it forks inherit the mask
            os.sched_setaffinity(proc.pid, self.cpus)
        return proc, spawned, out, err

    def reap(self, proc: subprocess.Popen, err: str):
        """Wait for ``proc`` (killing it at the deadline); its rusage."""
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > self.deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                raise BenchError(f"child {proc.args[1]} overran the "
                                 f"{BUDGET_S:.0f} s budget")
            time.sleep(0.01)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            with open(err) as fh:
                tail = fh.read()[-2000:]
            raise BenchError(f"child {proc.args[1]} exited "
                             f"{proc.returncode}:\n{tail}")
        return usage


# ---------------------------------------------------------------------------
# table5-cold / table5-warm / table5-pooled
# ---------------------------------------------------------------------------

def run_child(run: Run, store: str, seeds: Sequence[int], jobs: int,
              traced: bool) -> Dict:
    """One child pipeline over ``seeds`` against the store ``store``."""
    argv = [sys.executable, CHILD, "--scale", repr(SCALE),
            "--corpus-seeds", ",".join(str(s) for s in seeds),
            "--jobs", str(jobs)] + (["--trace"] if traced else [])
    proc, spawned, out, err = run.spawn(argv, run.env(store), ROOT)
    usage = run.reap(proc, err)
    with open(out) as fh:
        doc = json.loads(fh.read().strip().splitlines()[-1])
    doc["setup_s"] = run.scaled(spawned, doc["ready"])
    doc["raw_setup_s"] = doc["ready"] - spawned
    doc["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    for pipeline in doc["runs"]:
        pipeline["row_s"] = [run.scaled(a, b) for a, b in pipeline["rows"]]
        pipeline["wall_s"] = sum(pipeline["row_s"])
        pipeline["raw_wall_s"] = sum(b - a for a, b in pipeline["rows"])
    return doc


def table5_child(run: Run, store: str, seeds: Sequence[int], jobs: int,
                 traced: bool) -> Dict:
    """:func:`run_child`, checked against the recorded reference."""
    doc = run_child(run, store, seeds, jobs, traced)
    run.failed += doc["quarantined"]
    for pipeline in doc["runs"]:
        want = run.reference["table5"][str(pipeline["corpus_seed"])]
        problems = compare(pipeline["fingerprint"], want)
        run.attempted += pipeline["measurements"]
        if problems:
            run.failed += pipeline["measurements"]
            run.problems += [f"corpus seed {pipeline['corpus_seed']}: {p}"
                             for p in problems]
        else:
            run.failed += pipeline["worker_failed"]
    return doc


def table5(run: Run, jobs: int, warm: bool) -> Dict[str, float]:
    """Passes over the suite, fresh store per child unless ``warm``."""
    order = list(SUITE)
    random.Random(run.seed).shuffle(order)
    store = None
    if warm:   # untimed first run fills the store the timed ones read
        store = run.mkdir("store")
        table5_child(run, store, order, jobs, traced=False)
    if run.trace:   # each corpus untraced, then traced, back to back
        paired: Dict[bool, List[Dict]] = {False: [], True: []}
        for seed in order:
            for traced in (False, True):
                paired[traced].append(table5_child(
                    run, store or run.mkdir("store"), [seed], jobs, traced))
        layers = merge_layers(d["layers"] for d in paired[True])
        return layer_metrics(layers, overhead=_cycle_wall(paired[True])
                             / _cycle_wall(paired[False]) - 1.0)
    passes = max(1, round(run.seconds / PASS_SECONDS))
    cycles = [[table5_child(run, store or run.mkdir("store"), [seed], jobs,
                            traced=False) for seed in order]
              for _ in range(passes)]
    docs = [d for c in cycles for d in c]
    pipelines = [p for d in docs for p in d["runs"]]
    rows_ms = [1000.0 * s for p in pipelines for s in p["row_s"]]
    run.raw = {"setup_s": median([d["raw_setup_s"] for d in docs]),
               "wall_s": median([_cycle_wall(c, "raw_wall_s")
                                 for c in cycles])}
    return {
        "setup_s": median([d["setup_s"] for d in docs]),
        "wall_s": median([_cycle_wall(c) for c in cycles]),
        "peak_rss_mb": median([d["peak_rss_mb"] for d in docs]),
        "p50_ms": median(rows_ms),
        # Too few Table V rows for a tail with ten samples beyond it:
        # the p99 here is the median over passes of each pass's
        # slowest row.
        "p99_ms": median([1000.0 * max(s for d in c for p in d["runs"]
                                       for s in p["row_s"])
                          for c in cycles]),
        "blocks_per_s": (sum(p["measurements"] for p in pipelines)
                         / sum(p["wall_s"] for p in pipelines)),
    }


def _cycle_wall(docs: Sequence[Dict], key: str = "wall_s") -> float:
    """Pipeline wall time of one pass over the suite."""
    return sum(p[key] for d in docs for p in d["runs"])


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------

def serve_pool(reference: Dict) -> List[str]:
    """The distinct block texts serve-mixed requests draw from."""
    from repro.corpus.dataset import build_corpus
    corpus = build_corpus(scale=reference["pool_scale"],
                          seed=reference["pool_seed"])
    return list(dict.fromkeys(r.block.text() for r in corpus))


def serve_spawn(run: Run, texts: List[str], requests: List[List[int]],
                traced: bool) -> Dict:
    """One daemon lifetime: spawn, wait healthy, load, stats, SIGTERM."""
    from repro.serve.client import ServeClient
    ref = run.reference["serve"]
    home = run.mkdir("serve")
    layers_path = os.path.join(home, "layers.json")
    argv = [sys.executable, SERVE_MAIN] \
        + (["--trace-out", layers_path] if traced else []) \
        + ["--", "--socket", "s.sock", "--state", "state",
           "--jobs", str(SERVE_JOBS)]
    proc, spawned, _out, err = run.spawn(
        argv, run.env(os.path.join(home, "cache")), home)
    sock = os.path.relpath(os.path.join(home, "s.sock"))

    def client() -> ServeClient:
        return ServeClient(socket_path=sock, timeout=30.0)

    try:
        client().wait_ready(deadline_s=60.0, interval_s=0.005)
        healthy = time.monotonic()
        load = serveload.drive(
            client, texts, requests, ref["blocks"], SERVE_CLIENTS,
            ref["uarch"], deadline=min(time.monotonic() + 2 * run.seconds,
                                       run.deadline - 10.0))
        stats = client().stats().body
    finally:
        # Not Popen.send_signal: it polls, which could reap the child
        # before reap() collects its resource usage.
        os.kill(proc.pid, signal.SIGTERM)
        usage = run.reap(proc, err)
    run.attempted += load["attempted"]
    run.failed += load["failed"]
    run.problems += load["problems"]
    layers = None
    if traced:
        with open(layers_path) as fh:
            layers = json.load(fh)
    # A request is too short to hold a probe sample: scale each by the
    # speed over SERVE_LOCAL_S either side of its midpoint.
    spans = load["spans"]
    factors = run.factors([((a + b) / 2 - SERVE_LOCAL_S,
                            (a + b) / 2 + SERVE_LOCAL_S) for a, b in spans])
    return {**load, "setup_s": run.scaled(spawned, healthy),
            "raw_setup_s": healthy - spawned,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "stats": stats, "layers": layers,
            "raw_wall_s": load["end"] - load["start"],
            "wall_s": run.scaled(load["start"], load["end"]),
            "latencies_ms": [1000.0 * (b - a) * f
                             for (a, b), f in zip(spans, factors)]}


def serve_mixed(run: Run) -> Dict[str, float]:
    texts = serve_pool(run.reference["serve"])
    plan = [False, True] if run.trace else [False] * SERVE_SPAWNS
    # Each daemon gets its own ordering of the same work: the tail
    # depends on which slow requests happen to overlap, so one ordering
    # per run would make p99 a property of the seed.
    spawns = [(traced, serve_spawn(
        run, texts, serveload.request_stream(
            len(texts), run.seed * len(plan) + i), traced))
        for i, traced in enumerate(plan)]
    if run.trace:
        walls = {traced: s["wall_s"] for traced, s in spawns}
        spawn = next(s for traced, s in spawns if traced)
        counters = spawn["stats"].get("counters", {})
        window = spawn["stats"].get("window") or {}
        metrics = layer_metrics(spawn["layers"],
                                overhead=walls[True] / walls[False] - 1.0)
        metrics.update({
            "serve.hit_frac": spawn["cached"] / max(1, spawn["attempted"]),
            "serve.server_p50_ms": float(
                window.get("latency_ms", {}).get("p50", 0.0)),
            "serve.shed": (counters.get("serve.shed.queue_full", 0)
                           + counters.get("serve.shed.rate_limited", 0)),
            "serve.scalar_fallback_batches":
                counters.get("serve.scalar_fallback_batches", 0),
        })
        return metrics
    runs = [s for _, s in spawns]
    latencies = [ms for s in runs for ms in s["latencies_ms"]]
    run.raw = {"setup_s": median([s["raw_setup_s"] for s in runs]),
               "wall_s": median([s["raw_wall_s"] for s in runs])}
    return {
        "setup_s": median([s["setup_s"] for s in runs]),
        "wall_s": median([s["wall_s"] for s in runs]),
        "peak_rss_mb": median([s["peak_rss_mb"] for s in runs]),
        "p50_ms": median(latencies),
        "p99_ms": tail_percentile(latencies, 0.99),
        "blocks_per_s": (sum(s["blocks"] for s in runs)
                         / sum(s["wall_s"] for s in runs)),
    }


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def merge_layers(docs) -> Dict[str, Dict[str, float]]:
    """Sum per-label tracer totals over several traced children."""
    merged: Dict[str, Dict[str, float]] = {}
    for doc in docs:
        for label, entry in doc.items():
            slot = merged.setdefault(label, {"self_s": 0.0, "calls": 0,
                                             "returned": 0})
            for key in slot:
                slot[key] += entry[key]
    return merged


def layer_metrics(layers: Dict[str, Dict[str, float]],
                  overhead: float) -> Dict[str, float]:
    """Every per-layer metric from merged tracer totals."""
    def self_s(label: str) -> float:
        return layers.get(label, {}).get("self_s", 0.0)

    def calls(label: str) -> int:
        return layers.get(label, {}).get("calls", 0)

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    metrics = {
        "corpus.build_s": self_s("corpus.build"),
        "classify.lda_s": self_s("classify.lda"),
        "profiler.profile_many_s": self_s("profiler.profile_many"),
        "profiler.profile_s": self_s("profiler.profile"),
        "profiler.profile_calls": calls("profiler.profile"),
        "profiler.map_pages_s": self_s("profiler.map_pages"),
        "profiler.map_pages_calls": calls("profiler.map_pages"),
        "profiler.fresh_frac": share(calls("profiler.map_pages"),
                                     calls("profiler.profile")),
        "runtime.execute_block_s": self_s("runtime.execute_block"),
        "runtime.execute_block_calls": calls("runtime.execute_block"),
        "uarch.machine_run_s": self_s("uarch.machine_run"),
        "uarch.machine_run_calls": calls("uarch.machine_run"),
        "uarch.schedule.profiler_s": self_s("uarch.schedule.profiler"),
        "uarch.schedule.models_s": self_s("uarch.schedule.models"),
        "uarch.schedule_calls": (calls("uarch.schedule.profiler")
                                 + calls("uarch.schedule.models")),
        "models.ithemal.fit_s": self_s("models.ithemal.fit"),
        "parallel.engine_s": self_s("parallel.engine"),
        "parallel.cache_load_s": self_s("parallel.cache_load"),
        "parallel.cache_hit_frac": share(
            layers.get("parallel.cache_load", {}).get("returned", 0),
            calls("parallel.cache_load")),
        "parallel.cache_store_s": self_s("parallel.cache_store"),
        "eval.validate_s": self_s("eval.validate"),
        "serve.hit_frac": 0.0,
        "serve.server_p50_ms": 0.0,
        "serve.shed": 0,
        "serve.scalar_fallback_batches": 0,
        "trace_overhead_frac": overhead,
    }
    for model in ("iaca", "llvm-mca", "ithemal", "osaca"):
        metrics[f"models.{model}.predict_s"] = \
            self_s(f"models.{model}.predict")
    return metrics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

WORKLOADS: Dict[str, Callable[[Run], Dict[str, float]]] = {
    "table5-cold": lambda run: table5(run, jobs=1, warm=False),
    "table5-warm": lambda run: table5(run, jobs=1, warm=True),
    "table5-pooled": lambda run: table5(run, jobs=os.cpu_count() or 1,
                                        warm=False),
    "serve-mixed": serve_mixed,
}
#: Workloads whose children use every CPU; the others are pinned to one.
SPREAD = {"table5-pooled"}


def placement(workload: str) -> Tuple[List[int], int]:
    """The CPUs a workload's children run on, and the harness's CPU.

    Serial children get the first CPU to themselves; the harness and
    its client threads sit on the last.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus if workload in SPREAD else cpus[:1]), cpus[-1]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    os.makedirs(RUNS_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS_DIR)
    cpus, harness_cpu = placement(args.workload)
    os.sched_setaffinity(0, {harness_cpu})
    run = None
    try:
        run = Run(args.seed, args.seconds, bool(args.trace), reference,
                  scratch, cpus)
        measured = WORKLOADS[args.workload](run)
    except RuntimeError as exc:   # BenchError, or a probe that failed
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        if run is not None:
            run.close()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(RUNS_DIR)
        except OSError:
            pass   # another run's scratch is still there

    names = PER_LAYER if run.trace else END_TO_END
    if not run.trace:
        measured["ok_frac"] = 1.0 - run.failed / max(1, run.attempted)
    for problem in run.problems:
        print(f"perfbench: output check: {problem}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "cpus": cpus, "env": run.env_used,
                      "unscaled": run.raw,
                      "probe_speed": median(run.speeds)}))
    print(json.dumps({
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": measured[name], "unit": unit_of(name)}
                    for name in names}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
