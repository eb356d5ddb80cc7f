"""Command-line interface.

The real BHive ships shell tools around its harness; this module
provides the equivalents::

    python -m repro profile  block.s --uarch haswell
    python -m repro predict  block.s --model iaca --model llvm-mca
    python -m repro timings  add imul mulps --uarch skylake
    python -m repro ports    "mulps %xmm13, %xmm12"
    python -m repro corpus   --scale 0.002 --out suite.csv --measure
    python -m repro validate --scale 0.001 --uarch haswell
    python -m repro telemetry --scale 0.0005 --uarch haswell
    python -m repro top      trace.ndjson --follow
    python -m repro bench    check --tolerance 0.15
    python -m repro envvars

``block.s`` may be ``-`` for stdin.  Blocks are AT&T or Intel syntax,
auto-detected.

Every command accepts ``--trace FILE``: telemetry is enabled for the
run and the span/event stream is exported as NDJSON to ``FILE``
(autoflushed per record, so ``repro top FILE`` can watch the run
live; see docs/observability.md for the schema).  ``--heartbeat S``
adds a periodic progress snapshot event to the trace.  Corpus-scale
commands (``corpus --measure``, ``validate``, ``telemetry``) accept
``--jobs N`` to profile across N worker processes (default: every
core, or ``REPRO_JOBS``); results are bit-identical to ``--jobs 1``
(see docs/parallel.md) — including the per-window series ``--window``
/ ``REPRO_WINDOW`` cuts the run into.  ``--profile`` (corpus /
validate / telemetry) wraps each pipeline phase in cProfile and
reports the top cumulative hotspots.

Resilience flags (docs/robustness.md): ``--chaos SPEC`` arms seeded
deterministic fault injection; ``--strict`` / ``--salvage`` choose
whether quarantines fail the run or degrade; ``--resume`` (corpus /
validate) measures through the result store so a killed run continues
from the blocks it stored.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.isa.parser import parse_block

_MODEL_NAMES = ("iaca", "llvm-mca", "osaca")


def _read_block(path: str):
    text = sys.stdin.read() if path == "-" else open(path).read()
    return parse_block(text)


def _resolve_jobs(args) -> int:
    """--jobs N, else REPRO_JOBS, else every core the host offers."""
    if getattr(args, "jobs", None):
        return max(1, args.jobs)
    from repro.parallel import default_jobs
    return default_jobs()


def _measured_resumable(args, corpus, jobs: int):
    """Measure through the result store (``--resume``).

    Routes measurement through :class:`repro.eval.pipeline.Experiment`,
    whose store makes a killed run continue from the blocks it stored,
    with byte-identical output.
    """
    from repro.eval.pipeline import Experiment
    experiment = Experiment(scale=args.scale, seed=args.seed,
                            jobs=jobs, uarches=(args.uarch,))
    return experiment.measured(args.uarch, corpus=corpus)


def _make_model(name: str):
    from repro.models import IacaModel, LlvmMcaModel, OsacaModel
    return {"iaca": IacaModel, "llvm-mca": LlvmMcaModel,
            "osaca": OsacaModel}[name]()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_profile(args) -> int:
    from repro.profiler import profile_block
    block = _read_block(args.block)
    result = profile_block(block, uarch=args.uarch, seed=args.seed)
    if not result.ok:
        print(f"unprofileable: {result.failure.value}"
              + (f" ({result.detail})" if result.detail else ""))
        return 1
    print(f"throughput: {result.throughput:.2f} cycles/iteration "
          f"({args.uarch})")
    print(f"pages mapped: {result.pages_mapped}   "
          f"faults intercepted: {result.num_faults}")
    for m in result.measurements:
        print(f"  unroll={m.unroll}: {m.cycles} cycles, "
              f"{m.clean_runs}/{m.total_runs} clean runs")
    return 0


def cmd_predict(args) -> int:
    block = _read_block(args.block)
    names = args.model or list(_MODEL_NAMES)
    for name in names:
        model = _make_model(name)
        pred = model.predict_safe(block, args.uarch)
        if pred.ok:
            print(f"{model.name:9s} {pred.throughput:.2f}")
        else:
            print(f"{model.name:9s} -  ({pred.error})")
    return 0


def cmd_timings(args) -> int:
    from repro.profiler.latency import InstructionBenchmark
    bench = InstructionBenchmark(args.uarch, seed=args.seed)
    print(f"{'mnemonic':14s} {'latency':>8s} {'rthroughput':>12s}")
    for mnemonic in args.mnemonics:
        t = bench.measure(mnemonic)
        lat = "-" if t.latency is None else f"{t.latency:.2f}"
        rtp = "-" if t.reciprocal_throughput is None \
            else f"{t.reciprocal_throughput:.2f}"
        print(f"{mnemonic:14s} {lat:>8s} {rtp:>12s}")
    return 0


def cmd_ports(args) -> int:
    from repro.classify.portprobe import PortProber
    prober = PortProber(args.uarch, seed=args.seed)
    for text in args.instructions:
        result = prober.infer(text)
        print(f"{text:32s} -> {result.combo}")
        if args.verbose:
            for ports, delta in result.evidence:
                label = "p" + "".join(map(str, ports))
                print(f"    blocked {label:6s}: "
                      f"+{delta:.2f} cycles/copy")
    return 0


def _print_profile() -> None:
    """Dump collected ``--profile`` hotspots to stdout."""
    from repro.telemetry import profiling
    for name, data in sorted(profiling.profiles().items()):
        print(f"\nprofile: {name} ({data['total_ms']} ms, top "
              f"{len(data['top'])} by cumulative time)")
        for row in data["top"][:10]:
            print(f"  {row['cumtime_ms']:>10.1f} ms  "
                  f"{row['calls']:>8}  {row['function']}")


def _sample_fraction(args) -> Optional[float]:
    """--sample FRAC, else $REPRO_SAMPLE, else None (full corpus)."""
    from repro.corpus import sampling
    if getattr(args, "sample", None) is not None:
        fraction = args.sample
        if not 0.0 < fraction <= 1.0:
            raise SystemExit(f"error: --sample {fraction}: fraction "
                             "must be in (0, 1]")
        return fraction
    return sampling.sample_fraction()


def _stream_corpus_cmd(args) -> int:
    """``repro corpus --stream``: generate -> shard -> profile -> write
    without ever materialising the corpus.

    Records flow straight from the lazy generators through the
    streamed engine into an incremental writer; ``--sample`` threads
    an order-blind stratified filter into the stream; ``--resume``
    reads and fills the same result store as the list source.
    """
    from repro.corpus import sampling, streaming
    from repro.corpus.io import StreamCsvWriter, StreamJsonWriter
    from repro.telemetry import profiling

    fraction = _sample_fraction(args)

    def source():
        records = streaming.iter_corpus(scale=args.scale,
                                        seed=args.seed)
        if fraction and fraction < 1.0:
            records = sampling.sample_stream(records, fraction,
                                             seed=args.seed)
        return records

    if args.out.endswith(".json"):
        writer = StreamJsonWriter(args.out, args.scale)
    else:
        writer = StreamCsvWriter(args.out, measured=args.measure)

    if not args.measure:
        blocks = 0
        with profiling.phase("corpus_stream"), writer:
            for record in source():
                writer.add(record)
                blocks += 1
        print(f"streamed {blocks} blocks")
        print(f"wrote {writer.written} blocks to {args.out}")
        if profiling.is_enabled():
            _print_profile()
        return 0

    jobs = _resolve_jobs(args)
    cache = None
    if args.resume:
        from repro.eval.pipeline import result_store
        cache = result_store(args.seed)

    totals = {"blocks": 0, "measured": 0}

    def on_shard(shard, profile) -> None:
        for record in shard.records:
            throughput = profile.throughputs.get(record.block_id)
            writer.add(record, throughput)
            totals["blocks"] += 1
            if throughput is not None:
                totals["measured"] += 1

    from repro.parallel import profile_corpus_streamed
    with profiling.phase(f"measure:stream:{args.uarch}"), writer:
        profile_corpus_streamed(
            source(), args.uarch, seed=args.seed, jobs=jobs,
            cache=cache, run_label=f"stream:{args.uarch}",
            on_shard=on_shard)
    print(f"measured {totals['measured']}/{totals['blocks']} blocks "
          f"on {args.uarch} ({jobs} jobs, streamed)")
    print(f"wrote {writer.written} blocks to {args.out}")
    if profiling.is_enabled():
        _print_profile()
    return 0


def cmd_corpus(args) -> int:
    from repro.corpus import build_corpus, sampling
    from repro.corpus.io import save_csv, save_json
    from repro.telemetry import profiling
    if args.stream:
        return _stream_corpus_cmd(args)
    with profiling.phase("corpus_build"):
        corpus = build_corpus(scale=args.scale, seed=args.seed)
    fraction = _sample_fraction(args)
    if fraction and fraction < 1.0:
        corpus = sampling.sample_corpus(corpus, fraction,
                                        seed=args.seed)
        print(f"stratified sample: {len(corpus)} blocks "
              f"({fraction:.0%} per stratum)")
    measured = None
    if args.measure:
        jobs = _resolve_jobs(args)
        if args.resume:
            measured = _measured_resumable(args, corpus, jobs)
        else:
            from repro.parallel import profile_corpus_sharded
            with profiling.phase(f"measure:main:{args.uarch}"):
                measured = profile_corpus_sharded(
                    corpus, args.uarch, seed=args.seed,
                    jobs=jobs).throughputs
        print(f"measured {len(measured)}/{len(corpus)} blocks "
              f"on {args.uarch} ({jobs} jobs)")
    if args.out.endswith(".json"):
        save_json(args.out, corpus, measured)
        written = len(corpus)
    else:
        written = save_csv(args.out, corpus, measured)
    print(f"wrote {written} blocks to {args.out}")
    if profiling.is_enabled():
        _print_profile()
    return 0


def cmd_validate(args) -> int:
    from repro.corpus import build_corpus, sampling
    from repro.eval.reporting import format_table
    from repro.eval.validation import validate
    from repro.models import (IacaModel, IthemalModel, LlvmMcaModel,
                              OsacaModel)
    from repro.telemetry import profiling
    with profiling.phase("corpus_build"):
        corpus = build_corpus(scale=args.scale, seed=args.seed)
    # --sample FRAC: profile a stratified sample only, then project
    # the full-corpus error tables with bootstrap CIs.  The stratum
    # census below is cheap — it never profiles anything.
    fraction = _sample_fraction(args)
    full_counts = None
    if fraction and fraction < 1.0:
        with profiling.phase("corpus_sample"):
            full_counts = sampling.stratum_counts(corpus)
            corpus = sampling.sample_corpus(corpus, fraction,
                                            seed=args.seed)
    models = [IacaModel(), LlvmMcaModel(), IthemalModel(), OsacaModel()]
    jobs = _resolve_jobs(args)
    measured = None
    if args.resume:
        measured = _measured_resumable(args, corpus, jobs)
    elif jobs > 1:
        from repro.parallel import profile_corpus_sharded
        with profiling.phase(f"measure:main:{args.uarch}"):
            measured = profile_corpus_sharded(
                corpus, args.uarch, seed=args.seed,
                jobs=jobs).throughputs
    with profiling.phase(f"validate:{args.uarch}"):
        result = validate(corpus, args.uarch, models, seed=args.seed,
                          measured=measured, jobs=jobs)
    rows = [(m, round(result.overall_error(m), 4),
             round(result.weighted_overall_error(m), 4),
             round(result.kendall_tau(m), 4))
            for m in result.model_names]
    title = f"{args.uarch}: {len(result.rows)} blocks evaluated, " \
            f"{result.profiled_fraction:.1%} profiled"
    if full_counts is not None:
        title += f" ({fraction:.0%} stratified sample)"
    print(format_table(
        ["model", "avg error", "weighted", "tau"], rows, title=title))
    if full_counts is not None:
        projection = sampling.project_validation(
            result, corpus.records, full_counts, seed=args.seed)
        print()
        print(sampling.render_projection(projection))
    if profiling.is_enabled():
        _print_profile()
    return 0


def cmd_telemetry(args) -> int:
    """Instrumented pipeline run -> run report under reports/."""
    import json as json_mod

    from repro import telemetry
    from repro.eval.pipeline import Experiment
    if not telemetry.is_enabled():
        telemetry.enable()
    experiment = Experiment(scale=args.scale, seed=args.seed,
                            jobs=_resolve_jobs(args),
                            uarches=(args.uarch,))
    experiment.validation(args.uarch)
    report = experiment.write_run_report(args.uarch,
                                         directory=args.report_dir)
    directory = args.report_dir or telemetry.default_report_dir()
    path = os.path.join(directory, report["report"] + ".json")
    if args.format == "json":
        print(json_mod.dumps(report, indent=2, sort_keys=True,
                             default=str))
    else:
        print(telemetry.render_summary(report))
        print(f"\nreport: {path}")
    return 0


def cmd_top(args) -> int:
    """Render (and optionally follow) a live NDJSON trace."""
    import time as time_mod

    from repro.telemetry import live
    if not args.follow:
        records, _ = live.read_records(args.trace_file)
        print(live.render_top(records))
        return 0
    follower = live.TraceFollower(args.trace_file)
    records, _ = follower.poll()
    try:
        while True:
            # Clear screen + home, like top(1).
            print("\x1b[2J\x1b[H" + live.render_top(records),
                  flush=True)
            time_mod.sleep(args.interval)
            fresh, restarted = follower.poll()
            if restarted:
                # Rotated/truncated trace: the accumulated view
                # describes a file that no longer exists.
                records = []
            records.extend(fresh)
    except KeyboardInterrupt:
        return 0


def cmd_serve(args) -> int:
    """Run the profiling daemon (see docs/service.md)."""
    from repro import telemetry
    from repro.serve.config import ServeConfig
    from repro.serve.daemon import run_daemon
    if bool(args.socket) == (args.port is not None):
        print("error: exactly one of --socket PATH / --port N "
              "is required", file=sys.stderr)
        return 2
    if not telemetry.get_telemetry().enabled:
        # Metrics-only collection so /v1/stats and the window metrics
        # work without --trace; --trace upgrades this to a full
        # NDJSON export (wired in main()).
        telemetry.enable()
    config = ServeConfig.from_env(
        socket=args.socket, port=args.port, host=args.host,
        jobs=_resolve_jobs(args),
        queue_size=args.queue, deadline_ms=args.deadline_ms,
        rate=args.rate, burst=args.burst, batch_size=args.batch,
        breaker_threshold=args.breaker,
        breaker_cooldown_s=args.breaker_cooldown, drain_s=args.drain,
        state_dir=args.state)
    run_daemon(config)
    return 0


def cmd_bench_check(args) -> int:
    """Gate benchmark JSONs against their floors (and a baseline)."""
    import json as json_mod

    from repro.telemetry import benchgate
    paths = args.files or benchgate.discover_bench_files()
    if not paths:
        print("no BENCH_*.json files found", file=sys.stderr)
        return 2
    report = benchgate.run_gate(paths, tolerance=args.tolerance,
                                baseline_dir=args.against)
    if args.format == "json":
        print(json_mod.dumps(report, indent=2, sort_keys=True))
    else:
        print(benchgate.render_gate(report))
    return 0 if report["ok"] else 1


def cmd_envvars(args) -> int:
    """Print the REPRO_* environment-variable registry."""
    from repro import envvars
    return envvars.main(
        (["--group", args.group] if args.group else [])
        + ["--format", args.format])


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BHive reproduction: profile and predict x86-64 "
                    "basic block throughput on simulated machines.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--uarch", default="haswell",
                       choices=("ivybridge", "haswell", "skylake"))
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trace", metavar="FILE", default=None,
                       help="enable telemetry and export the NDJSON "
                            "event stream to FILE (tail it live with "
                            "'repro top FILE')")
        p.add_argument("--heartbeat", type=float, metavar="SECS",
                       default=None,
                       help="with --trace: emit a progress snapshot "
                            "event every SECS seconds")
        p.add_argument("--no-fastpath", action="store_true",
                       help="disable the simulation-core fast path "
                            "(same results, slower; use with --trace "
                            "to debug a suspected divergence)")
        p.add_argument("--no-blockplan", action="store_true",
                       help="disable compiled block plans and run the "
                            "historical per-instruction interpreter "
                            "(same results, slower)")
        p.add_argument("--chaos", metavar="SPEC", default=None,
                       help="arm deterministic fault injection, e.g. "
                            "'42:worker_crash=0.2,disk_full=0.1' or "
                            "'7:all=0.05' (see docs/robustness.md; "
                            "also $REPRO_CHAOS)")
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--strict", action="store_true",
                          help="promote quarantines (corrupt store "
                               "records, poisoned blocks, failed "
                               "writes) into run failures")
        mode.add_argument("--salvage", action="store_true",
                          help="degrade and continue on quarantines "
                               "(the default; overrides an inherited "
                               "$REPRO_STRICT)")

    def jobs_arg(p):
        p.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="worker processes for profiling (default: "
                            "os.cpu_count(), or $REPRO_JOBS); results "
                            "are bit-identical to --jobs 1")
        p.add_argument("--resume", action="store_true",
                       help="measure through the result store: a "
                            "previous run with the same seed, killed "
                            "mid-flight or finished, leaves its blocks "
                            "stored, and this run profiles only the "
                            "rest, with byte-identical output")
        p.add_argument("--window", type=int, default=None, metavar="N",
                       help="blocks per live-telemetry window "
                            "(default: 64, or $REPRO_WINDOW); the "
                            "per-window series is identical whatever "
                            "--jobs is")
        p.add_argument("--profile", action="store_true",
                       help="cProfile each pipeline phase and report "
                            "the top cumulative hotspots")

    p = sub.add_parser("profile", help="measure a basic block")
    p.add_argument("block", help="assembly file, or - for stdin")
    common(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("predict", help="run cost models on a block")
    p.add_argument("block")
    p.add_argument("--model", action="append",
                   choices=_MODEL_NAMES)
    common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("timings",
                       help="per-instruction latency/throughput")
    p.add_argument("mnemonics", nargs="+")
    common(p)
    p.set_defaults(func=cmd_timings)

    p = sub.add_parser("ports", help="infer port usage by measurement")
    p.add_argument("instructions", nargs="+")
    p.add_argument("-v", "--verbose", action="store_true")
    common(p)
    p.set_defaults(func=cmd_ports)

    def sample_arg(p):
        p.add_argument("--sample", type=float, default=None,
                       metavar="FRAC",
                       help="profile a deterministic stratified "
                            "sample (app x block category, seeded, "
                            "order-blind) of FRAC of the corpus; "
                            "validate projects full-corpus error "
                            "tables with bootstrap confidence "
                            "intervals (also $REPRO_SAMPLE)")

    p = sub.add_parser("corpus", help="synthesise the benchmark suite")
    p.add_argument("--scale", type=float, default=0.001)
    p.add_argument("--out", default="bhive.csv")
    p.add_argument("--measure", action="store_true",
                   help="profile every block and include throughputs")
    p.add_argument("--stream", action="store_true",
                   help="never materialise the corpus: generate -> "
                        "shard -> profile -> write one shard at a "
                        "time (same rows as without --stream — see "
                        "docs/performance.md)")
    common(p)
    jobs_arg(p)
    sample_arg(p)
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("validate", help="run the Table V pipeline")
    p.add_argument("--scale", type=float, default=0.001)
    common(p)
    jobs_arg(p)
    sample_arg(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("telemetry",
                       help="run an instrumented pipeline and write a "
                            "run report")
    p.add_argument("--scale", type=float, default=0.0005)
    p.add_argument("--report-dir", default=None,
                   help="where to write the report "
                        "(default: reports/, or $REPRO_REPORT_DIR)")
    p.add_argument("--format", choices=("text", "json"),
                   default="text",
                   help="print the run report as a summary (text) or "
                        "as the full JSON document")
    common(p)
    jobs_arg(p)
    p.set_defaults(func=cmd_telemetry)

    p = sub.add_parser("top",
                       help="render a live view of an NDJSON trace "
                            "(phase, windowed throughput, cache hit "
                            "rates, ETA)")
    p.add_argument("trace_file",
                   help="NDJSON trace being written by --trace "
                        "(autoflushed, so in-flight runs render)")
    p.add_argument("-f", "--follow", action="store_true",
                   help="keep re-rendering as records arrive "
                        "(Ctrl-C to stop)")
    p.add_argument("--interval", type=float, default=2.0,
                   help="refresh period for --follow (seconds)")
    p.set_defaults(func=cmd_top)

    p = sub.add_parser("serve",
                       help="run the profiling daemon: accept block "
                            "requests over HTTP (Unix socket or TCP), "
                            "run whatever is queued as one "
                            "content-addressed batch, answer from the "
                            "shared result store (see docs/service.md)")
    listen = p.add_mutually_exclusive_group(required=True)
    listen.add_argument("--socket", metavar="PATH", default=None,
                        help="listen on a Unix-domain socket at PATH")
    listen.add_argument("--port", type=int, metavar="N", default=None,
                        help="listen on TCP port N (loopback by "
                             "default; see --bind)")
    p.add_argument("--bind", dest="host", default="127.0.0.1",
                   metavar="ADDR",
                   help="TCP bind address for --port "
                        "(default 127.0.0.1)")
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="worker processes per batch (default: "
                        "os.cpu_count(), or $REPRO_JOBS); results are "
                        "bit-identical whatever N is")
    p.add_argument("--queue", type=int, default=None, metavar="N",
                   help="admission queue capacity; a full queue sheds "
                        "with 429 + retry-after (default 64, or "
                        "$REPRO_SERVE_QUEUE)")
    p.add_argument("--deadline-ms", type=float, default=None,
                   metavar="MS",
                   help="default per-request deadline when the client "
                        "sends none (default 30000, or "
                        "$REPRO_SERVE_DEADLINE_MS)")
    p.add_argument("--rate", type=float, default=None, metavar="R",
                   help="per-client token-bucket refill rate in "
                        "requests/second; 0 disables rate limits "
                        "(default 0, or $REPRO_SERVE_RATE)")
    p.add_argument("--burst", type=int, default=None, metavar="N",
                   help="token-bucket burst capacity (default 16, or "
                        "$REPRO_SERVE_BURST)")
    p.add_argument("--batch", type=int, default=None, metavar="N",
                   help="max queued requests taken into one engine "
                        "batch (default 64, or $REPRO_SERVE_BATCH)")
    p.add_argument("--breaker", type=int, default=None, metavar="N",
                   help="consecutive worker-trouble batches before "
                        "the circuit breaker opens and batches run "
                        "scalar (default 3, or $REPRO_SERVE_BREAKER)")
    p.add_argument("--breaker-cooldown", type=float, default=None,
                   metavar="SECS",
                   help="seconds the breaker stays open before a "
                        "half-open probe (default 5, or "
                        "$REPRO_SERVE_BREAKER_COOLDOWN_S)")
    p.add_argument("--drain", type=float, default=None, metavar="SECS",
                   help="ceiling on the graceful SIGTERM drain "
                        "(default 10, or $REPRO_SERVE_DRAIN_S)")
    p.add_argument("--state", metavar="DIR", default=None,
                   help="state directory: request journal + per-seed "
                        "result stores (default <cache>/serve, or "
                        "$REPRO_SERVE_STATE)")
    common(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("bench", help="benchmark-result tooling")
    bench_sub = p.add_subparsers(dest="bench_command", required=True)
    p = bench_sub.add_parser(
        "check",
        help="perf-regression gate over committed BENCH_*.json")
    p.add_argument("files", nargs="*",
                   help="benchmark JSONs to gate (default: "
                        "./BENCH_*.json)")
    p.add_argument("--tolerance", type=float, default=0.10,
                   help="relative drop allowed before failing "
                        "(default 0.10)")
    p.add_argument("--against", metavar="DIR", default=None,
                   help="directory of baseline BENCH_*.json to "
                        "compare per-metric against")
    p.add_argument("--format", choices=("text", "json"),
                   default="text")
    p.set_defaults(func=cmd_bench_check, command="bench")

    p = sub.add_parser("envvars",
                       help="print the REPRO_* environment-variable "
                            "registry (the docs' tables are generated "
                            "from it)")
    p.add_argument("--group", default=None,
                   choices=("pipeline", "performance", "robustness",
                            "observability", "serve", "bench"))
    p.add_argument("--format", choices=("table", "json"),
                   default="table")
    p.set_defaults(func=cmd_envvars)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro import telemetry
    args = build_parser().parse_args(argv)
    if getattr(args, "no_fastpath", False):
        # Exported (not set programmatically) so worker processes
        # spawned by --jobs inherit the setting.
        os.environ["REPRO_NO_FASTPATH"] = "1"
    if getattr(args, "no_blockplan", False):
        os.environ["REPRO_NO_BLOCKPLAN"] = "1"
    if getattr(args, "chaos", None):
        from repro.resilience import ChaosPolicy, ChaosSpecError
        try:
            ChaosPolicy.parse(args.chaos)  # fail fast on a bad spec
        except ChaosSpecError as exc:
            print(f"error: --chaos {args.chaos!r}: {exc}",
                  file=sys.stderr)
            return 2
        os.environ["REPRO_CHAOS"] = args.chaos
    if getattr(args, "strict", False):
        os.environ["REPRO_STRICT"] = "1"
    elif getattr(args, "salvage", False):
        os.environ["REPRO_STRICT"] = "0"
    if getattr(args, "window", None):
        # Exported so pool workers and the window aggregator agree.
        os.environ["REPRO_WINDOW"] = str(max(1, args.window))
    if getattr(args, "profile", False):
        from repro.telemetry import profiling
        profiling.enable()
    trace = getattr(args, "trace", None)
    heartbeat = None
    if trace:
        # Autoflush so `repro top FILE` can watch the run in flight.
        telemetry.enable(telemetry.NdjsonSink(trace, autoflush=True))
        if getattr(args, "heartbeat", None):
            from repro.telemetry import live
            heartbeat = live.Heartbeat(args.heartbeat).start()
    try:
        with telemetry.span(f"cli.{args.command}"):
            return args.func(args)
    finally:
        if heartbeat is not None:
            heartbeat.stop()
        if trace:
            telemetry.disable()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
