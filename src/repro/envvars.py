"""The single source of truth for ``REPRO_*`` environment variables.

Three docs used to carry hand-maintained copies of the env-var table
(README.md, docs/performance.md, docs/robustness.md) and they drifted.
Now every variable is declared here once, the docs embed generated
tables between ``<!-- envvars:begin ... -->`` / ``<!-- envvars:end -->``
markers, ``tests/test_envvars.py`` asserts the embedded tables match
this registry byte-for-byte, and ``repro envvars`` prints the registry
(``--format json`` for machines).

Adding a variable: declare it here, then re-run
``python -m repro.envvars --update README.md docs/*.md`` (or paste the
output of ``repro envvars --group <g>``) to refresh the doc blocks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["EnvVar", "REGISTRY", "by_group", "markdown_table",
           "update_doc", "doc_blocks"]


@dataclass(frozen=True)
class EnvVar:
    """One documented environment variable."""

    name: str
    default: str
    description: str
    #: Doc-table grouping: pipeline | performance | robustness |
    #: observability | bench.
    group: str


REGISTRY: List[EnvVar] = [
    # -- pipeline shape ---------------------------------------------------
    EnvVar("REPRO_SCALE", "`0.004`",
           "corpus size relative to the paper's 358,561 blocks",
           "pipeline"),
    EnvVar("REPRO_SEED", "`0`",
           "base seed for corpus synthesis and simulated noise",
           "pipeline"),
    EnvVar("REPRO_JOBS", "`1` (CLI: `os.cpu_count()`)",
           "worker-pool size for `--jobs`-aware commands and benches",
           "pipeline"),
    EnvVar("REPRO_SHARD_SIZE", "`32`",
           "blocks per engine shard, the unit of work handed to a pool "
           "worker (the result store is keyed by block, not shard)",
           "pipeline"),
    EnvVar("REPRO_CACHE", "`.cache/`",
           "root of the result stores: one record per (uarch, block "
           "text) under `results_<seed>/`", "pipeline"),
    EnvVar("REPRO_REPORT_DIR", "`reports/`",
           "where benches and telemetry write reports", "pipeline"),
    EnvVar("REPRO_SAMPLE", "unset",
           "default `--sample` fraction: profile a stratified sample "
           "and project full-corpus error tables with bootstrap CIs",
           "pipeline"),
    # -- performance toggles ----------------------------------------------
    EnvVar("REPRO_NO_FASTPATH", "unset",
           "`1` disables the simulation-core fast path "
           "(same bytes, slower)", "performance"),
    EnvVar("REPRO_NO_BLOCKPLAN", "unset",
           "`1` disables compiled block plans (same bytes, slower)",
           "performance"),
    # -- robustness knobs -------------------------------------------------
    EnvVar("REPRO_CHAOS", "unset",
           "arm deterministic fault injection "
           "(`<seed>[:point=rate,...]`, [docs/robustness.md]"
           "(docs/robustness.md))", "robustness"),
    EnvVar("REPRO_STRICT", "unset (salvage)",
           "`1` makes quarantine decisions raise instead of degrade",
           "robustness"),
    EnvVar("REPRO_STEP_BUDGET", "`8000000`",
           "per-block dynamic-instruction watchdog budget",
           "robustness"),
    EnvVar("REPRO_SHARD_TIMEOUT", "`600`",
           "seconds before a pooled shard is declared hung and rescued",
           "robustness"),
    # -- observability ----------------------------------------------------
    EnvVar("REPRO_WINDOW", "`64`",
           "blocks per live-telemetry aggregation window",
           "observability"),
    EnvVar("REPRO_TELEMETRY", "`1` (benches)",
           "`0` lets the bench suites skip telemetry collection "
           "when chasing peak numbers", "observability"),
    # -- serve daemon -----------------------------------------------------
    EnvVar("REPRO_SERVE_QUEUE", "`64`",
           "admission queue capacity; a full queue sheds with "
           "429 + retry-after ([docs/service.md](docs/service.md))",
           "serve"),
    EnvVar("REPRO_SERVE_DEADLINE_MS", "`30000`",
           "default per-request deadline when the client sends none; "
           "expired queued work is cancelled and counted, never "
           "silently dropped", "serve"),
    EnvVar("REPRO_SERVE_RATE", "`0` (unlimited)",
           "per-client token-bucket refill rate in requests/second",
           "serve"),
    EnvVar("REPRO_SERVE_BURST", "`16`",
           "per-client token-bucket burst capacity", "serve"),
    EnvVar("REPRO_SERVE_BATCH", "`64`",
           "max requests coalesced into one content-addressed engine "
           "batch", "serve"),
    EnvVar("REPRO_SERVE_BREAKER", "`3`",
           "consecutive worker-trouble batches before the circuit "
           "breaker opens and batches run scalar", "serve"),
    EnvVar("REPRO_SERVE_BREAKER_COOLDOWN_S", "`5`",
           "seconds the open breaker waits before a half-open pool "
           "probe", "serve"),
    EnvVar("REPRO_SERVE_WINDOW", "`32`",
           "finished requests per serve-metrics window "
           "(p50/p95/p99 latency, jitter, deadline-miss rate)",
           "serve"),
    EnvVar("REPRO_SERVE_DRAIN_S", "`10`",
           "ceiling on the graceful SIGTERM drain before forced "
           "shutdown", "serve"),
    EnvVar("REPRO_SERVE_STATE", "`<cache>/serve`",
           "daemon state directory: CRC-self-checked request journal "
           "plus one result store per seed", "serve"),
]

#: Order groups render in when a table spans several.
GROUP_ORDER = ("pipeline", "performance", "robustness",
               "observability", "serve", "bench")


def by_group(group: Optional[str] = None) -> List[EnvVar]:
    """Registry entries for one group (or all, in group order)."""
    if group is not None:
        return [v for v in REGISTRY if v.group == group]
    ordered = []
    for g in GROUP_ORDER:
        ordered.extend(v for v in REGISTRY if v.group == g)
    return ordered


def markdown_table(group: Optional[str] = None) -> str:
    """The generated markdown table for ``group`` (or everything)."""
    rows = by_group(group)
    lines = ["| variable | default | meaning |",
             "| --- | --- | --- |"]
    lines += [f"| `{v.name}` | {v.default} | {v.description} |"
              for v in rows]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Doc-block embedding
# ---------------------------------------------------------------------------

_BLOCK = re.compile(
    r"<!-- envvars:begin(?: group=(?P<group>[a-z,]+))? -->"
    r"(?P<body>.*?)"
    r"<!-- envvars:end -->", re.S)


def _render_groups(spec: Optional[str]) -> str:
    if not spec:
        return markdown_table()
    rows: List[EnvVar] = []
    for g in spec.split(","):
        rows.extend(by_group(g))
    lines = ["| variable | default | meaning |",
             "| --- | --- | --- |"]
    lines += [f"| `{v.name}` | {v.default} | {v.description} |"
              for v in rows]
    return "\n".join(lines)


def doc_blocks(text: str) -> List[Dict]:
    """Every envvars block in a doc: its group spec, body, expected."""
    blocks = []
    for match in _BLOCK.finditer(text):
        blocks.append({
            "group": match.group("group"),
            "body": match.group("body").strip("\n"),
            "expected": _render_groups(match.group("group")),
        })
    return blocks


def update_doc(text: str) -> str:
    """Rewrite every marker block in ``text`` with generated tables."""
    def _sub(match: "re.Match") -> str:
        spec = match.group("group")
        begin = "<!-- envvars:begin" + \
            (f" group={spec}" if spec else "") + " -->"
        return f"{begin}\n{_render_groups(spec)}\n<!-- envvars:end -->"
    return _BLOCK.sub(_sub, text)


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.envvars [--update FILE...]``."""
    import argparse
    parser = argparse.ArgumentParser(
        description="print or re-embed the REPRO_* env-var registry")
    parser.add_argument("--group", choices=GROUP_ORDER, default=None)
    parser.add_argument("--format", choices=("table", "json"),
                        default="table")
    parser.add_argument("--update", nargs="+", metavar="FILE",
                        help="rewrite marker blocks in these docs")
    args = parser.parse_args(argv)
    if args.update:
        for path in args.update:
            with open(path) as fh:
                text = fh.read()
            updated = update_doc(text)
            if updated != text:
                with open(path, "w") as fh:
                    fh.write(updated)
                print(f"updated {path}")
        return 0
    if args.format == "json":
        import json
        print(json.dumps([v.__dict__ for v in by_group(args.group)],
                         indent=2))
    else:
        print(markdown_table(args.group))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
