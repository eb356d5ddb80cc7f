"""Top-level profiling harness.

:class:`BasicBlockProfiler` wires together the environment, the
monitor/measure mapping loop, unroll planning, the machine's counter
interface, and invariant enforcement — the full pipeline the paper
uses to profile 2M+ basic blocks without user intervention.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field
from typing import (Dict, Iterable, List, Optional, Sequence, Tuple,
                    Union)

from repro.errors import (ArithmeticFault, ChaosFault, MemoryFault,
                          StepBudgetExceeded,
                          UnsupportedInstructionError)
from repro.resilience import chaos
from repro.resilience import policy as resilience
from repro.telemetry import cachestats
from repro.telemetry import core as telemetry
from repro.isa.instruction import BasicBlock
from repro.isa.parser import parse_block
from repro.profiler.environment import Environment, EnvironmentConfig
from repro.profiler.filters import AcceptancePolicy
from repro.profiler.mapping import (DEFAULT_MAX_FAULTS, MappingOutcome,
                                    map_pages)
from repro.profiler.result import (CorpusProfile, FailureReason,
                                   Measurement, ProfileResult)
from repro.profiler.unroll import (BASE_FACTOR, NAIVE_UNROLL, UnrollPlan,
                                   naive_plan, two_factor_plan)
from repro.runtime import blockplan
from repro.runtime.executor import Executor
from repro.simcore import config as simcore
from repro.runtime.trace import ExecutionTrace
from repro.uarch.machine import Machine, Pricing, RunResult


@dataclass(frozen=True)
class ProfilerConfig:
    """Everything that varies between profiling modes.

    The defaults are the paper's full technique: page mapping onto a
    single physical page, FTZ enabled, two-unroll-factor derivation,
    invariants enforced.  The ablation presets in
    :mod:`repro.profiler.ablation` disable pieces selectively.
    """

    environment: EnvironmentConfig = field(
        default_factory=EnvironmentConfig)
    acceptance: AcceptancePolicy = field(default_factory=AcceptancePolicy)
    unroll_strategy: str = "two_factor"  # or "naive"
    naive_unroll: int = NAIVE_UNROLL
    mapping_enabled: bool = True
    max_faults: int = DEFAULT_MAX_FAULTS
    #: Target small unroll factor of the two-factor plan (the large
    #: one is twice this, capacity permitting).  The benches raise it
    #: to the paper's ~100/200.
    base_factor: int = BASE_FACTOR

    #: Recognised ``unroll_strategy`` values.
    STRATEGIES = ("two_factor", "naive")

    def plan_for(self, block: BasicBlock,
                 icache_bytes: int) -> UnrollPlan:
        if self.unroll_strategy == "two_factor":
            return two_factor_plan(block, icache_bytes=icache_bytes,
                                   base_factor=self.base_factor)
        if self.unroll_strategy == "naive":
            return naive_plan(self.naive_unroll)
        raise ValueError(f"unknown strategy {self.unroll_strategy!r}")


@dataclass
class _Mapped:
    """A block's functional half, shared by every machine timing it."""

    block: BasicBlock
    text: str
    plan: UnrollPlan
    env: Environment
    mapping: MappingOutcome
    #: Each factor's trace, cut once from the mapping run (fast path);
    #: ``None`` re-executes the block per factor, as the oracle does.
    traces: Optional[Dict[int, ExecutionTrace]] = None
    subnormal_events: int = 0
    #: Each factor's pricing, from the first machine to time it.
    prices: Dict[int, Pricing] = field(default_factory=dict)


class BasicBlockProfiler:
    """Profiles arbitrary basic blocks on one simulated machine."""

    def __init__(self, machine: Machine,
                 config: Optional[ProfilerConfig] = None, *,
                 siblings: Sequence[Machine] = ()):
        self.machine = machine
        self.config = config if config is not None else ProfilerConfig()
        #: Machines timed alongside this one on each fresh block (a
        #: fast-path layer, ignored with the fast path off), and their
        #: results, keyed by (uarch, block text), until the owner takes
        #: them with :meth:`take_shared`.
        self.siblings = tuple(siblings)
        self.shared: Dict[Tuple[str, str], ProfileResult] = {}
        #: Corpus-level dedup: canonical block text -> finished result.
        #: Exact because a result is a pure function of (text, machine,
        #: config) — even the simulated noise is seeded from the text.
        self._memo: dict = {}
        #: Most recent block's environment, kept so the page-cache
        #: stats it accumulated can be drained after the block.
        self._last_env: Optional[Environment] = None
        global _LAST_PROFILER
        _LAST_PROFILER = weakref.ref(self)

    # ------------------------------------------------------------------

    def profile(self, block: Union[BasicBlock, str]) -> ProfileResult:
        """Profile one basic block; never raises on bad blocks."""
        if not telemetry.is_enabled():
            return self._profile_impl(block)
        start = time.perf_counter()
        result = self._profile_impl(block)
        self._record(result, (time.perf_counter() - start) * 1000.0)
        self._drain_page_stats()
        return result

    def _drain_page_stats(self) -> None:
        """Fold the block's page-cache stats into ``cache.page.*``.

        The hot paths in :class:`repro.runtime.memory.VirtualMemory`
        bump plain ints; this drains-and-zeroes them once per block so
        the unified ``caches`` section sees them, without the memory
        fast path ever touching the telemetry hub.  Only called while
        telemetry is enabled; a dedup hit re-drains an already-zeroed
        environment, which is a no-op.
        """
        env = self._last_env
        if env is None:
            return
        memory = env.memory
        if memory.stat_hits:
            telemetry.count("cache.page.hits", memory.stat_hits)
            memory.stat_hits = 0
        if memory.stat_misses:
            telemetry.count("cache.page.misses", memory.stat_misses)
            memory.stat_misses = 0
        if memory.stat_evictions:
            telemetry.count("cache.page.evictions",
                            memory.stat_evictions)
            memory.stat_evictions = 0

    def _record(self, result: ProfileResult, elapsed_ms: float) -> None:
        """Feed the metrics registry (telemetry enabled only)."""
        telemetry.count("profiler.blocks_total")
        telemetry.observe("profiler.block_latency_ms", elapsed_ms)
        if result.ok:
            telemetry.count("profiler.blocks_accepted")
        else:
            telemetry.count(f"profiler.failure.{result.failure.value}")
            if result.failure is FailureReason.QUARANTINED:
                telemetry.count("resilience.quarantined.blocks")
        if result.num_faults:
            telemetry.count("profiler.faults_intercepted",
                            result.num_faults)
        if result.pages_mapped:
            telemetry.count("profiler.pages_mapped", result.pages_mapped)
        if result.subnormal_events:
            telemetry.count("profiler.subnormal_events",
                            result.subnormal_events)
        if result.extra.get("fastpath_extrapolated"):
            telemetry.count("profiler.fastpath_extrapolated")
        if result.extra.get("blockplan_compiled"):
            telemetry.count("profiler.blockplan_compiled")
        if result.extra.get("chaos_block_poison"):
            telemetry.count("profiler.chaos_block_poison")
        if result.extra.get("step_budget_exceeded"):
            telemetry.count("profiler.step_budget_exceeded")

    def _profile_impl(self, block: Union[BasicBlock, str]
                      ) -> ProfileResult:
        if isinstance(block, str):
            block = parse_block(block)
        text = block.text()
        if not simcore.enabled():
            return self._profile_guarded(block, text)
        result = self._memo.get(text)
        if result is None:
            result = self._profile_guarded(block, text)
            self._memo[text] = result
            if telemetry.is_enabled():
                telemetry.count("cache.dedup.misses")
        elif telemetry.is_enabled():
            telemetry.count("cache.dedup.hits")
        return result

    def _profile_guarded(self, block: BasicBlock,
                         text: str) -> ProfileResult:
        """Quarantine barrier: one hostile block never kills the run.

        Known failure shapes (faults, unsupported instructions) are
        handled inside ``_profile_fresh`` and become their own funnel
        buckets.  Anything that still escapes — an injected chaos
        fault, the executor's step-budget watchdog, or a genuine bug
        surfacing on one pathological block — is degraded into the
        ``quarantined`` bucket here (or re-raised under ``--strict``).

        Configuration errors are not block failures: they raise before
        the guard so a misconfigured run fails loudly, not one
        quarantine per block.
        """
        if self.config.unroll_strategy not in \
                ProfilerConfig.STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.config.unroll_strategy!r}")
        try:
            return self._profile_fresh(block, text)
        except Exception as exc:
            return self._quarantined_result(text, exc)

    def _quarantined_result(self, text: str,
                            exc: Exception) -> ProfileResult:
        resilience.quarantine_or_raise(
            f"block quarantined ({type(exc).__name__})", str(exc))
        extra: dict = {}
        if isinstance(exc, ChaosFault):
            # Rides the info plumbing (result.extra -> store entry ->
            # CorpusProfile.info -> merge) so injections that fired
            # inside pool workers stay visible to the parent's report.
            extra["chaos_block_poison"] = 1.0
        if isinstance(exc, StepBudgetExceeded):
            extra["step_budget_exceeded"] = 1.0
        telemetry.event("resilience.block_quarantined",
                        reason=type(exc).__name__,
                        detail=str(exc)[:200])
        return ProfileResult(
            text, self.machine.name,
            failure=FailureReason.QUARANTINED,
            detail=f"{type(exc).__name__}: {exc}"[:200],
            extra=extra)

    def _profile_fresh(self, block: BasicBlock,
                       text: str) -> ProfileResult:
        """Profile one block: its functional half once, then the timing
        half on this profiler's machine and on each sibling."""
        uarch = self.machine.name
        chaos.poison(text)

        if not self.machine.supports(block):
            return ProfileResult(text, uarch,
                                 failure=FailureReason.UNSUPPORTED_ISA)
        if not block.is_supported:
            return ProfileResult(text, uarch,
                                 failure=FailureReason.UNSUPPORTED)

        plan = self.config.plan_for(
            block, icache_bytes=self.machine.desc.l1i.size)
        env = Environment(self.config.environment)
        self._last_env = env
        env.reset()

        mapping = map_pages(env, block, unroll=plan.max_factor,
                            max_faults=self.config.max_faults,
                            enable_mapping=self.config.mapping_enabled)
        siblings = self._siblings_for(block)
        if not mapping.success:
            # A mapping failure does not depend on the uarch.
            failed = [ProfileResult(text, machine.name,
                                    failure=mapping.failure,
                                    num_faults=mapping.num_faults,
                                    pages_mapped=mapping.pages_mapped,
                                    detail=mapping.detail)
                      for machine in (self.machine, *siblings)]
            for result in failed[1:]:
                self._share(result)
            return failed[0]

        # Fast path: the mapping run's trace *is* the measurement
        # trace (re-initialisation makes every execution identical),
        # and each smaller factor's trace is its prefix — so the two
        # per-factor functional re-executions are skipped entirely.
        mapped = _Mapped(block, text, plan, env, mapping)
        if simcore.enabled() and mapping.trace is not None \
                and mapping.trace.unroll == plan.max_factor:
            mapped.traces = {
                unroll: mapping.trace if unroll == plan.max_factor
                else mapping.trace.prefix(unroll)
                for unroll in plan.factors}
            mapped.subnormal_events = sum(
                trace.subnormal_count for trace in mapped.traces.values())
        result = self._time(self.machine, mapped)
        for machine in siblings:
            try:
                self._share(self._time(machine, mapped))
            except Exception as exc:
                # No result: its own row re-profiles the block and
                # quarantines it there (or raises under --strict).
                telemetry.event("profiler.sibling_failed",
                                uarch=machine.name,
                                error=type(exc).__name__)
        return result

    def _siblings_for(self, block: BasicBlock) -> List[Machine]:
        """The siblings to time ``block`` on: fast path only, and only
        those that support it and price like this profiler's machine."""
        if not self.siblings or not simcore.enabled():
            return []
        key = self.machine.pricing_key
        return [machine for machine in self.siblings
                if machine.pricing_key == key and machine.supports(block)]

    def _share(self, result: ProfileResult) -> None:
        self.shared[(result.uarch, result.block_text)] = result
        if telemetry.is_enabled():
            telemetry.count("profiler.sibling_runs")

    def take_shared(self) -> List[ProfileResult]:
        """The sibling results timed since the last call, in the order
        they were timed; the profiler keeps none of them."""
        shared = list(self.shared.values())
        self.shared.clear()
        return shared

    def _time(self, machine: Machine, mapped: "_Mapped") -> ProfileResult:
        """The timing half of a profile on ``machine``: each factor's
        runs, acceptance and the derived throughput."""
        uarch, text, plan = machine.name, mapped.text, mapped.plan
        block, env, traces = mapped.block, mapped.env, mapped.traces
        reps = self.config.acceptance.reps
        executor = Executor(env.state, env.memory) \
            if traces is None else None
        measurements: List[Measurement] = []
        accepted_cycles: List[int] = []
        subnormal_events = mapped.subnormal_events
        extrapolated = False

        def timed(unroll: int,
                  checkpoint_unroll: Optional[int] = None) -> RunResult:
            # The first machine to time a trace prices it; the rest
            # reuse its pricing.
            run = machine.run(block, unroll, traces[unroll], env.memory,
                              reps=reps, checkpoint_unroll=checkpoint_unroll,
                              pricing=mapped.prices.get(unroll))
            mapped.prices.setdefault(unroll, run.pricing)
            return run

        #: Results already produced by a combined two-factor run,
        #: keyed by unroll factor.
        pending: dict = {}
        combine = traces is not None and len(plan.factors) == 2 \
            and plan.factors[0] < plan.factors[1] == plan.max_factor
        for unroll in plan.factors:
            try:
                if traces is None:
                    env.reinitialize()
                    trace = executor.execute_block(block, unroll=unroll)
                    run = machine.run(block, unroll, trace, env.memory,
                                      reps=reps)
                    subnormal_events += trace.subnormal_count
                elif unroll in pending:
                    run = pending.pop(unroll)
                elif combine and unroll == plan.factors[0]:
                    # Combined two-factor run: one simulation of the
                    # large factor with a checkpoint at the small one.
                    # When the machine cannot certify the checkpoint
                    # it still returns a valid large-factor result —
                    # keep it and time the small factor separately.
                    big = timed(plan.max_factor, checkpoint_unroll=unroll)
                    pending[plan.max_factor] = big
                    run = big.checkpoint if big.checkpoint is not None \
                        else timed(unroll)
                else:
                    run = timed(unroll)
            except MemoryFault as fault:
                return ProfileResult(text, uarch,
                                     failure=FailureReason.SEGFAULT,
                                     detail=f"{fault.address:#x}")
            except ArithmeticFault:
                return ProfileResult(text, uarch,
                                     failure=FailureReason.SIGFPE)
            except UnsupportedInstructionError as exc:
                return ProfileResult(text, uarch,
                                     failure=FailureReason.UNSUPPORTED,
                                     detail=str(exc))
            if run.fastpath.get("extrapolated"):
                extrapolated = True
            cycles, failure, clean = \
                self.config.acceptance.accept(run.samples)
            base = run.samples[0]
            if failure is not None:
                return ProfileResult(
                    text, uarch, failure=failure,
                    num_faults=mapped.mapping.num_faults,
                    pages_mapped=env.pages_mapped,
                    measurements=tuple(measurements),
                    detail=f"unroll={unroll}")
            measurements.append(Measurement(
                unroll=unroll, cycles=cycles, clean_runs=clean,
                total_runs=len(run.samples),
                l1d_read_misses=base.l1d_read_misses,
                l1d_write_misses=base.l1d_write_misses,
                l1i_misses=base.l1i_misses,
                misaligned_refs=base.misaligned_mem_refs))
            accepted_cycles.append(cycles)

        throughput = plan.derive_throughput(tuple(accepted_cycles))
        # ``extra`` is informational only (surfaced as the run
        # report's ``fastpath_extrapolated`` / ``blockplan_compiled``
        # buckets) — it never feeds the funnel, so accepted/dropped
        # totals stay byte-identical with either switch off.
        extra = {"fastpath_extrapolated": 1.0} if extrapolated else {}
        if blockplan.enabled():
            extra["blockplan_compiled"] = 1.0
        return ProfileResult(
            text, uarch,
            throughput=max(throughput, 0.0),
            measurements=tuple(measurements),
            pages_mapped=env.pages_mapped,
            num_faults=mapped.mapping.num_faults,
            subnormal_events=subnormal_events,
            extra=extra)

    # ------------------------------------------------------------------

    def profile_many(self, blocks: Iterable[Union[BasicBlock, str]]
                     ) -> List[ProfileResult]:
        """Profile a corpus; order of results matches the input.

        Every block goes through :meth:`profile`, so a repeated text
        is a dedup-memo hit.
        """
        with telemetry.span("profiler.profile_many",
                            uarch=self.machine.name) as sp:
            results = [self.profile(block) for block in blocks]
            sp.annotate(blocks=len(results),
                        accepted=sum(1 for r in results if r.ok),
                        fastpath_extrapolated=sum(
                            1 for r in results
                            if r.extra.get("fastpath_extrapolated")),
                        blockplan_compiled=sum(
                            1 for r in results
                            if r.extra.get("blockplan_compiled")))
        return results


#: Weak reference to the most recently constructed profiler, so the
#: dedup-memo stats provider can report the live memo's size without
#: keeping profilers alive.
_LAST_PROFILER: Optional[weakref.ref] = None


def _dedup_cache_stats() -> cachestats.CacheStats:
    """Unified-telemetry provider for the corpus dedup memo."""
    stats = cachestats.registry_stats("dedup")
    profiler = _LAST_PROFILER() if _LAST_PROFILER is not None else None
    if profiler is not None:
        stats.size = len(profiler._memo)
    return stats


cachestats.register_provider("dedup", _dedup_cache_stats)


def profile_block(block: Union[BasicBlock, str],
                  uarch: str = "haswell",
                  config: Optional[ProfilerConfig] = None,
                  seed: int = 0) -> ProfileResult:
    """One-shot convenience: profile a block on a fresh machine."""
    return BasicBlockProfiler(Machine(uarch, seed=seed), config) \
        .profile(block)


def result_entry(result: ProfileResult) -> Dict:
    """What a corpus profile keeps of one result, and all the result
    store keeps: the throughput of an accepted block, else the reason
    it was dropped, plus the keys of its truthy ``extra`` tallies (in
    their order, which orders a profile's ``info``)."""
    if result.ok and result.throughput > 0:
        entry: Dict = {"throughput": result.throughput}
    else:
        entry = {"reason": "zero_throughput" if result.failure is None
                 else result.failure.value}
    extra = [key for key, value in result.extra.items() if value]
    if extra:
        entry["extra"] = extra
    return entry


def fold_entries(pairs: Iterable[Tuple[int, Dict]]) -> CorpusProfile:
    """Fold (block id, entry) pairs, in record order, into a profile.

    The single accept/drop policy: an entry with a throughput is
    accepted, any other is dropped under its reason, and each extra
    key is tallied into ``info``.  Fresh results and stored entries
    fold alike, so a run served from the store cannot diverge from
    one that profiled every block.
    """
    throughputs: Dict[int, float] = {}
    funnel = CorpusProfile.empty_funnel()
    info: Dict[str, int] = {}
    for block_id, entry in pairs:
        funnel["total"] += 1
        if "throughput" in entry:
            throughputs[block_id] = entry["throughput"]
            funnel["accepted"] += 1
        else:
            reason = entry["reason"]
            funnel["dropped"][reason] = \
                funnel["dropped"].get(reason, 0) + 1
        for key in entry.get("extra", ()):
            info[key] = info.get(key, 0) + 1
    return CorpusProfile(throughputs=throughputs, funnel=funnel,
                         info=info)


def profile_records_detailed(profiler: BasicBlockProfiler,
                             records) -> CorpusProfile:
    """Profile an ordered run of records with one profiler, folded
    through :func:`fold_entries`."""
    records = list(records)
    results = profiler.profile_many([r.block for r in records])
    return fold_entries((record.block_id, result_entry(result))
                        for record, result in zip(records, results))
