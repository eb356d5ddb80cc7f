"""The simulated ground-truth machine.

``Machine`` plays the role of the physical Ivy Bridge / Haswell /
Skylake box in the paper: it executes a (functionally traced) unrolled
basic block and returns hardware-counter samples — core cycles, L1
misses, misaligned references, context switches — including realistic
OS noise.  The profiler (:mod:`repro.profiler`) treats it exactly like
hardware: it cannot see inside, only program counters and read them.

Timing is produced by the dataflow scheduler over the ground-truth
tables with *all* micro-architectural features enabled (zero idioms,
move elimination, split load-op scheduling, store forwarding, subnormal
assists, unpipelined division, cache modelling).
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.isa.encoder import instruction_length
from repro.isa.instruction import BasicBlock
from repro.telemetry import core as telemetry
from repro.runtime.memory import PAGE_SIZE, VirtualMemory
from repro.runtime.trace import ExecutionTrace, InstrEvent
from repro.simcore import config as simcore
from repro.uarch.caches import CacheModel, never_evicts
from repro.uarch.counters import CounterSample
from repro.uarch.scheduler import (DataflowScheduler, InstrAnnotation,
                                   ScheduleResult)
from repro.uarch.tables import get_uarch
from repro.uarch.uops import Decomposer


@dataclass(frozen=True)
class NoiseParameters:
    """OS / measurement noise applied to every timed run.

    ``context_switch_rate`` is per simulated cycle; a context switch
    both inflates the cycle count and trips the context-switch counter,
    so the profiler's invariant enforcement rejects the run.
    ``jitter_probability`` models benign cycle jitter (TLB walks,
    prefetcher interference) that perturbs timing *without* tripping a
    counter — exactly why the paper requires 8 of 16 identical clean
    timings rather than trusting a single run.
    """

    context_switch_rate: float = 2.0e-7
    context_switch_cycles: Tuple[int, int] = (5_000, 50_000)
    jitter_probability: float = 0.12
    jitter_cycles: Tuple[int, int] = (1, 8)


@dataclass(frozen=True)
class Pricing:
    """A trace priced against the caches: what :meth:`Machine.run`
    computes before it calls ``schedule()``.

    Pricing reads only the descriptor fields in ``key``
    (:attr:`Machine.pricing_key`), so every machine with an equal key
    can time the same trace from one pricing.  ``annotations`` already
    carry their L1I fetch stalls and are never written again; the
    scheduler only reads them.
    """

    key: tuple
    unroll: int
    annotations: List[InstrAnnotation]
    read_misses: int
    write_misses: int
    l1i_misses: int
    misaligned: int
    #: The certified two-factor checkpoint (``None`` when none was
    #: asked for or it cannot be proved exact) and its prefix's
    #: misaligned-reference count.
    checkpoint: Optional[int] = None
    checkpoint_misaligned: int = 0


@dataclass
class RunResult:
    """Everything one measurement run produces."""

    samples: List[CounterSample]
    schedule: ScheduleResult
    base_cycles: int
    #: Synthesized result for ``checkpoint_unroll`` iterations,
    #: byte-identical to a standalone :meth:`Machine.run` at that
    #: unroll factor.  Present only when every precondition for the
    #: combined two-factor fast path was certified.
    checkpoint: Optional["RunResult"] = None
    #: The pricing this run was timed from, for machines with an equal
    #: pricing key to time the same trace (``None`` on a checkpoint).
    pricing: Optional[Pricing] = None


class Machine:
    """One simulated CPU + OS environment."""

    #: Where unrolled benchmark code is laid out in (virtual) memory.
    CODE_BASE = 0x400000

    def __init__(self, uarch: str = "haswell", seed: int = 0,
                 noise: Optional[NoiseParameters] = None):
        self.desc, self.table, self.div_table = get_uarch(uarch)
        self._uarch_key = uarch
        self.seed = seed
        self.noise = noise if noise is not None else NoiseParameters()
        self.decomposer = Decomposer(self.desc, self.table, self.div_table)
        self.scheduler = DataflowScheduler(self.desc, self.decomposer)
        #: cycles -> context-switch probability; the exp() below is a
        #: pure function of the cycle count and shows up hot in the
        #: reps loop.
        self._p_switch_cache: dict = {}

    @property
    def name(self) -> str:
        return self.desc.name

    def describe(self) -> "MachineDescriptor":
        """A picklable descriptor that rebuilds this machine exactly.

        ``Machine.describe().build()`` yields a machine that times
        every block identically to this one (same tables, same seeded
        noise), which is what lets ``repro.parallel`` fan profiling
        out across processes without shipping simulator state.
        """
        from repro.uarch.descriptor import MachineDescriptor
        return MachineDescriptor(uarch=self._uarch_key, seed=self.seed,
                                 noise=self.noise)

    def supports(self, block: BasicBlock) -> bool:
        return self.desc.supports_block(block)

    @property
    def pricing_key(self) -> tuple:
        """The descriptor fields :meth:`price` reads: machines with an
        equal key price every trace identically."""
        desc = self.desc
        return (desc.l1d, desc.l1i, desc.l1_miss_penalty,
                desc.split_line_penalty, desc.l1i_miss_penalty)

    # ------------------------------------------------------------------
    # Annotation: price the functional trace against the caches
    # ------------------------------------------------------------------

    def _data_cache_annotations(self, trace: ExecutionTrace,
                                memory: VirtualMemory
                                ) -> Tuple[List[InstrAnnotation], int, int]:
        """Run the L1D model over the trace (warm-up pass + timed pass).

        Returns per-dynamic-instruction annotations and the timed
        pass's read/write miss counts.
        """
        desc = self.desc
        l1d = CacheModel(desc.l1d)
        physical = {}

        def paddr(address: int) -> int:
            hit = physical.get(address)
            if hit is None:
                hit = memory.physical_address(address)
                physical[address] = hit
            return hit

        events = trace.events
        line_size = desc.l1d.line_size
        miss_penalty = desc.l1_miss_penalty
        split_penalty = desc.split_line_penalty
        access_range = l1d.access_range
        # Warm-up pass (the first, untimed execution in Fig. 2).
        for event in events:
            for access in event.accesses:
                access_range(paddr(access.address), access.width)

        read_misses = 0
        write_misses = 0
        annotations: List[InstrAnnotation] = []
        append_ann = annotations.append
        for event in events:
            ann = InstrAnnotation(div_class=event.div_class,
                                  subnormal=event.subnormal)
            for access in event.accesses:
                misses = access_range(paddr(access.address),
                                      access.width)
                penalty = misses * miss_penalty
                if access.crosses_line(line_size):
                    penalty += split_penalty
                if access.is_write:
                    write_misses += misses
                    ann.write_accesses.append((access.address,
                                               access.width))
                else:
                    read_misses += misses
                    ann.read_accesses.append((access.address,
                                              access.width, penalty))
            append_ann(ann)
        return annotations, read_misses, write_misses

    def _split_line_annotations(self, events: Sequence[InstrEvent],
                                annotations: List[InstrAnnotation]
                                ) -> Tuple[int, bool]:
        """Annotate ``events`` for an L1D that never misses, appending
        to ``annotations``: a read's only extra latency is the
        split-line penalty.

        Returns how many accesses span a line boundary (the
        misaligned-reference count) and whether any spans a page
        boundary.
        """
        line_size = self.desc.l1d.line_size
        split_penalty = self.desc.split_line_penalty
        page_mask = PAGE_SIZE - 1
        misaligned = 0
        crosses_page = False
        append_ann = annotations.append
        for event in events:
            ann = InstrAnnotation(div_class=event.div_class,
                                  subnormal=event.subnormal)
            for access in event.accesses:
                address = access.address
                width = access.width
                split = address % line_size + width > line_size
                if split:
                    misaligned += 1
                    if (address & page_mask) + width > PAGE_SIZE:
                        crosses_page = True
                if access.is_write:
                    ann.write_accesses.append((address, width))
                else:
                    ann.read_accesses.append(
                        (address, width, split_penalty if split else 0))
            append_ann(ann)
        return misaligned, crosses_page

    def _price_without_eviction(self, block: BasicBlock, unroll: int,
                                trace: ExecutionTrace,
                                memory: VirtualMemory,
                                checkpoint_unroll: Optional[int]
                                ) -> Optional[Pricing]:
        """The pricing of a trace whose L1D can never evict, in one
        pass and without the LRU; ``None`` when it could evict.

        Exact because:

        * the set index is made of page-offset bits, so one physical
          frame puts at most ``ceil(4096 / (sets * line_size))`` lines
          into any one set (:func:`~repro.uarch.caches.never_evicts`);
          with the frames ``memory`` maps times that at most ``ways``,
          nothing is ever evicted.  An access that spans a page
          boundary is tagged from its first byte's frame, so its tail
          line counts against the next frame number: a trace with one
          is priced here only if those frames fit as well (always
          with one frame, as in single-physical-page mode);
        * every line the timed pass touches was loaded by the warm-up
          pass, which walks the same events, so both miss counts are 0
          at any unroll factor, and the annotations depend only on
          the events: addresses, divider class and assist;
        * the ``checkpoint_unroll`` trace is this trace's prefix (by
          re-initialisation), and with no L1I stall here there is
          none at the smaller factor either, so its annotations are
          this pricing's prefix.  The scheduler is online, so its
          checkpoint reading is the standalone makespan of that
          prefix, and the checkpoint is certified from these facts
          alone.
        """
        frames = {page.frame for page in memory.physical_pages}
        geometry = self.desc.l1d
        if not never_evicts(geometry, len(frames)):
            return None
        cut = unroll
        if checkpoint_unroll and 0 < checkpoint_unroll < unroll:
            cut = checkpoint_unroll
        events = trace.events
        boundary = cut * trace.block_len
        annotations: List[InstrAnnotation] = []
        head_misaligned, head_crosses = self._split_line_annotations(
            events[:boundary], annotations)
        tail_misaligned, tail_crosses = self._split_line_annotations(
            events[boundary:], annotations)
        if (head_crosses or tail_crosses) and not never_evicts(
                geometry, len(frames | {frame + 1 for frame in frames})):
            return None
        l1i_misses = self._instruction_cache_annotations(
            block, unroll, annotations)
        checkpoint = cut if cut < unroll and not l1i_misses else None
        return Pricing(
            key=self.pricing_key, unroll=unroll, annotations=annotations,
            read_misses=0, write_misses=0, l1i_misses=l1i_misses,
            misaligned=head_misaligned + tail_misaligned,
            checkpoint=checkpoint,
            checkpoint_misaligned=0 if checkpoint is None
            else head_misaligned)

    #: Fraction of capacity-exceeded code lines that still demand-miss
    #: past the L1I next-line prefetcher.  Straight-line benchmark code
    #: is the prefetcher's best case; most overflow lines arrive in
    #: time and only ~20% stall the front end (calibrated against the
    #: paper's 35 misses on a ~42 KB unrolled footprint).
    ICACHE_PREFETCH_MISS_FRACTION = 0.2

    def _instruction_cache_annotations(
            self, block: BasicBlock, unroll: int,
            annotations: List[InstrAnnotation]) -> int:
        """Charge front-end stalls for I-cache misses on the timed pass.

        The unrolled code is laid out contiguously from ``CODE_BASE``.
        A footprint within L1I capacity never misses after the warm-up
        execution; beyond capacity, the pass re-walks lines that LRU
        evicted, and the share the next-line prefetcher cannot hide
        stalls the front end — the effect that breaks naive 100x
        unrolling for large blocks (Table II) and motivates the
        two-unroll-factor technique.

        Charges ``fetch_stall`` in place, so it runs once per
        :meth:`price`, before any machine times the annotations.
        """
        desc = self.desc
        line = desc.l1i.line_size
        footprint = block.byte_length * unroll
        capacity = desc.l1i.size
        if footprint <= capacity:
            return 0
        excess_lines = (footprint - capacity + line - 1) // line
        misses = max(1, round(excess_lines
                              * self.ICACHE_PREFETCH_MISS_FRACTION))
        # Spread the demand misses evenly across the pass.
        total = len(annotations)
        stride = max(1, total // misses)
        charged = 0
        for index in range(0, total, stride):
            if charged == misses:
                break
            annotations[index].fetch_stall += desc.l1i_miss_penalty
            charged += 1
        return misses

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def price(self, block: BasicBlock, unroll: int, trace: ExecutionTrace,
              memory: VirtualMemory, keep_records: bool = False,
              checkpoint_unroll: Optional[int] = None) -> Pricing:
        """Price the trace against the caches (the first half of a run).

        Covers the L1D warm-up and timed passes, the L1I fetch-stall
        charges, the misaligned-reference counts and the certification
        of ``checkpoint_unroll`` (see :meth:`run`).  Nothing here
        reads the timing tables.

        With the fast path on, a trace whose L1D can never evict (the
        frames ``memory`` maps fit every set, as in the default
        single-physical-page mode) is priced in one pass with no LRU
        and no physical-address translation
        (:meth:`_price_without_eviction`).  Every other trace goes
        through both LRU passes in full, and gets no checkpoint.
        """
        if len(trace) != unroll * len(block):
            raise ValueError("trace does not match block × unroll")
        if simcore.enabled() and not keep_records:
            pricing = self._price_without_eviction(
                block, unroll, trace, memory, checkpoint_unroll)
            if pricing is not None:
                return pricing
        annotations, read_misses, write_misses = \
            self._data_cache_annotations(trace, memory)
        l1i_misses = self._instruction_cache_annotations(
            block, unroll, annotations)
        return Pricing(
            key=self.pricing_key, unroll=unroll, annotations=annotations,
            read_misses=read_misses, write_misses=write_misses,
            l1i_misses=l1i_misses,
            misaligned=trace.misaligned_count(self.desc.l1d.line_size))

    def run(self, block: BasicBlock, unroll: int, trace: ExecutionTrace,
            memory: VirtualMemory, reps: int = 16,
            keep_records: bool = False,
            checkpoint_unroll: Optional[int] = None,
            pricing: Optional[Pricing] = None) -> RunResult:
        """Time the unrolled block ``reps`` times (Fig. 2's measure loop).

        ``trace`` must come from a functional execution of exactly
        ``unroll`` copies of ``block`` under ``memory``'s final mapping.

        The scheduler always simulates all ``unroll`` iterations.  With
        the fast path on, only the pricing is cut short: a trace whose
        L1D cannot evict skips the LRU (:meth:`price`).

        ``pricing`` is the :meth:`price` of this very trace (the
        ``pricing`` of an earlier run on it), made by a machine with an
        equal :attr:`pricing_key`: the run then skips the cache passes
        and takes its checkpoint request from the pricing.  A pricing
        with another key is ignored and the trace is priced here.

        ``checkpoint_unroll`` (fast path only) asks for a second,
        synthesized result at a smaller unroll factor, derived from
        the same simulation pass — the combined two-factor run.  It is
        honoured (``RunResult.checkpoint``) only when provably exact:
        the L1D cannot evict (the mapped frames fit every set, see
        :meth:`_price_without_eviction`) and the unrolled footprint
        fits L1I.  Both miss counts are then 0 at either factor, and
        the checkpoint trace's annotations are a prefix of this
        trace's, so the (online) scheduler's state at the checkpoint
        equals the standalone run's final state; noise is drawn from a
        fresh per-(block, unroll) RNG, so the samples match
        byte-for-byte.  A trace whose L1D can evict gets no
        checkpoint: each factor is scheduled on its own, as with the
        fast path off.
        """
        if pricing is None or pricing.key != self.pricing_key:
            pricing = self.price(block, unroll, trace, memory,
                                 keep_records, checkpoint_unroll)
        elif pricing.unroll != unroll:
            raise ValueError("pricing does not match the unroll factor")
        read_misses = pricing.read_misses
        write_misses = pricing.write_misses
        l1i_misses = pricing.l1i_misses
        checkpoint = pricing.checkpoint
        schedule = self.scheduler.schedule(block, unroll,
                                           pricing.annotations,
                                           keep_records=keep_records,
                                           checkpoint=checkpoint)
        base = CounterSample(
            cycles=schedule.cycles,
            l1d_read_misses=read_misses,
            l1d_write_misses=write_misses,
            l1i_misses=l1i_misses,
            misaligned_mem_refs=pricing.misaligned,
        )
        checkpoint_result = None
        if checkpoint is not None \
                and schedule.checkpoint_cycles is not None:
            cp_cycles = schedule.checkpoint_cycles
            cp_base = CounterSample(
                cycles=cp_cycles,
                l1d_read_misses=read_misses,
                l1d_write_misses=write_misses,
                l1i_misses=0,
                misaligned_mem_refs=pricing.checkpoint_misaligned,
            )
            cp_rng = self._rng(block, checkpoint)
            cp_samples = [self._perturb(cp_base, cp_rng)
                          for _ in range(reps)]
            checkpoint_result = RunResult(
                samples=cp_samples,
                schedule=ScheduleResult(cycles=cp_cycles, records=[]),
                base_cycles=cp_cycles)
        rng = self._rng(block, unroll)
        samples = [self._perturb(base, rng) for _ in range(reps)]
        if telemetry.is_enabled():
            clean = sum(1 for s in samples if s.is_clean)
            telemetry.count("machine.runs")
            telemetry.count("machine.simulated_cycles", schedule.cycles)
            telemetry.count("machine.samples_clean", clean)
            telemetry.count("machine.samples_rejected",
                            len(samples) - clean)
            telemetry.count("machine.l1d_read_misses", read_misses)
            telemetry.count("machine.l1d_write_misses", write_misses)
            telemetry.count("machine.l1i_misses", l1i_misses)
            telemetry.observe("machine.cycles_per_run", schedule.cycles)
            if checkpoint_result is not None:
                # Mirror what a standalone run at the checkpoint
                # factor would have recorded, so machine.* telemetry
                # is independent of whether the runs were combined.
                cp_samples = checkpoint_result.samples
                cp_clean = sum(1 for s in cp_samples if s.is_clean)
                telemetry.count("machine.runs")
                telemetry.count("machine.simulated_cycles",
                                checkpoint_result.base_cycles)
                telemetry.count("machine.samples_clean", cp_clean)
                telemetry.count("machine.samples_rejected",
                                len(cp_samples) - cp_clean)
                telemetry.count("machine.l1d_read_misses", read_misses)
                telemetry.count("machine.l1d_write_misses",
                                write_misses)
                telemetry.observe("machine.cycles_per_run",
                                  checkpoint_result.base_cycles)
                telemetry.count("simcore.checkpointed_runs")
        return RunResult(samples=samples, schedule=schedule,
                         base_cycles=schedule.cycles,
                         checkpoint=checkpoint_result, pricing=pricing)

    def _rng(self, block: BasicBlock, unroll: int) -> random.Random:
        digest = zlib.crc32(block.text().encode())
        return random.Random(f"{self.seed}:{digest}:{unroll}:{self.name}")

    def _perturb(self, base: CounterSample,
                 rng: random.Random) -> CounterSample:
        noise = self.noise
        p_switch = self._p_switch_cache.get(base.cycles)
        if p_switch is None:
            p_switch = 1.0 - math.exp(-base.cycles
                                      * noise.context_switch_rate)
            self._p_switch_cache[base.cycles] = p_switch
        if rng.random() < p_switch:
            return base.with_noise(
                extra_cycles=rng.randint(*noise.context_switch_cycles),
                context_switches=1)
        if rng.random() < noise.jitter_probability:
            return base.with_noise(
                extra_cycles=rng.randint(*noise.jitter_cycles))
        return base
