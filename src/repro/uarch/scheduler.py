"""Greedy dataflow scheduler: the out-of-order execution model.

Given a stream of decomposed instructions, the scheduler assigns each
micro-op a dispatch cycle respecting

* data dependencies (register renaming over base registers + flags,
  store-to-load forwarding when a functional trace is supplied),
* structural hazards (one micro-op per port per cycle; unpipelined
  units occupy their port for ``occupancy`` cycles),
* the front end (``issue_width`` fused-domain micro-ops allocated per
  cycle, plus any instruction-fetch stall cycles), and
* dynamic penalties (L1 miss, split-line access, subnormal assist).

Micro-ops are visited in program order but may dispatch out of order —
a later load with ready inputs takes an earlier cycle than a stalled
older ALU op, which is precisely the behaviour behind the paper's
llvm-mca mis-scheduling case study.

The same scheduler powers the ground-truth machine and the IACA /
llvm-mca / OSACA analogues; only tables and policies differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.isa.instruction import BasicBlock, Instruction
from repro.isa.operands import is_reg
from repro.uarch.descriptor import UarchDescriptor
from repro.uarch.uops import DecomposedInstruction, Decomposer, Uop


@dataclass(slots=True)
class InstrAnnotation:
    """Dynamic facts about one executed instruction (from the trace)."""

    div_class: Optional[Tuple[int, bool]] = None
    subnormal: bool = False
    #: (address, width, extra_latency) per read access.
    read_accesses: List[Tuple[int, int, int]] = field(default_factory=list)
    #: (address, width) per write access.
    write_accesses: List[Tuple[int, int]] = field(default_factory=list)
    #: Front-end stall cycles charged before this instruction.
    fetch_stall: int = 0


@dataclass(frozen=True, slots=True)
class UopRecord:
    """One scheduled micro-op, for traces and figures."""

    instr_index: int
    slot: int
    mnemonic: str
    kind: str
    port: Optional[int]
    dispatch: int
    finish: int


@dataclass
class ScheduleResult:
    cycles: int
    records: List[UopRecord]
    #: Iterations whose timing was derived analytically from a
    #: scheduler-state fixed point instead of being simulated (0 when
    #: no ``steady`` witness was passed or the state never converged).
    extrapolated_iterations: int = 0
    #: Makespan after the first ``checkpoint`` iterations — what a
    #: standalone schedule of that prefix would have returned (the
    #: scheduler is an online algorithm, so the prefix of a longer run
    #: is bit-identical to a shorter run given identical annotations).
    #: ``None`` when no checkpoint was requested or reached.
    checkpoint_cycles: Optional[int] = None

    def port_pressure(self) -> Dict[int, int]:
        pressure: Dict[int, int] = {}
        for rec in self.records:
            if rec.port is not None:
                pressure[rec.port] = pressure.get(rec.port, 0) + 1
        return pressure

    def instruction_dispatches(self) -> Dict[int, int]:
        """First dispatch cycle of each dynamic instruction."""
        first: Dict[int, int] = {}
        for rec in self.records:
            cur = first.get(rec.instr_index)
            if cur is None or rec.dispatch < cur:
                first[rec.instr_index] = rec.dispatch
        return first


class _PortFile:
    """Tracks per-cycle port occupancy.

    Occupancy is kept as a dense floor plus a sparse overflow set:
    every cycle below ``_dense[p]`` is busy, and ``_busy[p]`` holds
    the busy cycles at or above the floor.  On a saturated port the
    floor simply advances and the sparse set stays empty — which both
    short-circuits the free-cycle walk and gives the steady-state
    detector a finite representation of an ever-growing busy history.
    """

    def __init__(self, ports: Sequence[int]):
        self._busy: Dict[int, set] = {p: set() for p in ports}
        self._dense: Dict[int, int] = {p: 0 for p in ports}
        self._reserved_until: Dict[int, int] = {p: 0 for p in ports}
        self.counts: Dict[int, int] = {p: 0 for p in ports}
        #: Lowest probe start seen per port since the last detector
        #: capture (``None`` = not probed).  Busy cycles below this
        #: floor can never be consulted by a replayed window, so the
        #: steady-state signature may ignore them.
        self.floor_seen: Dict[int, Optional[int]] = \
            {p: None for p in ports}

    def earliest_free(self, port: int, lower: int, occupancy: int) -> int:
        cycle = self._reserved_until[port]
        if lower > cycle:
            cycle = lower
        dense = self._dense[port]
        if cycle < dense:
            cycle = dense
        seen = self.floor_seen[port]
        if seen is None or cycle < seen:
            self.floor_seen[port] = cycle
        busy = self._busy[port]
        while cycle in busy:
            cycle += 1
        return cycle

    def reset_floors(self) -> None:
        for port in self.floor_seen:
            self.floor_seen[port] = None

    def reserve(self, port: int, cycle: int, occupancy: int) -> None:
        if cycle == self._dense[port]:
            busy = self._busy[port]
            edge = cycle + 1
            while edge in busy:
                busy.remove(edge)
                edge += 1
            self._dense[port] = edge
        else:
            self._busy[port].add(cycle)
        if occupancy > 1:
            self._reserved_until[port] = cycle + occupancy
        self.counts[port] += 1


class _SteadyDetector:
    """Detects a time-shifted fixed point of the scheduler state.

    Given the annotation witness ``(t, q)`` (iteration ``i >= t`` has
    the same annotations as ``i + q``), the only scheduler inputs that
    can still vary between iterations are the *carried state*: register
    ready times, port occupancy, and the store buffer.  This class
    snapshots that state at iteration boundaries, normalised relative
    to the front-end allocation clock ``t_j = slots_used //
    issue_width + stall_cycles``:

    * ready times / busy cycles / store-buffer entries earlier than
      ``t_j`` can never influence a future decision (every future
      dispatch lower bound is ``>= t_j``), so they are replaced by an
      inertness sentinel;
    * everything still live is expressed relative to an *anchor* — the
      maximum live state value — so that state marching ahead of the
      front end (saturated ports, latency chains) still produces a
      finite, repeating snapshot;
    * port-use counts only matter through pairwise comparisons (the
      dispatch tie-break), so they are normalised to their minimum.

    Snapshots are taken every ``P`` iterations, where ``P`` is the
    smallest multiple of ``q`` whose slot count is a multiple of the
    issue width — that makes the allocation clock advance by exactly
    ``s = slots(P) / issue_width`` per window, independent of
    ``slots_used % issue_width``.  Boundaries are aligned so that
    ``unroll`` is a whole number of windows past them.  When two
    consecutive snapshots are equal, all live state shifted by a
    uniform ``dt = anchor - prev_anchor``, and every future scheduling
    decision replays the last window shifted by ``dt`` — provided the
    replay cannot observe the allocation clock, which only advances by
    ``s <= dt`` per window.  That is guaranteed either because
    ``dt == s`` (state advances in lockstep with the front end) or
    because no decision in the window was *alloc-sensitive* (the
    scheduler flags any dispatch whose outcome could have been
    different had the allocation clock been shifted differently).  The
    makespan of the remaining ``R`` windows is then
    ``max(window_peak + R * dt, front-end drain)`` — computed
    analytically, byte-identical to simulating them.
    """

    #: Sentinel for state values at or below the allocation clock:
    #: provably inert for every future decision, now and forever
    #: (every probe floor only grows).
    STALE = None

    #: After this many consecutive snapshot mismatches the detector
    #: turns itself off: blocks whose state never settles (mixed-rate
    #: kernels, growing latency chains) would otherwise pay the full
    #: signature cost at every remaining boundary for nothing.  Purely
    #: a cost heuristic — firing later or never cannot change output.
    GIVE_UP = 12

    def __init__(self, desc: UarchDescriptor, steady: Tuple[int, int],
                 unroll: int, read_bases: frozenset = frozenset(),
                 checkpoint: Optional[int] = None):
        self.width = desc.issue_width
        self.t, self.q = steady
        self.unroll = unroll
        #: Iteration count at which the caller needs an intermediate
        #: cycle reading (the smaller unroll factor of a combined
        #: two-factor run).  A fixed point reached *before* it may only
        #: fire from a boundary a whole number of windows away from it.
        self.checkpoint = checkpoint
        self._failures = 0
        self.dead = False
        #: Register bases some instruction of the block actually reads.
        #: A ready time for anything else can never bind a decision —
        #: a dead destination paced differently from the rest of the
        #: state (e.g. an unused load result beside a latency chain)
        #: would otherwise block convergence forever.
        self.read_bases = read_bases
        #: Clamp margin for store readiness: an older store can only
        #: raise a load's finish (already ``>= t_j``) through
        #: ``ready + store_forward_latency (+ 10)``, which is a no-op
        #: once ``ready`` falls below ``t_j - latency - 10``.
        self.store_margin = desc.store_forward_latency + 10
        self.period: Optional[int] = None
        self._slots_at_t: Optional[int] = 0 if self.t == 0 else None
        self._prev: Optional[tuple] = None
        self._prev_slots = 0
        self._prev_clock = 0
        self._prev_anchor = 0
        #: Distinct port sets dispatched to so far (the scheduling
        #: loop feeds this); a set appearing between two boundaries
        #: makes their signatures structurally unequal — safe.
        self.port_sets: set = set()
        #: Set by :meth:`check` whenever it snapshots a boundary — the
        #: caller resets its window-peak tracker on capture.
        self.captured = False

    def _signature(self, clock: int, slots_used: int, stall_cycles: int,
                   ports: _PortFile, reg_ready: Dict[str, int],
                   stores: List[Tuple[int, int, int]]
                   ) -> Tuple[tuple, int]:
        """Build the boundary snapshot; returns ``(sig, anchor)``.

        Values are first collected raw (with :data:`STALE` standing in
        for anything at or below the clock), the anchor is the maximum
        live value (or the clock if nothing is live), and offsets are
        taken from the anchor — so two snapshots compare equal exactly
        when the live state is a uniform time-shift.
        """
        floor = clock - self.store_margin
        port_order = sorted(ports.counts)
        anchor = clock
        raw_ports = []
        for port in port_order:
            busy = ports._busy[port]
            stale = [c for c in busy if c < clock]
            if stale:
                busy.difference_update(stale)
            # A replayed window only probes this port at (shifted
            # copies of) the probe starts observed this window, so
            # anything below the observed floor is invisible to it.
            # The floor itself joins the signature, pinning matched
            # windows to corresponding probe patterns.  (The prune is
            # a *view* — the real busy set must survive in case the
            # simulation continues.)
            pfloor = ports.floor_seen[port]
            if pfloor is None:
                cycles = []
                dense = res = self.STALE
            else:
                lo = pfloor if pfloor > clock else clock
                cycles = sorted(c for c in busy if c >= lo)
                dense = ports._dense[port]
                dense = dense if dense > clock and dense >= pfloor \
                    else self.STALE
                res = ports._reserved_until[port]
                res = res if res > clock and res >= pfloor \
                    else self.STALE
                if pfloor > anchor:
                    anchor = pfloor
            if cycles and cycles[-1] > anchor:
                anchor = cycles[-1]
            if dense is not None and dense > anchor:
                anchor = dense
            if res is not None and res > anchor:
                anchor = res
            raw_ports.append((pfloor, dense, cycles, res))
        read_bases = self.read_bases
        live_regs = [(base, ready) for base, ready in reg_ready.items()
                     if ready > clock and base in read_bases]
        for _, ready in live_regs:
            if ready > anchor:
                anchor = ready
        # Drop the longest all-stale *prefix* of the store buffer (the
        # forwarding scan walks newest-first, so by the time it reaches
        # the prefix every candidate there — and everything older — is
        # inert).  Later stale entries keep their position under a
        # sentinel: they intercept the scan, but their contribution is
        # a no-op either way.
        start = 0
        for _, _, ready in stores:
            if ready > floor:
                break
            start += 1
        raw_stores = [(addr, width,
                       ready if ready > floor else self.STALE)
                      for addr, width, ready in stores[start:]]
        for _, _, ready in raw_stores:
            if ready is not None and ready > anchor:
                anchor = ready
        port_sig = tuple(
            (self.STALE if pfloor is None else pfloor - anchor,
             self.STALE if dense is None else dense - anchor,
             tuple(c - anchor for c in cycles),
             self.STALE if res is None else res - anchor)
            for pfloor, dense, cycles, res in raw_ports)
        regs = frozenset((base, ready - anchor)
                         for base, ready in live_regs)
        store_sig = tuple(
            (addr, width,
             self.STALE if ready is None else ready - anchor)
            for addr, width, ready in raw_stores)
        # Port-use counts only matter through the dispatch tie-break,
        # which compares counts *within one micro-op's port set* — so
        # normalise within each port set this schedule has actually
        # dispatched to.  (A global min would drag never-used ports
        # in, whose count gap grows forever and kills every match.)
        counts = ports.counts
        count_sig = tuple(
            sorted((ps, tuple(counts[p] - min(counts[q] for q in ps)
                              for p in ps))
                   for ps in self.port_sets))
        sig = (slots_used % self.width, stall_cycles, port_sig,
               regs, store_sig, count_sig)
        return sig, anchor

    def check(self, done: int, slots_used: int, stall_cycles: int,
              ports: _PortFile, reg_ready: Dict[str, int],
              stores: List[Tuple[int, int, int]], makespan: int,
              window_peak: int, alloc_sensitive: bool
              ) -> Optional[Tuple[int, int, Optional[int]]]:
        """Called after each completed iteration.

        ``done`` is how many iterations have been scheduled;
        ``window_peak`` is the highest finish time and
        ``alloc_sensitive`` whether any alloc-sensitive decision was
        made since the last capture.  Returns ``(total_cycles,
        skipped_iterations, checkpoint_cycles)`` once the state
        provably repeats, else ``None``.  ``checkpoint_cycles`` is
        filled only when the fire jumps over a still-pending
        checkpoint (the caller records checkpoints it reaches itself).
        """
        self.captured = False
        if self.dead:
            return None
        if self.period is None:
            if self._slots_at_t is None:
                if done == self.t:
                    self._slots_at_t = slots_used
                return None
            if done != self.t + self.q:
                return None
            slots_q = slots_used - self._slots_at_t
            self.period = self.q * (
                self.width // math.gcd(slots_q, self.width))
        period = self.period
        remaining = self.unroll - done
        if done < self.t or remaining % period:
            return None
        clock = slots_used // self.width + stall_cycles
        sig, anchor = self._signature(clock, slots_used, stall_cycles,
                                      ports, reg_ready, stores)
        cp = self.checkpoint
        # A fixed point reached before a pending checkpoint may only
        # fire when the checkpoint is a whole number of windows ahead
        # — otherwise keep simulating (and keep re-capturing, so the
        # per-window probe floors stay in phase) until the caller has
        # recorded the checkpoint itself.
        deferred = cp is not None and done < cp \
            and (cp - done) % period != 0
        if remaining and not deferred and self._prev is not None \
                and sig == self._prev and done - period >= self.t:
            # Every remaining window replays the last one shifted by
            # ``dt``; the front end advances by ``s <= dt`` per
            # window, which is safe exactly when the window never
            # looked at the allocation clock (or when dt == s).
            dt = anchor - self._prev_anchor
            s = clock - self._prev_clock
            if dt >= s and (dt == s or not alloc_sensitive):
                windows = remaining // period
                per_window = slots_used - self._prev_slots
                slots_total = slots_used + windows * per_window
                drain = (slots_total + self.width - 1) // self.width \
                    + stall_cycles
                cycles = max(makespan, window_peak + windows * dt,
                             drain)
                cp_cycles = None
                if cp is not None and done < cp:
                    # Same formula, truncated at the checkpoint
                    # boundary: the replay argument holds at every
                    # intermediate aligned boundary too.
                    w1 = (cp - done) // period
                    cp_slots = slots_used + w1 * per_window
                    cp_drain = (cp_slots + self.width - 1) \
                        // self.width + stall_cycles
                    cp_cycles = max(makespan,
                                    window_peak + w1 * dt, cp_drain)
                return cycles, remaining, cp_cycles
        if self._prev is not None and sig != self._prev:
            self._failures += 1
            if self._failures >= self.GIVE_UP:
                self.dead = True
                return None
        self._prev, self._prev_slots = sig, slots_used
        self._prev_clock, self._prev_anchor = clock, anchor
        self.captured = True
        return None


class DataflowScheduler:
    """Schedules an unrolled instruction stream on one core."""

    #: How many in-flight stores are searched for forwarding.
    STORE_WINDOW = 48

    def __init__(self, desc: UarchDescriptor, decomposer: Decomposer,
                 *, model_memory_dependencies: bool = True):
        self.desc = desc
        self.decomposer = decomposer
        self.model_memory_dependencies = model_memory_dependencies
        #: Whether the current detector window contains a decision
        #: whose outcome could have depended on the exact value of the
        #: allocation clock (see :class:`_SteadyDetector`).
        self._alloc_sensitive = False

    # ------------------------------------------------------------------

    def schedule(self, block: BasicBlock, unroll: int,
                 annotations: Optional[Sequence[InstrAnnotation]] = None,
                 keep_records: bool = False,
                 steady: Optional[Tuple[int, int]] = None,
                 checkpoint: Optional[int] = None) -> ScheduleResult:
        """Schedule ``unroll`` copies of ``block``; returns the makespan.

        ``steady`` is an optional annotation-periodicity witness
        ``(t, q)`` (iteration ``i >= t`` annotated identically to
        ``i + q``) enabling the fixed-point extrapolation fast path.

        ``checkpoint`` asks for the makespan after that many
        iterations as well (``ScheduleResult.checkpoint_cycles``) —
        the scheduler is online, so the reading is bit-identical to a
        standalone schedule of the prefix, provided the caller has
        certified that the prefix annotations are identical too.
        """
        desc = self.desc
        slot_plans = [self._slot_plan(instr)
                      for instr in block.instructions]
        detector = None
        if steady is not None and not keep_records and unroll > 1:
            read_bases = set()
            for plan in slot_plans:
                read_bases.update(plan[1])
                read_bases.update(plan[2])
                if plan[4] is not None:
                    read_bases.add(plan[4])
            detector = _SteadyDetector(desc, steady, unroll,
                                       frozenset(read_bases),
                                       checkpoint=checkpoint)
        self._alloc_sensitive = False
        ports = _PortFile(desc.ports)
        reg_ready: Dict[str, int] = {}
        #: Recent stores: (address, width, data_ready_cycle).
        stores: List[Tuple[int, int, int]] = []
        records: List[UopRecord] = []
        makespan = 0
        slots_used = 0
        stall_cycles = 0
        index = 0
        window_peak = 0

        # Everything that depends only on the instruction — register
        # dependency structure and the (non-division) decomposition —
        # is computed once per slot, not once per dynamic instruction.
        decomposer = self.decomposer
        issue_width = desc.issue_width
        schedule_instruction = self._schedule_instruction
        port_sets = detector.port_sets if detector is not None else None

        block_len = len(block)
        checkpoint_cycles: Optional[int] = None
        for iteration in range(unroll):
            for slot in range(block_len):
                plan = slot_plans[slot]
                instr = plan[0]
                ann = annotations[index] if annotations else None
                if ann is not None:
                    stall_cycles += ann.fetch_stall
                    div_class = ann.div_class
                    decomposed = plan[5] if div_class is None \
                        else decomposer.decompose(instr, div_class)
                else:
                    decomposed = plan[5]
                alloc = slots_used // issue_width + stall_cycles
                finish = schedule_instruction(
                    plan, decomposed, ann, alloc, ports, reg_ready,
                    stores, records if keep_records else None,
                    index, slot)
                slots_used += decomposed.fused_slots
                if finish > makespan:
                    makespan = finish
                if finish > window_peak:
                    window_peak = finish
                if port_sets is not None:
                    for uop in decomposed.uops:
                        if uop.ports:
                            port_sets.add(uop.ports)
                index += 1
            if iteration + 1 == checkpoint:
                # Same drain formula as the final return — this *is*
                # what a standalone schedule of the prefix returns.
                checkpoint_cycles = max(
                    makespan,
                    (slots_used + issue_width - 1)
                    // issue_width + stall_cycles)
            if detector is not None and not detector.dead:
                hit = detector.check(iteration + 1, slots_used,
                                     stall_cycles, ports, reg_ready,
                                     stores, makespan, window_peak,
                                     self._alloc_sensitive)
                if hit is not None:
                    cycles, skipped, cp_cycles = hit
                    if cp_cycles is not None:
                        checkpoint_cycles = cp_cycles
                    return ScheduleResult(
                        cycles=cycles, records=records,
                        extrapolated_iterations=skipped,
                        checkpoint_cycles=checkpoint_cycles)
                if detector.captured:
                    window_peak = 0
                    self._alloc_sensitive = False
                    ports.reset_floors()

        # Drain the front end: even pure-nop streams take alloc time.
        makespan = max(makespan,
                       (slots_used + issue_width - 1)
                       // issue_width + stall_cycles)
        return ScheduleResult(cycles=makespan, records=records,
                              checkpoint_cycles=checkpoint_cycles)

    # ------------------------------------------------------------------

    def _slot_plan(self, instr: Instruction) -> tuple:
        """Static per-slot facts: dependency bases, move-elimination
        source, and the division-free decomposition."""
        mem = instr.memory_operand
        addr_bases = [r.base for r in mem.registers] if mem else []
        if instr.mnemonic in ("push", "pop"):
            addr_bases.append("rsp")
        reads = instr.regs_read \
            if self.decomposer.recognize_zero_idioms \
            else instr.regs_read_raw
        data_bases = [r.base for r in reads
                      if r.base not in addr_bases]
        if instr.info.reads_flags:
            data_bases.append("__flags__")
        write_bases = [r.base for r in instr.regs_written]
        if instr.info.writes_flags:
            write_bases.append("__flags__")
        elim_src = next((op.base for op in instr.operands[1:]
                         if is_reg(op)), None)
        return (instr, tuple(addr_bases), tuple(data_bases),
                tuple(write_bases), elim_src,
                self.decomposer.decompose(instr, None))

    def _schedule_instruction(self, plan: tuple,
                              decomposed: DecomposedInstruction,
                              ann: Optional[InstrAnnotation],
                              alloc: int,
                              ports: _PortFile,
                              reg_ready: Dict[str, int],
                              stores: List[Tuple[int, int, int]],
                              records: Optional[List[UopRecord]],
                              index: int, slot: int) -> int:
        desc = self.desc
        instr, addr_bases, data_bases, write_bases, elim_src, _ = plan
        reg_get = reg_ready.get

        # Rename-stage instructions: no execution at all.  Their
        # finish *is* the allocation clock, so they mark the window
        # alloc-sensitive (harmless unless the steady state advances
        # faster than the front end).
        if decomposed.is_zero_idiom:
            self._alloc_sensitive = True
            for base in write_bases:
                reg_ready[base] = alloc
            if records is not None:
                records.append(UopRecord(index, slot, instr.mnemonic,
                                         "eliminated", None, alloc, alloc))
            return alloc
        if decomposed.is_eliminated_move:
            src_ready = reg_get(elim_src, 0) if elim_src is not None else 0
            value_ready = max(alloc, src_ready)
            if value_ready == alloc:
                self._alloc_sensitive = True
            for base in write_bases:
                reg_ready[base] = value_ready
            if records is not None:
                records.append(UopRecord(index, slot, instr.mnemonic,
                                         "eliminated", None, alloc,
                                         value_ready))
            return value_ready
        if not decomposed.uops:  # plain nop
            self._alloc_sensitive = True
            return alloc

        addr_ready = alloc
        for base in addr_bases:
            ready = reg_get(base, 0)
            if ready > addr_ready:
                addr_ready = ready
        data_ready = alloc
        for base in data_bases:
            ready = reg_get(base, 0)
            if ready > data_ready:
                data_ready = ready

        load_result = None
        compute_result = None
        finish_max = alloc
        if ann is not None:
            reads = list(ann.read_accesses) if ann.read_accesses else None
            writes = ann.write_accesses
        else:
            reads = None
            writes = ()
        forwarding = self.model_memory_dependencies

        for uop in decomposed.uops:
            if uop.kind == "load":
                lower = addr_ready
            elif uop.kind == "load_op":
                # Un-split load-op (llvm-mca policy): waits for all.
                lower = max(addr_ready, data_ready)
            elif uop.kind == "store_addr":
                lower = addr_ready
            elif uop.kind == "store_data":
                lower = compute_result if compute_result is not None \
                    else data_ready
            else:  # compute
                lower = data_ready
                if load_result is not None and load_result > lower:
                    lower = load_result

            dispatch, port = self._dispatch(ports, uop, lower, alloc)
            latency = uop.latency
            if ann and ann.subnormal and uop.kind in ("compute", "load_op"):
                latency += desc.subnormal_penalty
            finish = dispatch + latency

            if uop.kind in ("load", "load_op"):
                if reads:
                    finish += reads[0][2]  # miss/split penalty
                    if forwarding and stores:
                        finish = self._apply_forwarding(finish, reads,
                                                        stores, dispatch)
                    reads.pop(0)
                load_result = finish
                if uop.kind == "load_op":
                    compute_result = finish
            elif uop.kind == "compute":
                compute_result = finish
            elif uop.kind == "store_data":
                for address, width in writes:
                    stores.append((address, width, finish))
                del stores[:-self.STORE_WINDOW]

            if finish > finish_max:
                finish_max = finish
            if records is not None:
                records.append(UopRecord(index, slot, instr.mnemonic,
                                         uop.kind, port, dispatch, finish))

        result_ready = compute_result if compute_result is not None \
            else (load_result if load_result is not None else finish_max)
        for base in write_bases:
            reg_ready[base] = result_ready
        return finish_max

    def _apply_forwarding(self, finish: int, reads, stores,
                          dispatch: int) -> int:
        """Store-to-load forwarding / memory-dependence stalls."""
        if not (self.model_memory_dependencies and reads and stores):
            return finish
        address, width, _penalty = reads[0]
        lo, hi = address, address + width
        for s_addr, s_width, s_ready in reversed(stores):
            s_lo, s_hi = s_addr, s_addr + s_width
            if hi <= s_lo or lo >= s_hi:
                continue  # disjoint
            if s_lo <= lo and hi <= s_hi:
                # Fully forwarded from the store buffer.
                return max(finish,
                           s_ready + self.desc.store_forward_latency)
            # Partial overlap: the load replays from the cache after
            # the store commits — an expensive stall.
            return max(finish, s_ready + self.desc.store_forward_latency
                       + 10)
        return finish

    def _dispatch(self, ports: _PortFile, uop: Uop, lower: int,
                  alloc: int) -> Tuple[int, Optional[int]]:
        uop_ports = uop.ports
        if not uop_ports:
            if lower == alloc:
                self._alloc_sensitive = True
            return lower, None
        # A candidate probe is alloc-sensitive when it starts *at* the
        # allocation clock and is not covered by state (a reservation
        # or the dense-occupancy floor reaching past the clock) — only
        # then could a different clock value have produced a different
        # cycle, so only then does extrapolating a faster-than-frontend
        # steady state become unsound.  Unchosen candidates count too:
        # they feed the tie-break.  (The probe reads only state that
        # ``reserve`` — which runs after candidate selection — can
        # change, so checking every candidate up front is equivalent
        # to the interleaved walk.)
        occupancy = uop.occupancy
        if lower == alloc and not self._alloc_sensitive:
            reserved_until = ports._reserved_until
            dense = ports._dense
            for port in uop_ports:
                if reserved_until[port] <= alloc \
                        and dense[port] <= alloc:
                    self._alloc_sensitive = True
                    break
        if len(uop_ports) == 1:
            port = uop_ports[0]
            cycle = ports.earliest_free(port, lower, occupancy)
            ports.reserve(port, cycle, occupancy)
            return cycle, port
        earliest_free = ports.earliest_free
        counts = ports.counts
        best_cycle = None
        best_port = None
        for port in uop_ports:
            cycle = earliest_free(port, lower, occupancy)
            if best_cycle is None or cycle < best_cycle or \
                    (cycle == best_cycle
                     and counts[port] < counts[best_port]):
                best_cycle, best_port = cycle, port
        ports.reserve(best_port, best_cycle, occupancy)
        return best_cycle, best_port
