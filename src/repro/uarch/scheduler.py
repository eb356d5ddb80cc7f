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
    floor simply advances and the sparse set stays empty, which
    short-circuits the free-cycle walk.
    """

    def __init__(self, ports: Sequence[int]):
        self._busy: Dict[int, set] = {p: set() for p in ports}
        self._dense: Dict[int, int] = {p: 0 for p in ports}
        self._reserved_until: Dict[int, int] = {p: 0 for p in ports}
        self.counts: Dict[int, int] = {p: 0 for p in ports}

    def earliest_free(self, port: int, lower: int, occupancy: int) -> int:
        cycle = self._reserved_until[port]
        if lower > cycle:
            cycle = lower
        dense = self._dense[port]
        if cycle < dense:
            cycle = dense
        busy = self._busy[port]
        while cycle in busy:
            cycle += 1
        return cycle

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


class DataflowScheduler:
    """Schedules an unrolled instruction stream on one core."""

    #: How many in-flight stores are searched for forwarding.
    STORE_WINDOW = 48

    def __init__(self, desc: UarchDescriptor, decomposer: Decomposer,
                 *, model_memory_dependencies: bool = True):
        self.desc = desc
        self.decomposer = decomposer
        self.model_memory_dependencies = model_memory_dependencies

    # ------------------------------------------------------------------

    def schedule(self, block: BasicBlock, unroll: int,
                 annotations: Optional[Sequence[InstrAnnotation]] = None,
                 keep_records: bool = False,
                 checkpoint: Optional[int] = None) -> ScheduleResult:
        """Schedule ``unroll`` copies of ``block``; returns the makespan.

        ``checkpoint`` asks for the makespan after that many
        iterations as well (``ScheduleResult.checkpoint_cycles``) —
        the scheduler is online, so the reading is bit-identical to a
        standalone schedule of the prefix, provided the caller has
        certified that the prefix annotations are identical too.
        """
        desc = self.desc
        slot_plans = [self._slot_plan(instr)
                      for instr in block.instructions]
        ports = _PortFile(desc.ports)
        reg_ready: Dict[str, int] = {}
        #: Recent stores: (address, width, data_ready_cycle).
        stores: List[Tuple[int, int, int]] = []
        records: List[UopRecord] = []
        makespan = 0
        slots_used = 0
        stall_cycles = 0
        index = 0

        # Everything that depends only on the instruction — register
        # dependency structure and the (non-division) decomposition —
        # is computed once per slot, not once per dynamic instruction.
        decomposer = self.decomposer
        issue_width = desc.issue_width
        schedule_instruction = self._schedule_instruction

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
                index += 1
            if iteration + 1 == checkpoint:
                # Same drain formula as the final return — this *is*
                # what a standalone schedule of the prefix returns.
                checkpoint_cycles = max(
                    makespan,
                    (slots_used + issue_width - 1)
                    // issue_width + stall_cycles)

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
        # finish *is* the allocation clock.
        if decomposed.is_zero_idiom:
            for base in write_bases:
                reg_ready[base] = alloc
            if records is not None:
                records.append(UopRecord(index, slot, instr.mnemonic,
                                         "eliminated", None, alloc, alloc))
            return alloc
        if decomposed.is_eliminated_move:
            src_ready = reg_get(elim_src, 0) if elim_src is not None else 0
            value_ready = max(alloc, src_ready)
            for base in write_bases:
                reg_ready[base] = value_ready
            if records is not None:
                records.append(UopRecord(index, slot, instr.mnemonic,
                                         "eliminated", None, alloc,
                                         value_ready))
            return value_ready
        if not decomposed.uops:  # plain nop
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

            dispatch, port = self._dispatch(ports, uop, lower)
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

    def _dispatch(self, ports: _PortFile, uop: Uop,
                  lower: int) -> Tuple[int, Optional[int]]:
        uop_ports = uop.ports
        if not uop_ports:
            return lower, None
        occupancy = uop.occupancy
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
