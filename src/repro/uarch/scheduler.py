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

Each :meth:`DataflowScheduler.schedule` call first compiles one plan
per distinct instruction of the block: register bases numbered into a
call-local table, a shape code, the fused-slot count and the micro-ops
as ``(kind code, ports, occupancy, latency)`` tuples.  Divider variants
(``InstrAnnotation.div_class``) compile on first use within the call.
One flat loop then walks the dynamic instructions over those plans,
with port state and the store window in plain lists.  All of that
state is local to the call: nothing is kept between calls or shared at
module level.

The same scheduler powers the ground-truth machine and the IACA /
llvm-mca / OSACA analogues; only tables and policies differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.isa.instruction import BasicBlock, Instruction
from repro.isa.operands import is_reg
from repro.uarch.descriptor import UarchDescriptor
from repro.uarch.uops import DecomposedInstruction, Decomposer

#: Micro-op kind codes, indexing their ``UopRecord.kind`` names.
COMPUTE, LOAD, LOAD_OP, STORE_ADDR, STORE_DATA = range(5)
KIND_NAMES = ("compute", "load", "load_op", "store_addr", "store_data")

#: Plan shapes: what the instruction does past rename.
EXECUTES, ZERO_IDIOM, ELIMINATED_MOVE, NOP = range(4)


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
        """Schedule ``unroll`` copies of ``block``.

        ``annotations`` holds one entry per dynamic instruction, in
        program order.  The result carries the makespan and, with
        ``keep_records``, one :class:`UopRecord` per scheduled micro-op.

        ``checkpoint`` asks for the makespan after that many
        iterations as well (``ScheduleResult.checkpoint_cycles``) —
        the scheduler is online, so the reading is bit-identical to a
        standalone schedule of the prefix, provided the caller has
        certified that the prefix annotations are identical too.
        """
        desc = self.desc
        decompose = self.decomposer.decompose
        compile_plan = self._compile_plan
        #: Register base -> index into ``reg_ready``.  ``None`` is the
        #: source of an eliminated move without a register operand: it
        #: is never written, so it always reads cycle 0.
        reg_index: Dict[Optional[str], int] = {None: 0}
        #: (instruction, divider class) -> plan.  Divider variants are
        #: compiled the first time the loop meets them; the instruction
        #: is the same, so they number no new registers.
        plans: Dict[tuple, tuple] = {}
        instrs = block.instructions
        slot_plans = []
        for instr in instrs:
            key = (instr, None)
            if key not in plans:
                plans[key] = compile_plan(instr, decompose(*key), reg_index)
            slot_plans.append(plans[key])

        n_ports = max(desc.ports) + 1
        busy = [set() for _ in range(n_ports)]
        #: Every cycle below ``dense[p]`` is busy on port ``p``;
        #: ``busy[p]`` holds the busy cycles at or above that floor,
        #: so a saturated port keeps an empty set and a short walk.
        dense = [0] * n_ports
        reserved_until = [0] * n_ports
        counts = [0] * n_ports
        reg_ready = [0] * len(reg_index)
        #: Recent stores: (address, width, data_ready_cycle).
        stores: List[Tuple[int, int, int]] = []
        store_window = self.STORE_WINDOW
        records: List[UopRecord] = []
        record = records.append
        forwarding = self.model_memory_dependencies
        forward_latency = desc.store_forward_latency
        subnormal_penalty = desc.subnormal_penalty
        issue_width = desc.issue_width
        anns = annotations if annotations else None

        makespan = 0
        slots_used = 0
        stall_cycles = 0
        index = 0
        checkpoint_cycles: Optional[int] = None
        for iteration in range(unroll):
            for slot, plan in enumerate(slot_plans):
                reads = writes = None
                subnormal = False
                if anns is not None:
                    ann = anns[index]
                    if ann is not None:
                        stall_cycles += ann.fetch_stall
                        if ann.div_class is not None:
                            key = (instrs[slot], ann.div_class)
                            plan = plans.get(key)
                            if plan is None:
                                plan = plans[key] = compile_plan(
                                    key[0], decompose(*key), reg_index)
                        reads = ann.read_accesses
                        writes = ann.write_accesses
                        subnormal = ann.subnormal
                (shape, fused_slots, uops, addr_regs, data_regs,
                 write_regs, elim_reg, mnemonic) = plan
                alloc = slots_used // issue_width + stall_cycles
                slots_used += fused_slots

                if shape != EXECUTES:
                    # Rename-stage instructions: no execution at all.
                    # Their finish *is* the allocation clock, or the
                    # moved value's readiness.
                    finish_max = alloc
                    if shape != NOP:
                        if shape == ELIMINATED_MOVE \
                                and reg_ready[elim_reg] > alloc:
                            finish_max = reg_ready[elim_reg]
                        for reg in write_regs:
                            reg_ready[reg] = finish_max
                        if keep_records:
                            record(UopRecord(index, slot, mnemonic,
                                             "eliminated", None, alloc,
                                             finish_max))
                    if finish_max > makespan:
                        makespan = finish_max
                    index += 1
                    continue

                addr_ready = alloc
                for reg in addr_regs:
                    ready = reg_ready[reg]
                    if ready > addr_ready:
                        addr_ready = ready
                data_ready = alloc
                for reg in data_regs:
                    ready = reg_ready[reg]
                    if ready > data_ready:
                        data_ready = ready
                load_result = None
                compute_result = None
                finish_max = alloc
                next_read = 0

                for kind, ports, occupancy, latency in uops:
                    if kind == COMPUTE:
                        lower = data_ready
                        if load_result is not None and load_result > lower:
                            lower = load_result
                    elif kind == STORE_DATA:
                        lower = compute_result \
                            if compute_result is not None else data_ready
                    elif kind == LOAD_OP:
                        # Un-split load-op (llvm-mca policy): waits for all.
                        lower = addr_ready if addr_ready > data_ready \
                            else data_ready
                    else:  # load, store_addr
                        lower = addr_ready

                    # The port free earliest wins; ties go to the port
                    # with fewer micro-ops so far, then to the first
                    # listed.
                    if not ports:
                        dispatch = lower
                        port = None
                    else:
                        port = None
                        for candidate in ports:
                            cycle = reserved_until[candidate]
                            if lower > cycle:
                                cycle = lower
                            if cycle < dense[candidate]:
                                cycle = dense[candidate]
                            taken = busy[candidate]
                            while cycle in taken:
                                cycle += 1
                            if port is None or cycle < dispatch or \
                                    (cycle == dispatch and counts[candidate]
                                     < counts[port]):
                                dispatch = cycle
                                port = candidate
                        if dispatch == dense[port]:
                            taken = busy[port]
                            edge = dispatch + 1
                            while edge in taken:
                                taken.remove(edge)
                                edge += 1
                            dense[port] = edge
                        else:
                            busy[port].add(dispatch)
                        if occupancy > 1:
                            reserved_until[port] = dispatch + occupancy
                        counts[port] += 1

                    if subnormal and (kind == COMPUTE or kind == LOAD_OP):
                        latency += subnormal_penalty
                    finish = dispatch + latency

                    if kind == COMPUTE:
                        compute_result = finish
                    elif kind == LOAD or kind == LOAD_OP:
                        if reads and next_read < len(reads):
                            address, width, penalty = reads[next_read]
                            next_read += 1
                            finish += penalty  # miss/split penalty
                            if forwarding and stores:
                                # Store-to-load forwarding: the youngest
                                # overlapping store decides.  A partial
                                # overlap replays from the cache after
                                # the store commits — an expensive stall.
                                end = address + width
                                for s_addr, s_width, s_ready in \
                                        reversed(stores):
                                    if end <= s_addr \
                                            or address >= s_addr + s_width:
                                        continue  # disjoint
                                    ready = s_ready + forward_latency
                                    if address < s_addr \
                                            or end > s_addr + s_width:
                                        ready += 10
                                    if ready > finish:
                                        finish = ready
                                    break
                        load_result = finish
                        if kind == LOAD_OP:
                            compute_result = finish
                    elif kind == STORE_DATA and writes:
                        for address, width in writes:
                            stores.append((address, width, finish))
                        if len(stores) > store_window:
                            del stores[:-store_window]

                    if finish > finish_max:
                        finish_max = finish
                    if keep_records:
                        record(UopRecord(index, slot, mnemonic,
                                         KIND_NAMES[kind], port, dispatch,
                                         finish))

                result_ready = compute_result if compute_result is not None \
                    else (load_result if load_result is not None
                          else finish_max)
                for reg in write_regs:
                    reg_ready[reg] = result_ready
                if finish_max > makespan:
                    makespan = finish_max
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

    def _compile_plan(self, instr: Instruction,
                      decomposed: DecomposedInstruction,
                      reg_index: Dict[Optional[str], int]) -> tuple:
        """Everything ``schedule`` needs to know about one instruction:
        ``(shape, fused slots, uops, address regs, data regs, written
        regs, move-elimination source, mnemonic)``, with registers
        numbered through the call's ``reg_index``."""
        def number(bases):
            return tuple(reg_index.setdefault(base, len(reg_index))
                         for base in bases)

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
        if decomposed.is_zero_idiom:
            shape = ZERO_IDIOM
        elif decomposed.is_eliminated_move:
            shape = ELIMINATED_MOVE
        elif not decomposed.uops:
            shape = NOP
        else:
            shape = EXECUTES
        uops = tuple((KIND_NAMES.index(uop.kind), uop.ports,
                      uop.occupancy, uop.latency)
                     for uop in decomposed.uops)
        return (shape, decomposed.fused_slots, uops, number(addr_bases),
                number(data_bases), number(write_bases),
                number((elim_src,))[0], instr.mnemonic)
