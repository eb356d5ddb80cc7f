"""Resumable functional execution with steady-state extrapolation.

:class:`BlockRun` is the fast path's replacement for the repeated
``reinitialize(); execute_block()`` restarts of the monitor loop
(Fig. 2).  It executes the unrolled block iteration by iteration and

* **checkpoints** the complete machine state (registers, flags, FTZ,
  RIP, and every mapped frame's bytes) at each iteration boundary, so
  a page fault rolls back to the start of the faulting iteration and
  the run *resumes* after the monitor maps the page — instead of
  restarting from iteration 0.  Exact because re-initialisation makes
  the prefix a deterministic replay: the completed iterations never
  touched an unmapped page, page tables only grow, and
  ``VirtualMemory.write_bytes`` resolves every page before writing a
  byte, so a faulting instruction leaves no partial state behind.
* **extrapolates** once the boundary state matches a recent boundary
  exactly (lag ``q``): the next iterations must replay the last ``q``
  verbatim, so their events are replicated analytically and the trace
  is stamped with the ``(t, q)`` steady witness that its counter sums
  (``misaligned_count``, ``subnormal_count``) use.  Blocks with
  growing footprints never produce a boundary match (the state
  comparison includes every frame's bytes), which is the conservative
  bail-out for L1-overflow kernels.
* takes a **static shortcut** for pure-register blocks (no memory, no
  division, no FP): iteration 0 determines the whole trace.

The trace produced is byte-identical to ``execute_block``'s; the final
*architectural* state is not (extrapolated iterations are not
executed), which is why only the mapping loop — whose callers consume
the trace and the page table, never the register file — uses this.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.errors import MemoryFault, StepBudgetExceeded
from repro.isa.instruction import BasicBlock
from repro.resilience import policy as _resilience_policy
from repro.runtime import blockplan
from repro.runtime.executor import Executor, handler_plan
from repro.runtime import plan as planmod
from repro.runtime.trace import ExecutionTrace, InstrEvent
from repro.telemetry import core as telemetry

#: Largest per-iteration period the boundary-state match looks for.
#: Real steady states in straight-line code are period 1 (occasionally
#: 2, e.g. pointer-swap idioms); 4 gives margin without making the
#: history comparison expensive.
MAX_PERIOD = 4

#: Boundary signature: (state signature (register/flag value tuples,
#: ftz, rip), ((frame, bytes), ...)).  Equality of two signatures
#: implies the machine will evolve identically from both boundaries.
_Signature = Tuple


def is_pure_register_block(block: BasicBlock) -> bool:
    """Every iteration provably identical, before executing any.

    True only when no instruction can touch memory (including the
    implicit stack traffic of ``push``/``pop``), fault arithmetically
    (``div``/``idiv``), or fire an FP assist (any FP op can meet a
    subnormal).  Such a block's dynamic events carry no addresses and
    no flags of interest, so iteration 0 determines the whole trace.
    """
    for instr in block.instructions:
        if instr.loads_memory or instr.stores_memory:
            return False
        if instr.mnemonic in ("push", "pop"):
            return False
        info = instr.info
        if info.group == "int_div" or info.fp is not None:
            return False
    return True


class BlockRun:
    """One unrolled functional run that survives page faults."""

    def __init__(self, executor: Executor, block: BasicBlock,
                 unroll: int):
        self.executor = executor
        self.block = block
        self.unroll = unroll
        self.trace = ExecutionTrace(block_len=len(block), unroll=unroll)
        self.iteration = 0
        self.done = False
        #: First iteration whose events were replicated, not executed.
        self.extrapolated_from: Optional[int] = None
        # Same execution strategy split as Executor.execute_block:
        # pre-bound step closures when block plans are enabled, the
        # interpreted handler plan otherwise.
        if blockplan.enabled():
            self._steps: Optional[Tuple] = planmod.bound_plan(
                executor, block)
            self._plan = None
        else:
            self._steps = None
            self._plan = handler_plan(block)
        self._pure = is_pure_register_block(block)
        self._history: Deque[_Signature] = deque(maxlen=MAX_PERIOD)
        self._executed = 0

    # ------------------------------------------------------------------

    def run(self) -> ExecutionTrace:
        """Execute (or resume) until the full trace exists.

        Raises exactly what ``execute_block`` would raise, at the same
        dynamic instruction; after a :class:`MemoryFault` the state is
        rolled back to the faulting iteration's start and ``run`` may
        be called again once the monitor has mapped the page.
        """
        ex = self.executor
        events = self.trace.events
        block_len = self.trace.block_len
        execute_instruction = ex.execute_instruction
        plan = self._plan
        steps = self._steps
        history = self._history
        pure = self._pure
        budget = _resilience_policy.step_budget()

        while self.iteration < self.unroll:
            # Watchdog mirror of ``execute_block``: the budget counts
            # *executed* instructions — extrapolated iterations are
            # replicated, not run, so they are free.
            if self._executed > budget:
                raise StepBudgetExceeded(self._executed, budget)
            sig = None
            if pure:
                if self.iteration >= 1:
                    self._extrapolate(1)
                    break
            else:
                sig = self._capture()
                period = self._find_period(sig)
                if period is not None:
                    self._extrapolate(period)
                    break
            index = self.iteration * block_len
            try:
                if steps is not None:
                    for slot in range(block_len):
                        event = InstrEvent(index=index, slot=slot)
                        steps[slot](event)
                        events.append(event)
                        index += 1
                else:
                    for slot, (instr, handler) in enumerate(plan):
                        event = InstrEvent(index=index, slot=slot)
                        ex._event = event
                        if handler is None:
                            execute_instruction(instr)
                        else:
                            handler(ex, instr)
                        events.append(event)
                        index += 1
            except MemoryFault:
                self._rollback(sig)
                raise
            self._executed += block_len
            if sig is not None:
                history.append(sig)
            self.iteration += 1

        self.done = True
        if telemetry.is_enabled():
            telemetry.count("runtime.blocks_executed")
            telemetry.count("runtime.instructions_executed",
                            self._executed)
            if self.extrapolated_from is not None:
                telemetry.count("simcore.exec_extrapolated")
                telemetry.count(
                    "simcore.exec_iterations_skipped",
                    self.unroll - self.extrapolated_from)
            else:
                telemetry.count("simcore.exec_full")
        return self.trace

    # ------------------------------------------------------------------

    def _capture(self) -> _Signature:
        """Complete machine state at an iteration boundary.

        ``MachineState.signature()`` is three C-level list→tuple
        copies over the flat slot arrays (no dict materialisation).
        All mapped frames are captured — in single-page mode that is
        one 4 KiB frame; in ablation modes a growing frame list
        changes the tuple length and simply prevents matches.
        """
        return (self.executor.state.signature(),
                tuple((page, bytes(page.data))
                      for page in self.executor.memory.physical_pages))

    def _rollback(self, sig: Optional[_Signature]) -> None:
        """Restore the boundary captured in ``sig`` after a fault.

        In-place: ``MachineState.restore`` reuses the state's slot
        arrays (the compiled plans' closures hold references to them)
        and frame buffers are overwritten, not replaced.
        """
        del self.trace.events[self.iteration * self.trace.block_len:]
        if sig is None:
            return
        state_sig, frames = sig
        self.executor.state.restore(state_sig)
        for page, data in frames:
            page.data[:] = data

    def _find_period(self, sig: _Signature) -> Optional[int]:
        """Smallest lag whose boundary state equals the current one."""
        history = self._history
        for lag in range(1, len(history) + 1):
            if history[-lag] == sig:
                return lag
        return None

    def _extrapolate(self, period: int) -> None:
        """Replicate the last ``period`` iterations' events to the end.

        The boundary match proves iterations ``[start - period,
        start)`` replay verbatim from ``start`` on, so fresh events
        (correct ``index``, shared access lists — consumers never
        mutate them) complete the trace, stamped with the witness.
        """
        trace = self.trace
        events = trace.events
        block_len = trace.block_len
        start = self.iteration
        window = events[(start - period) * block_len:
                        start * block_len]
        index = start * block_len
        total = self.unroll * block_len
        size = len(window)
        pos = 0
        append = events.append
        while index < total:
            src = window[pos]
            append(InstrEvent(index, src.slot, src.accesses,
                              src.subnormal, src.div_class))
            index += 1
            pos += 1
            if pos == size:
                pos = 0
        trace.steady_from = start - period
        trace.period = period
        self.extrapolated_from = start
        self.iteration = self.unroll
