"""Execution traces: the record of one functional run.

The timing model is *trace-driven*: the functional executor runs the
unrolled block once and records, per dynamic instruction, the memory
addresses touched, whether an FP microcode assist (subnormal) fired,
and the division latency class.  The micro-architectural model then
prices that trace for a given machine — which is why the mapping run
and the measurement run must produce identical traces (the paper's
re-initialisation argument).

A trace may carry a *steady witness* ``(steady_from, period)``:
iteration ``i`` produced exactly the events of iteration ``i +
period`` for every ``i >= steady_from``.  The executor's
steady-state extrapolation stamps it
(:class:`repro.simcore.fastrun.BlockRun`), and it lets counter
summation (:meth:`ExecutionTrace.misaligned_count`,
:attr:`ExecutionTrace.subnormal_count`) skip the periodic tail; it
is purely an annotation — the events themselves are always complete.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Tuple


@dataclass(frozen=True, slots=True)
class MemAccess:
    """One dynamic memory access."""

    address: int
    width: int
    is_write: bool

    def crosses_line(self, line_size: int = 64) -> bool:
        """Does this access span a cache-line boundary?

        These are the accesses the paper's ``MISALIGNED_MEM_REFERENCE``
        filter drops blocks for (an order-of-magnitude slowdown risk).
        """
        return (self.address % line_size) + self.width > line_size


@dataclass(slots=True)
class InstrEvent:
    """Dynamic record for one executed instruction."""

    index: int
    slot: int  # static position within the basic block
    accesses: List[MemAccess] = field(default_factory=list)
    #: FP microcode assist fired (subnormal input/output, FTZ off).
    subnormal: bool = False
    #: (operand bits, high-half-was-zero) for div/idiv, else None.
    div_class: Optional[Tuple[int, bool]] = None


class ExecutionTrace:
    """All events from one (possibly unrolled) functional run."""

    __slots__ = ("block_len", "unroll", "events", "steady_from",
                 "period")

    def __init__(self, block_len: int, unroll: int):
        self.block_len = block_len
        self.unroll = unroll
        self.events: List[InstrEvent] = []
        #: Steady witness: iterations repeat with ``period`` from
        #: ``steady_from`` on.  ``period`` is 0/None when unknown.
        self.steady_from: int = 0
        self.period: Optional[int] = None

    def append(self, event: InstrEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[InstrEvent]:
        return iter(self.events)

    @property
    def accesses(self) -> Iterator[MemAccess]:
        for event in self.events:
            yield from event.accesses

    def _periodic_sum(self, per_event: Callable[[InstrEvent], int]
                      ) -> int:
        """Sum ``per_event`` over all events using the steady witness.

        Exact by the witness's definition: iterations ``[steady_from,
        steady_from + period)`` repeat cyclically to the end, so the
        tail contributes whole cycles plus a cycle prefix.
        """
        block_len = self.block_len
        events = self.events
        t, q = self.steady_from, self.period

        def iteration_total(i: int) -> int:
            return sum(per_event(e) for e in
                       events[i * block_len:(i + 1) * block_len])

        head = sum(iteration_total(i) for i in range(t))
        cycle = [iteration_total(t + j) for j in range(q)]
        full, rem = divmod(self.unroll - t, q)
        return head + full * sum(cycle) + sum(cycle[:rem])

    def _has_witness(self) -> bool:
        return bool(self.period) and \
            len(self.events) == self.unroll * self.block_len

    def misaligned_count(self, line_size: int = 64) -> int:
        if self._has_witness():
            return self._periodic_sum(
                lambda e: sum(1 for a in e.accesses
                              if a.crosses_line(line_size)))
        return sum(1 for a in self.accesses if a.crosses_line(line_size))

    @property
    def subnormal_count(self) -> int:
        if self._has_witness():
            return self._periodic_sum(lambda e: 1 if e.subnormal else 0)
        return sum(1 for e in self.events if e.subnormal)

    def prefix(self, unroll: int) -> "ExecutionTrace":
        """The first ``unroll`` iterations as a trace of their own.

        Events are shared (consumers never mutate them); the steady
        witness carries over only when the shorter trace still
        contains two full periods of evidence for it.
        """
        if unroll > self.unroll:
            raise ValueError(
                f"prefix of {unroll} from a {self.unroll}-iteration "
                f"trace")
        sub = ExecutionTrace(self.block_len, unroll)
        sub.events = self.events[:unroll * self.block_len]
        if self.period and \
                self.steady_from + 2 * self.period <= unroll:
            sub.steady_from = self.steady_from
            sub.period = self.period
        return sub

    def address_signature(self) -> Tuple[Tuple[int, int, bool], ...]:
        """Hashable address trace, for reproducibility assertions."""
        return tuple((a.address, a.width, a.is_write)
                     for a in self.accesses)
