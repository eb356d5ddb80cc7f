"""Profiling results, failure taxonomy and per-corpus profiles."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


class FailureReason(enum.Enum):
    """Why a basic block could not be successfully profiled.

    The ablation benches aggregate these to reproduce Table I; the
    taxonomy mirrors the failure modes the paper describes.
    """

    SEGFAULT = "segfault"                # unmapped access, no mapping stage
    INVALID_ADDRESS = "invalid_address"  # isValidAddr() failed (Fig. 2)
    TOO_MANY_FAULTS = "too_many_faults"  # maxNumFaults exceeded (Fig. 2)
    SIGFPE = "sigfpe"                    # divide error under canonical init
    UNSUPPORTED = "unsupported_instruction"
    L1D_MISS = "l1d_cache_miss"          # invariant violated (§III-C)
    L1I_MISS = "l1i_cache_miss"          # invariant violated (§III-C)
    MISALIGNED = "misaligned_access"     # MISALIGNED_MEM_REFERENCE filter
    UNSTABLE = "unstable_timing"         # <8 of 16 identical clean runs
    UNSUPPORTED_ISA = "isa_not_supported"  # e.g. AVX2 block on Ivy Bridge
    #: A parallel worker died or timed out on the shard holding this
    #: block and the serial retry failed too (repro.parallel).
    WORKER_FAILURE = "worker_failure"
    #: The block was quarantined by the resilience layer: its
    #: simulation raised unexpectedly (including injected chaos
    #: faults) or tripped the executor's step-budget watchdog
    #: (repro.resilience).  In salvage mode these degrade to this
    #: bucket; ``--strict`` promotes them into run failures.
    QUARANTINED = "quarantined"


@dataclass
class Measurement:
    """One accepted timing of an unrolled block."""

    unroll: int
    cycles: int
    clean_runs: int
    total_runs: int
    l1d_read_misses: int = 0
    l1d_write_misses: int = 0
    l1i_misses: int = 0
    misaligned_refs: int = 0


@dataclass
class ProfileResult:
    """Outcome of profiling one basic block on one machine.

    ``throughput`` follows IACA's convention (the paper's §III-B):
    average cycles per basic-block iteration at steady state — the
    *inverse* of the textbook meaning.
    """

    block_text: str
    uarch: str
    throughput: Optional[float] = None
    failure: Optional[FailureReason] = None
    measurements: Tuple[Measurement, ...] = ()
    pages_mapped: int = 0
    num_faults: int = 0
    subnormal_events: int = 0
    detail: str = ""
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Was the block *successfully profiled* in the paper's sense?

        Executed without crashing, no cache misses, reproducible.
        """
        return self.failure is None and self.throughput is not None

    def __repr__(self) -> str:
        if self.ok:
            return (f"ProfileResult({self.uarch}, "
                    f"throughput={self.throughput:.2f})")
        return f"ProfileResult({self.uarch}, failure={self.failure})"


@dataclass
class CorpusProfile:
    """Ground-truth measurements plus the accept/drop funnel.

    ``funnel`` is the run-report analogue of the paper's Table I:
    ``accepted`` plus every ``dropped`` count sums to ``total`` (the
    corpus size), so no block silently disappears from the pipeline.

    ``info`` carries purely informational per-run telemetry — one
    count per key of ``ProfileResult.extra`` (currently
    ``fastpath_extrapolated``: blocks whose small unroll factor came
    from the large factor's two-factor checkpoint, and
    ``blockplan_compiled``: blocks executed through compiled block
    plans, plus the ``chaos_block_poison`` and
    ``step_budget_exceeded`` quarantine markers).  It is kept
    *outside* the funnel so the funnel — and therefore accepted/dropped
    accounting — stays byte-identical whichever switches are on or off.
    """

    throughputs: Dict[int, float]
    funnel: Dict
    info: Dict = field(default_factory=dict)

    @staticmethod
    def empty_funnel(total: int = 0) -> Dict:
        return {"total": total, "accepted": 0, "dropped": {}}
