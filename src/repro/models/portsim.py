"""Shared machinery for simulator-style predictors (IACA, llvm-mca).

Both tools are out-of-order port simulators; they differ from the
hardware (and from each other) in their tables and in which
micro-architectural features they know about.  This base class runs
the same dataflow scheduler as the ground-truth machine, but:

* with the model's own (imperfect) tables,
* with the model's feature policies (zero idioms? split load-op?),
* with *no* execution trace — so no store-forwarding knowledge, no
  division fast-path detection, perfect-L1 assumptions,

and derives steady-state throughput from two unroll factors, exactly
like IACA's infinite-loop steady-state definition.  Both come from one
record-free pass at the larger factor with a checkpoint at the smaller:
the scheduler is online and a static schedule has no annotations, so
the checkpoint reading *is* the standalone small-factor makespan.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.isa.instruction import BasicBlock
from repro.models.base import CostModel, Prediction
from repro.models.residual import ResidualSpec, residual_factor
from repro.uarch.scheduler import DataflowScheduler, ScheduleResult
from repro.uarch.tables import get_uarch
from repro.uarch.uops import Decomposer


class PortSimulatorModel(CostModel):
    """An out-of-order port simulator with model-specific tables."""

    #: Unroll factors used to extract the steady-state slope.
    UNROLL_PAIR = (12, 28)

    def __init__(self, *,
                 recognize_zero_idioms: bool,
                 split_load_op: bool,
                 move_elimination: bool,
                 residuals: Dict[str, ResidualSpec]):
        self._policy = dict(
            recognize_zero_idioms=recognize_zero_idioms,
            split_load_op=split_load_op,
            move_elimination=move_elimination)
        self._residuals = residuals
        self._schedulers: Dict[str, DataflowScheduler] = {}

    # -- model-specific hooks ------------------------------------------------

    def build_table(self, uarch: str, base_table, base_div):
        """Return (timing table, div table) for this model on ``uarch``."""
        raise NotImplementedError

    def build_descriptor(self, desc):
        """Hook: models may assume a different machine shape."""
        return desc

    def preprocess(self, block: BasicBlock) -> BasicBlock:
        """Hook: a model's instruction parser (may raise ModelError)."""
        return block

    # -- shared machinery ------------------------------------------------------

    def _scheduler(self, uarch: str) -> DataflowScheduler:
        sched = self._schedulers.get(uarch)
        if sched is None:
            desc, base_table, base_div = get_uarch(uarch)
            desc = self.build_descriptor(desc)
            table, div = self.build_table(uarch, base_table, base_div)
            decomposer = Decomposer(desc, table, div, **self._policy)
            sched = DataflowScheduler(desc, decomposer,
                                      model_memory_dependencies=False)
            self._schedulers[uarch] = sched
        return sched

    def simulate(self, block: BasicBlock, uarch: str
                 ) -> Tuple[float, ScheduleResult]:
        """Raw simulated throughput (before the residual)."""
        sched = self._scheduler(uarch)
        u1, u2 = self.UNROLL_PAIR
        result = sched.schedule(block, u2, checkpoint=u1)
        throughput = (result.cycles - result.checkpoint_cycles) / (u2 - u1)
        return max(throughput, 1.0 / sched.desc.issue_width), result

    def schedule_trace(self, block: BasicBlock, uarch: str,
                       unroll: int = 3) -> ScheduleResult:
        """Predicted dispatch schedule (for the scheduling figure)."""
        block = self.preprocess(block)
        return self._scheduler(uarch).schedule(block, unroll,
                                               keep_records=True)

    def predict(self, block: BasicBlock, uarch: str) -> Prediction:
        analysed = self.preprocess(block)
        throughput, schedule = self.simulate(analysed, uarch)
        spec = self._residuals.get(uarch)
        if spec is not None:
            throughput *= residual_factor(spec, self.name, uarch, block)
        return Prediction(self.name, uarch, round(throughput, 2),
                          schedule=schedule)
