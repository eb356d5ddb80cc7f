"""Cost-model interface.

Every evaluated predictor — the IACA, llvm-mca and OSACA analogues and
the learned Ithemal analogue — implements :class:`CostModel`.  A model
sees only the *static* basic block (no execution trace, no mapping
information); predicting well despite that is exactly the game the
paper scores.

Predictions use IACA's throughput convention: average cycles per block
iteration at steady state.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ModelError, UnsupportedInstructionError
from repro.isa.instruction import BasicBlock
from repro.telemetry import core as telemetry
from repro.uarch.scheduler import ScheduleResult


@dataclass
class Prediction:
    """One model's verdict on one block."""

    model: str
    uarch: str
    throughput: Optional[float]
    #: A simulator's record-free combined schedule: ``cycles`` at the
    #: larger unroll factor, ``checkpoint_cycles`` at the smaller.  The
    #: scheduling figure reads ``schedule_trace`` for dispatch records.
    #: Ithemal returns a single number with no interpretable trace.
    schedule: Optional[ScheduleResult] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.throughput is not None


class CostModel(abc.ABC):
    """A static basic-block throughput predictor."""

    #: Display name used in tables/figures ("IACA", "llvm-mca", ...).
    name: str = "model"

    @abc.abstractmethod
    def predict(self, block: BasicBlock, uarch: str) -> Prediction:
        """Predict steady-state cycles/iteration; never raises.

        Models that cannot analyse a block (OSACA's parser crashes in
        the paper's case study) return a :class:`Prediction` with
        ``throughput=None`` and ``error`` set — rendered as ``-``.
        """

    def predict_safe(self, block: BasicBlock, uarch: str) -> Prediction:
        """Wrapper turning stray exceptions into error predictions.

        ``UnsupportedInstructionError`` covers blocks whose mnemonics
        have no timing class (``rdtsc``, ``syscall``, ...): real tools
        refuse such blocks rather than crash, and so do the analogues.
        """
        try:
            return self.predict(block, uarch)
        except ModelError as exc:
            return Prediction(self.name, uarch, None, error=str(exc))
        except UnsupportedInstructionError as exc:
            telemetry.count("models.unsupported_block")
            return Prediction(self.name, uarch, None, error=str(exc))

    def supports(self, block: BasicBlock, uarch: str) -> bool:
        """Whether this model claims to handle the block at all."""
        return True


def predictions_table(models, block: BasicBlock,
                      uarch: str) -> Dict[str, Prediction]:
    """Run several models on one block (case-study helper)."""
    return {m.name: m.predict_safe(block, uarch) for m in models}
