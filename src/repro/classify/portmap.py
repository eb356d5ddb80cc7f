"""Instruction → port-combination featurisation (§IV-B).

The paper maps each instruction to the port combinations of its
micro-ops using Abel & Reineke's reverse-engineered tables (13
combinations cover all user-level instructions on Haswell) and treats
a basic block as a bag of micro-op port combinations.  Our equivalent
mapping comes from the ground-truth Haswell decomposer: same role,
same notation (``p0156``, ``p23``, ...).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.isa.instruction import BasicBlock, Instruction
from repro.uarch.tables import get_uarch
from repro.uarch.uops import Decomposer

#: Synthetic combos for micro-ops that never reach the execution
#: ports; the paper's mapping has no such entries, but rename-stage
#: idioms still occupy a slot and carry classification signal.
RENAME_COMBO = "none"


class PortMapper:
    """Maps instructions to per-uop port-combination labels."""

    def __init__(self, uarch: str = "haswell"):
        desc, table, div = get_uarch(uarch)
        self.uarch = uarch
        self._decomposer = Decomposer(desc, table, div)
        self._cache: Dict[Instruction, Tuple[str, ...]] = {}

    def instruction_combos(self, instr: Instruction) -> Tuple[str, ...]:
        """Port-combination label of every micro-op of ``instr``."""
        combos = self._cache.get(instr)
        if combos is None:
            if instr.info.unsupported:
                # Unprofileable instructions never reach measurement,
                # but classification must not choke on a corpus that
                # contains them (the paper classifies, then profiles).
                combos = (RENAME_COMBO,)
            else:
                decomposed = self._decomposer.decompose(instr)
                if decomposed.uops:
                    combos = tuple(uop.combo for uop in decomposed.uops)
                else:
                    combos = (RENAME_COMBO,)
            self._cache[instr] = combos
        return combos

    def block_combos(self, block: BasicBlock) -> List[str]:
        """The block as a bag of micro-op port combinations."""
        out: List[str] = []
        for instr in block:
            out.extend(self.instruction_combos(instr))
        return out

    def vocabulary(self, blocks) -> List[str]:
        """All combinations observed across ``blocks`` (sorted)."""
        seen = set()
        for block in blocks:
            seen.update(self.block_combos(block))
        return sorted(seen)
