"""Calibrated modeling residual.

The structural defects we implement (division-width confusion, missing
zero idioms, fused load-op scheduling, parser bugs, latency-blind port
pressure) reproduce the paper's case studies and three of its
orderings, which hold with this residual off: read-modify-write blocks
hardest, stores easier than load mixes, and llvm-mca's Skylake
regression.  The vector-kernel
difficulty and the model ranking (Ithemal best, OSACA worst) do not:
they come from the class-dependent sigmas below (DESIGN.md, "Calibrated
residual", gives the counts in both modes).  Real tools additionally
carry a long tail of small per-instruction table errors and unmodeled
micro-architectural interactions; we represent that tail as a
deterministic per-(model, uarch, block) multiplicative residual whose
magnitude is calibrated — per model, per uarch, per block class — to
the error levels the paper reports (Table V, Figs. 5–10).

The residual is a documented substitution (see DESIGN.md): it stands in
for the thousands of hand-maintained table entries we cannot copy from
the closed tools, not for the effects the library models explicitly.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Dict

from repro.isa.instruction import BasicBlock

_BITMANIP_GROUPS = frozenset({"shift", "shift_double", "bitscan"})


def block_mix(block: BasicBlock) -> Dict[str, float]:
    """Fractions of instruction kinds used to weight the residual."""
    n = max(len(block), 1)
    loads = sum(1 for i in block if i.loads_memory)
    stores = sum(1 for i in block if i.stores_memory)
    vector = sum(1 for i in block if i.info.vec)
    bitman = sum(1 for i in block if i.info.group in _BITMANIP_GROUPS)
    return {
        "load": loads / n,
        "store": stores / n,
        "vector": vector / n,
        "bitmanip": bitman / n,
    }


@dataclass(frozen=True)
class ResidualSpec:
    """Residual magnitudes (log-space sigma) for one model+uarch.

    The effective sigma for a block interpolates between ``base`` and
    the class-specific values according to the block's instruction mix:
    stores are easy, load-mixed blocks are ~2x harder, vectorized
    blocks are hardest (the paper's per-cluster findings).
    """

    base: float
    store: float
    load: float
    vector: float
    bitmanip: float

    def sigma_for(self, block: BasicBlock) -> float:
        mix = block_mix(block)
        sigma = self.base
        sigma += mix["store"] * (self.store - self.base)
        sigma += mix["load"] * (self.load - self.base)
        sigma += mix["vector"] * (self.vector - self.base)
        sigma += mix["bitmanip"] * (self.bitmanip - self.base)
        # Tiny blocks are easy for every tool — their tables are
        # per-instruction measurements; residual error grows with the
        # number of interacting instructions.
        complexity = min(1.0, len(block) / 6.0)
        return max(sigma * complexity, 0.01)


def residual_factor(spec: ResidualSpec, model: str, uarch: str,
                    block: BasicBlock) -> float:
    """Deterministic multiplicative residual for one prediction."""
    sigma = spec.sigma_for(block)
    h = zlib.crc32(f"{model}|{uarch}|{block.text()}".encode())
    u1 = ((h & 0xFFFFF) + 1) / 1048577.0
    u2 = (((h >> 12) & 0xFFFFF) + 1) / 1048577.0
    z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2 * math.pi * u2)
    return math.exp(sigma * z)
