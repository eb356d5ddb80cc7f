"""Static block featurisation for the learned (Ithemal-style) model.

Ithemal embeds instruction token streams with an LSTM; at our corpus
scale a hand-engineered featurisation plus an MLP plays the same role
(learns per-opcode costs and interaction terms from *measured* data,
no access to the ground-truth tables).  Features are purely static —
opcode-class counts, operand shapes, and cheap dependency-chain
estimates — mirroring what a sequence model could extract.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.isa.instruction import BasicBlock
from repro.uarch.tables.common import TIMING_CLASSES
from repro.uarch.uops import timing_class

_CLASS_INDEX: Dict[str, int] = {
    name: i for i, name in enumerate(TIMING_CLASSES)}
_EXTRA_CLASSES = ("int_div", "push", "pop", "nop", "vzero")
for _name in _EXTRA_CLASSES:
    _CLASS_INDEX[_name] = len(_CLASS_INDEX)

#: Number of scalar features appended after the class counts.
_N_SHAPE_FEATURES = 12

#: Port-pressure features (8 ports + total micro-ops + fused slots).
_N_PRESSURE_FEATURES = 13

FEATURE_DIM = len(_CLASS_INDEX) + _N_SHAPE_FEATURES \
    + _N_PRESSURE_FEATURES

#: Proxy latencies per timing class — round numbers any optimisation
#: guide lists (Agner Fog's tables are public); the network learns
#: per-uarch corrections on top.
_PROXY_LATENCY = {
    "lea_complex": 3.0, "shift_double": 3.0, "bitscan": 3.0,
    "int_mul": 3.0, "int_mul_wide": 4.0, "int_div": 22.0, "cmov": 2.0,
    "vec_imul": 10.0, "lane_xfer": 3.0, "vec_xfer": 2.0, "movmsk": 3.0,
    "fp_add": 3.0, "fp_mul": 5.0, "fma": 5.0,
    "fp_div_f32": 13.0, "fp_div_f32_256": 21.0,
    "fp_div_f64": 20.0, "fp_div_f64_256": 35.0,
    "fp_sqrt_f32": 19.0, "fp_sqrt_f64": 27.0,
    "fp_rcp": 5.0, "fp_cvt": 4.0, "fp_cmp": 3.0, "fp_comi": 2.0,
    "hadd": 5.0, "fp_round": 6.0,
}
_PROXY_LOAD_LATENCY = 4.0
_PROXY_FORWARD_LATENCY = 5.0


def _proxy_latency(instr) -> float:
    from repro.errors import UnsupportedInstructionError
    from repro.uarch.uops import timing_class
    try:
        cls = timing_class(instr)
    except UnsupportedInstructionError:
        return 1.0
    if instr.is_zero_idiom:
        return 0.0
    return _PROXY_LATENCY.get(cls, 1.0)


def _chain_depths(block: BasicBlock) -> List[float]:
    """(intra-block chain, loop-carried steady slope) estimates.

    A static critical-path walk with public proxy latencies: iteration
    three minus iteration two approximates the steady-state
    dependence-bound cycles/iteration — the signal a sequence model
    would have to learn, handed over as a feature.
    """

    def run(depth: Dict, start: float) -> float:
        longest = start
        for instr in block:
            mem = instr.memory_operand
            addr_bases = {r.base for r in mem.registers} if mem else set()
            data_ready = max(
                (depth.get(r.base, 0.0) for r in instr.regs_read
                 if r.base not in addr_bases), default=0.0)
            d = max(data_ready, start)
            location = None
            if mem is not None:
                location = ("loc",
                            mem.base.base if mem.base else None,
                            mem.index.base if mem.index else None,
                            mem.disp)
            if instr.loads_memory:
                # The load schedules off its address registers alone
                # (out-of-order hoisting); only its *result* joins the
                # data chain — plus store-forwarding when the location
                # was recently written (RMW/copy chains).
                addr_ready = max((depth.get(b, 0.0)
                                  for b in addr_bases), default=0.0)
                load_lat = _PROXY_LOAD_LATENCY + \
                    (1.0 if mem is not None and mem.index is not None
                     else 0.0)
                d = max(d, addr_ready + load_lat)
                if location in depth:
                    d = max(d, depth[location] + _PROXY_FORWARD_LATENCY)
            d += _proxy_latency(instr)
            for r in instr.regs_written:
                depth[r.base] = d
            if instr.stores_memory and location is not None:
                depth[location] = d
            longest = max(longest, d)
        return longest

    depth: Dict = {}
    run(depth, 0.0)
    two = run(depth, 0.0)
    three = run(depth, 0.0)
    one = run({}, 0.0)
    return [one, three - two]


def _pressure_features(block: BasicBlock) -> np.ndarray:
    """Expected per-port pressure from the public port mapping.

    Abel & Reineke's instruction→port tables are public data a learned
    model may consume as features (their paper predates Ithemal's).
    Pressure = Σ occupancy/|ports| per port — the linear part of a
    throughput bound; the network learns the max()-like combination.
    """
    from repro.classify.portmap import PortMapper
    mapper = _pressure_features._mapper
    if mapper is None:
        mapper = PortMapper("haswell")
        _pressure_features._mapper = mapper
    pressure = np.zeros(8)
    n_uops = 0
    slots = 0
    for instr in block:
        if instr.info.unsupported:
            continue
        decomposed = mapper._decomposer.decompose(instr)
        slots += decomposed.fused_slots
        for uop in decomposed.uops:
            n_uops += 1
            if uop.ports:
                share = uop.occupancy / len(uop.ports)
                for port in uop.ports:
                    pressure[port] += share
    return np.concatenate([pressure,
                           [pressure.max(), n_uops, slots]])


_pressure_features._mapper = None


def block_features(block: BasicBlock) -> np.ndarray:
    """Feature vector of a basic block (length :data:`FEATURE_DIM`)."""
    counts = np.zeros(len(_CLASS_INDEX), dtype=np.float64)
    loads = stores = indexed = vector = wide = imm = zero_idioms = 0
    for instr in block:
        counts[_CLASS_INDEX[timing_class(instr)]] += 1
        if instr.loads_memory:
            loads += 1
        if instr.stores_memory:
            stores += 1
        mem = instr.memory_operand
        if mem is not None and mem.index is not None:
            indexed += 1
        if instr.info.vec:
            vector += 1
            if any(getattr(op, "width", 0) == 256
                   for op in instr.operands):
                wide += 1
        if any(type(op).__name__ == "Imm" for op in instr.operands):
            imm += 1
        if instr.is_zero_idiom:
            zero_idioms += 1
    chain, carried = _chain_depths(block)
    n = float(len(block))
    shape = np.array([
        n, block.byte_length, loads, stores, indexed, vector, wide,
        imm, zero_idioms, chain, carried, loads / n,
    ], dtype=np.float64)
    pressure = _pressure_features(block)
    # Combined static bound: max(port pressure, dependence slope,
    # front-end).  Exposed both raw and in log space so the network
    # regresses corrections, not the bound itself.
    bound = max(pressure[-3], carried, pressure[-1] / 4.0, 0.25)
    extra = np.array([bound, np.log(bound)])
    return np.concatenate([counts, shape, pressure, extra])
