"""Block-compiled execution plans.

Each :class:`BasicBlock` is compiled **once** into a flat plan: one
pre-bound step closure per static instruction slot, with everything
that the interpreted loop re-derives per dynamic instruction resolved
ahead of time — register *slot indices* instead of ``Register``
objects, operand widths as baked-in constants, effective-address
recipes with base/index/scale/disp captured, and per-opcode flag
thunks writing straight into the flattened flag array.  The executor
then runs ``step(event)`` in a tight loop instead of dict-dispatching
handlers that call ``read_op``/``write_op``/``op_width`` every time.

Two levels of caching:

* **symbolic** (module-level, keyed by block): the compiled *binders*
  — pure functions of the instruction — shared by every executor and
  every pool worker process' own copy;
* **bound** (per ``Executor``): the binders applied to one executor's
  state/memory, yielding the callable steps.

Exactness contract: a compiled step must produce byte-identical
observable behaviour to the interpreted handler — same state and
memory mutations, same ``MemAccess`` order, same flag values, same
subnormal/div-class annotations, and same exceptions at the same
dynamic position.  Any instruction whose compiler cannot guarantee
that raises :class:`_GiveUp` and falls back to a step that invokes
the interpreted handler (so ``div``'s fault-before-write ordering,
the shuffle family, conversions, etc. are untouched).  The
differential suite (``tests/simcore/test_blockplan_differential.py``)
and the ``oracle-differential`` CI leg enforce the contract on
serialized profiles; ``REPRO_NO_FASTPATH`` / ``--no-fastpath``, the
oracle switch (see :mod:`repro.runtime.blockplan`), is the escape
hatch.
"""

from __future__ import annotations

import math
import struct
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.isa.instruction import BasicBlock, Instruction
from repro.isa.operands import Mem, is_imm, is_mem, is_reg
from repro.isa.registers import GPR_INDEX
from repro.runtime import fpmath
from repro.runtime.executor import _MASK, _sext, handler_plan
from repro.runtime.trace import MemAccess
from repro.telemetry import cachestats
from repro.telemetry import core as telemetry

_MASK64 = _MASK[8]
_RAX = GPR_INDEX["rax"]
_RDX = GPR_INDEX["rdx"]
_RSP = GPR_INDEX["rsp"]

#: Parity of the low result byte, precomputed (True = even).
_PARITY = tuple(bin(i).count("1") % 2 == 0 for i in range(256))


class _GiveUp(Exception):
    """Raised at compile time when an instruction cannot be pre-bound."""


#: Per-step FP result memo cap (cleared wholesale on overflow).  An
#: unrolled block feeds each FP slot a handful of distinct inputs, so
#: the memo stays tiny; accumulating kernels that never repeat simply
#: churn it.
_MAX_FP_MEMO = 4096


# ----------------------------------------------------------------------
# Compile-time helpers (mirror Executor.op_width/_mem_width exactly)
# ----------------------------------------------------------------------

def _op_width(instr: Instruction, op) -> int:
    if is_reg(op):
        return op.width // 8
    if is_mem(op):
        return instr.memory_access_width or op.width
    return instr.operand_width


def _vec_width_bits(instr: Instruction) -> int:
    widths = [op.width for op in instr.operands
              if is_reg(op) and op.is_vector]
    return max(widths) if widths else 128


def _fp_sources(instr: Instruction) -> List:
    ops = list(instr.operands)
    if len(ops) == 3 and not is_imm(ops[2]):
        return ops[1:]
    if len(ops) >= 2:
        return [ops[0], ops[1]] if instr.info.reads_dst else [ops[1]]
    return ops


# ----------------------------------------------------------------------
# Accessor binders.  Every binder is ``bind(ex) -> closure``; the
# closures capture the executor's slot arrays / memory directly.
# ----------------------------------------------------------------------

def _reg_read_binder(reg):
    """bind(ex) -> get() returning the unsigned register view value."""
    kind = reg.kind
    if kind == "gpr":
        slot, off, width = reg.slot, reg.bit_offset, reg.width
        if width == 64:
            def bind(ex, _s=slot):
                g = ex.state._g
                return lambda: g[_s]
            return bind
        mask = (1 << width) - 1

        def bind(ex, _s=slot, _o=off, _m=mask):
            g = ex.state._g
            return lambda: (g[_s] >> _o) & _m
        return bind
    if kind == "vec":
        slot, mask = reg.slot, (1 << reg.width) - 1

        def bind(ex, _s=slot, _m=mask):
            v = ex.state._v
            return lambda: v[_s] & _m
        return bind
    if kind == "ip":
        def bind(ex):
            state = ex.state
            return lambda: state.rip
        return bind
    raise _GiveUp()


def _ea_binder(mem: Mem):
    """bind(ex) -> ea() computing the effective address (mod 2^64)."""
    disp, scale = mem.disp, mem.scale
    base_b = _reg_read_binder(mem.base) if mem.base is not None else None
    index_b = _reg_read_binder(mem.index) if mem.index is not None else None
    if base_b is None and index_b is None:
        addr = disp & _MASK64

        def bind(ex, _a=addr):
            return lambda: _a
        return bind

    def bind(ex):
        base = base_b(ex) if base_b is not None else None
        index = index_b(ex) if index_b is not None else None
        if index is None:
            return lambda: (disp + base()) & _MASK64
        if base is None:
            if scale == 1:
                return lambda: (disp + index()) & _MASK64
            return lambda: (disp + index() * scale) & _MASK64
        if scale == 1:
            return lambda: (disp + base() + index()) & _MASK64
        return lambda: (disp + base() + index() * scale) & _MASK64
    return bind


def _read_binder(instr: Instruction, op, width: Optional[int] = None):
    """bind(ex) -> read(event), mirroring ``Executor.read_op``."""
    if is_reg(op):
        kind = op.kind
        if kind == "gpr":
            slot, off, bits = op.slot, op.bit_offset, op.width
            if bits == 64:
                def bind(ex, _s=slot):
                    g = ex.state._g
                    return lambda event: g[_s]
                return bind
            mask = (1 << bits) - 1

            def bind(ex, _s=slot, _o=off, _m=mask):
                g = ex.state._g
                return lambda event: (g[_s] >> _o) & _m
            return bind
        if kind == "vec":
            slot, mask = op.slot, (1 << op.width) - 1

            def bind(ex, _s=slot, _m=mask):
                v = ex.state._v
                return lambda event: v[_s] & _m
            return bind
        if kind == "ip":
            def bind(ex):
                state = ex.state
                return lambda event: state.rip
            return bind
        raise _GiveUp()
    if is_imm(op):
        w = width or instr.operand_width
        value = op.value & _MASK[min(w, 8)]

        def bind(ex, _v=value):
            return lambda event: _v
        return bind
    assert is_mem(op)
    w = width if width is not None \
        else (instr.memory_access_width or op.width)
    eab = _ea_binder(op)

    def bind(ex, _eab=eab, _w=w):
        ea = _eab(ex)
        read_int = ex.memory.read_int

        def read(event):
            addr = ea()
            value = read_int(addr, _w)
            event.accesses.append(MemAccess(addr, _w, False))
            return value
        return read
    return bind


def _reg_write_ev_binder(reg, vex: bool):
    """bind(ex) -> write(event, value), mirroring ``MachineState.write``."""
    kind = reg.kind
    if kind == "gpr":
        slot = reg.slot
        vmask = (1 << reg.width) - 1
        if reg.width >= 32:
            def bind(ex, _s=slot, _m=vmask):
                g = ex.state._g

                def write(event, value):
                    g[_s] = value & _m
                return write
            return bind
        off = reg.bit_offset
        keep = ~reg.mask & _MASK64

        def bind(ex, _s=slot, _m=vmask, _o=off, _k=keep):
            g = ex.state._g

            def write(event, value):
                g[_s] = (g[_s] & _k) | ((value & _m) << _o)
            return write
        return bind
    if kind == "vec":
        slot = reg.slot
        vmask = (1 << reg.width) - 1
        if reg.width == 256 or vex:
            def bind(ex, _s=slot, _m=vmask):
                v = ex.state._v

                def write(event, value):
                    v[_s] = value & _m
                return write
            return bind

        def bind(ex, _s=slot, _m=vmask):
            v = ex.state._v

            def write(event, value):
                v[_s] = (v[_s] & ~_m) | (value & _m)
            return write
        return bind
    raise _GiveUp()


def _write_binder(instr: Instruction, op, width: Optional[int] = None):
    """bind(ex) -> write(event, value), mirroring ``Executor.write_op``."""
    if is_reg(op):
        return _reg_write_ev_binder(op, instr.mnemonic.startswith("v"))
    if not is_mem(op):
        raise _GiveUp()
    w = width if width is not None \
        else (instr.memory_access_width or op.width)
    eab = _ea_binder(op)

    def bind(ex, _eab=eab, _w=w):
        ea = _eab(ex)
        write_int = ex.memory.write_int

        def write(event, value):
            addr = ea()
            write_int(addr, _w, value)
            event.accesses.append(MemAccess(addr, _w, True))
        return write
    return bind


def _vec_read_binder(instr: Instruction, op, total_bits: int):
    """bind(ex) -> read(event), mirroring ``Executor.read_vec``."""
    mask = _MASK[total_bits // 8]
    if is_reg(op):
        if op.kind == "vec":
            slot = op.slot
            m = ((1 << op.width) - 1) & mask

            def bind(ex, _s=slot, _m=m):
                v = ex.state._v
                return lambda event: v[_s] & _m
            return bind
        if op.kind == "gpr":
            slot, off = op.slot, op.bit_offset
            m = ((1 << op.width) - 1) if op.width < 64 else _MASK64
            m &= mask

            def bind(ex, _s=slot, _o=off, _m=m):
                g = ex.state._g
                return lambda event: (g[_s] >> _o) & _m
            return bind
        raise _GiveUp()
    if is_imm(op):
        value = op.value

        def bind(ex, _v=value):
            return lambda event: _v
        return bind
    assert is_mem(op)
    w = instr.memory_access_width or total_bits // 8
    eab = _ea_binder(op)

    def bind(ex, _eab=eab, _w=w):
        ea = _eab(ex)
        read_int = ex.memory.read_int

        def read(event):
            addr = ea()
            value = read_int(addr, _w)
            event.accesses.append(MemAccess(addr, _w, False))
            return value
        return read
    return bind


# ----------------------------------------------------------------------
# Flag thunks.  Flag slot order (FLAG_NAMES): cf=0 pf=1 af=2 zf=3 sf=4
# of=5.  Each thunk replicates the corresponding Executor._set_* method
# bit for bit, writing into the flattened flag array.
# ----------------------------------------------------------------------

def _add_flags_binder(width: int):
    bits = width * 8
    mask = (1 << bits) - 1
    sign = bits - 1

    def bind(ex):
        f = ex.state._f

        def thunk(a, b, carry):
            raw = (a & mask) + (b & mask) + carry
            result = raw & mask
            sa = (a >> sign) & 1
            sb = (b >> sign) & 1
            sr = (result >> sign) & 1
            f[0] = raw > mask
            f[3] = result == 0
            f[4] = sr == 1
            f[5] = sa == sb and sr != sa
            f[1] = _PARITY[result & 0xFF]
            f[2] = ((a & 0xF) + (b & 0xF) + carry) > 0xF
            return result
        return thunk
    return bind


def _sub_flags_binder(width: int):
    bits = width * 8
    mask = (1 << bits) - 1
    sign = bits - 1

    def bind(ex):
        f = ex.state._f

        def thunk(a, b, borrow):
            a &= mask
            b &= mask
            result = (a - b - borrow) & mask
            sa = a >> sign
            sb = b >> sign
            sr = result >> sign
            f[0] = a < b + borrow
            f[3] = result == 0
            f[4] = sr == 1
            f[5] = sa != sb and sr != sa
            f[1] = _PARITY[result & 0xFF]
            f[2] = (a & 0xF) < (b & 0xF) + borrow
            return result
        return thunk
    return bind


def _logic_flags_binder(width: int):
    bits = width * 8
    mask = (1 << bits) - 1
    sign = bits - 1

    def bind(ex):
        f = ex.state._f

        def thunk(result):
            result &= mask
            f[0] = False
            f[5] = False
            f[2] = False
            f[3] = result == 0
            f[4] = (result >> sign) == 1
            f[1] = _PARITY[result & 0xFF]
            return result
        return thunk
    return bind


#: Condition evaluators over the flag array — same expressions as
#: ``evaluate_condition``, so non-bool flag values (tests poke raw
#: ints through the views) propagate identically.
_CC_COMPILED: Dict[str, Callable] = {
    "e": lambda f: f[3], "z": lambda f: f[3],
    "ne": lambda f: not f[3], "nz": lambda f: not f[3],
    "l": lambda f: f[4] != f[5], "ge": lambda f: f[4] == f[5],
    "le": lambda f: f[3] or f[4] != f[5],
    "g": lambda f: not f[3] and f[4] == f[5],
    "b": lambda f: f[0], "c": lambda f: f[0],
    "ae": lambda f: not f[0], "nc": lambda f: not f[0],
    "be": lambda f: f[0] or f[3],
    "a": lambda f: not f[0] and not f[3],
    "s": lambda f: f[4], "ns": lambda f: not f[4],
    "o": lambda f: f[5], "no": lambda f: not f[5],
    "p": lambda f: f[1], "np": lambda f: not f[1],
}


# ----------------------------------------------------------------------
# FP kernel: lanewise_fp with pre-bound struct codecs.
# ----------------------------------------------------------------------

def _make_fp_kernel(lane_bits: int, op):
    """Pre-bound replica of :func:`repro.runtime.fpmath.lanewise_fp`."""
    codec = struct.Struct("<f" if lane_bits == 32 else "<d")
    pack, unpack = codec.pack, codec.unpack
    nbytes = lane_bits // 8
    limit = fpmath.F32_MIN_NORMAL if lane_bits == 32 \
        else fpmath.F64_MIN_NORMAL
    copysign = math.copysign
    inf, nan = math.inf, math.nan

    def kernel(src_lanes, ftz):
        n = len(src_lanes[0])
        out = []
        append = out.append
        assist = False
        for i in range(n):
            inputs = [unpack(src[i].to_bytes(nbytes, "little"))[0]
                      for src in src_lanes]
            # x != 0.0 and -limit < x < limit  ==  is_subnormal(x):
            # NaN fails the range test, ±inf fails it, ±0.0 fails the
            # first test.
            has_subnormal = False
            for x in inputs:
                if x != 0.0 and -limit < x < limit:
                    has_subnormal = True
                    break
            if has_subnormal:
                if ftz:
                    inputs = [copysign(0.0, x)
                              if x != 0.0 and -limit < x < limit else x
                              for x in inputs]
                else:
                    assist = True
            try:
                result = op(*inputs)
            except (ZeroDivisionError, ValueError):
                result = nan if any(x == 0 for x in inputs) else inf
            try:
                bits = int.from_bytes(pack(result), "little")
            except (OverflowError, ValueError):
                bits = int.from_bytes(
                    pack(inf if result > 0 else -inf), "little")
            rounded = unpack(bits.to_bytes(nbytes, "little"))[0]
            if rounded != 0.0 and -limit < rounded < limit:
                if ftz:
                    result = copysign(0.0, result)
                    bits = int.from_bytes(pack(result), "little")
                else:
                    assist = True
            append(bits)
        return out, assist
    return kernel


# ----------------------------------------------------------------------
# Per-semantic compilers: compile(instr) -> binder, or raise _GiveUp.
# ----------------------------------------------------------------------

_COMPILERS: Dict[str, Callable[[Instruction], Callable]] = {}


def _compiler(*names: str):
    def register(fn):
        for name in names:
            _COMPILERS[name] = fn
        return fn
    return register


@_compiler("mov")
def _c_mov(instr):
    dst, src = instr.operands
    width = _op_width(instr, dst)
    rb = _read_binder(instr, src, width)
    wb = _write_binder(instr, dst, width)

    def bind(ex):
        read, write = rb(ex), wb(ex)

        def step(event):
            write(event, read(event))
        return step
    return bind


@_compiler("movzx")
def _c_movzx(instr):
    dst, src = instr.operands
    src_w = _op_width(instr, src)
    rb = _read_binder(instr, src, src_w)
    wb = _write_binder(instr, dst, None)

    def bind(ex):
        read, write = rb(ex), wb(ex)

        def step(event):
            write(event, read(event))
        return step
    return bind


@_compiler("movsx")
def _c_movsx(instr):
    dst, src = instr.operands
    src_w = _op_width(instr, src)
    rb = _read_binder(instr, src, src_w)
    wb = _write_binder(instr, dst, None)
    sign = 1 << (src_w * 8 - 1)
    modulus = 1 << (src_w * 8)
    dmask = _MASK[_op_width(instr, dst)]

    def bind(ex):
        read, write = rb(ex), wb(ex)

        def step(event):
            v = read(event)
            if v >= sign:
                v -= modulus
            write(event, v & dmask)
        return step
    return bind


@_compiler("lea")
def _c_lea(instr):
    dst, src = instr.operands
    if not is_mem(src) or not is_reg(dst):
        raise _GiveUp()
    mask = _MASK[dst.width // 8]
    eab = _ea_binder(src)
    wb = _write_binder(instr, dst, None)

    def bind(ex):
        ea, write = eab(ex), wb(ex)

        def step(event):
            write(event, ea() & mask)
        return step
    return bind


@_compiler("xchg")
def _c_xchg(instr):
    a, b = instr.operands
    width = instr.operand_width
    ra = _read_binder(instr, a, width)
    rb = _read_binder(instr, b, width)
    wa = _write_binder(instr, a, width)
    wb = _write_binder(instr, b, width)

    def bind(ex):
        read_a, read_b = ra(ex), rb(ex)
        write_a, write_b = wa(ex), wb(ex)

        def step(event):
            va = read_a(event)
            vb = read_b(event)
            write_a(event, vb)
            write_b(event, va)
        return step
    return bind


def _c_binary(instr, kind, compute=None):
    """add/sub/and/or/xor — mirrors ``_binary_alu`` (imm sign-extend)."""
    dst, src = instr.operands
    width = _op_width(instr, dst)
    ra = _read_binder(instr, dst, width)
    wb = _write_binder(instr, dst, width)
    imm_b = None
    rb = None
    if is_imm(src):
        imm_b = _sext(src.value, min(width, 8)) & _MASK[width]
    else:
        rb = _read_binder(instr, src, width)
    if kind == "add":
        fb = _add_flags_binder(width)
    elif kind == "sub":
        fb = _sub_flags_binder(width)
    else:
        fb = _logic_flags_binder(width)

    def bind(ex):
        read_dst = ra(ex)
        read_src = rb(ex) if rb is not None else None
        write = wb(ex)
        thunk = fb(ex)
        if kind in ("add", "sub"):
            if read_src is None:
                def step(event, _b=imm_b):
                    write(event, thunk(read_dst(event), _b, 0))
            else:
                def step(event):
                    write(event,
                          thunk(read_dst(event), read_src(event), 0))
        else:
            if read_src is None:
                def step(event, _b=imm_b):
                    write(event, thunk(compute(read_dst(event), _b)))
            else:
                def step(event):
                    write(event,
                          thunk(compute(read_dst(event),
                                        read_src(event))))
        return step
    return bind


@_compiler("add")
def _c_add(instr):
    return _c_binary(instr, "add")


@_compiler("sub")
def _c_sub(instr):
    return _c_binary(instr, "sub")


@_compiler("and")
def _c_and(instr):
    return _c_binary(instr, "logic", lambda a, b: a & b)


@_compiler("or")
def _c_or(instr):
    return _c_binary(instr, "logic", lambda a, b: a | b)


@_compiler("xor")
def _c_xor(instr):
    return _c_binary(instr, "logic", lambda a, b: a ^ b)


def _c_carry(instr, kind):
    """adc/sbb — imm operands are NOT sign-extended (read_op path)."""
    dst, src = instr.operands
    width = _op_width(instr, dst)
    ra = _read_binder(instr, dst, width)
    rb = _read_binder(instr, src, width)
    wb = _write_binder(instr, dst, width)
    fb = _add_flags_binder(width) if kind == "add" \
        else _sub_flags_binder(width)

    def bind(ex):
        read_dst, read_src = ra(ex), rb(ex)
        write, thunk = wb(ex), fb(ex)
        f = ex.state._f

        def step(event):
            a = read_dst(event)
            b = read_src(event)
            write(event, thunk(a, b, int(f[0])))
        return step
    return bind


@_compiler("adc")
def _c_adc(instr):
    return _c_carry(instr, "add")


@_compiler("sbb")
def _c_sbb(instr):
    return _c_carry(instr, "sub")


@_compiler("cmp")
def _c_cmp(instr):
    dst, src = instr.operands
    width = max(_op_width(instr, dst), 1)
    ra = _read_binder(instr, dst, width)
    fb = _sub_flags_binder(width)
    if is_imm(src):
        b_const = _sext(src.value, min(width, 8)) & _MASK[width]

        def bind(ex):
            read_dst, thunk = ra(ex), fb(ex)

            def step(event, _b=b_const):
                thunk(read_dst(event), _b, 0)
            return step
        return bind
    rb = _read_binder(instr, src, width)

    def bind(ex):
        read_dst, read_src, thunk = ra(ex), rb(ex), fb(ex)

        def step(event):
            thunk(read_dst(event), read_src(event), 0)
        return step
    return bind


@_compiler("test")
def _c_test(instr):
    dst, src = instr.operands
    width = max(_op_width(instr, dst), 1)
    ra = _read_binder(instr, dst, width)
    rb = _read_binder(instr, src, width)
    fb = _logic_flags_binder(width)

    def bind(ex):
        read_dst, read_src, thunk = ra(ex), rb(ex), fb(ex)

        def step(event):
            thunk(read_dst(event) & read_src(event))
        return step
    return bind


def _c_incdec(instr, kind):
    op = instr.operands[0]
    width = _op_width(instr, op)
    ra = _read_binder(instr, op, width)
    wb = _write_binder(instr, op, width)
    fb = _add_flags_binder(width) if kind == "add" \
        else _sub_flags_binder(width)

    def bind(ex):
        read, write, thunk = ra(ex), wb(ex), fb(ex)
        f = ex.state._f

        def step(event):
            saved_cf = f[0]
            result = thunk(read(event), 1, 0)
            f[0] = saved_cf  # inc/dec preserve CF
            write(event, result)
        return step
    return bind


@_compiler("inc")
def _c_inc(instr):
    return _c_incdec(instr, "add")


@_compiler("dec")
def _c_dec(instr):
    return _c_incdec(instr, "sub")


@_compiler("neg")
def _c_neg(instr):
    op = instr.operands[0]
    width = _op_width(instr, op)
    ra = _read_binder(instr, op, width)
    wb = _write_binder(instr, op, width)
    fb = _sub_flags_binder(width)

    def bind(ex):
        read, write, thunk = ra(ex), wb(ex), fb(ex)
        f = ex.state._f

        def step(event):
            value = read(event)
            result = thunk(0, value, 0)
            f[0] = value != 0
            write(event, result)
        return step
    return bind


@_compiler("not")
def _c_not(instr):
    op = instr.operands[0]
    width = _op_width(instr, op)
    mask = _MASK[width]
    ra = _read_binder(instr, op, width)
    wb = _write_binder(instr, op, width)

    def bind(ex):
        read, write = ra(ex), wb(ex)

        def step(event):
            write(event, ~read(event) & mask)
        return step
    return bind


@_compiler("bt")
def _c_bt(instr):
    dst, src = instr.operands
    width = _op_width(instr, dst)
    bits = width * 8
    rs = _read_binder(instr, src, width)
    rd = _read_binder(instr, dst, width)

    def bind(ex):
        read_src, read_dst = rs(ex), rd(ex)
        f = ex.state._f

        def step(event):
            bit = read_src(event) % bits
            f[0] = bool((read_dst(event) >> bit) & 1)
        return step
    return bind


@_compiler("bswap")
def _c_bswap(instr):
    op = instr.operands[0]
    width = _op_width(instr, op)
    ra = _read_binder(instr, op, width)
    wb = _write_binder(instr, op, width)

    def bind(ex):
        read, write = ra(ex), wb(ex)

        def step(event):
            value = read(event)
            write(event, int.from_bytes(
                value.to_bytes(width, "little"), "big"))
        return step
    return bind


def _c_shift(instr, compute):
    """Shift/rotate family — count first, value read unconditionally,
    no flag/state change when the masked count is zero."""
    dst = instr.operands[0]
    width = _op_width(instr, dst)
    bits = width * 8
    mask = _MASK[width]
    sign = bits - 1
    cmask = 0x3F if width == 8 else 0x1F
    ra = _read_binder(instr, dst, width)
    wb = _write_binder(instr, dst, width)
    rc = _read_binder(instr, instr.operands[1], 1) \
        if len(instr.operands) > 1 else None

    def bind(ex):
        read, write = ra(ex), wb(ex)
        read_count = rc(ex) if rc is not None else None
        f = ex.state._f

        def step(event):
            count = 1 if read_count is None \
                else read_count(event) & cmask
            value = read(event)
            if count:
                result, cf = compute(value, count, bits)
                result &= mask
                f[0] = cf
                f[3] = result == 0
                f[4] = (result >> sign) == 1
                f[1] = _PARITY[result & 0xFF]
                f[5] = False
                f[2] = False
                write(event, result)
        return step
    return bind


@_compiler("shl", "sal")
def _c_shl(instr):
    return _c_shift(instr, lambda v, c, bits:
                    (v << c,
                     bool((v >> (bits - c)) & 1) if c <= bits else False))


@_compiler("shr")
def _c_shr(instr):
    return _c_shift(instr, lambda v, c, bits:
                    (v >> c, bool((v >> (c - 1)) & 1)))


@_compiler("sar")
def _c_sar(instr):
    def compute(v, c, bits):
        signed = _sext(v, bits // 8)
        return (signed >> c, bool((signed >> (c - 1)) & 1))
    return _c_shift(instr, compute)


@_compiler("rol")
def _c_rol(instr):
    def compute(v, c, bits):
        c %= bits
        rotated = ((v << c) | (v >> (bits - c))) if c else v
        return rotated, bool(rotated & 1)
    return _c_shift(instr, compute)


@_compiler("ror")
def _c_ror(instr):
    def compute(v, c, bits):
        c %= bits
        rotated = ((v >> c) | (v << (bits - c))) if c else v
        return rotated, bool((rotated >> (bits - 1)) & 1)
    return _c_shift(instr, compute)


@_compiler("setcc")
def _c_setcc(instr):
    cond = _CC_COMPILED.get(instr.info.cc)
    if cond is None:
        raise _GiveUp()
    wb = _write_binder(instr, instr.operands[0], 1)

    def bind(ex):
        write = wb(ex)
        f = ex.state._f

        def step(event):
            write(event, int(cond(f)))
        return step
    return bind


@_compiler("cmov")
def _c_cmov(instr):
    dst, src = instr.operands
    cond = _CC_COMPILED.get(instr.info.cc)
    if cond is None:
        raise _GiveUp()
    width = _op_width(instr, dst)
    rs = _read_binder(instr, src, width)
    wb = _write_binder(instr, dst, width)
    rd = _read_binder(instr, dst, width) \
        if width == 4 and is_reg(dst) else None

    def bind(ex):
        read_src, write = rs(ex), wb(ex)
        read_dst = rd(ex) if rd is not None else None
        f = ex.state._f

        def step(event):
            value = read_src(event)  # source is always read
            if cond(f):
                write(event, value)
            elif read_dst is not None:
                # 32-bit cmov still zero-extends the destination.
                write(event, read_dst(event))
        return step
    return bind


@_compiler("push")
def _c_push(instr):
    width = max(instr.operand_width, 8)
    rs = _read_binder(instr, instr.operands[0], width)

    def bind(ex):
        read = rs(ex)
        g = ex.state._g
        write_int = ex.memory.write_int

        def step(event):
            sp = (g[_RSP] - width) & _MASK64
            g[_RSP] = sp
            value = read(event)
            write_int(sp, width, value)
            event.accesses.append(MemAccess(sp, width, True))
        return step
    return bind


@_compiler("pop")
def _c_pop(instr):
    width = max(instr.operand_width, 8)
    wb = _write_binder(instr, instr.operands[0], width)

    def bind(ex):
        write = wb(ex)
        g = ex.state._g
        read_int = ex.memory.read_int

        def step(event):
            sp = g[_RSP]
            value = read_int(sp, width)
            event.accesses.append(MemAccess(sp, width, False))
            write(event, value)
            g[_RSP] = (sp + width) & _MASK64
        return step
    return bind


@_compiler("nop")
def _c_nop(instr):
    def bind(ex):
        def step(event):
            return None
        return step
    return bind


@_compiler("cdq")
def _c_cdq(instr):
    def bind(ex):
        g = ex.state._g

        def step(event):
            g[_RDX] = 0xFFFFFFFF if g[_RAX] & 0x80000000 else 0
        return step
    return bind


@_compiler("cqo")
def _c_cqo(instr):
    def bind(ex):
        g = ex.state._g

        def step(event):
            g[_RDX] = _MASK64 if g[_RAX] >> 63 else 0
        return step
    return bind


@_compiler("cdqe")
def _c_cdqe(instr):
    def bind(ex):
        g = ex.state._g

        def step(event):
            v = g[_RAX] & 0xFFFFFFFF
            if v >= 0x80000000:
                v -= 1 << 32
            g[_RAX] = v & _MASK64
        return step
    return bind


@_compiler("imul")
def _c_imul(instr):
    ops = instr.operands
    if len(ops) == 1:
        raise _GiveUp()  # rdx:rax widening form stays interpreted
    dst = ops[0]
    width = _op_width(instr, dst)
    sign = 1 << (width * 8 - 1)
    modulus = 1 << (width * 8)
    mask = _MASK[width]
    if len(ops) == 2:
        ra = _read_binder(instr, dst, width)
        rb = _read_binder(instr, ops[1], width)
    else:
        ra = _read_binder(instr, ops[1], width)
        rb = _read_binder(instr, ops[2], width)
    wb = _write_binder(instr, dst, width)

    def bind(ex):
        read_a, read_b, write = ra(ex), rb(ex), wb(ex)
        f = ex.state._f

        def step(event):
            a = read_a(event)
            if a >= sign:
                a -= modulus
            b = read_b(event)
            if b >= sign:
                b -= modulus
            product = a * b
            truncated = product & mask
            t = truncated - modulus if truncated >= sign else truncated
            overflow = product != t
            f[0] = overflow
            f[5] = overflow
            write(event, truncated)
        return step
    return bind


@_compiler("vzero")
def _c_vzero(instr):
    mask128 = _MASK[16]

    def bind(ex):
        v = ex.state._v

        def step(event):
            for i in range(16):
                v[i] &= mask128
        return step
    return bind


@_compiler("vec_mov")
def _c_vec_mov(instr):
    dst, src = instr.operands
    vex = instr.mnemonic.startswith("v")
    scalar_w = {"movss": 4, "movsd": 8}.get(instr.mnemonic.lstrip("v"))
    if scalar_w is not None:
        smask = _MASK[scalar_w]
        if is_reg(dst) and is_reg(src):
            if dst.kind != "vec" or src.kind != "vec":
                raise _GiveUp()
            rd = _read_binder(instr, dst, None)
            rs = _read_binder(instr, src, None)
            wb = _reg_write_ev_binder(dst, vex)
            inv = ~smask

            def bind(ex):
                read_dst, read_src = rd(ex), rs(ex)
                write = wb(ex)

                def step(event):
                    old = read_dst(event)
                    value = read_src(event) & smask
                    write(event, (old & inv) | value)
                return step
            return bind
        if is_reg(dst):
            if dst.kind != "vec":
                raise _GiveUp()
            rs = _read_binder(instr, src, scalar_w)
            wb = _reg_write_ev_binder(dst, True)  # load zero-extends

            def bind(ex):
                read, write = rs(ex), wb(ex)

                def step(event):
                    write(event, read(event))
                return step
            return bind
        if not is_reg(src) or src.kind != "vec":
            raise _GiveUp()
        rs = _read_binder(instr, src, None)
        wb = _write_binder(instr, dst, scalar_w)

        def bind(ex):
            read, write = rs(ex), wb(ex)

            def step(event):
                write(event, read(event) & smask)
            return step
        return bind
    width_bits = _vec_width_bits(instr)
    rs = _vec_read_binder(instr, src, width_bits)
    if is_reg(dst):
        if dst.kind != "vec":
            raise _GiveUp()
        wb = _reg_write_ev_binder(dst, vex)
    else:
        wb = _write_binder(instr, dst, width_bits // 8)

    def bind(ex):
        read, write = rs(ex), wb(ex)

        def step(event):
            write(event, read(event))
        return step
    return bind


@_compiler("vec_xfer")
def _c_vec_xfer(instr):
    dst, src = instr.operands
    width = instr.memory_access_width or \
        (8 if instr.mnemonic.endswith("q") else 4)
    mask = _MASK[width]
    rs = _read_binder(instr, src, width)
    if is_reg(dst) and dst.is_vector:
        wb = _reg_write_ev_binder(dst, True)
    else:
        wb = _write_binder(instr, dst, width)

    def bind(ex):
        read, write = rs(ex), wb(ex)

        def step(event):
            write(event, read(event) & mask)
        return step
    return bind


def _c_vec_bitwise(instr, compute):
    dst = instr.operands[0]
    if not is_reg(dst) or dst.kind != "vec":
        raise _GiveUp()
    width_bits = _vec_width_bits(instr)
    mask = _MASK[width_bits // 8]
    srcs = _fp_sources(instr)
    rbs = [_vec_read_binder(instr, s, width_bits) for s in srcs]
    wb = _reg_write_ev_binder(dst, instr.mnemonic.startswith("v"))
    if len(rbs) == 1:
        rd = _read_binder(instr, dst, None)  # unmasked dst read

        def bind(ex):
            read_src = rbs[0](ex)
            read_dst = rd(ex)
            write = wb(ex)

            def step(event):
                b = read_src(event)
                a = read_dst(event)
                write(event, compute(a, b) & mask)
            return step
        return bind
    if len(rbs) != 2:
        raise _GiveUp()
    ra, rb = rbs

    def bind(ex):
        read_a, read_b = ra(ex), rb(ex)
        write = wb(ex)

        def step(event):
            a = read_a(event)
            b = read_b(event)
            write(event, compute(a, b) & mask)
        return step
    return bind


@_compiler("vxor")
def _c_vxor(instr):
    return _c_vec_bitwise(instr, lambda a, b: a ^ b)


@_compiler("vand")
def _c_vand(instr):
    return _c_vec_bitwise(instr, lambda a, b: a & b)


@_compiler("vor")
def _c_vor(instr):
    return _c_vec_bitwise(instr, lambda a, b: a | b)


@_compiler("vandn")
def _c_vandn(instr):
    return _c_vec_bitwise(instr, lambda a, b: ~a & b)


def _c_fp(instr, op):
    """Packed/scalar FP arithmetic — mirrors ``_fp_op`` exactly."""
    dst = instr.operands[0]
    if not is_reg(dst) or dst.kind != "vec":
        raise _GiveUp()
    lane_bits = 64 if instr.info.fp == "f64" else 32
    width_bits = _vec_width_bits(instr)
    scalar = instr.mnemonic.lstrip("v").endswith(("ss", "sd"))
    vexish = instr.mnemonic.startswith("v")
    srcs = _fp_sources(instr)
    rbs = [_vec_read_binder(instr, s,
                            lane_bits if scalar and is_mem(s)
                            else width_bits)
           for s in srcs]
    wmask = _MASK[width_bits // 8]
    prepend_dst = instr.info.reads_dst and len(srcs) == 1
    lane_mask = (1 << lane_bits) - 1
    n_lanes = width_bits // lane_bits
    kernel = _make_fp_kernel(lane_bits, op)
    wb = _reg_write_ev_binder(dst, vexish)
    rd = _read_binder(instr, dst, None)
    use_v0_base = vexish or instr.info.reads_dst

    def bind(ex):
        reads = [rb(ex) for rb in rbs]
        read_dst = rd(ex)
        write = wb(ex)
        state = ex.state
        # The kernel is a pure function of (input ints, ftz), and an
        # unrolled run feeds each slot the same few inputs over and
        # over — memoise the decode/compute/encode round trip.  The
        # operand reads still run first, so MemAccess recording is
        # untouched.
        memo: Dict[Tuple, Tuple[int, bool]] = {}

        def step(event):
            values = [r(event) for r in reads]
            if prepend_dst:
                values.insert(0, read_dst(event) & wmask)
            ftz = state.ftz
            key = (*values, ftz)
            hit = memo.get(key)
            if scalar:
                if hit is None:
                    lane_sets = [[v & lane_mask] for v in values]
                    out, assist = kernel(lane_sets, ftz)
                    hit = (out[0], assist)
                    if len(memo) >= _MAX_FP_MEMO:
                        memo.clear()
                    memo[key] = hit
                lane0, assist = hit
                # Scalar ops merge into the untouched upper bits:
                # legacy SSE keeps the destination's, VEX takes src1's.
                base = values[0] if use_v0_base \
                    else read_dst(event) & wmask
                result = (base & ~lane_mask) | lane0
            else:
                if hit is None:
                    lane_sets = [[(v >> (i * lane_bits)) & lane_mask
                                  for i in range(n_lanes)]
                                 for v in values]
                    out, assist = kernel(lane_sets, ftz)
                    result = 0
                    for i, lane in enumerate(out):
                        result |= lane << (i * lane_bits)
                    hit = (result, assist)
                    if len(memo) >= _MAX_FP_MEMO:
                        memo.clear()
                    memo[key] = hit
                result, assist = hit
            if assist:
                event.subnormal = True
            write(event, result)
        return step
    return bind


@_compiler("fp_add")
def _c_fp_add(instr):
    name = instr.mnemonic.lstrip("v")
    if name.startswith("add"):
        op = lambda a, b: a + b  # noqa: E731
    elif name.startswith("sub"):
        op = lambda a, b: a - b  # noqa: E731
    elif name.startswith("min"):
        op = min
    else:
        op = max
    return _c_fp(instr, op)


@_compiler("fp_mul")
def _c_fp_mul(instr):
    return _c_fp(instr, lambda a, b: a * b)


@_compiler("fp_div")
def _c_fp_div(instr):
    def div(a, b):
        if b == 0.0:
            return math.inf if a > 0 else \
                (-math.inf if a < 0 else math.nan)
        return a / b
    return _c_fp(instr, div)


@_compiler("fp_sqrt")
def _c_fp_sqrt(instr):
    return _c_fp(instr, lambda a, *rest:
                 math.sqrt(a) if a >= 0 else math.nan)


@_compiler("fp_rcp")
def _c_fp_rcp(instr):
    name = instr.mnemonic.lstrip("v")
    if name.startswith("rsqrt"):
        return _c_fp(instr, lambda a, *rest:
                     1.0 / math.sqrt(a) if a > 0 else math.inf)
    return _c_fp(instr, lambda a, *rest:
                 1.0 / a if a != 0 else math.inf)


@_compiler("fp_round")
def _c_fp_round(instr):
    return _c_fp(instr, lambda a, *rest: float(round(a)))


@_compiler("fma")
def _c_fma(instr):
    if len(instr.operands) != 3:
        raise _GiveUp()
    dst, src2, src3 = instr.operands
    if not is_reg(dst) or dst.kind != "vec":
        raise _GiveUp()
    name = instr.mnemonic
    lane_bits = 64 if instr.info.fp == "f64" else 32
    width_bits = _vec_width_bits(instr)
    digits = "".join(ch for ch in name if ch.isdigit())
    negate = name.startswith("vfnm")
    subtract = "sub" in name
    scalar = name.lstrip("v").endswith(("ss", "sd"))
    wmask = _MASK[width_bits // 8]
    lane_mask = (1 << lane_bits) - 1
    n_lanes = width_bits // lane_bits

    def fma_op(x, y, z):
        product = x * y
        if negate:
            product = -product
        return product - z if subtract else product + z

    kernel = _make_fp_kernel(lane_bits, fma_op)
    ra = _read_binder(instr, dst, None)
    rb = _vec_read_binder(instr, src2, width_bits)
    rc = _vec_read_binder(instr, src3, width_bits)
    wb = _reg_write_ev_binder(dst, True)

    def bind(ex):
        read_a, read_b, read_c = ra(ex), rb(ex), rc(ex)
        write = wb(ex)
        state = ex.state
        # Same pure-function memo as ``_c_fp`` — the key covers every
        # input the result depends on (dst lanes included, so the
        # scalar upper-bit merge is part of the cached value).
        memo: Dict[Tuple, Tuple[int, bool]] = {}

        def step(event):
            a = read_a(event) & wmask
            b = read_b(event)
            c = read_c(event)
            ftz = state.ftz
            key = (a, b, c, ftz)
            hit = memo.get(key)
            if hit is None:
                if digits == "132":
                    m1, m2, ad = a, c, b
                elif digits == "213":
                    m1, m2, ad = b, a, c
                else:  # 231
                    m1, m2, ad = b, c, a
                if scalar:
                    sets = [[m1 & lane_mask], [m2 & lane_mask],
                            [ad & lane_mask]]
                else:
                    sets = [[(v >> (i * lane_bits)) & lane_mask
                             for i in range(n_lanes)]
                            for v in (m1, m2, ad)]
                out, assist = kernel(sets, ftz)
                if scalar:
                    result = (a & ~lane_mask) | out[0]
                else:
                    result = 0
                    for i, lane in enumerate(out):
                        result |= lane << (i * lane_bits)
                hit = (result, assist)
                if len(memo) >= _MAX_FP_MEMO:
                    memo.clear()
                memo[key] = hit
            result, assist = hit
            if assist:
                event.subnormal = True
            write(event, result)
        return step
    return bind


# ----------------------------------------------------------------------
# Fallback + block compilation + caches
# ----------------------------------------------------------------------

def _fallback_binder(instr, handler):
    """A step that defers to the interpreted handler.

    Sets ``ex._event`` exactly as the interpreted loop does, so
    handlers that annotate the event (div latency class, subnormal
    assists) and errors (unsupported instructions, faults) behave
    identically.
    """
    if handler is None:
        def bind(ex):
            execute_instruction = ex.execute_instruction

            def step(event):
                ex._event = event
                execute_instruction(instr)
            return step
        return bind

    def bind(ex):
        def step(event):
            ex._event = event
            handler(ex, instr)
        return step
    return bind


#: Symbolic-plan cache cap; cleared wholesale on overflow (the corpus
#: dedup memo upstream makes re-compiles rare even then).
_MAX_SYMBOLIC = 4096
#: Per-executor bound-plan cap (executors usually see a few blocks).
_MAX_BOUND = 512

_symbolic: Dict[BasicBlock, Tuple] = {}


def clear_plan_cache() -> None:
    """Drop all symbolic plans (tests and memory pressure)."""
    _symbolic.clear()


def compiled_plan(block: BasicBlock) -> Tuple:
    """Symbolic plan for ``block``: one binder per instruction slot."""
    plan = _symbolic.get(block)
    if plan is not None:
        if telemetry.is_enabled():
            telemetry.count("cache.blockplan.hits")
        return plan
    start = time.perf_counter()
    binders = []
    for instr, handler in handler_plan(block):
        binder = None
        if handler is not None:
            compile_fn = _COMPILERS.get(instr.info.semantic)
            if compile_fn is not None:
                try:
                    binder = compile_fn(instr)
                except _GiveUp:
                    binder = None
        if binder is None:
            binder = _fallback_binder(instr, handler)
        binders.append(binder)
    plan = tuple(binders)
    if len(_symbolic) >= _MAX_SYMBOLIC:
        if telemetry.is_enabled():
            telemetry.count("cache.blockplan.evictions",
                            len(_symbolic))
        _symbolic.clear()
    _symbolic[block] = plan
    if telemetry.is_enabled():
        telemetry.count("cache.blockplan.misses")
        telemetry.observe("cache.blockplan.compile_ms",
                          (time.perf_counter() - start) * 1000.0)
    return plan


def bound_plan(executor, block: BasicBlock) -> Tuple:
    """Steps of ``block`` bound to one executor's state and memory."""
    plans = executor._plans
    steps = plans.get(block)
    if steps is not None:
        if telemetry.is_enabled():
            telemetry.count("cache.blockplan.hits")
        return steps
    steps = tuple(binder(executor) for binder in compiled_plan(block))
    if len(plans) >= _MAX_BOUND:
        if telemetry.is_enabled():
            telemetry.count("cache.blockplan.evictions", len(plans))
        plans.clear()
    plans[block] = steps
    return steps


def _blockplan_cache_stats():
    """Unified-telemetry provider for the block-plan cache."""
    stats = cachestats.registry_stats("blockplan")
    stats.size = len(_symbolic)
    stats.capacity = _MAX_SYMBOLIC
    return stats


cachestats.register_provider("blockplan", _blockplan_cache_stats)
