"""Block-compiled plans vs the interpreted loop.

Every compiled semantic is run through ``execute_block`` twice — plans
forced on and forced off — on otherwise identical machines, and the
final architectural state *and* the full event trace (accesses in
order, subnormal marks, div classes) must match exactly.  Cache
behaviour (symbolic sharing, per-executor binding, overflow clearing),
fault identity through the fallback path, the escape hatch, and the
page-translation fast path are pinned separately.
"""

import pytest

from repro.errors import ArithmeticFault, MemoryFault
from repro.isa.parser import parse_block
from repro.runtime import blockplan, plan
from repro.runtime.executor import Executor
from repro.runtime.memory import (PAGE_SIZE, PhysicalPage,
                                  VirtualMemory, page_of)
from repro.runtime.state import MachineState
from repro.simcore import config as simcore

from tests.runtime.helpers import Harness


def _trace_fingerprint(trace):
    return tuple(
        (e.index, e.slot,
         tuple((a.address, a.width, a.is_write) for a in e.accesses),
         e.subnormal, e.div_class)
        for e in trace)


def _run(text: str, enabled: bool, unroll: int = 1, ftz: bool = False):
    """Fresh machine -> (gpr, vec, flags, rip, trace fingerprint)."""
    with blockplan.forced(enabled):
        h = Harness(ftz=ftz)
        trace = h.run(text, unroll=unroll)
        return (dict(h.state.gpr), dict(h.state.vec),
                dict(h.state.flags), h.state.rip,
                _trace_fingerprint(trace))


#: One block per compiled-semantic family (plus fallback ops mixed in
#: so compiled and interpreted steps interleave within one plan).
BLOCKS = [
    # moves, extensions, lea, xchg
    "mov $0x1234, %rax\nmov %rax, %rbx\nmov %ebx, %ecx",
    "movzx %al, %rbx\nmovsx %al, %rcx\nmovsx %eax, %rdx",
    "lea 8(%rdi), %rax\nlea (%rdi,%rsi,4), %rbx\n"
    "lea 0x2000, %rcx\nlea -16(,%rsi,8), %rdx",
    "xchg %rax, %rbx\nxchg %ecx, %edx",
    # binary ALU with reg/imm/mem forms, carry ops
    "add %rax, %rbx\nsub $0x7f, %rbx\nand %rcx, %rbx\n"
    "or $-2, %rbx\nxor %ebx, %eax",
    "add (%r14), %rax\nadd %rax, 8(%r14)\nsub $1, (%r14)",
    "add $-1, %rax\nadc $0, %rbx\nsub %rcx, %rdx\nsbb %rbx, %rax",
    # compares, conditional families
    "cmp %rax, %rbx\nsete %cl\nsetl %dl\ncmovg %rax, %rsi",
    "test %rax, %rax\nsetnz %bl\ncmovz %rcx, %rdx\ncmovnz %ecx, %edx",
    "cmp $0x40, %al\nsetb %bl\nseta %cl\nsetbe %dl",
    # inc/dec/neg/not/bt/bswap
    "inc %rax\ndec %ebx\nneg %rcx\nnot %edx",
    "bt $3, %rax\nbt %rcx, %rbx\nbswap %rax\nbswap %ebx",
    # shifts and rotates, incl. cl counts and masked-to-zero counts
    "shl $3, %rax\nshr $1, %ebx\nsar $4, %rcx\nrol $7, %rdx\n"
    "ror $9, %esi",
    "mov $65, %rcx\nshl %cl, %rax\nshr %cl, %rbx\nsar %cl, %rdx",
    "mov $64, %rcx\nshl %cl, %rax\nror %cl, %rbx",  # masked count 0
    # stack ops
    "push %rax\npush %rbx\npop %rcx\npop %rdx\npush %rsi\npop %rdi",
    # widening/convert helpers and imul forms
    "cdq\ncqo\ncdqe\nnop",
    "imul %rbx, %rax\nimul $3, %rcx, %rdx\nimul %esi, %edi",
    # vector bitwise / moves / transfers
    "vxorps %xmm0, %xmm0, %xmm0\nvandps %xmm2, %xmm1, %xmm0\n"
    "pxor %xmm3, %xmm3\npand %xmm1, %xmm2\npor %xmm1, %xmm3",
    "movss %xmm1, %xmm0\nmovss (%r14), %xmm2\nmovss %xmm2, 4(%r14)\n"
    "movsd %xmm1, %xmm3\nmovaps %xmm0, %xmm4",
    "movaps (%r14), %xmm0\nmovups %xmm0, 16(%r14)\n"
    "movdqa %xmm0, %xmm5\nmovq %rax, %xmm6\nmovd %xmm6, %ecx",
    # FP arithmetic (scalar merge + packed) and FMA orderings
    "addss %xmm1, %xmm0\nmulsd %xmm1, %xmm2\naddps %xmm1, %xmm3\n"
    "mulps %xmm2, %xmm3\nsubpd %xmm1, %xmm4",
    "divss %xmm1, %xmm0\nsqrtss %xmm1, %xmm2\nsqrtps %xmm3, %xmm4",
    "vfmadd213ps %xmm2, %xmm1, %xmm0\n"
    "vfmadd231ps %xmm2, %xmm1, %xmm0\n"
    "vfnmadd231ps %xmm2, %xmm1, %xmm0",
    # compiled steps interleaved with interpreter fallbacks
    "add %rax, %rbx\ncvtsi2ss %eax, %xmm0\nmulss %xmm0, %xmm1\n"
    "cvttss2si %xmm1, %ecx\nshufps $0b01000100, %xmm1, %xmm0",
    "mov $7, %rax\nxor %edx, %edx\nmov $3, %rcx\ndiv %rcx\n"
    "add %rdx, %rax",
    "pshufd $0, %xmm1, %xmm0\npaddd %xmm1, %xmm0\n"
    "vxorps %xmm2, %xmm2, %xmm2\npcmpeqd %xmm1, %xmm0",
]


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_compiled_matches_interpreted(index):
    text = BLOCKS[index]
    assert _run(text, True) == _run(text, False)


@pytest.mark.parametrize("index", [0, 4, 13, 15, 19, 21, 24])
def test_compiled_matches_interpreted_unrolled(index):
    text = BLOCKS[index]
    assert _run(text, True, unroll=7) == _run(text, False, unroll=7)


def test_ftz_and_subnormal_marks_match():
    # 0x00000001 lanes are subnormal f32s: assists fire (FTZ off)
    # or flush (FTZ on) — identically in both modes.
    text = ("movss (%r14), %xmm0\nmovss 4(%r14), %xmm1\n"
            "mulss %xmm1, %xmm0\naddps %xmm1, %xmm2")
    for ftz in (False, True):
        on = _run(text, True, ftz=ftz)
        off = _run(text, False, ftz=ftz)
        assert on == off


# ---------------------------------------------------------------------------
# Caches
# ---------------------------------------------------------------------------

def test_symbolic_plans_shared_between_equal_blocks():
    plan.clear_plan_cache()
    a = parse_block("add %rax, %rbx\nimul %rcx, %rbx")
    b = parse_block("add %rax, %rbx\nimul %rcx, %rbx")
    assert a == b and a is not b
    assert plan.compiled_plan(a) is plan.compiled_plan(b)
    plan.clear_plan_cache()
    assert not plan._symbolic


def test_symbolic_cache_overflow_clears(monkeypatch):
    plan.clear_plan_cache()
    monkeypatch.setattr(plan, "_MAX_SYMBOLIC", 2)
    blocks = [parse_block(f"add ${i}, %rax") for i in range(1, 4)]
    for block in blocks[:2]:
        plan.compiled_plan(block)
    assert len(plan._symbolic) == 2
    plan.compiled_plan(blocks[2])  # overflow: wholesale clear
    assert set(plan._symbolic) == {blocks[2]}
    plan.clear_plan_cache()


def test_bound_plans_cached_per_executor(monkeypatch):
    block = parse_block("add %rax, %rbx")
    state = MachineState()
    state.initialize()
    ex = Executor(state, VirtualMemory())
    steps = plan.bound_plan(ex, block)
    assert plan.bound_plan(ex, block) is steps
    other = Executor(state, VirtualMemory())
    assert plan.bound_plan(other, block) is not steps

    monkeypatch.setattr(plan, "_MAX_BOUND", 2)
    plan.bound_plan(ex, parse_block("inc %rax"))
    plan.bound_plan(ex, parse_block("dec %rax"))  # overflow: clear
    assert block not in ex._plans


# ---------------------------------------------------------------------------
# Fault identity
# ---------------------------------------------------------------------------

def _fresh_executor():
    state = MachineState()
    state.initialize()
    return Executor(state, VirtualMemory())


def test_memory_fault_identical_without_mapping():
    block = parse_block("add %rax, %rbx\nmov (%r14), %rcx")
    faults = []
    for enabled in (True, False):
        with blockplan.forced(enabled):
            ex = _fresh_executor()
            with pytest.raises(MemoryFault) as excinfo:
                ex.execute_block(block, unroll=1)
            faults.append((excinfo.value.address,
                           excinfo.value.is_write))
    assert faults[0] == faults[1]


def test_arithmetic_fault_identical_through_fallback():
    block = parse_block("xor %edx, %edx\nxor %ecx, %ecx\ndiv %rcx")
    for enabled in (True, False):
        with blockplan.forced(enabled):
            ex = _fresh_executor()
            with pytest.raises(ArithmeticFault):
                ex.execute_block(block, unroll=1)


# ---------------------------------------------------------------------------
# Escape hatch
# ---------------------------------------------------------------------------

def test_env_var_disables_blockplan(monkeypatch):
    """Plans follow the one oracle switch, ``REPRO_NO_FASTPATH``, and
    ``blockplan.forced`` still isolates the plan tier under it."""
    monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
    assert not blockplan.enabled()
    with blockplan.forced(True):
        assert blockplan.enabled()
        assert not simcore.enabled()
    assert not blockplan.enabled()
    monkeypatch.setenv("REPRO_NO_FASTPATH", "0")
    assert blockplan.enabled()
    monkeypatch.delenv("REPRO_NO_FASTPATH")
    assert blockplan.enabled()


def test_forced_restores_previous_setting():
    assert blockplan.enabled()
    with blockplan.forced(False):
        assert not blockplan.enabled()
        with blockplan.forced(True):
            assert blockplan.enabled()
        assert not blockplan.enabled()
    assert blockplan.enabled()


# ---------------------------------------------------------------------------
# Page-translation fast path
# ---------------------------------------------------------------------------

ADDR = 0x40000


def test_fast_path_sees_fill_through_cached_page_object():
    with blockplan.forced(True):
        memory = VirtualMemory()
        frame = PhysicalPage()
        frame.fill(0x11111100)
        memory.map_page(page_of(ADDR), frame)
        assert memory.read_int(ADDR, 4) == 0x11111100
        assert memory._fast_vpage == page_of(ADDR)  # cache is seeded
        frame.fill(0x22222200)  # replaces frame.data wholesale
        assert memory.read_int(ADDR, 4) == 0x22222200
        memory.write_int(ADDR + 8, 4, 0xDEADBEEF)
        assert memory.read_bytes(ADDR + 8, 4) == \
            (0xDEADBEEF).to_bytes(4, "little")


def test_fast_path_invalidated_by_remap_and_unmap():
    with blockplan.forced(True):
        memory = VirtualMemory()
        a, b = PhysicalPage(), PhysicalPage()
        a.fill(0xAAAAAA00)
        b.fill(0xBBBBBB00)
        memory.map_page(page_of(ADDR), a)
        assert memory.read_int(ADDR, 4) == 0xAAAAAA00
        memory.map_page(page_of(ADDR), b)  # remap invalidates
        assert memory._fast_vpage == -1
        assert memory.read_int(ADDR, 4) == 0xBBBBBB00
        memory.unmap_all()
        assert memory._fast_vpage == -1
        with pytest.raises(MemoryFault):
            memory.read_int(ADDR, 4)


def test_fast_path_defers_on_page_spanning_access():
    with blockplan.forced(True):
        memory = VirtualMemory()
        a, b = PhysicalPage(), PhysicalPage()
        memory.map_page(page_of(ADDR), a)
        memory.map_page(page_of(ADDR) + 1, b)
        boundary = ADDR + PAGE_SIZE - 4
        memory.write_int(boundary, 8, 0x1122334455667788)
        assert memory.read_int(boundary, 8) == 0x1122334455667788
        assert a.data[-4:] == bytes.fromhex("88776655")
        assert b.data[:4] == bytes.fromhex("44332211")


def test_fast_path_not_seeded_when_disabled():
    with blockplan.forced(False):
        memory = VirtualMemory()
        frame = PhysicalPage()
        memory.map_page(page_of(ADDR), frame)
        memory.read_int(ADDR, 4)
        memory.write_int(ADDR, 4, 7)
        assert memory._fast_vpage == -1
        assert memory._fast_page is None
