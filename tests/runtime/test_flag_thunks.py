"""Pre-bound flag thunks vs the interpreted flag setters.

The block-plan compiler replaces ``Executor._set_add_flags`` /
``_set_sub_flags`` / ``_set_logic_flags`` and ``evaluate_condition``
with pre-bound thunks writing straight into the flattened flag array.
These tests hold the thunks to bit-for-bit equivalence: exhaustively
at width 1 (every ``a``, ``b`` byte pair with both carry values, every
condition code against every flag combination) and on boundary values
at the wider widths.
"""

import pytest

from repro.runtime import plan
from repro.runtime.executor import Executor, evaluate_condition
from repro.runtime.memory import VirtualMemory
from repro.runtime.state import MachineState


def _executor() -> Executor:
    state = MachineState()
    state.initialize()
    return Executor(state, VirtualMemory())


def _boundary_values(width: int):
    """Corner cases for one operand width (plus over-range inputs)."""
    bits = width * 8
    top = 1 << bits
    half = top >> 1
    values = {0, 1, 2, 0xF, 0x10, 0x7F, 0x80, 0xFF,
              half - 1, half, half + 1, top - 2, top - 1,
              top, top + 1, top + half}  # over-range: masking parity
    return sorted(values)


# ---------------------------------------------------------------------------
# Arithmetic flag thunks
# ---------------------------------------------------------------------------

def _compare(ex: Executor, thunk, reference, a: int, b: int,
             carry: int, width: int) -> None:
    compiled_result = thunk(a, b, carry)
    compiled_flags = dict(ex.state.flags)
    interpreted_result = reference(a, b, carry, width)
    interpreted_flags = dict(ex.state.flags)
    assert compiled_result == interpreted_result, (a, b, carry, width)
    assert compiled_flags == interpreted_flags, (a, b, carry, width)


@pytest.mark.parametrize("kind", ["add", "sub"])
def test_arith_flags_exhaustive_width1(kind):
    ex = _executor()
    if kind == "add":
        thunk = plan._add_flags_binder(1)(ex)
        reference = ex._set_add_flags
    else:
        thunk = plan._sub_flags_binder(1)(ex)
        reference = ex._set_sub_flags
    for a in range(256):
        for b in range(256):
            for carry in (0, 1):
                _compare(ex, thunk, reference, a, b, carry, 1)


@pytest.mark.parametrize("kind", ["add", "sub"])
@pytest.mark.parametrize("width", [2, 4, 8])
def test_arith_flags_boundaries(kind, width):
    ex = _executor()
    if kind == "add":
        thunk = plan._add_flags_binder(width)(ex)
        reference = ex._set_add_flags
    else:
        thunk = plan._sub_flags_binder(width)(ex)
        reference = ex._set_sub_flags
    values = _boundary_values(width)
    for a in values:
        for b in values:
            for carry in (0, 1):
                _compare(ex, thunk, reference, a, b, carry, width)


def test_logic_flags_exhaustive_width1():
    ex = _executor()
    thunk = plan._logic_flags_binder(1)(ex)
    for result in range(512):  # over-range half checks the masking
        compiled = thunk(result)
        compiled_flags = dict(ex.state.flags)
        ex._set_logic_flags(result, 1)
        interpreted_flags = dict(ex.state.flags)
        assert compiled == result & 0xFF
        assert compiled_flags == interpreted_flags, result


@pytest.mark.parametrize("width", [2, 4, 8])
def test_logic_flags_boundaries(width):
    ex = _executor()
    thunk = plan._logic_flags_binder(width)(ex)
    for result in _boundary_values(width):
        compiled = thunk(result)
        compiled_flags = dict(ex.state.flags)
        ex._set_logic_flags(result, width)
        interpreted_flags = dict(ex.state.flags)
        assert compiled == result & ((1 << (width * 8)) - 1)
        assert compiled_flags == interpreted_flags, result


# ---------------------------------------------------------------------------
# Condition codes
# ---------------------------------------------------------------------------

def test_cc_tables_cover_the_same_codes():
    interpreted = {"e", "z", "ne", "nz", "l", "ge", "le", "g", "b",
                   "c", "ae", "nc", "be", "a", "s", "ns", "o", "no",
                   "p", "np"}
    assert set(plan._CC_COMPILED) == interpreted
    for cc in interpreted:  # every code actually evaluates
        assert evaluate_condition(cc, {"cf": False, "zf": False,
                                       "sf": False, "of": False,
                                       "pf": False}) in (True, False)


@pytest.mark.parametrize("cc", sorted(plan._CC_COMPILED))
def test_condition_codes_exhaustive(cc):
    """All 2^5 flag combinations for every condition code."""
    compiled = plan._CC_COMPILED[cc]
    for bits in range(32):
        cf, pf, zf, sf, of = (bool(bits & 1), bool(bits & 2),
                              bool(bits & 4), bool(bits & 8),
                              bool(bits & 16))
        flags = {"cf": cf, "pf": pf, "af": False, "zf": zf,
                 "sf": sf, "of": of}
        f = [cf, pf, False, zf, sf, of]
        assert bool(compiled(f)) == evaluate_condition(cc, flags), \
            (cc, flags)


@pytest.mark.parametrize("cc", sorted(plan._CC_COMPILED))
def test_condition_codes_nonbool_flags(cc):
    """Raw ints poked through the flag views keep their truthiness."""
    for raw in (0, 1, 2):
        flags = {"cf": raw, "pf": raw, "af": 0, "zf": raw,
                 "sf": raw, "of": raw}
        f = [raw, raw, 0, raw, raw, raw]
        assert bool(plan._CC_COMPILED[cc](f)) \
            == bool(evaluate_condition(cc, flags)), (cc, raw)

