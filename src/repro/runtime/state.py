"""Architectural state: register values, flags, MXCSR.

Values live in flat *slot arrays* — one plain list per register file
(``_g`` for the 16 GPRs, ``_v`` for the 16 ymm registers, ``_f`` for
the 6 flags), indexed by the slot numbers attached to every
:class:`repro.isa.registers.Register`.  The block-compilation layer
(:mod:`repro.runtime.plan`) binds those lists and indices directly
into its step closures; everything else keeps using the historical
API: :meth:`read`/:meth:`write` apply x86's merge/zero-extend rules
through any alias view, and the ``gpr``/``vec``/``flags`` attributes
remain dict-like *views* over the arrays (live: mutations through a
view hit the array, and vice versa).

The profiler re-initialises this state between the mapping run and the
measurement run so both runs compute the identical address trace —
the linchpin of the paper's page-mapping technique (Fig. 2).

Invariant the compiled plans rely on: the three slot lists are created
once per state and only ever mutated in place (``initialize``, the
view setters and :meth:`restore` all use slice/element assignment), so
a closure holding a list reference never goes stale.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.isa.registers import (FLAG_INDEX, FLAG_NAMES, GPR_BASES,
                                 GPR_INDEX, VEC_BASES, VEC_INDEX, Register)

_MASK64 = (1 << 64) - 1
_MASK256 = (1 << 256) - 1

#: The paper initialises registers and memory with this "moderately
#: sized" constant so indirect loads produce mappable pointers.
INIT_CONSTANT = 0x12345600

#: 1.0f splatted across the eight 32-bit lanes of a ymm register.
_VEC_SPLAT = 0
for _i in range(8):
    _VEC_SPLAT |= 0x3F800000 << (32 * _i)
del _i

#: Snapshot orderings, precomputed so :meth:`MachineState.snapshot`
#: reproduces the historical sorted-dict-items layout without building
#: (and sorting) a dict per call.
_GPR_SORTED: Tuple[Tuple[str, int], ...] = tuple(
    (name, GPR_INDEX[name]) for name in sorted(GPR_BASES))
_VEC_SORTED: Tuple[Tuple[str, int], ...] = tuple(
    (name, VEC_INDEX[name]) for name in sorted(VEC_BASES))
_FLAG_SORTED: Tuple[Tuple[str, int], ...] = tuple(
    (name, FLAG_INDEX[name]) for name in sorted(FLAG_NAMES))


class _SlotView:
    """Dict-like live view over one slot array.

    Keeps the historical ``state.gpr["rax"]`` / ``dict(state.flags)``
    API working on top of the flat arrays.  Deliberately minimal: the
    hot paths never touch it (they use the arrays directly).
    """

    __slots__ = ("_values", "_index", "_names")

    def __init__(self, values: List, index: Dict[str, int],
                 names: Tuple[str, ...]):
        self._values = values
        self._index = index
        self._names = names

    def __getitem__(self, name: str):
        return self._values[self._index[name]]

    def __setitem__(self, name: str, value) -> None:
        self._values[self._index[name]] = value

    def __contains__(self, name) -> bool:
        return name in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def keys(self) -> Tuple[str, ...]:
        return self._names

    def values(self) -> List:
        return list(self._values)

    def items(self) -> List[Tuple[str, object]]:
        values = self._values
        return [(name, values[i]) for name, i in self._index.items()]

    def get(self, name: str, default=None):
        i = self._index.get(name)
        return default if i is None else self._values[i]

    def update(self, other=(), **kwargs) -> None:
        if isinstance(other, Mapping) or hasattr(other, "items"):
            other = other.items()
        for name, value in other:
            self[name] = value
        for name, value in kwargs.items():
            self[name] = value

    def __eq__(self, other) -> bool:
        if isinstance(other, _SlotView):
            return self.items() == other.items()
        if isinstance(other, Mapping):
            return dict(self.items()) == dict(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return repr(dict(self.items()))


class MachineState:
    """Register file + flags + MXCSR of the simulated core."""

    __slots__ = ("_g", "_v", "_f", "ftz", "rip",
                 "_gpr_view", "_vec_view", "_flag_view")

    def __init__(self) -> None:
        #: Flat slot arrays — the single source of truth.  Never
        #: rebound (see module docstring); mutate in place only.
        self._g: List[int] = [0] * len(GPR_BASES)
        self._v: List[int] = [0] * len(VEC_BASES)
        self._f: List[bool] = [False] * len(FLAG_NAMES)
        #: MXCSR FTZ+DAZ ("disable gradual underflow" in the paper).
        self.ftz: bool = False
        self.rip: int = 0
        self._gpr_view = _SlotView(self._g, GPR_INDEX, GPR_BASES)
        self._vec_view = _SlotView(self._v, VEC_INDEX, VEC_BASES)
        self._flag_view = _SlotView(self._f, FLAG_INDEX, FLAG_NAMES)

    # -- dict-like compatibility views -------------------------------------

    @property
    def gpr(self) -> _SlotView:
        return self._gpr_view

    @gpr.setter
    def gpr(self, mapping: Mapping[str, int]) -> None:
        g = self._g
        for name, i in GPR_INDEX.items():
            g[i] = mapping[name]

    @property
    def vec(self) -> _SlotView:
        return self._vec_view

    @vec.setter
    def vec(self, mapping: Mapping[str, int]) -> None:
        v = self._v
        for name, i in VEC_INDEX.items():
            v[i] = mapping[name]

    @property
    def flags(self) -> _SlotView:
        return self._flag_view

    @flags.setter
    def flags(self, mapping: Mapping[str, bool]) -> None:
        f = self._f
        for name, i in FLAG_INDEX.items():
            f[i] = mapping[name]

    # -- initialisation ----------------------------------------------------

    def initialize(self, constant: int = INIT_CONSTANT,
                   ftz: Optional[bool] = None) -> None:
        """Reset to the profiler's canonical starting state.

        Every GPR gets the init constant (so any register used as a
        pointer points at a mappable page); vector registers get 1.0f
        splatted across 32-bit lanes — the paper specifies the
        "moderately sized" constant for pointers and memory, and a
        benign FP value keeps synthetic arithmetic chains from
        wandering into the subnormal range on their own (real
        application data stays near unity too).  Flags are cleared;
        ``ftz`` preserves the current MXCSR setting unless given.
        """
        self._g[:] = [constant & _MASK64] * len(GPR_BASES)
        self._v[:] = [_VEC_SPLAT] * len(VEC_BASES)
        self._f[:] = [False] * len(FLAG_NAMES)
        if ftz is not None:
            self.ftz = ftz
        self.rip = 0

    def copy(self) -> "MachineState":
        clone = MachineState()
        clone._g[:] = self._g
        clone._v[:] = self._v
        clone._f[:] = self._f
        clone.ftz = self.ftz
        clone.rip = self.rip
        return clone

    def snapshot(self) -> tuple:
        """Hashable snapshot for reproducibility checks.

        Same layout as the historical dict-based implementation
        (name-sorted item tuples), but produced straight from the
        arrays — no per-call dict rebuilds.
        """
        g, v, f = self._g, self._v, self._f
        return (tuple((name, g[i]) for name, i in _GPR_SORTED),
                tuple((name, v[i]) for name, i in _VEC_SORTED),
                tuple((name, f[i]) for name, i in _FLAG_SORTED),
                self.ftz)

    def signature(self) -> tuple:
        """Raw value tuple of the complete state (cheap, hashable).

        The fast-path's per-iteration boundary capture: three C-level
        list→tuple copies instead of dict item materialisation.  Two
        equal signatures imply identical architectural state.
        """
        return (tuple(self._g), tuple(self._v), tuple(self._f),
                self.ftz, self.rip)

    def restore(self, signature: tuple) -> None:
        """Inverse of :meth:`signature` (in-place, buffers reused)."""
        g, v, f, ftz, rip = signature
        self._g[:] = g
        self._v[:] = v
        self._f[:] = f
        self.ftz = ftz
        self.rip = rip

    # -- register access ---------------------------------------------------

    def read(self, reg: Register) -> int:
        """Read the unsigned value of any register view."""
        if reg.kind == "gpr":
            return (self._g[reg.slot] >> reg.bit_offset) \
                & ((1 << reg.width) - 1)
        if reg.kind == "vec":
            return self._v[reg.slot] & ((1 << reg.width) - 1)
        if reg.kind == "ip":
            return self.rip
        raise ValueError(f"cannot read {reg.name} as data")

    def write(self, reg: Register, value: int, *, vex: bool = False) -> None:
        """Write ``value`` through a register view.

        Applies x86 merge rules: 8/16-bit writes merge, 32-bit writes
        zero-extend to 64 bits, legacy xmm writes preserve the upper ymm
        lane while VEX (``vex=True``) writes zero it.
        """
        value &= (1 << reg.width) - 1
        if reg.kind == "gpr":
            if reg.width >= 32:
                # 64-bit write, or 32-bit implicit zero-extend.
                self._g[reg.slot] = value
            else:
                mask = reg.mask
                self._g[reg.slot] = (self._g[reg.slot] & ~mask & _MASK64) \
                    | (value << reg.bit_offset)
        elif reg.kind == "vec":
            if reg.width == 256 or vex:
                self._v[reg.slot] = value
            else:
                old = self._v[reg.slot]
                self._v[reg.slot] = \
                    (old & ~((1 << reg.width) - 1)) | value
        elif reg.kind == "ip":
            self.rip = value & _MASK64
        else:
            raise ValueError(f"cannot write {reg.name} as data")

    # -- flags ---------------------------------------------------------------

    def read_flag(self, name: str) -> bool:
        return self._f[FLAG_INDEX[name]]

    def set_flags(self, **values: bool) -> None:
        f = self._f
        for name, value in values.items():
            i = FLAG_INDEX.get(name)
            if i is None:
                raise KeyError(name)
            f[i] = bool(value)


def state_equal(a: MachineState, b: MachineState,
                registers: Optional[Iterable[str]] = None) -> bool:
    """Compare two states (optionally restricted to named GPRs)."""
    if registers is None:
        return a.snapshot() == b.snapshot()
    from repro.isa.registers import lookup
    return all(a.read(lookup(r)) == b.read(lookup(r)) for r in registers)
