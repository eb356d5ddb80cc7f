"""Set-associative LRU cache model.

Used twice per measurement: for the L1 data cache (driven by the
functional trace's *physical* addresses — which is why mapping every
virtual page to one physical page guarantees hits on the VIPT L1) and
for the L1 instruction cache (driven by the unrolled code footprint —
the effect that breaks naive unrolling for large blocks).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List

from repro.runtime.memory import PAGE_SIZE
from repro.uarch.descriptor import CacheGeometry


def never_evicts(geometry: CacheGeometry, frames: int) -> bool:
    """Can no set of ``geometry`` overflow while the accesses stay
    inside ``frames`` distinct 4 KiB physical frames?

    One frame spans ``PAGE_SIZE / line_size`` consecutive line
    numbers, and consecutive lines fall into consecutive sets, so a
    frame puts at most ``ceil(PAGE_SIZE / (sets * line_size))`` lines
    into any one set (1 for a 32 KiB, 64 B, 8-way L1D, whose set index
    is made of page-offset bits).  When ``frames`` times that is at
    most ``ways``, every set holds all the lines it is ever asked for
    and LRU never evicts.
    """
    per_frame = -(-PAGE_SIZE // (geometry.sets * geometry.line_size))
    return frames * per_frame <= geometry.ways


class CacheModel:
    """LRU set-associative cache over line addresses."""

    def __init__(self, geometry: CacheGeometry):
        self.geometry = geometry
        self._shift = geometry.line_size.bit_length() - 1
        self._sets: List[OrderedDict] = [OrderedDict()
                                         for _ in range(geometry.sets)]
        self._nsets = geometry.sets
        self._ways = geometry.ways
        self.hits = 0
        self.misses = 0

    def reset(self) -> None:
        for s in self._sets:
            s.clear()
        self.reset_counters()

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0

    def line_of(self, address: int) -> int:
        return address >> self._shift

    def access(self, address: int) -> bool:
        """Touch one line; returns True on hit."""
        line = address >> self._shift
        lines = self._sets[line % self._nsets]
        if line in lines:
            lines.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        lines[line] = True
        if len(lines) > self._ways:
            lines.popitem(last=False)
        return False

    def access_range(self, address: int, width: int) -> int:
        """Touch every line spanned by [address, address+width).

        Returns the number of misses incurred.
        """
        shift = self._shift
        first = address >> shift
        last = (address + width - 1) >> shift if width > 1 else first
        if last == first:  # within one line: the common case
            return 0 if self.access(address) else 1
        misses = 0
        for line in range(first, last + 1):
            if not self.access(line << shift):
                misses += 1
        return misses
