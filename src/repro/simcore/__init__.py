"""Simulation-core fast path.

Three layers, all provably byte-identical to full simulation (the
differential suite under ``tests/simcore`` holds them to it):

* **Steady-state extrapolation** — the functional executor detects
  when an unrolled run's per-iteration state becomes periodic and
  replicates the remaining iterations' events instead of executing
  them (:mod:`repro.simcore.fastrun`); the L1D annotation pass stops
  once a periodic trace goes all-hit and replicates its tail
  (:mod:`repro.simcore.periodicity` plus the hooks in
  ``uarch/machine.py``).  The scheduler simulates every iteration; a
  combined two-factor run reads the small factor's makespan at a
  checkpoint of the large one.
* **Decode/uop caching** — parsed instructions are interned
  (``isa/parser.py``), their hashes cached, and uop decomposition is
  resolved once per static slot per schedule call instead of once per
  dynamic instruction.
* **Corpus-level dedup** — blocks are content-addressed by canonical
  text and profiled once per (uarch, config); duplicates reuse the
  memoised result (``profiler/harness.py``).

Everything is guarded by one switch (:mod:`repro.simcore.config`):
``--no-fastpath`` on the CLI or ``REPRO_NO_FASTPATH=1`` in the
environment falls back to full simulation everywhere.
"""

from repro.simcore.config import enabled, forced, set_enabled

__all__ = ["enabled", "forced", "set_enabled"]
