"""Simulation-core fast path.

Three layers, all provably byte-identical to full simulation (the
differential suite under ``tests/simcore`` holds them to it):

* **Steady-state extrapolation and pricing without the LRU** — the
  functional executor detects when an unrolled run's per-iteration
  state becomes periodic and replicates the remaining iterations'
  events instead of executing them (:mod:`repro.simcore.fastrun`); a
  trace whose L1D cannot evict is priced in one pass with no LRU
  (``uarch/machine.py``).  The scheduler simulates every iteration; a
  combined two-factor run reads the small factor's makespan at a
  checkpoint of the large one.
* **Decode/uop caching** — parsed instructions are interned
  (``isa/parser.py``), their hashes cached, and uop decomposition is
  resolved once per static slot per schedule call instead of once per
  dynamic instruction.
* **Corpus-level dedup** — blocks are content-addressed by canonical
  text and profiled once per (uarch, config); duplicates reuse the
  memoised result (``profiler/harness.py``).

Everything is guarded by one oracle switch
(:mod:`repro.simcore.config`): ``--no-fastpath`` on the CLI or
``REPRO_NO_FASTPATH=1`` in the environment runs the reference, full
simulation with no fast path and no compiled block plans.
"""

from repro.simcore.config import enabled, forced

__all__ = ["enabled", "forced"]
