"""Learned triage: skip full simulation for cache-confirmable blocks.

The NeuroScalar/CAPSim pattern (PAPERS.md): a cheap learned throughput
surrogate fronts the slow reference simulator.  Blocks whose surrogate
prediction agrees with their journaled cached measurement within a
configurable tolerance take a *cache-revalidation* path — the exact
cached bytes are replayed, no simulation runs; disagreeing, novel, or
quarantined blocks fall through to the full pipeline (blockplan →
simcore) unchanged.

Strictly opt-in (``--triage`` / ``$REPRO_TRIAGE``), with the same
differential guarantee discipline as the other performance layers:
triage-off runs are byte-identical to a build without this package,
and triage-on runs may differ only in the informational funnel and
telemetry — never in measured throughputs, measurements, or the
accepted/dropped funnel.
"""

from repro.triage import config
from repro.triage.stage import (absorb_results, prepare_triage,
                                publish_weights)

__all__ = ["config", "prepare_triage", "absorb_results",
           "publish_weights"]
