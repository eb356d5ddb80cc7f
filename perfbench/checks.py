"""The benchmark's own rules: output check, percentiles, environment.

Pure functions with no ``repro`` import, so the harness can apply them
to what its child processes report and the tests can exercise them on
planted data.
"""

from __future__ import annotations

import json
import math
import zlib
from typing import Dict, List, Mapping, Optional, Sequence

#: A traced or timed child never inherits these from the caller; the
#: workload sets what it needs explicitly (see :func:`scrub_env`).
ENV_PREFIX = "REPRO_"

#: Fixed so Table V is reproducible: ``IthemalModel.fit`` seeds its RNG
#: with ``hash(uarch)``, which string-hash randomisation would change.
PINNED = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
          "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def scrub_env(base: Mapping[str, str], sets: Mapping[str, str]
              ) -> Dict[str, str]:
    """``base`` without any ``REPRO_*`` variable, plus ``sets`` and pins."""
    env = {k: v for k, v in base.items() if not k.startswith(ENV_PREFIX)}
    env.update(PINNED)
    env.update(sets)
    return env


def recorded_env(env: Mapping[str, str]) -> Dict[str, str]:
    """The part of a child environment worth printing with the result."""
    return {k: v for k, v in sorted(env.items())
            if k.startswith(ENV_PREFIX) or k in PINNED or k == "TMPDIR"}


# ---------------------------------------------------------------------------
# Output check
# ---------------------------------------------------------------------------

def throughput_crc(throughputs: Mapping[int, float], funnel: Mapping
                   ) -> int:
    """CRC-32 of the sorted measured throughputs plus the funnel."""
    doc = {"throughputs": [[int(k), repr(float(v))]
                           for k, v in sorted(throughputs.items())],
           "funnel": funnel}
    return zlib.crc32(json.dumps(doc, sort_keys=True).encode())


def uarch_fingerprint(throughputs: Mapping[int, float], funnel: Mapping,
                      table5: Mapping[str, Sequence[Optional[float]]]
                      ) -> Dict:
    """What the output check compares for one microarchitecture.

    ``table5`` maps each model to its (average error, weighted error,
    Kendall tau) row of Table V.
    """
    return {"crc": throughput_crc(throughputs, funnel),
            "table5": {m: list(row) for m, row in sorted(table5.items())}}


def compare(observed: Mapping[str, Dict], reference: Mapping[str, Dict]
            ) -> List[str]:
    """One line per mismatch between a run and the recorded reference.

    Equality is exact: the pipeline is deterministic under the pinned
    environment, so any difference is a correctness regression.
    """
    problems = []
    for uarch in sorted(set(observed) | set(reference)):
        seen, want = observed.get(uarch), reference.get(uarch)
        if seen is None or want is None:
            problems.append(f"{uarch}: missing from "
                            f"{'run' if seen is None else 'reference'}")
            continue
        if seen["crc"] != want["crc"]:
            problems.append(f"{uarch}: throughput/funnel crc "
                            f"{seen['crc']:08x} != {want['crc']:08x}")
        for model in sorted(set(seen["table5"]) | set(want["table5"])):
            if seen["table5"].get(model) != want["table5"].get(model):
                problems.append(
                    f"{uarch}: {model} Table V row "
                    f"{seen['table5'].get(model)} != "
                    f"{want['table5'].get(model)}")
    return problems


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

#: Samples that must lie beyond a reported tail percentile.
MIN_TAIL = 10


def tail_percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` percentile with ``MIN_TAIL`` samples beyond it.

    A p99 from fewer than ``MIN_TAIL / 0.01`` samples would rest on a
    handful of requests, so it is refused rather than reported.
    """
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))   # 1-based nearest rank
    if rank < 1 or len(ordered) - rank < MIN_TAIL:
        raise ValueError(
            f"p{q * 100:g} of {len(ordered)} samples has "
            f"{max(0, len(ordered) - rank)} beyond it; need {MIN_TAIL}")
    return ordered[rank - 1]
