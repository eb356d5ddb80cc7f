"""Accuracy metrics (§V).

The paper scores predictors by *relative error* — absolute error of
the predicted throughput normalised by the measured throughput — plus,
for the production case study, frequency-weighted error and Kendall's
tau-b (the rank correlation between predicted and measured
throughputs, corrected for ties).
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from collections import Counter
from itertools import repeat
from typing import Hashable, Iterable, List, Optional, Sequence, Tuple

#: Length of the runs :func:`_strict_inversions` sorts by insertion
#: before it starts merging.
_LEAF_RUN = 32


def relative_error(predicted: float, measured: float) -> float:
    """|predicted - measured| / measured (the paper's error metric)."""
    if measured <= 0:
        raise ValueError("measured throughput must be positive")
    return abs(predicted - measured) / measured


def average_error(pairs: Iterable[Tuple[float, float]]) -> Optional[float]:
    """Unweighted mean relative error over (predicted, measured)."""
    errors = [relative_error(p, m) for p, m in pairs]
    if not errors:
        return None
    return sum(errors) / len(errors)


def weighted_error(triples: Iterable[Tuple[float, float, float]]
                   ) -> Optional[float]:
    """Frequency-weighted mean relative error.

    ``triples`` are (predicted, measured, weight); the paper weights a
    block's error by its runtime execution frequency.
    """
    total = 0.0
    weight_sum = 0.0
    for predicted, measured, weight in triples:
        total += relative_error(predicted, measured) * weight
        weight_sum += weight
    if weight_sum == 0:
        return None
    return total / weight_sum


def _tied_pairs(values: Iterable[Hashable]) -> int:
    """Number of unordered pairs of equal values."""
    return sum(c * (c - 1) for c in Counter(values).values()) // 2


def _strict_inversions(values: Sequence[float]) -> int:
    """Pairs ``i < j`` with ``values[i] > values[j]``, in O(n log n).

    A bottom-up merge sort: short leaf runs are sorted by insertion,
    then neighbouring runs merge pass by pass.  A merge counts, for
    every element ``r`` of the right run, the left-run elements
    greater than ``r``; ties are never inversions.
    """
    inversions = 0
    runs: List[List[float]] = []
    for start in range(0, len(values), _LEAF_RUN):
        run: List[float] = []
        for i, value in enumerate(values[start:start + _LEAF_RUN]):
            inversions += i - bisect_right(run, value)
            insort(run, value)
        runs.append(run)
    while len(runs) > 1:
        merged = []
        for k in range(1, len(runs), 2):
            left, right = runs[k - 1], runs[k]
            inversions += len(left) * len(right) - sum(
                map(bisect_right, repeat(left), right))
            merged.append(sorted(left + right))
        if len(runs) % 2:
            merged.append(runs[-1])
        runs = merged
    return inversions


def kendall_tau(predicted: Sequence[float],
                measured: Sequence[float]) -> Optional[float]:
    """Kendall's tau-b between predicted and measured throughputs.

    tau-b is (concordant - discordant pairs) divided by the geometric
    mean of the pairs untied in each input: 1 when a model ranks every
    pair of blocks as measured, -1 when it reverses every pair.  The
    paper reports it because a model that ranks blocks correctly is
    useful to an optimising compiler even when its absolute scale is
    off.

    Exact and O(n log n): the tie and discordance counts are integers,
    and the final expression and clipping are those of
    ``scipy.stats.kendalltau``, so the result is bit-identical to it
    (the tests hold it to that).  ``None`` below two pairs; NaN when
    either input is all tied or holds a NaN.
    """
    if len(predicted) != len(measured):
        raise ValueError("length mismatch")
    n = len(predicted)
    if n < 2:
        return None
    xs = [float(v) for v in predicted]
    ys = [float(v) for v in measured]
    if any(map(math.isnan, xs)) or any(map(math.isnan, ys)):
        return math.nan
    tot = n * (n - 1) // 2
    xtie = _tied_pairs(xs)
    ytie = _tied_pairs(ys)
    if xtie == tot or ytie == tot:
        return math.nan
    pairs = list(zip(xs, ys))
    ntie = _tied_pairs(pairs)
    # Sorted by (x, y), a discordant pair is a strict inversion of y.
    pairs.sort()
    dis = _strict_inversions([y for _, y in pairs])
    con_minus_dis = tot - xtie - ytie + ntie - 2 * dis
    tau = con_minus_dis / math.sqrt(tot - xtie) / math.sqrt(tot - ytie)
    return min(1.0, max(-1.0, tau))
